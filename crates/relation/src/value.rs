//! Typed values and data types.
//!
//! The engine supports the types the paper's queries need: integers, floats
//! (amounts, salaries), text, dates (trade/order/birth dates, bi-temporal
//! validity dates) and booleans.  `Value` implements a *total* ordering and
//! hashing (floats compare through their bit pattern and hash after
//! normalising NaN and `-0.0`) so that values can be used as group-by and
//! join keys.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Data type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 text.
    Text,
    /// Calendar date.
    Date,
    /// Boolean.
    Bool,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
            DataType::Date => "DATE",
            DataType::Bool => "BOOL",
        };
        f.write_str(s)
    }
}

/// A calendar date (year, month, day) with no time-zone concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    /// Year, e.g. 2011.
    pub year: i32,
    /// Month 1–12.
    pub month: u8,
    /// Day 1–31.
    pub day: u8,
}

impl Date {
    /// Creates a date; clamps month/day into valid ranges rather than
    /// panicking (synthetic data generators never produce invalid dates, but
    /// user input may).
    pub fn new(year: i32, month: u8, day: u8) -> Self {
        Self {
            year,
            month: month.clamp(1, 12),
            day: day.clamp(1, 31),
        }
    }

    /// Parses `YYYY-MM-DD`.
    pub fn parse(s: &str) -> Option<Self> {
        let mut parts = s.split('-');
        let year: i32 = parts.next()?.parse().ok()?;
        let month: u8 = parts.next()?.parse().ok()?;
        let day: u8 = parts.next()?.parse().ok()?;
        if parts.next().is_some() || !(1..=12).contains(&month) || !(1..=31).contains(&day) {
            return None;
        }
        Some(Self { year, month, day })
    }

    /// Days since year 0 (approximate; only used for ordering and arithmetic
    /// on synthetic data).
    pub fn ordinal(&self) -> i64 {
        self.year as i64 * 372 + (self.month as i64 - 1) * 31 + (self.day as i64 - 1)
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// A dynamically typed value.
///
/// Text is shared: cloning a cell is a reference-count bump, so rows copied
/// into a result set or a feed share their strings with the table.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// Text.
    Text(Arc<str>),
    /// Date.
    Date(Date),
}

const _: () = assert!(std::mem::size_of::<Value>() == 24);

impl Value {
    /// The data type of this value, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    /// True if the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view (ints are widened to float); `None` for non-numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Text view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// True if the value is compatible with the given column type (NULL is
    /// compatible with every type; ints are accepted where floats are
    /// expected).
    pub fn conforms_to(&self, ty: DataType) -> bool {
        match (self, ty) {
            (Value::Null, _) => true,
            (Value::Int(_), DataType::Float) => true,
            (v, t) => v.data_type() == Some(t),
        }
    }

    /// SQL-ish comparison used by the executor: NULL compares as unknown
    /// (returns `None`), numeric types compare numerically, text and dates
    /// compare naturally, and mismatched types do not compare.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).partial_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)),
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (Value::Date(a), Value::Date(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            // A date compared with a text literal in date format works, which
            // keeps hand-written gold SQL concise.
            (Value::Date(a), Value::Text(b)) => Date::parse(b).map(|d| a.cmp(&d)),
            (Value::Text(a), Value::Date(b)) => Date::parse(a).map(|d| d.cmp(b)),
            _ => None,
        }
    }

    /// Total ordering used for sorting output rows (NULLs sort first, then by
    /// type, then by value).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) => 2,
                Value::Float(_) => 2,
                Value::Date(_) => 3,
                Value::Text(_) => 4,
            }
        }
        if let Some(ord) = self.sql_cmp(other) {
            return ord;
        }
        match rank(self).cmp(&rank(other)) {
            Ordering::Equal => format!("{self}").cmp(&format!("{other}")),
            other_ord => other_ord,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => *b == *a as f64,
            (Value::Text(a), Value::Text(b)) => a == b,
            (Value::Date(a), Value::Date(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                // `Int(0)` equals both zeros, so they must hash alike.
                let f = if f.is_nan() {
                    f64::NAN
                } else if *f == 0.0 {
                    0.0
                } else {
                    *f
                };
                f.to_bits().hash(state);
            }
            Value::Text(s) => {
                4u8.hash(state);
                s.hash(state);
            }
            Value::Date(d) => {
                5u8.hash(state);
                d.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "{d}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.into())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v.into())
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<Date> for Value {
    fn from(v: Date) -> Self {
        Value::Date(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn date_parse_and_display_round_trip() {
        let d = Date::parse("2011-09-01").unwrap();
        assert_eq!(d, Date::new(2011, 9, 1));
        assert_eq!(d.to_string(), "2011-09-01");
        assert!(Date::parse("2011-13-01").is_none());
        assert!(Date::parse("2011-09").is_none());
        assert!(Date::parse("garbage").is_none());
    }

    #[test]
    fn date_ordering_follows_the_calendar() {
        assert!(Date::new(2010, 1, 1) < Date::new(2010, 1, 2));
        assert!(Date::new(2010, 12, 31) < Date::new(2011, 1, 1));
        assert!(Date::new(1980, 1, 1).ordinal() < Date::new(1990, 1, 1).ordinal());
    }

    #[test]
    fn sql_cmp_numeric_cross_type() {
        assert_eq!(
            Value::Int(3).sql_cmp(&Value::Float(3.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Float(2.5).sql_cmp(&Value::Int(3)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Text("a".into())), None);
    }

    #[test]
    fn date_text_comparison_for_gold_sql() {
        let d = Value::Date(Date::new(2011, 9, 2));
        assert_eq!(
            d.sql_cmp(&Value::Text("2011-09-01".into())),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn eq_and_hash_agree_for_int_float() {
        let a = Value::Int(5);
        let b = Value::Float(5.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn eq_and_hash_agree_for_int_zero_and_both_float_zeros() {
        for zero in [Value::Float(0.0), Value::Float(-0.0)] {
            assert_eq!(Value::Int(0), zero);
            assert_eq!(hash_of(&Value::Int(0)), hash_of(&zero));
        }
    }

    #[test]
    fn conformance_rules() {
        assert!(Value::Null.conforms_to(DataType::Int));
        assert!(Value::Int(1).conforms_to(DataType::Float));
        assert!(!Value::Float(1.0).conforms_to(DataType::Int));
        assert!(Value::Text("x".into()).conforms_to(DataType::Text));
        assert!(!Value::Text("x".into()).conforms_to(DataType::Date));
    }

    #[test]
    fn total_cmp_is_stable_across_types() {
        let mut vals = [
            Value::Text("b".into()),
            Value::Int(2),
            Value::Null,
            Value::Date(Date::new(2020, 1, 1)),
            Value::Int(1),
        ];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Int(1));
        assert_eq!(vals[2], Value::Int(2));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::from("Zurich").to_string(), "Zurich");
        assert_eq!(Value::from(3.5).to_string(), "3.5");
    }
}
