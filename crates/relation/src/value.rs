//! Typed values and data types.
//!
//! The engine supports the types the paper's queries need: integers, floats
//! (amounts, salaries), text, dates (trade/order/birth dates, bi-temporal
//! validity dates) and booleans.  `Value` has one equality and one order,
//! [`Value::total_cmp`]: NULL first, then booleans, numbers, dates and
//! texts.  Numbers compare by their exact value whether `Int` or `Float` —
//! no integer is rounded to a float — so `-0.0` equals `0.0` and `Int(0)`,
//! every NaN equals every other and sorts after `+inf`.  `==`, `Hash` and
//! the order agree, so values can be group-by, DISTINCT and join keys and
//! the codes of a column index (`crate::ColumnIndex`).

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
    pub(crate) fn conforms_to(&self, ty: DataType) -> bool {
        match (self, ty) {
            (Value::Null, _) => true,
            (Value::Int(_), DataType::Float) => true,
            (v, t) => v.data_type() == Some(t),
        }
    }

    /// True for a NaN `Float`, the one number no comparison orders.
    pub fn is_nan(&self) -> bool {
        matches!(self, Value::Float(f) if f.is_nan())
    }

    /// SQL comparison, used by the executor's predicates: [`total_cmp`]
    /// within one type rank — numbers compare numerically, text and dates
    /// naturally — except that NULL and NaN compare as unknown (`None`), as
    /// do mismatched types, but for a text in date format against a date.
    ///
    /// [`total_cmp`]: Self::total_cmp
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            // A date compared with a text literal in date format works, which
            // keeps hand-written gold SQL concise.
            (Value::Date(a), Value::Text(b)) => Date::parse(b).map(|d| a.cmp(&d)),
            (Value::Text(a), Value::Date(b)) => Date::parse(a).map(|d| d.cmp(b)),
            (a, b) if rank(a) == rank(b) && !a.is_nan() && !b.is_nan() => Some(a.total_cmp(b)),
            _ => None,
        }
    }

    /// The one total order of values: NULL, then booleans, numbers, dates
    /// and texts (the type rank), each in its natural order.  `Int` and
    /// `Float` share a rank and compare exactly; NaN is the greatest number.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a
                .partial_cmp(b)
                .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan())),
            (Value::Int(a), Value::Float(b)) => int_cmp_float(*a, *b),
            (Value::Float(a), Value::Int(b)) => int_cmp_float(*b, *a).reverse(),
            (Value::Date(a), Value::Date(b)) => a.cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

/// A value's type rank in [`Value::total_cmp`].
fn rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) => 2,
        Value::Date(_) => 3,
        Value::Text(_) => 4,
    }
}

/// `i` against `f` exactly: `f`'s integer part against `i`, then its
/// fraction against nothing.  A NaN is greater than every integer.
fn int_cmp_float(i: i64, f: f64) -> Ordering {
    // 2^63: every `f64` below it in magnitude truncates into an `i64`.
    const BOUND: f64 = 9_223_372_036_854_775_808.0;
    if f.is_nan() || f >= BOUND {
        return Ordering::Less;
    }
    if f < -BOUND {
        return Ordering::Greater;
    }
    let whole = f.trunc();
    i.cmp(&(whole as i64))
        .then_with(|| whole.partial_cmp(&f).expect("neither is NaN"))
}

/// Equal exactly when [`Value::total_cmp`] says so.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other).is_eq()
    }
}

impl Eq for Value {}

/// [`Value::total_cmp`].
impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

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
                // Equal numbers hash alike: an `Int` hashes as the float it
                // rounds to, which a `Float` equal to it is; every zero and
                // every NaN hash as one.
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
    fn there_is_one_zero_and_one_nan() {
        let zeros = [Value::Int(0), Value::Float(0.0), Value::Float(-0.0)];
        for a in &zeros {
            for b in &zeros {
                assert_eq!(a, b);
                assert_eq!(hash_of(a), hash_of(b));
            }
        }
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan, Value::Float(-f64::NAN));
        assert_eq!(
            nan.total_cmp(&Value::Float(f64::INFINITY)),
            Ordering::Greater
        );
        assert_eq!(nan.total_cmp(&Value::Int(i64::MAX)), Ordering::Greater);
        assert_eq!(nan.sql_cmp(&nan), None);
        assert_eq!(Value::Int(1).sql_cmp(&nan), None);
    }

    #[test]
    fn integers_compare_with_floats_exactly() {
        let big = 1i64 << 53;
        let two_53 = Value::Float(big as f64);
        assert_eq!(Value::Int(big), two_53);
        assert_ne!(Value::Int(big + 1), two_53);
        assert_eq!(Value::Int(big + 1).total_cmp(&two_53), Ordering::Greater);
        assert_eq!(Value::Int(big - 1).total_cmp(&two_53), Ordering::Less);
        assert_eq!(
            Value::Int(big + 1).sql_cmp(&two_53),
            Some(Ordering::Greater)
        );
        let cases = [
            (i64::MAX, 9_223_372_036_854_775_808.0, Ordering::Less),
            (i64::MIN, -9_223_372_036_854_775_808.0, Ordering::Equal),
            (i64::MIN, f64::NEG_INFINITY, Ordering::Greater),
            (i64::MAX, f64::INFINITY, Ordering::Less),
            (-3, -2.5, Ordering::Less),
            (-2, -2.5, Ordering::Greater),
            (2, 2.5, Ordering::Less),
            (3, 2.5, Ordering::Greater),
        ];
        for (i, f, ord) in cases {
            assert_eq!(Value::Int(i).total_cmp(&Value::Float(f)), ord, "{i} vs {f}");
            assert_eq!(Value::Float(f).total_cmp(&Value::Int(i)), ord.reverse());
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
