//! Abstract syntax of the SODA input language.
//!
//! The language (§4.3) is deliberately simple: keyword groups optionally
//! refined with comparison operators, `date(YYYY-MM-DD)` values, aggregation
//! operators (`sum`, `count`, …), `group by (…)` and `top N`.  The grammar is
//! flat — the parser produces a *sequence of terms* in input order; the lookup
//! step later decides what the keyword groups mean, and comparison operators
//! attach to the keyword group immediately before them.

use soda_relation::{AggFunc, CompareOp, Date};

/// A literal value in the input query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryValue {
    /// A number (`100000`).
    Number(f64),
    /// A `date(YYYY-MM-DD)` value.
    Date(Date),
    /// Free text (used with `=` or `like`).
    Text(String),
}

impl QueryValue {
    /// Converts to a relational [`soda_relation::Value`].
    pub(crate) fn to_value(&self) -> soda_relation::Value {
        match self {
            QueryValue::Number(n) => {
                if n.fract() == 0.0 {
                    soda_relation::Value::Int(*n as i64)
                } else {
                    soda_relation::Value::Float(*n)
                }
            }
            QueryValue::Date(d) => soda_relation::Value::Date(*d),
            QueryValue::Text(s) => soda_relation::Value::from(s.as_str()),
        }
    }
}

/// One term of the parsed query, in input order.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryTerm {
    /// A group of search keywords (still unsegmented — the lookup step applies
    /// longest-word-combination matching).
    Keywords(String),
    /// A comparison operator applied to the keyword group before it.
    Comparison {
        /// The operator.
        op: CompareOp,
        /// The right-hand value.
        value: QueryValue,
    },
    /// A `like` pattern applied to the keyword group before it.
    Like(String),
    /// A `between v1 v2` range applied to the keyword group before it.
    Between {
        /// Lower bound (inclusive).
        low: QueryValue,
        /// Upper bound (inclusive).
        high: QueryValue,
    },
    /// An aggregation operator with its attribute, e.g. `sum (amount)`.
    Aggregation {
        /// The aggregate function.
        func: AggFunc,
        /// The aggregated attribute (may be empty for `count()`).
        attribute: String,
    },
    /// A `group by (a, b, …)` clause.
    GroupBy(Vec<String>),
    /// A `top N` prefix.
    TopN(usize),
    /// A `valid at date(YYYY-MM-DD)` temporal operator (extension): restrict
    /// annotated history tables to rows whose validity interval contains the
    /// given date.  Ignored on metadata graphs without historization
    /// annotations.
    ValidAt(QueryValue),
}

/// A parsed SODA query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SodaQuery {
    /// Terms in input order.
    pub terms: Vec<QueryTerm>,
    /// The original input text.
    pub input: String,
}

impl SodaQuery {
    /// All aggregations.
    pub fn aggregations(&self) -> Vec<(AggFunc, &str)> {
        self.terms
            .iter()
            .filter_map(|t| match t {
                QueryTerm::Aggregation { func, attribute } => Some((*func, attribute.as_str())),
                _ => None,
            })
            .collect()
    }

    /// The group-by attributes, if any.
    pub fn group_by(&self) -> Vec<&str> {
        self.terms
            .iter()
            .filter_map(|t| match t {
                QueryTerm::GroupBy(attrs) => Some(attrs.iter().map(|s| s.as_str())),
                _ => None,
            })
            .flatten()
            .collect()
    }

    /// The `top N` limit, if any.
    pub fn top_n(&self) -> Option<usize> {
        self.terms.iter().find_map(|t| match t {
            QueryTerm::TopN(n) => Some(*n),
            _ => None,
        })
    }

    /// True if the query asks for any aggregation or grouping.
    pub fn is_aggregate(&self) -> bool {
        !self.aggregations().is_empty() || !self.group_by().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SodaQuery {
        /// All keyword groups, in order.
        pub(crate) fn keyword_groups(&self) -> Vec<&str> {
            self.terms
                .iter()
                .filter_map(|t| match t {
                    QueryTerm::Keywords(k) => Some(k.as_str()),
                    _ => None,
                })
                .collect()
        }

        /// The `valid at` date, if any.
        pub(crate) fn valid_at(&self) -> Option<&QueryValue> {
            self.terms.iter().find_map(|t| match t {
                QueryTerm::ValidAt(v) => Some(v),
                _ => None,
            })
        }
    }

    #[test]
    fn accessors_extract_the_right_terms() {
        let q = SodaQuery {
            terms: vec![
                QueryTerm::TopN(10),
                QueryTerm::Aggregation {
                    func: AggFunc::Sum,
                    attribute: "amount".into(),
                },
                QueryTerm::Keywords("customer".into()),
                QueryTerm::GroupBy(vec!["currency".into()]),
            ],
            input: String::new(),
        };
        assert_eq!(q.keyword_groups(), vec!["customer"]);
        assert_eq!(q.aggregations().len(), 1);
        assert_eq!(q.group_by(), vec!["currency"]);
        assert_eq!(q.top_n(), Some(10));
        assert!(q.is_aggregate());
    }

    #[test]
    fn query_value_conversion() {
        assert_eq!(
            QueryValue::Number(10.0).to_value(),
            soda_relation::Value::Int(10)
        );
        assert_eq!(
            QueryValue::Number(10.5).to_value(),
            soda_relation::Value::Float(10.5)
        );
        assert_eq!(
            QueryValue::Text("Sara".into()).to_value(),
            soda_relation::Value::Text("Sara".into())
        );
        let d = Date::new(2011, 9, 1);
        assert_eq!(
            QueryValue::Date(d).to_value(),
            soda_relation::Value::Date(d)
        );
    }

    #[test]
    fn non_aggregate_query() {
        let q = SodaQuery {
            terms: vec![QueryTerm::Keywords("Sara Guttinger".into())],
            input: "Sara Guttinger".into(),
        };
        assert!(!q.is_aggregate());
        assert_eq!(q.top_n(), None);
        assert!(q.group_by().is_empty());
    }
}
