//! Scalar and aggregate expressions used in SQL statements.

use std::fmt;
use std::sync::Arc;

use crate::value::Value;

/// Comparison operators supported by the engine (and by SODA's input
/// language: `>`, `>=`, `=`, `<=`, `<`, `like`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
}

impl CompareOp {
    /// SQL spelling of the operator.
    pub fn as_sql(self) -> &'static str {
        match self {
            CompareOp::Eq => "=",
            CompareOp::NotEq => "<>",
            CompareOp::Lt => "<",
            CompareOp::LtEq => "<=",
            CompareOp::Gt => ">",
            CompareOp::GtEq => ">=",
        }
    }

    /// Parses an operator from its textual form.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "=" | "==" => Some(CompareOp::Eq),
            "<>" | "!=" => Some(CompareOp::NotEq),
            "<" => Some(CompareOp::Lt),
            "<=" => Some(CompareOp::LtEq),
            ">" => Some(CompareOp::Gt),
            ">=" => Some(CompareOp::GtEq),
            _ => None,
        }
    }
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_sql())
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `count(*)` or `count(col)`
    Count,
    /// `sum(col)`
    Sum,
    /// `avg(col)`
    Avg,
    /// `min(col)`
    Min,
    /// `max(col)`
    Max,
}

impl AggFunc {
    /// SQL spelling of the function name.
    pub fn as_sql(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }

    /// Parses a function name (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        [Self::Count, Self::Sum, Self::Avg, Self::Min, Self::Max]
            .into_iter()
            .find(|func| s.eq_ignore_ascii_case(func.as_sql()))
    }
}

/// A scalar (or aggregate) expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A column reference, optionally qualified with a table name or alias.
    /// The names are shared: a generated statement holds the spellings its
    /// join catalog interned, so copying it copies no text.
    Column {
        /// Table qualifier (`parties.id`), if present.
        table: Option<Arc<str>>,
        /// Column name.
        column: Arc<str>,
    },
    /// A literal value.
    Literal(Value),
    /// A binary comparison.
    Compare {
        /// Comparison operator.
        op: CompareOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// SQL `LIKE` with `%` wildcards (case-insensitive, as in the paper's
    /// keyword filters).
    Like {
        /// Expression producing the text to test.
        expr: Box<Expr>,
        /// Pattern with `%` wildcards.
        pattern: String,
    },
    /// Logical conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// `IS NULL` test.
    IsNull(Box<Expr>),
    /// An aggregate function call; `None` argument means `count(*)`.
    Aggregate {
        /// The aggregate function.
        func: AggFunc,
        /// The aggregated expression, or `None` for `count(*)`.
        arg: Option<Box<Expr>>,
    },
    /// `*` in a projection list.
    Star,
}

impl Expr {
    /// Convenience constructor for an unqualified column reference.
    pub fn column(name: impl Into<Arc<str>>) -> Self {
        Expr::Column {
            table: None,
            column: name.into(),
        }
    }

    /// Convenience constructor for a qualified column reference.
    pub fn qualified(table: impl Into<Arc<str>>, name: impl Into<Arc<str>>) -> Self {
        Expr::Column {
            table: Some(table.into()),
            column: name.into(),
        }
    }

    /// Convenience constructor for a literal.
    pub fn literal(v: impl Into<Value>) -> Self {
        Expr::Literal(v.into())
    }

    /// Convenience constructor for a comparison.
    pub fn compare(op: CompareOp, left: Expr, right: Expr) -> Self {
        Expr::Compare {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Conjunction of an iterator of expressions; `None` when empty.
    pub fn and_all<I: IntoIterator<Item = Expr>>(exprs: I) -> Option<Expr> {
        exprs
            .into_iter()
            .reduce(|a, b| Expr::And(Box::new(a), Box::new(b)))
    }

    /// Splits a conjunctive expression into its conjuncts.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        match self {
            Expr::And(a, b) => {
                let mut out = a.conjuncts();
                out.extend(b.conjuncts());
                out
            }
            other => vec![other],
        }
    }

    /// True if the expression (recursively) contains an aggregate call.
    pub(crate) fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Aggregate { .. } => true,
            Expr::Compare { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            Expr::And(a, b) | Expr::Or(a, b) => a.contains_aggregate() || b.contains_aggregate(),
            Expr::Not(e) | Expr::IsNull(e) => e.contains_aggregate(),
            Expr::Like { expr, .. } => expr.contains_aggregate(),
            _ => false,
        }
    }

    /// All column references mentioned in the expression, as
    /// `(qualifier, column)`.
    pub fn columns(&self) -> Vec<(Option<&str>, &str)> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<(Option<&'a str>, &'a str)>) {
        match self {
            Expr::Column { table, column } => out.push((table.as_deref(), column)),
            Expr::Compare { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Expr::Not(e) | Expr::IsNull(e) => e.collect_columns(out),
            Expr::Like { expr, .. } => expr.collect_columns(out),
            Expr::Aggregate { arg: Some(a), .. } => a.collect_columns(out),
            _ => {}
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::sql::printer::write_expr(f, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_op_round_trip() {
        for op in [
            CompareOp::Eq,
            CompareOp::NotEq,
            CompareOp::Lt,
            CompareOp::LtEq,
            CompareOp::Gt,
            CompareOp::GtEq,
        ] {
            assert_eq!(CompareOp::parse(op.as_sql()), Some(op));
        }
        assert_eq!(CompareOp::parse("like"), None);
    }

    #[test]
    fn agg_func_parse_is_case_insensitive() {
        assert_eq!(AggFunc::parse("SUM"), Some(AggFunc::Sum));
        assert_eq!(AggFunc::parse("Count"), Some(AggFunc::Count));
        assert_eq!(AggFunc::parse("median"), None);
    }

    #[test]
    fn conjuncts_flatten_nested_ands() {
        let e = Expr::and_all(vec![
            Expr::compare(CompareOp::Eq, Expr::column("a"), Expr::literal(1)),
            Expr::compare(CompareOp::Eq, Expr::column("b"), Expr::literal(2)),
            Expr::compare(CompareOp::Eq, Expr::column("c"), Expr::literal(3)),
        ])
        .unwrap();
        assert_eq!(e.conjuncts().len(), 3);
    }

    #[test]
    fn and_all_of_empty_is_none() {
        assert_eq!(Expr::and_all(Vec::new()), None);
    }

    #[test]
    fn contains_aggregate_detection() {
        let agg = Expr::Aggregate {
            func: AggFunc::Sum,
            arg: Some(Box::new(Expr::column("amount"))),
        };
        assert!(agg.contains_aggregate());
        let nested = Expr::compare(CompareOp::Gt, agg, Expr::literal(10));
        assert!(nested.contains_aggregate());
        assert!(!Expr::column("amount").contains_aggregate());
    }

    #[test]
    fn columns_are_collected_recursively() {
        let e = Expr::And(
            Box::new(Expr::compare(
                CompareOp::Eq,
                Expr::qualified("parties", "id"),
                Expr::qualified("individuals", "id"),
            )),
            Box::new(Expr::Like {
                expr: Box::new(Expr::column("firstname")),
                pattern: "Sara%".into(),
            }),
        );
        let cols = e.columns();
        assert_eq!(cols.len(), 3);
        assert_eq!(cols[2].1, "firstname");
    }

    #[test]
    fn display_produces_readable_sql_fragments() {
        let e = Expr::compare(
            CompareOp::GtEq,
            Expr::qualified("persons", "salary"),
            Expr::literal(100_000),
        );
        assert_eq!(e.to_string(), "persons.salary >= 100000");
        let txt = Expr::literal("O'Brien");
        assert_eq!(txt.to_string(), "'O''Brien'");
    }
}
