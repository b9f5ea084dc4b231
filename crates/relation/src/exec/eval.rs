//! Bound expressions: a statement's [`Expr`] trees are compiled once against
//! the FROM clause, so that evaluating them on a row is index arithmetic and
//! comparisons on borrowed values — no name resolution, no allocation.

use std::borrow::Cow;

use crate::error::{RelationError, Result};
use crate::expr::{AggFunc, CompareOp, Expr};
use crate::value::{DataType, Date, Value};

/// The columns a statement can name, by qualifier: one entry per column of
/// each FROM table.  Consulted while binding, never per row.
#[derive(Debug, Clone, Default)]
pub(crate) struct RowSchema {
    cols: Vec<(String, String)>,
}

impl RowSchema {
    /// Creates an empty schema.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Appends a column belonging to `qualifier`.
    pub(crate) fn push(&mut self, qualifier: &str, column: &str) {
        self.cols
            .push((qualifier.to_ascii_lowercase(), column.to_ascii_lowercase()));
    }

    /// Number of columns.
    pub(crate) fn len(&self) -> usize {
        self.cols.len()
    }

    /// All `(qualifier, column)` pairs.
    pub(crate) fn columns(&self) -> &[(String, String)] {
        &self.cols
    }

    /// Resolves a column reference to its index.
    pub(crate) fn resolve(&self, table: Option<&str>, column: &str) -> Result<usize> {
        let column = column.to_ascii_lowercase();
        match table {
            Some(t) => {
                let t = t.to_ascii_lowercase();
                self.cols
                    .iter()
                    .position(|(q, c)| *q == t && *c == column)
                    .ok_or_else(|| RelationError::UnknownColumn(format!("{t}.{column}")))
            }
            None => {
                let mut hits = self
                    .cols
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, c))| *c == column);
                match (hits.next(), hits.next()) {
                    (Some((i, _)), None) => Ok(i),
                    (Some(_), Some(_)) => Err(RelationError::AmbiguousColumn(column)),
                    (None, _) => Err(RelationError::UnknownColumn(column)),
                }
            }
        }
    }
}

/// A `LIKE` pattern split at its `%` wildcards once; matching a row compares
/// bytes ignoring ASCII case and allocates nothing.
pub(super) struct LikePattern {
    parts: Vec<String>,
}

impl LikePattern {
    pub(super) fn new(pattern: &str) -> Self {
        Self {
            parts: pattern.split('%').map(str::to_owned).collect(),
        }
    }

    /// Case-insensitive match: the first part anchors at the start, the last
    /// at the end, the ones between are found left to right.
    pub(super) fn matches(&self, text: &str) -> bool {
        let text = text.as_bytes();
        let (first, rest) = self.parts.split_first().expect("split yields a part");
        let Some((last, middle)) = rest.split_last() else {
            return text.eq_ignore_ascii_case(first.as_bytes());
        };
        if !text
            .get(..first.len())
            .is_some_and(|head| head.eq_ignore_ascii_case(first.as_bytes()))
        {
            return false;
        }
        let mut pos = first.len();
        for part in middle.iter().filter(|p| !p.is_empty()) {
            let found = text[pos..]
                .windows(part.len())
                .position(|w| w.eq_ignore_ascii_case(part.as_bytes()));
            match found {
                Some(at) => pos += at + part.len(),
                None => return false,
            }
        }
        text.len() >= pos + last.len()
            && text[text.len() - last.len()..].eq_ignore_ascii_case(last.as_bytes())
    }
}

/// Case-insensitive SQL `LIKE` with `%` wildcards.
pub fn like_match(text: &str, pattern: &str) -> bool {
    LikePattern::new(pattern).matches(text)
}

/// One joined tuple: a row per slot.  Bound expressions read a tuple only
/// through this, so that the scan's one-row probe and the join's tuples of
/// scan positions evaluate alike.
pub(super) trait Tuple<'v> {
    fn row(&self, slot: usize) -> &'v [Value];
}

impl<'r: 'v, 'v> Tuple<'v> for [&'r [Value]] {
    fn row(&self, slot: usize) -> &'v [Value] {
        self[slot]
    }
}

/// Resolves a column reference to `(tuple slot, column index, declared type)`.
pub(super) type Resolve<'r> =
    &'r dyn Fn(Option<&str>, &str) -> Result<(usize, usize, Option<DataType>)>;

/// A scalar expression compiled against the FROM clause: columns are
/// `(slot, index)` pairs into a tuple of borrowed rows, `LIKE` patterns are
/// pre-split, and a text literal compared with a `DATE` column is already a
/// date.  Aggregates are rejected here — they bind through [`GroupExpr`].
pub(super) enum BoundExpr {
    Column {
        slot: usize,
        col: usize,
    },
    Literal(Value),
    Compare {
        op: CompareOp,
        left: Box<BoundExpr>,
        right: Box<BoundExpr>,
    },
    Like {
        expr: Box<BoundExpr>,
        pattern: LikePattern,
    },
    And(Box<BoundExpr>, Box<BoundExpr>),
    Or(Box<BoundExpr>, Box<BoundExpr>),
    Not(Box<BoundExpr>),
    IsNull(Box<BoundExpr>),
}

impl BoundExpr {
    pub(super) fn bind(expr: &Expr, resolve: Resolve<'_>) -> Result<Self> {
        let boxed = |e: &Expr| Self::bind(e, resolve).map(Box::new);
        Ok(match expr {
            Expr::Literal(v) => Self::Literal(v.clone()),
            Expr::Column { table, column } => {
                let (slot, col, _) = resolve(table.as_deref(), column)?;
                Self::Column { slot, col }
            }
            Expr::Compare { op, left, right } => {
                let mut sides = [boxed(left)?, boxed(right)?];
                for (i, side) in [left, right].into_iter().enumerate() {
                    if let Expr::Column { table, column } = &**side {
                        if resolve(table.as_deref(), column)?.2 == Some(DataType::Date) {
                            sides[1 - i].parse_date_literal();
                        }
                    }
                }
                let [left, right] = sides;
                Self::Compare {
                    op: *op,
                    left,
                    right,
                }
            }
            Expr::Like { expr, pattern } => Self::Like {
                expr: boxed(expr)?,
                pattern: LikePattern::new(pattern),
            },
            Expr::And(a, b) => Self::And(boxed(a)?, boxed(b)?),
            Expr::Or(a, b) => Self::Or(boxed(a)?, boxed(b)?),
            Expr::Not(e) => Self::Not(boxed(e)?),
            Expr::IsNull(e) => Self::IsNull(boxed(e)?),
            Expr::Aggregate { .. } => {
                return Err(RelationError::Unsupported(
                    "aggregate used outside GROUP BY context".into(),
                ))
            }
            Expr::Star => {
                return Err(RelationError::Unsupported(
                    "* cannot be evaluated as a scalar".into(),
                ))
            }
        })
    }

    /// `Value::sql_cmp` parses a text operand of a date comparison on every
    /// call; a literal can be parsed once (an unparsable one stays text and
    /// keeps comparing as unknown).
    fn parse_date_literal(&mut self) {
        if let Self::Literal(v) = self {
            if let Some(date) = v.as_str().and_then(Date::parse) {
                *v = Value::Date(date);
            }
        }
    }

    /// The expression's value over one tuple (one borrowed row per slot).
    /// Columns and literals are borrowed; predicates yield `Bool` or `Null`.
    pub(super) fn value<'v, T: Tuple<'v> + ?Sized>(&'v self, tuple: &T) -> Cow<'v, Value> {
        match self {
            Self::Column { slot, col } => Cow::Borrowed(&tuple.row(*slot)[*col]),
            Self::Literal(v) => Cow::Borrowed(v),
            _ => Cow::Owned(self.test(tuple).map_or(Value::Null, Value::Bool)),
        }
    }

    /// The expression as a predicate (`None` means SQL unknown).
    pub(super) fn test<'v, T: Tuple<'v> + ?Sized>(&'v self, tuple: &T) -> Option<bool> {
        match self {
            Self::Column { .. } | Self::Literal(_) => match *self.value(tuple) {
                Value::Bool(b) => Some(b),
                Value::Int(i) => Some(i != 0),
                _ => None,
            },
            Self::Compare { op, left, right } => {
                compare(*op, &left.value(tuple), &right.value(tuple))
            }
            Self::Like { expr, pattern } => match &*expr.value(tuple) {
                Value::Null => None,
                Value::Text(s) => Some(pattern.matches(s)),
                other => Some(pattern.matches(&other.to_string())),
            },
            Self::And(a, b) => match (a.test(tuple), b.test(tuple)) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            Self::Or(a, b) => match (a.test(tuple), b.test(tuple)) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
            Self::Not(e) => e.test(tuple).map(|b| !b),
            Self::IsNull(e) => Some(e.value(tuple).is_null()),
        }
    }
}

fn compare(op: CompareOp, left: &Value, right: &Value) -> Option<bool> {
    left.sql_cmp(right).map(|ord| match op {
        CompareOp::Eq => ord.is_eq(),
        CompareOp::NotEq => !ord.is_eq(),
        CompareOp::Lt => ord.is_lt(),
        CompareOp::LtEq => ord.is_le(),
        CompareOp::Gt => ord.is_gt(),
        CompareOp::GtEq => ord.is_ge(),
    })
}

/// One aggregate call of a statement: the function and its bound argument
/// (`None` for `count(*)`).
pub(super) struct AggCall {
    func: AggFunc,
    arg: Option<BoundExpr>,
}

/// Running state of one [`AggCall`] over one group.  NULL inputs are skipped.
#[derive(Clone)]
pub(super) struct Accumulator<'v> {
    count: i64,
    int_sum: i64,
    float_sum: f64,
    /// Some input was not an `Int`: `sum` reports the float sum.
    non_int: bool,
    extreme: Option<Cow<'v, Value>>,
}

impl Default for Accumulator<'_> {
    fn default() -> Self {
        Self {
            count: 0,
            int_sum: 0,
            // The identity of float addition: a sum of `-0.0`s is `-0.0`.
            float_sum: -0.0,
            non_int: false,
            extreme: None,
        }
    }
}

impl AggCall {
    pub(super) fn update<'v, T: Tuple<'v> + ?Sized>(
        &'v self,
        acc: &mut Accumulator<'v>,
        tuple: &T,
    ) {
        let value = match &self.arg {
            Some(arg) => arg.value(tuple),
            None => Cow::Owned(Value::Int(1)),
        };
        if value.is_null() {
            return;
        }
        acc.count += 1;
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => {
                match *value {
                    Value::Int(i) => acc.int_sum += i,
                    _ => acc.non_int = true,
                }
                if let Some(f) = value.as_f64() {
                    acc.float_sum += f;
                }
            }
            // Of equal values `min` keeps the first and `max` the last.
            AggFunc::Min | AggFunc::Max => {
                let replace = acc.extreme.as_ref().is_none_or(|current| {
                    let ord = value.total_cmp(current);
                    if self.func == AggFunc::Min {
                        ord.is_lt()
                    } else {
                        ord.is_ge()
                    }
                });
                if replace {
                    acc.extreme = Some(value);
                }
            }
        }
    }

    pub(super) fn finish(&self, acc: Accumulator<'_>) -> Value {
        match self.func {
            AggFunc::Count => Value::Int(acc.count),
            _ if acc.count == 0 => Value::Null,
            AggFunc::Sum if !acc.non_int => Value::Int(acc.int_sum),
            AggFunc::Sum => Value::Float(acc.float_sum),
            AggFunc::Avg => Value::Float(acc.float_sum / acc.count as f64),
            AggFunc::Min | AggFunc::Max => acc.extreme.map_or(Value::Null, Cow::into_owned),
        }
    }
}

/// A projection item or sort key of an aggregating statement: an aggregate,
/// a comparison of such expressions, or a scalar read from the group's first
/// row (which is correct for group-by keys).
pub(super) enum GroupExpr {
    /// Index into the statement's [`AggCall`]s.
    Aggregate(usize),
    Compare {
        op: CompareOp,
        left: Box<GroupExpr>,
        right: Box<GroupExpr>,
    },
    FirstRow(BoundExpr),
}

impl GroupExpr {
    /// Binds `expr`, appending the aggregate calls it contains to `calls`.
    pub(super) fn bind(
        expr: &Expr,
        resolve: Resolve<'_>,
        calls: &mut Vec<AggCall>,
    ) -> Result<Self> {
        Ok(match expr {
            Expr::Aggregate { func, arg } => {
                let arg = arg.as_deref().map(|a| BoundExpr::bind(a, resolve));
                let arg = arg.transpose()?;
                calls.push(AggCall { func: *func, arg });
                Self::Aggregate(calls.len() - 1)
            }
            Expr::Compare { op, left, right } => Self::Compare {
                op: *op,
                left: Box::new(Self::bind(left, resolve, calls)?),
                right: Box::new(Self::bind(right, resolve, calls)?),
            },
            _ if !expr.contains_aggregate() => Self::FirstRow(BoundExpr::bind(expr, resolve)?),
            other => {
                return Err(RelationError::Unsupported(format!(
                    "unsupported aggregate expression: {other}"
                )))
            }
        })
    }

    /// The value for one group, given its first row (`None` for the single
    /// empty group of an aggregate over no rows) and its finished aggregates.
    pub(super) fn eval<'v, T: Tuple<'v> + ?Sized>(
        &'v self,
        first: Option<&T>,
        aggregates: &[Value],
    ) -> Value {
        match self {
            Self::Aggregate(i) => aggregates[*i].clone(),
            Self::Compare { op, left, right } => compare(
                *op,
                &left.eval(first, aggregates),
                &right.eval(first, aggregates),
            )
            .map_or(Value::Null, Value::Bool),
            Self::FirstRow(e) => first.map_or(Value::Null, |t| e.value(t).into_owned()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> RowSchema {
        let mut s = RowSchema::new();
        s.push("individuals", "id");
        s.push("individuals", "firstname");
        s.push("individuals", "salary");
        s.push("parties", "id");
        s
    }

    fn row() -> Vec<Value> {
        vec![
            Value::Int(1),
            Value::from("Sara"),
            Value::Float(120_000.0),
            Value::Int(1),
        ]
    }

    /// Every column of `schema` lives in the one row of a one-slot tuple.
    fn resolver(
        schema: &RowSchema,
    ) -> impl Fn(Option<&str>, &str) -> Result<(usize, usize, Option<DataType>)> + '_ {
        |table, column| Ok((0, schema.resolve(table, column)?, None))
    }

    /// Binds and evaluates in one go (the executor binds once per statement).
    fn eval_scalar(expr: &Expr, schema: &RowSchema, row: &[Value]) -> Result<Value> {
        let bound = BoundExpr::bind(expr, &resolver(schema))?;
        Ok(bound.value(&[row][..]).into_owned())
    }

    /// Binds, folds `group` into one accumulator per aggregate and evaluates.
    fn eval_over_group(expr: &Expr, schema: &RowSchema, group: &[Vec<Value>]) -> Result<Value> {
        let mut calls = Vec::new();
        let bound = GroupExpr::bind(expr, &resolver(schema), &mut calls)?;
        let mut accs = vec![Accumulator::default(); calls.len()];
        for row in group {
            for (call, acc) in calls.iter().zip(&mut accs) {
                call.update(acc, &[row.as_slice()][..]);
            }
        }
        let finished: Vec<Value> = calls.iter().zip(accs).map(|(c, a)| c.finish(a)).collect();
        let first = group.first().map(|row| [row.as_slice()]);
        Ok(bound.eval(first.as_ref().map(|t| t.as_slice()), &finished))
    }

    #[test]
    fn resolve_qualified_and_unqualified() {
        let s = schema();
        assert_eq!(s.resolve(Some("parties"), "id").unwrap(), 3);
        assert_eq!(s.resolve(None, "firstname").unwrap(), 1);
        assert!(matches!(
            s.resolve(None, "id"),
            Err(RelationError::AmbiguousColumn(_))
        ));
        assert!(matches!(
            s.resolve(None, "missing"),
            Err(RelationError::UnknownColumn(_))
        ));
        let individuals: Vec<usize> = (0..s.cols.len())
            .filter(|&i| s.cols[i].0 == "individuals")
            .collect();
        assert_eq!(individuals, vec![0, 1, 2]);
    }

    #[test]
    fn comparison_and_boolean_logic() {
        let s = schema();
        let r = row();
        let e = Expr::And(
            Box::new(Expr::compare(
                CompareOp::GtEq,
                Expr::column("salary"),
                Expr::literal(100_000),
            )),
            Box::new(Expr::compare(
                CompareOp::Eq,
                Expr::column("firstname"),
                Expr::literal("Sara"),
            )),
        );
        assert_eq!(eval_scalar(&e, &s, &r).unwrap(), Value::Bool(true));

        let e2 = Expr::Not(Box::new(e));
        assert_eq!(eval_scalar(&e2, &s, &r).unwrap(), Value::Bool(false));
    }

    #[test]
    fn null_propagation_in_logic() {
        let s = schema();
        let mut r = row();
        r[2] = Value::Null;
        let cmp = Expr::compare(CompareOp::Gt, Expr::column("salary"), Expr::literal(1));
        assert_eq!(eval_scalar(&cmp, &s, &r).unwrap(), Value::Null);
        // NULL AND false = false; NULL OR true = true.
        let and = Expr::And(Box::new(cmp.clone()), Box::new(Expr::literal(false)));
        assert_eq!(eval_scalar(&and, &s, &r).unwrap(), Value::Bool(false));
        let or = Expr::Or(Box::new(cmp), Box::new(Expr::literal(true)));
        assert_eq!(eval_scalar(&or, &s, &r).unwrap(), Value::Bool(true));
        let isnull = Expr::IsNull(Box::new(Expr::column("salary")));
        assert_eq!(eval_scalar(&isnull, &s, &r).unwrap(), Value::Bool(true));
    }

    #[test]
    fn like_matching_rules() {
        assert!(like_match("Credit Suisse", "%credit%"));
        assert!(like_match("Credit Suisse", "Credit%"));
        assert!(like_match("Credit Suisse", "%Suisse"));
        assert!(like_match("Credit Suisse", "Credit Suisse"));
        assert!(!like_match("Credit Suisse", "credit"));
        assert!(!like_match("Credit Suisse", "%UBS%"));
        assert!(like_match("abcabc", "%abc%abc"));
        assert!(!like_match("abc", "%abc%abc"));
    }

    #[test]
    fn aggregates_over_groups() {
        let s = schema();
        let group: Vec<Vec<Value>> = vec![
            vec![
                Value::Int(1),
                Value::from("a"),
                Value::Float(10.0),
                Value::Int(1),
            ],
            vec![
                Value::Int(2),
                Value::from("b"),
                Value::Float(20.0),
                Value::Int(1),
            ],
            vec![Value::Int(3), Value::from("c"), Value::Null, Value::Int(1)],
        ];
        let count_star = Expr::Aggregate {
            func: AggFunc::Count,
            arg: None,
        };
        assert_eq!(
            eval_over_group(&count_star, &s, &group).unwrap(),
            Value::Int(3)
        );
        let count_salary = Expr::Aggregate {
            func: AggFunc::Count,
            arg: Some(Box::new(Expr::column("salary"))),
        };
        assert_eq!(
            eval_over_group(&count_salary, &s, &group).unwrap(),
            Value::Int(2)
        );
        let sum = Expr::Aggregate {
            func: AggFunc::Sum,
            arg: Some(Box::new(Expr::column("salary"))),
        };
        assert_eq!(
            eval_over_group(&sum, &s, &group).unwrap(),
            Value::Float(30.0)
        );
        let avg = Expr::Aggregate {
            func: AggFunc::Avg,
            arg: Some(Box::new(Expr::column("salary"))),
        };
        assert_eq!(
            eval_over_group(&avg, &s, &group).unwrap(),
            Value::Float(15.0)
        );
        let min = Expr::Aggregate {
            func: AggFunc::Min,
            arg: Some(Box::new(Expr::qualified("individuals", "id"))),
        };
        assert_eq!(eval_over_group(&min, &s, &group).unwrap(), Value::Int(1));
        let max = Expr::Aggregate {
            func: AggFunc::Max,
            arg: Some(Box::new(Expr::qualified("individuals", "id"))),
        };
        assert_eq!(eval_over_group(&max, &s, &group).unwrap(), Value::Int(3));
    }

    #[test]
    fn group_key_falls_back_to_first_row() {
        let s = schema();
        let group: Vec<Vec<Value>> = vec![row(), row()];
        let key = Expr::column("firstname");
        assert_eq!(
            eval_over_group(&key, &s, &group).unwrap(),
            Value::from("Sara")
        );
    }

    #[test]
    fn sum_of_int_values_stays_integer() {
        let s = schema();
        let group: Vec<Vec<Value>> = vec![
            vec![
                Value::Int(1),
                Value::from("a"),
                Value::Int(5),
                Value::Int(1),
            ],
            vec![
                Value::Int(2),
                Value::from("b"),
                Value::Int(7),
                Value::Int(1),
            ],
        ];
        let sum = Expr::Aggregate {
            func: AggFunc::Sum,
            arg: Some(Box::new(Expr::column("salary"))),
        };
        assert_eq!(eval_over_group(&sum, &s, &group).unwrap(), Value::Int(12));
    }

    #[test]
    fn aggregate_outside_group_context_is_rejected() {
        let s = schema();
        let agg = Expr::Aggregate {
            func: AggFunc::Sum,
            arg: Some(Box::new(Expr::column("salary"))),
        };
        assert!(eval_scalar(&agg, &s, &row()).is_err());
    }
}
