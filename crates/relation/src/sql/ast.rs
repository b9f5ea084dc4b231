//! Abstract syntax tree of the SQL subset.
//!
//! The paper's generated SQL uses the classic comma-separated `FROM` list with
//! join predicates in the `WHERE` clause (see Query 1 and Query 4 of the
//! paper), so the AST models exactly that: a list of table references, a
//! single optional selection expression, optional grouping, ordering and a
//! row limit.

use std::sync::Arc;

use crate::expr::Expr;

/// A table reference in the `FROM` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Table name in the catalog, shared with the join catalog that
    /// interned it.
    pub name: Arc<str>,
    /// Optional alias.
    pub alias: Option<String>,
}

impl TableRef {
    /// A table reference without alias.
    pub fn new(name: impl Into<Arc<str>>) -> Self {
        Self {
            name: name.into(),
            alias: None,
        }
    }

    /// The name used to qualify columns of this reference (alias if present).
    pub(crate) fn effective_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// One item of the projection list.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The projected expression.
    pub expr: Expr,
    /// Optional output alias.
    pub alias: Option<String>,
}

impl SelectItem {
    /// Projection item without alias.
    pub fn expr(expr: Expr) -> Self {
        Self { expr, alias: None }
    }

    /// The output column name of this item.
    pub(crate) fn output_name(&self) -> String {
        if let Some(a) = &self.alias {
            return a.clone();
        }
        match &self.expr {
            Expr::Column { column, .. } => column.to_string(),
            other => other.to_string(),
        }
    }
}

/// An `ORDER BY` entry.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByItem {
    /// Expression to order by.
    pub expr: Expr,
    /// True for descending order.
    pub descending: bool,
}

/// A `SELECT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStatement {
    /// `DISTINCT` flag.
    pub distinct: bool,
    /// Projection list.
    pub projection: Vec<SelectItem>,
    /// `FROM` list (implicit cross product; join predicates live in `selection`).
    pub from: Vec<TableRef>,
    /// `WHERE` clause.
    pub selection: Option<Expr>,
    /// `GROUP BY` expressions.
    pub group_by: Vec<Expr>,
    /// `ORDER BY` entries.
    pub order_by: Vec<OrderByItem>,
    /// `LIMIT` row count.
    pub limit: Option<usize>,
}

impl SelectStatement {
    /// Creates an empty `SELECT *`-style statement over the given tables.
    pub fn star_over(tables: Vec<TableRef>) -> Self {
        Self {
            distinct: false,
            projection: vec![SelectItem::expr(Expr::Star)],
            from: tables,
            selection: None,
            group_by: Vec::new(),
            order_by: Vec::new(),
            limit: None,
        }
    }

    /// True if the statement aggregates (has group-by or an aggregate in the
    /// projection).
    pub fn is_aggregate(&self) -> bool {
        !self.group_by.is_empty()
            || self
                .projection
                .iter()
                .any(|item| item.expr.contains_aggregate())
    }

    /// Names of all referenced tables.
    pub fn table_names(&self) -> Vec<&str> {
        self.from.iter().map(|t| &*t.name).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AggFunc, CompareOp};

    #[test]
    fn table_ref_effective_name() {
        assert_eq!(TableRef::new("parties").effective_name(), "parties");
        assert_eq!(
            TableRef {
                alias: Some("p".into()),
                ..TableRef::new("parties")
            }
            .effective_name(),
            "p"
        );
    }

    #[test]
    fn select_item_output_name() {
        assert_eq!(
            SelectItem::expr(Expr::qualified("t", "amount")).output_name(),
            "amount"
        );
        assert_eq!(
            SelectItem {
                alias: Some("total".into()),
                ..SelectItem::expr(Expr::column("x"))
            }
            .output_name(),
            "total"
        );
        let agg = SelectItem::expr(Expr::Aggregate {
            func: AggFunc::Sum,
            arg: Some(Box::new(Expr::column("amount"))),
        });
        assert_eq!(agg.output_name(), "sum(amount)");
    }

    #[test]
    fn aggregate_detection() {
        let mut stmt = SelectStatement::star_over(vec![TableRef::new("t")]);
        assert!(!stmt.is_aggregate());
        stmt.group_by.push(Expr::column("c"));
        assert!(stmt.is_aggregate());

        let mut stmt2 = SelectStatement::star_over(vec![TableRef::new("t")]);
        stmt2.projection = vec![SelectItem::expr(Expr::Aggregate {
            func: AggFunc::Count,
            arg: None,
        })];
        assert!(stmt2.is_aggregate());
        let _ = CompareOp::Eq;
    }

    #[test]
    fn table_names_listed_in_from_order() {
        let stmt = SelectStatement::star_over(vec![
            TableRef::new("transactions"),
            TableRef::new("fi_transactions"),
            TableRef::new("organizations"),
        ]);
        assert_eq!(
            stmt.table_names(),
            vec!["transactions", "fi_transactions", "organizations"]
        );
    }
}
