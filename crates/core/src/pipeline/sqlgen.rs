//! Step 5 — SQL generation.
//!
//! Everything collected by the earlier steps — tables, join conditions,
//! filters, aggregations, grouping and the `top N` limit — is combined into a
//! single executable `SELECT` statement in the style the paper uses
//! (comma-separated FROM list, join predicates in the WHERE clause).

use std::sync::Arc;

use soda_relation::{
    CompareOp, DataType, Expr, OrderByItem, SelectItem, SelectStatement, TableRef,
};

use crate::pipeline::lookup::{LookupResult, TermRole};
use crate::pipeline::tables::TablePlan;
use crate::pipeline::PipelineContext;

/// Builds the SQL statement for one solution.  Returns `None` when the plan
/// has no tables at all (nothing to select from).
pub fn run(
    ctx: &PipelineContext<'_>,
    plan: &TablePlan,
    filters: &[Expr],
    lookup: &LookupResult,
) -> Option<SelectStatement> {
    if plan.tables.is_empty() {
        return None;
    }

    let from: Vec<TableRef> = plan.tables.iter().cloned().map(TableRef::new).collect();

    // WHERE clause: join conditions followed by filters.
    let mut conjuncts: Vec<Expr> = Vec::with_capacity(plan.joins.len() + filters.len());
    conjuncts.extend(plan.joins.iter().map(|j| {
        Expr::compare(
            CompareOp::Eq,
            Expr::qualified(Arc::clone(&j.fk_table), Arc::clone(&j.fk_column)),
            Expr::qualified(Arc::clone(&j.pk_table), Arc::clone(&j.pk_column)),
        )
    }));
    conjuncts.extend(filters.iter().cloned());
    let selection = Expr::and_all(conjuncts);

    // Aggregations and grouping.
    let mut projection: Vec<SelectItem> = Vec::new();
    let mut group_by: Vec<Expr> = Vec::new();
    let mut order_by: Vec<OrderByItem> = Vec::new();

    for phrase in &lookup.group_by {
        // An interpretation that cannot resolve a requested group-by attribute
        // cannot express the user's query — drop it so that a resolving
        // interpretation surfaces instead.
        let col = resolve_attribute(ctx, plan, phrase, TermRole::GroupByAttribute)?;
        group_by.push(col.clone());
        projection.push(SelectItem::expr(col));
    }

    let mut aggregate_exprs: Vec<Expr> = Vec::new();
    for agg in &lookup.aggregations {
        let arg = match agg.attribute.as_ref() {
            None => None,
            Some(phrase) => {
                // Same reasoning as for group-by attributes.
                Some(resolve_attribute(
                    ctx,
                    plan,
                    phrase,
                    TermRole::AggregationAttribute,
                )?)
            }
        };
        let expr = Expr::Aggregate {
            func: agg.func,
            arg: arg.map(Box::new),
        };
        aggregate_exprs.push(expr.clone());
        projection.push(SelectItem::expr(expr));
    }

    let is_aggregate = !aggregate_exprs.is_empty() || !group_by.is_empty();
    if !is_aggregate {
        projection = vec![SelectItem::expr(Expr::Star)];
    }

    // Top N: order by the first aggregate (descending) when aggregating.
    let limit = lookup.top_n;
    if limit.is_some() {
        if let Some(first_agg) = aggregate_exprs.first() {
            order_by.push(OrderByItem {
                expr: first_agg.clone(),
                descending: true,
            });
        }
    }

    Some(SelectStatement {
        distinct: false,
        projection,
        from,
        selection,
        group_by,
        order_by,
        limit,
    })
}

/// Resolves an aggregation / group-by attribute phrase to a column expression.
///
/// Preference order: the anchor created for exactly this phrase and role; any
/// anchor for the phrase with a column focus; a table-level anchor (then a
/// representative column of that table is chosen — its primary key if textual,
/// otherwise its first text column, otherwise its first column).
fn resolve_attribute(
    ctx: &PipelineContext<'_>,
    plan: &TablePlan,
    phrase: &str,
    role: TermRole,
) -> Option<Expr> {
    let anchors: Vec<_> = plan
        .anchors
        .iter()
        .filter(|a| &*a.phrase == phrase)
        .collect();
    let preferred = anchors
        .iter()
        .find(|a| a.role == role && a.column.is_some())
        .or_else(|| anchors.iter().find(|a| a.column.is_some()))
        .or_else(|| anchors.first());
    let anchor = preferred?;
    if let Some((table, column)) = &anchor.column {
        return Some(Expr::qualified(Arc::clone(table), Arc::clone(column)));
    }
    let table = anchor.table.as_ref()?;
    let schema = ctx.db.table(table).ok()?.schema();
    let is_text = |name: &str| {
        schema
            .column(name)
            .is_some_and(|c| c.data_type == DataType::Text)
    };
    let column = schema
        .primary_key
        .iter()
        .map(String::as_str)
        .find(|pk| is_text(pk))
        .or_else(|| {
            schema
                .columns
                .iter()
                .find(|c| c.data_type == DataType::Text)
                .map(|c| c.name.as_str())
        })
        .or_else(|| schema.columns.first().map(|c| c.name.as_str()))?;
    let column = match ctx.joins.shared_column(column) {
        Some(shared) => Arc::clone(shared),
        None => column.into(),
    };
    Some(Expr::qualified(Arc::clone(table), column))
}
