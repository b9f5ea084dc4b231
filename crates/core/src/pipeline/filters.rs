//! Step 4 — Filters.
//!
//! Filter conditions come from three places (§3, Step 4):
//!
//! * base-data hits from the lookup step ("Zürich" → `address.city = 'Zurich'`),
//! * comparison / range / like operators written in the input query, applied
//!   to the column of the keyword phrase preceding them,
//! * metadata-defined business terms ("wealthy customers" → the filter stored
//!   on the ontology concept).

use std::sync::Arc;

use soda_metagraph::builder::preds;
use soda_relation::{CompareOp, Date, Expr, Value};

use crate::pipeline::lookup::{Constraint, ConstraintKind};
use crate::pipeline::rank::Solution;
use crate::pipeline::tables::TablePlan;
use crate::pipeline::PipelineContext;
use crate::provenance::Provenance;
use crate::resolve::column_name;

/// Runs the filters step, possibly extending the plan with the table of a
/// metadata-defined filter.  Returns the filter expressions plus human-readable
/// notes about anything that had to be skipped.
pub fn run(
    ctx: &PipelineContext<'_>,
    solution: &Solution,
    plan: &mut TablePlan,
    constraints: &[Constraint],
) -> (Vec<Expr>, Vec<String>) {
    let mut filters = Vec::new();
    let mut notes = Vec::new();

    // --- base-data filters ----------------------------------------------------
    for anchor in &plan.anchors {
        if let Some(base) = &anchor.base_filter {
            let column = Expr::qualified(Arc::clone(&base.table), Arc::clone(&base.column));
            let expr = if base.exact {
                let value = Expr::Literal(Value::Text(Arc::clone(&base.value)));
                Expr::compare(CompareOp::Eq, column, value)
            } else {
                Expr::Like {
                    expr: Box::new(column),
                    pattern: format!("%{}%", base.value),
                }
            };
            filters.push(expr);
        }
    }

    // --- metadata-defined filters ----------------------------------------------
    for entry in &solution.entries {
        if entry.provenance != Provenance::DomainOntology {
            continue;
        }
        for filter_node in ctx.graph.objects_of(entry.node, preds::DEFINED_FILTER) {
            let Some(column_node) = ctx
                .graph
                .objects_of(filter_node, preds::FILTER_COLUMN)
                .into_iter()
                .next()
            else {
                notes.push(format!(
                    "metadata filter of '{}' has no column",
                    entry.phrase
                ));
                continue;
            };
            let Some((table, column)) = column_name(ctx.graph, column_node, ctx.db) else {
                continue;
            };
            let table: Arc<str> = table.into();
            let op_text = ctx
                .graph
                .text_of(filter_node, preds::FILTER_OP)
                .unwrap_or("=")
                .to_string();
            let value_text = ctx
                .graph
                .text_of(filter_node, preds::FILTER_VALUE)
                .unwrap_or_default()
                .to_string();
            // Make sure the filtered table participates in the query.
            if !plan.tables.iter().any(|t| t.eq_ignore_ascii_case(&table)) {
                if let Some(anchor_table) = plan.tables.iter().next().cloned() {
                    if let Some(path) = ctx.joins.path_within(
                        &table,
                        &anchor_table,
                        ctx.config.max_join_path_length,
                    ) {
                        for edge in path {
                            plan.tables.insert(edge.fk_table.clone());
                            plan.tables.insert(edge.pk_table.clone());
                            if !plan.joins.iter().any(|e| e.same_condition(&edge)) {
                                plan.joins.push(edge);
                            }
                        }
                    }
                }
                plan.tables.insert(Arc::clone(&table));
            }
            let column_expr = Expr::qualified(table, column);
            let expr = if op_text.eq_ignore_ascii_case("like") {
                Expr::Like {
                    expr: Box::new(column_expr),
                    pattern: format!("%{value_text}%"),
                }
            } else {
                let op = CompareOp::parse(&op_text).unwrap_or(CompareOp::Eq);
                Expr::compare(op, column_expr, Expr::Literal(parse_literal(&value_text)))
            };
            filters.push(expr);
        }
    }

    // --- input constraints -------------------------------------------------------
    for constraint in constraints {
        // Temporal `valid at` constraints (historization extension) do not
        // attach to a keyword column; they constrain the validity interval of
        // every annotated history table participating in the plan.
        if let ConstraintKind::ValidAt(date) = &constraint.kind {
            if !ctx.config.use_historization {
                notes.push("valid at ignored: historization support disabled".into());
                continue;
            }
            let mut applied = false;
            for table in &plan.tables {
                let Some(link) = ctx.joins.historization_of(table) else {
                    continue;
                };
                let from = Expr::qualified(link.hist_table.clone(), link.valid_from_column.clone());
                let to = Expr::qualified(link.hist_table.clone(), link.valid_to_column.clone());
                filters.push(Expr::compare(
                    CompareOp::LtEq,
                    from,
                    Expr::Literal(date.clone()),
                ));
                filters.push(Expr::compare(
                    CompareOp::GtEq,
                    to,
                    Expr::Literal(date.clone()),
                ));
                applied = true;
            }
            if !applied {
                notes.push(
                    "valid at ignored: no annotated history table participates in this result"
                        .into(),
                );
            }
            continue;
        }
        let target = constraint
            .target_phrase
            .as_ref()
            .and_then(|phrase| {
                plan.anchors
                    .iter()
                    .find(|a| *a.phrase == **phrase && a.column.is_some())
            })
            .and_then(|a| a.column.clone());
        let Some((table, column)) = target else {
            notes.push(format!(
                "constraint {:?} could not be attached to a column",
                constraint.kind
            ));
            continue;
        };
        let column_expr = Expr::qualified(table, column);
        match &constraint.kind {
            ConstraintKind::Compare { op, value } => {
                filters.push(Expr::compare(
                    *op,
                    column_expr,
                    Expr::Literal(value.clone()),
                ));
            }
            ConstraintKind::Between { low, high } => {
                filters.push(Expr::compare(
                    CompareOp::GtEq,
                    column_expr.clone(),
                    Expr::Literal(low.clone()),
                ));
                filters.push(Expr::compare(
                    CompareOp::LtEq,
                    column_expr,
                    Expr::Literal(high.clone()),
                ));
            }
            ConstraintKind::Like(pattern) => {
                filters.push(Expr::Like {
                    expr: Box::new(column_expr),
                    pattern: format!("%{pattern}%"),
                });
            }
            // Handled before the column resolution above.
            ConstraintKind::ValidAt(_) => unreachable!("valid-at handled earlier"),
        }
    }

    (filters, notes)
}

/// Parses a metadata filter value: number, date or text.
fn parse_literal(text: &str) -> Value {
    if let Ok(i) = text.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(f) = text.parse::<f64>() {
        return Value::Float(f);
    }
    if let Some(d) = Date::parse(text) {
        return Value::Date(d);
    }
    Value::from(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_parsing_prefers_numbers_then_dates() {
        assert_eq!(parse_literal("500000"), Value::Int(500000));
        assert_eq!(parse_literal("1.5"), Value::Float(1.5));
        assert_eq!(
            parse_literal("2011-09-01"),
            Value::Date(Date::new(2011, 9, 1))
        );
        assert_eq!(parse_literal("Zurich"), Value::Text("Zurich".into()));
    }
}
