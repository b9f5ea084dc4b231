//! SQAK-like baseline (Tata & Lohman, SIGMOD 2008).
//!
//! SQAK is the one prior system that targets *aggregate* keyword queries: it
//! maps keywords onto schema terms and produces a single
//! SELECT-PROJECT-JOIN-GROUP-BY statement.  The pattern is hard-coded — plain
//! keyword queries without an aggregation do not fit it, and metadata beyond
//! key/foreign-key relationships is not used.

use soda_relation::{AggFunc, Database, InvertedIndex};

use crate::feature::{QueryFeature, Support};
use crate::system::{BaselineAnswer, BaselineSystem, SchemaJoinGraph};

/// The SQAK-like system.
#[derive(Debug, Default, Clone)]
pub(crate) struct Sqak;

impl Sqak {
    /// Finds the `(table, column)` whose identifier best matches the phrase.
    fn resolve_column(db: &Database, phrase: &str) -> Option<(String, String)> {
        let wanted: String = soda_relation::tokenize(phrase).concat();
        if wanted.is_empty() {
            return None;
        }
        for table in db.tables() {
            for col in &table.schema().columns {
                let squashed: String = soda_relation::tokenize(&col.name).concat();
                if squashed == wanted {
                    return Some((table.name().to_string(), col.name.clone()));
                }
            }
        }
        // Fall back to a table-name match: use its first column.
        for table in db.tables() {
            let squashed: String = soda_relation::tokenize(table.name()).concat();
            if squashed == wanted
                || squashed == format!("{wanted}s")
                || format!("{squashed}s") == wanted
            {
                return table
                    .schema()
                    .columns
                    .first()
                    .map(|c| (table.name().to_string(), c.name.clone()));
            }
        }
        None
    }
}

impl BaselineSystem for Sqak {
    fn name(&self) -> &'static str {
        "SQAK"
    }

    fn support(&self, feature: QueryFeature) -> Support {
        match feature {
            QueryFeature::Aggregates => Support::Yes,
            _ => Support::No,
        }
    }

    fn answer(&self, db: &Database, _index: &InvertedIndex, query: &str) -> Option<BaselineAnswer> {
        // The query must contain an aggregation operator.
        let lower = query.to_lowercase();
        let func = [
            ("sum", AggFunc::Sum),
            ("count", AggFunc::Count),
            ("avg", AggFunc::Avg),
            ("min", AggFunc::Min),
            ("max", AggFunc::Max),
        ]
        .into_iter()
        .find(|(kw, _)| lower.contains(&format!("{kw}(")) || lower.contains(&format!("{kw} (")))?;

        // Aggregated attribute: the text inside the first parentheses.
        let open = lower.find('(')?;
        let close = lower[open..].find(')')? + open;
        let attribute = query[open + 1..close].trim().to_string();

        // Optional group-by attribute: text inside the parentheses after "group by".
        let group_attr = lower.find("group by").and_then(|gb| {
            let rest = &query[gb..];
            let o = rest.find('(')?;
            let c = rest[o..].find(')')? + o;
            Some(rest[o + 1..c].trim().to_string())
        });

        let agg_column = if attribute.is_empty() {
            None
        } else {
            Some(Self::resolve_column(db, &attribute)?)
        };
        let group_column = match &group_attr {
            Some(g) => Some(Self::resolve_column(db, g)?),
            None => None,
        };

        // Assemble the SPJG statement.
        let mut tables: Vec<String> = Vec::new();
        for (t, _) in agg_column.iter().chain(group_column.iter()) {
            if !tables.iter().any(|x| x.eq_ignore_ascii_case(t)) {
                tables.push(t.clone());
            }
        }
        if tables.is_empty() {
            return None;
        }
        let graph = SchemaJoinGraph::build(db);
        let mut joins: Vec<String> = Vec::new();
        if tables.len() == 2 {
            let path = graph.path(&tables[0].clone(), &tables[1].clone())?;
            for step in path {
                for t in [&step.fk_table, &step.pk_table] {
                    if !tables.iter().any(|x| x.eq_ignore_ascii_case(t)) {
                        tables.push(t.clone());
                    }
                }
                joins.push(step.condition());
            }
        }
        let agg_sql = match &agg_column {
            Some((t, c)) => format!("{}({t}.{c})", func.1.as_sql()),
            None => format!("{}(*)", func.1.as_sql()),
        };
        let mut select_list = Vec::new();
        if let Some((t, c)) = &group_column {
            select_list.push(format!("{t}.{c}"));
        }
        select_list.push(agg_sql);
        let mut sql = format!(
            "SELECT {} FROM {}",
            select_list.join(", "),
            tables.join(", ")
        );
        if !joins.is_empty() {
            sql.push_str(" WHERE ");
            sql.push_str(&joins.join(" AND "));
        }
        if let Some((t, c)) = &group_column {
            sql.push_str(&format!(" GROUP BY {t}.{c}"));
        }
        Some(BaselineAnswer {
            sql: vec![sql],
            notes: vec![format!("aggregation {} over '{attribute}'", func.0)],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_warehouse::minibank;

    #[test]
    fn answers_aggregate_queries_with_group_by() {
        let w = minibank::build(42);
        let index = InvertedIndex::build(&w.database);
        let s = Sqak;
        let a = s
            .answer(
                &w.database,
                &index,
                "sum (amount) group by (transactiondate)",
            )
            .unwrap();
        assert!(a.sql[0].to_lowercase().contains("group by"));
        let rs = w.database.run_sql(&a.sql[0]).unwrap();
        assert!(rs.row_count() > 1);
    }

    #[test]
    fn declines_plain_keyword_queries() {
        let w = minibank::build(42);
        let index = InvertedIndex::build(&w.database);
        let s = Sqak;
        assert!(s.answer(&w.database, &index, "Sara Guttinger").is_none());
        assert_eq!(s.support(QueryFeature::Aggregates), Support::Yes);
        assert_eq!(s.support(QueryFeature::BaseData), Support::No);
    }

    #[test]
    fn resolves_attributes_against_physical_names_only() {
        let w = minibank::build(42);
        let index = InvertedIndex::build(&w.database);
        let s = Sqak;
        // "investments" is a business term (domain ontology); SQAK cannot map it.
        assert!(s
            .answer(&w.database, &index, "sum(investments) group by (currency)")
            .is_none());
    }
}
