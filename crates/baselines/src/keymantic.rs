//! Keymantic-like baseline (Bergamaschi et al., SIGMOD 2011).
//!
//! Keymantic targets the "Hidden Web": no inverted index over the base data is
//! available, only metadata such as table and attribute names (and a small set
//! of synonyms).  Keywords are assigned to schema terms by name similarity;
//! keywords that match no schema term are treated as *values* and heuristically
//! assigned to a column of an already-matched table.  The paper notes that
//! with thousands of columns this assignment picks the wrong columns — which
//! is exactly what happens here on the enterprise schema.

use soda_relation::{DataType, Database, InvertedIndex};

use crate::feature::{QueryFeature, Support};
use crate::system::{BaselineAnswer, BaselineSystem, SchemaJoinGraph};

/// The Keymantic-like system.
#[derive(Debug, Clone)]
pub(crate) struct Keymantic {
    /// Small built-in synonym list (term → schema word), standing in for the
    /// external dictionaries Keymantic can consult.
    synonyms: Vec<(&'static str, &'static str)>,
}

impl Default for Keymantic {
    fn default() -> Self {
        Self {
            synonyms: vec![
                ("customer", "party"),
                ("customers", "party"),
                ("client", "party"),
                ("clients", "party"),
                ("company", "organization"),
                ("person", "individual"),
                ("payment", "transaction"),
            ],
        }
    }
}

impl Keymantic {
    fn schema_match(&self, db: &Database, word: &str) -> Option<(String, Option<String>)> {
        let word = word.to_lowercase();
        let word = self
            .synonyms
            .iter()
            .find(|(k, _)| *k == word)
            .map(|(_, v)| v.to_string())
            .unwrap_or(word);
        // Exact or token match (with singular/plural tolerance) against table
        // names first, then column names.
        let token_matches = |token: &str| {
            token == word
                || format!("{token}s") == word
                || format!("{word}s") == token
                || (word.ends_with("ies") && format!("{}y", &word[..word.len() - 3]) == token)
                || (token.ends_with("ies") && format!("{}y", &token[..token.len() - 3]) == word)
        };
        for table in db.tables() {
            if soda_relation::tokenize(table.name())
                .iter()
                .any(|t| token_matches(t))
            {
                return Some((table.name().to_string(), None));
            }
        }
        for table in db.tables() {
            for col in &table.schema().columns {
                if soda_relation::tokenize(&col.name)
                    .iter()
                    .any(|t| token_matches(t))
                {
                    return Some((table.name().to_string(), Some(col.name.clone())));
                }
            }
        }
        None
    }
}

impl BaselineSystem for Keymantic {
    fn name(&self) -> &'static str {
        "Keymantic"
    }

    fn support(&self, feature: QueryFeature) -> Support {
        match feature {
            // In principle able, but not at the scale of this schema.
            QueryFeature::BaseData => Support::FailsAtScale,
            QueryFeature::Schema => Support::Yes,
            QueryFeature::DomainOntology => Support::Partial,
            _ => Support::No,
        }
    }

    fn answer(&self, db: &Database, _index: &InvertedIndex, query: &str) -> Option<BaselineAnswer> {
        if query.contains('(') || query.contains('>') || query.contains('<') || query.contains('=')
        {
            return None;
        }
        let words = soda_relation::tokenize(query);
        let mut tables: Vec<String> = Vec::new();
        let mut value_words: Vec<String> = Vec::new();
        let mut notes = Vec::new();
        let mut filters: Vec<String> = Vec::new();

        for word in &words {
            match self.schema_match(db, word) {
                Some((table, column)) => {
                    if !tables.iter().any(|t| t.eq_ignore_ascii_case(&table)) {
                        tables.push(table.clone());
                    }
                    if let Some(column) = column {
                        notes.push(format!("'{word}' assigned to {table}.{column}"));
                    } else {
                        notes.push(format!("'{word}' assigned to relation {table}"));
                    }
                }
                None => value_words.push(word.clone()),
            }
        }
        if tables.is_empty() && value_words.is_empty() {
            return None;
        }
        if tables.is_empty() {
            // Values without any schema anchor: guess the lexicographically
            // first table with a text column (the wrong-column failure mode).
            let guess = db.tables().find(|t| {
                t.schema()
                    .columns
                    .iter()
                    .any(|c| c.data_type == DataType::Text)
            })?;
            tables.push(guess.name().to_string());
            notes.push("no schema match; guessed the first textual relation".to_string());
        }
        // Unmatched words become LIKE filters on the first text column of the
        // first matched table.
        if !value_words.is_empty() {
            let first = db.table(&tables[0]).ok()?;
            let column = first
                .schema()
                .columns
                .iter()
                .find(|c| c.data_type == DataType::Text)
                .map(|c| c.name.clone())?;
            for w in &value_words {
                filters.push(format!("{}.{} LIKE '%{}%'", tables[0], column, w));
                notes.push(format!(
                    "'{w}' treated as a value of {}.{}",
                    tables[0], column
                ));
            }
        }
        // Join the matched tables pairwise through the FK graph.
        let graph = SchemaJoinGraph::build(db);
        let mut joins = Vec::new();
        let anchor = tables[0].clone();
        for t in tables.clone().iter().skip(1) {
            if let Some(path) = graph.path(t, &anchor) {
                for step in path {
                    for tt in [&step.fk_table, &step.pk_table] {
                        if !tables.iter().any(|x| x.eq_ignore_ascii_case(tt)) {
                            tables.push(tt.clone());
                        }
                    }
                    joins.push(step.condition());
                }
            }
        }
        let mut conditions = joins;
        conditions.extend(filters);
        let mut sql = format!("SELECT * FROM {}", tables.join(", "));
        if !conditions.is_empty() {
            sql.push_str(" WHERE ");
            sql.push_str(&conditions.join(" AND "));
        }
        Some(BaselineAnswer {
            sql: vec![sql],
            notes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_warehouse::minibank;

    #[test]
    fn matches_schema_terms_and_synonyms_without_touching_data() {
        let w = minibank::build(42);
        let index = InvertedIndex::build(&w.database);
        let k = Keymantic::default();
        let a = k
            .answer(&w.database, &index, "customers addresses")
            .unwrap();
        assert!(a.sql[0].contains("parties"));
        assert!(a.sql[0].contains("addresses"));
        let rs = w.database.run_sql(&a.sql[0]);
        assert!(rs.is_ok());
    }

    #[test]
    fn values_are_guessed_onto_possibly_wrong_columns() {
        let w = minibank::build(42);
        let index = InvertedIndex::build(&w.database);
        let k = Keymantic::default();
        let a = k.answer(&w.database, &index, "customers Zurich").unwrap();
        // "Zurich" is assigned to a column of the parties table, not to
        // addresses.city — the wrong-column behaviour the paper describes.
        assert!(a.sql[0].contains("LIKE '%zurich%'"));
        assert!(!a.sql[0].contains("addresses.city"));
    }

    #[test]
    fn declines_operator_and_aggregate_queries() {
        let w = minibank::build(42);
        let index = InvertedIndex::build(&w.database);
        let k = Keymantic::default();
        assert!(k.answer(&w.database, &index, "salary >= 100000").is_none());
        assert!(k.answer(&w.database, &index, "sum (amount)").is_none());
        assert_eq!(k.support(QueryFeature::Schema), Support::Yes);
        assert_eq!(k.support(QueryFeature::BaseData), Support::FailsAtScale);
    }
}
