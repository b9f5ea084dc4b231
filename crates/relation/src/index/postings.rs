//! Value-level postings: the storage a frozen
//! [`IndexShard`](super::inverted::IndexShard) and its
//! [`SideLog`](super::sidelog::SideLog) share.
//!
//! A phrase hit — `(table, column, value, row_count)` — is a fact about a
//! *distinct value of a column*, not about a row.  So the unit stored here
//! is one entry per distinct `(column, cell text)`: the text, its normalised
//! form (computed once, when the value is first seen) and the number of rows
//! holding it; a token maps to the ascending ids of the entries whose text
//! contains it.  A probe walks the handful of entries of one token instead
//! of every row that token occurs in, and never goes back to the table.
//!
//! The size gauge (`posting_count`) stays row-level: one posting per
//! `(row, distinct token of the cell)`, i.e. Σ `row_count` over the token
//! lists.

use std::collections::HashMap;
use std::ops::Range;

use super::inverted::PhraseProbe;
use super::tokenizer::normalize_phrase;
use crate::catalog::fold_table_name;
use crate::table::Table;
use crate::value::{DataType, Value};

/// One indexed text column.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ColumnKey {
    /// Table name, as the schema spells it.
    table: String,
    /// Column name, as the schema spells it.
    column: String,
    /// Entries currently held for this column.
    entries: usize,
}

/// One distinct value of one column.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ValueEntry {
    /// Index into the column dictionary.
    column: u32,
    /// The exact cell text (the SQL filter literal of a hit).
    text: String,
    /// The text's tokens joined by single spaces (`normalize_phrase`) —
    /// what a multi-token needle is matched against.
    normalized: String,
    /// Distinct tokens of the text: the row-level postings one row adds.
    distinct_tokens: usize,
    /// Rows holding exactly this text in this column.
    row_count: usize,
}

/// A hit before it is materialised: `(table, column, value, row_count)`
/// borrowed from the postings.
pub(super) type HitRef<'a> = (&'a str, &'a str, &'a str, usize);

/// Column dictionary, value entries and `token → entry ids` of one index
/// partition (or of one side log).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(super) struct ValuePostings {
    /// Folded table name → ids of its text columns, in schema order; empty
    /// for a table without one.
    tables: HashMap<String, Range<u32>>,
    columns: Vec<ColumnKey>,
    entries: Vec<ValueEntry>,
    /// Normalised token → ascending ids of the entries containing it.
    tokens: HashMap<String, Vec<u32>>,
    /// Row-level posting count (Σ `distinct_tokens × row_count`).
    postings: usize,
}

impl ValuePostings {
    /// True when no value is indexed.
    pub(super) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Row-level postings: one per `(row, distinct token of its cell)`.
    pub(super) fn posting_count(&self) -> usize {
        self.postings
    }

    /// Entries — distinct column values — containing `token` (already
    /// normalised), masked or not.
    pub(super) fn candidates(&self, token: &str) -> usize {
        self.tokens.get(token).map_or(0, Vec::len)
    }

    /// Rows whose cell contains `token` (already normalised), not counting
    /// tables named by `masked` (folded names).
    pub(super) fn live_rows(&self, token: &str, masked: &[String]) -> usize {
        let Some(ids) = self.tokens.get(token) else {
            return 0;
        };
        ids.iter()
            .map(|&id| &self.entries[id as usize])
            .filter(|entry| !self.is_masked(entry, masked))
            .map(|entry| entry.row_count)
            .sum()
    }

    fn is_masked(&self, entry: &ValueEntry, masked: &[String]) -> bool {
        !masked.is_empty() && {
            let table = &self.columns[entry.column as usize].table;
            masked.iter().any(|m| m.eq_ignore_ascii_case(table))
        }
    }

    /// Pushes the probe's hits in this structure onto `out`: the entries of
    /// the probe token, outside the `masked` tables, whose normalised text
    /// contains the needle.  An entry of the probe token contains that token
    /// whole, so a needle that *is* the token needs no test.
    pub(super) fn collect_hits<'a>(
        &'a self,
        probe: &PhraseProbe,
        masked: &[String],
        out: &mut Vec<HitRef<'a>>,
    ) {
        let Some(ids) = self.tokens.get(&probe.token) else {
            return;
        };
        let verify = probe.needle != probe.token;
        for &id in ids {
            let entry = &self.entries[id as usize];
            if (verify && !entry.normalized.contains(&probe.needle))
                || self.is_masked(entry, masked)
            {
                continue;
            }
            let key = &self.columns[entry.column as usize];
            out.push((&key.table, &key.column, &entry.text, entry.row_count));
        }
    }

    /// Indexes every text cell of `table`'s rows `start_row..`: a text seen
    /// for the first time is tokenised once and becomes an entry, every
    /// further row holding it only bumps that entry's `row_count`.
    pub(super) fn index_rows(&mut self, table: &Table, start_row: usize) {
        let schema = table.schema();
        let own_columns = match self.tables.get(&*fold_table_name(&schema.name)) {
            Some(own) => own.clone(),
            None => self.register_table(table),
        };
        let text_columns = schema
            .columns
            .iter()
            .enumerate()
            .filter(|(_, col)| col.data_type == DataType::Text);
        for (column, (col_idx, _)) in own_columns.zip(text_columns) {
            // Only a column that already holds entries (an append to a side
            // log) can hold the entry of a text new to this call.
            let find_existing = self.columns[column as usize].entries > 0;
            // Cell text → its entry (`None`: no token, so nothing to find it
            // by), for the texts this call has met.
            let mut seen: HashMap<&str, Option<u32>> = HashMap::new();
            for row in table.rows().iter_from(start_row) {
                let Value::Text(text) = &row[col_idx] else {
                    continue;
                };
                let id = match seen.get(&**text) {
                    Some(&id) => id,
                    None => {
                        let id = self.entry_for(column, text, find_existing);
                        seen.insert(text, id);
                        id
                    }
                };
                if let Some(id) = id {
                    let entry = &mut self.entries[id as usize];
                    entry.row_count += 1;
                    self.postings += entry.distinct_tokens;
                }
            }
        }
    }

    /// Registers the text columns of a table new to this structure and
    /// returns their ids.
    fn register_table(&mut self, table: &Table) -> Range<u32> {
        let schema = table.schema();
        let first = self.columns.len();
        self.columns.extend(
            schema
                .columns
                .iter()
                .filter(|col| col.data_type == DataType::Text)
                .map(|col| ColumnKey {
                    table: schema.name.clone(),
                    column: col.name.clone(),
                    entries: 0,
                }),
        );
        let id = |len: usize| u32::try_from(len).expect("fewer than 2^32 indexed columns");
        let own = id(first)..id(self.columns.len());
        self.tables
            .insert(fold_table_name(&schema.name).into_owned(), own.clone());
        own
    }

    /// The entry of `text` in `column`, created (with no rows yet) unless
    /// `find_existing` turns one up.  `None` for a text without tokens: no
    /// probe can reach it.
    fn entry_for(&mut self, column: u32, text: &str, find_existing: bool) -> Option<u32> {
        let normalized = normalize_phrase(text);
        if normalized.is_empty() {
            return None;
        }
        let existing = find_existing
            .then(|| self.find_entry(column, text, &normalized))
            .flatten();
        Some(existing.unwrap_or_else(|| {
            self.push_entry(ValueEntry {
                column,
                text: text.to_string(),
                normalized,
                distinct_tokens: 0,
                row_count: 0,
            })
        }))
    }

    /// Folds a side log's postings into these: the entries of the `masked`
    /// tables are dropped, then every logged `(column, text)` adds its rows
    /// to the entry already holding that text, or becomes a new entry.
    /// Reads no table — the log's entries already carry their texts,
    /// normalised forms and row counts — so the result counts what a
    /// rebuild over the live database would, at the cost of the log.
    pub(super) fn fold(&mut self, log: &ValuePostings, masked: &[String]) {
        for table in masked {
            self.remove_table(table);
        }
        // The log's column ids, mapped to ours: a table holds the same text
        // columns in the same (schema) order on both sides.
        let mut logged_tables: Vec<(&String, &Range<u32>)> = log.tables.iter().collect();
        logged_tables.sort_unstable_by_key(|(_, own)| own.start);
        let mut column_ids = vec![0; log.columns.len()];
        for (folded, logged) in logged_tables {
            let own = match self.tables.get(folded) {
                Some(own) => own.start,
                None => {
                    let first = self.columns.len() as u32;
                    self.columns.extend(
                        log.columns[logged.start as usize..logged.end as usize]
                            .iter()
                            .map(|key| ColumnKey {
                                entries: 0,
                                ..key.clone()
                            }),
                    );
                    let own = first..self.columns.len() as u32;
                    self.tables.insert(folded.clone(), own);
                    first
                }
            };
            for (offset, id) in (logged.start..logged.end).enumerate() {
                column_ids[id as usize] = own + offset as u32;
            }
        }
        for logged in &log.entries {
            let column = column_ids[logged.column as usize];
            let id = self
                .find_entry(column, &logged.text, &logged.normalized)
                .unwrap_or_else(|| {
                    self.push_entry(ValueEntry {
                        column,
                        row_count: 0,
                        ..logged.clone()
                    })
                });
            self.entries[id as usize].row_count += logged.row_count;
            self.postings += logged.distinct_tokens * logged.row_count;
        }
    }

    /// The id of the entry holding `text`, whose normalised form is
    /// `normalized`, in `column`: searched among the entries of the token
    /// of `normalized` that the fewest entries hold.  `None` when there is
    /// none.
    fn find_entry(&self, column: u32, text: &str, normalized: &str) -> Option<u32> {
        let mut shortest: Option<&Vec<u32>> = None;
        for token in normalized.split(' ') {
            let ids = self.tokens.get(token)?;
            if shortest.is_none_or(|s| ids.len() < s.len()) {
                shortest = Some(ids);
            }
        }
        shortest?.iter().copied().find(|&id| {
            let entry = &self.entries[id as usize];
            entry.column == column && entry.text == text
        })
    }

    /// Appends `entry` (its rows yet to be counted) and lists it under each
    /// distinct token of its normalised text, which it counts.
    fn push_entry(&mut self, mut entry: ValueEntry) -> u32 {
        let id = u32::try_from(self.entries.len()).expect("fewer than 2^32 distinct values");
        let mut distinct_tokens = 0;
        for (at, word) in entry.normalized.split(' ').enumerate() {
            if entry
                .normalized
                .split(' ')
                .take(at)
                .any(|earlier| earlier == word)
            {
                continue;
            }
            distinct_tokens += 1;
            match self.tokens.get_mut(word) {
                Some(ids) => ids.push(id),
                None => {
                    self.tokens.insert(word.to_string(), vec![id]);
                }
            }
        }
        entry.distinct_tokens = distinct_tokens;
        self.columns[entry.column as usize].entries += 1;
        self.entries.push(entry);
        id
    }

    /// Drops every entry of the table named `name` (any ASCII case); its
    /// columns stay registered, empty.
    pub(super) fn remove_table(&mut self, name: &str) {
        let Some(own) = self.tables.get(&*fold_table_name(name)).cloned() else {
            return;
        };
        let emptied = &mut self.columns[own.start as usize..own.end as usize];
        if emptied.iter().all(|key| key.entries == 0) {
            return;
        }
        emptied.iter_mut().for_each(|key| key.entries = 0);
        // Entry ids are positions, so the survivors are renumbered and the
        // token lists rewritten to match.
        const DROPPED: u32 = u32::MAX;
        let mut renumbered = Vec::with_capacity(self.entries.len());
        let mut kept = 0u32;
        for entry in &self.entries {
            if own.contains(&entry.column) {
                self.postings -= entry.distinct_tokens * entry.row_count;
                renumbered.push(DROPPED);
            } else {
                renumbered.push(kept);
                kept += 1;
            }
        }
        let mut old_id = 0;
        self.entries.retain(|_| {
            old_id += 1;
            renumbered[old_id - 1] != DROPPED
        });
        self.tokens.retain(|_, ids| {
            ids.retain_mut(|id| {
                *id = renumbered[*id as usize];
                *id != DROPPED
            });
            !ids.is_empty()
        });
    }
}
