//! String interning for node URIs, predicates and text labels.
//!
//! The metadata graph of a real data warehouse contains tens of thousands of
//! nodes and edges whose URIs repeat constantly (every physical column has a
//! `type` edge to the `physical_column` node, for example).  Interning keeps
//! comparisons cheap (a `u32` compare) and the graph compact.

use std::fmt;
use std::hash::{BuildHasher, RandomState};

/// Identifier of an interned predicate URI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredId(pub(crate) u32);

/// Identifier of an interned text label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LabelId(pub(crate) u32);

impl PredId {
    /// Raw index of the interned predicate.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl LabelId {
    /// Raw index of the interned label.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A simple append-only string interner.
///
/// Lookups are case-sensitive; callers that want case-insensitive semantics
/// (such as the SODA classification index) normalise before interning.
///
/// Every string is stored once, back to back in one buffer; the lookup side
/// is an open-addressing table of indexes into it.  A warehouse's metadata
/// graph interns tens of thousands of URIs and stays resident for the life
/// of the process, so a map keyed by a second copy of each string would
/// cost more than the strings themselves.
#[derive(Debug, Default, Clone)]
pub(crate) struct SymbolTable {
    /// The interned strings, concatenated in interning order.
    text: String,
    /// Where each string ends in `text`, by index.
    ends: Vec<u32>,
    /// Linear-probing table of `index + 1` (`0`: free); a power of two long
    /// and at most half full.
    slots: Vec<u32>,
    /// Randomly keyed, like a `HashMap`'s: URIs and labels come from outside.
    hasher: RandomState,
}

impl SymbolTable {
    /// Where the probe sequence of `s` starts, for the current table length.
    fn home(&self, s: &str) -> usize {
        (self.hasher.hash_one(s) as usize) & (self.slots.len() - 1)
    }

    /// Puts `id` into the first free slot of its string's probe sequence.
    fn place(&mut self, id: u32) {
        let mut slot = self.home(self.resolve(id));
        while self.slots[slot] != 0 {
            slot = (slot + 1) & (self.slots.len() - 1);
        }
        self.slots[slot] = id + 1;
    }

    /// Interns `s`, returning its index.  Re-interning an existing string
    /// returns the original index.
    pub(crate) fn intern(&mut self, s: &str) -> u32 {
        self.insert(s).0
    }

    /// Interns `s`, returning its index and whether it is new.  One probe
    /// finds either `s` or the free slot it goes into.
    pub(crate) fn insert(&mut self, s: &str) -> (u32, bool) {
        let free = match self.probe(s) {
            Some(Ok(id)) => return (id, false),
            Some(Err(slot)) => Some(slot),
            None => None,
        };
        let id = self.ends.len() as u32;
        self.text.push_str(s);
        let end = u32::try_from(self.text.len()).expect("under 4 GiB of interned text");
        self.ends.push(end);
        match free {
            Some(slot) if self.ends.len() * 2 <= self.slots.len() => self.slots[slot] = id + 1,
            _ => {
                self.slots = vec![0; (self.slots.len() * 2).max(16)];
                (0..=id).for_each(|each| self.place(each));
            }
        }
        (id, true)
    }

    /// Returns the index of `s` if it has been interned before.
    pub(crate) fn get(&self, s: &str) -> Option<u32> {
        self.probe(s)?.ok()
    }

    /// Where the probe sequence of `s` ends: `Ok` with its index, or `Err`
    /// with the free slot it would go into; `None` before the first string.
    fn probe(&self, s: &str) -> Option<Result<u32, usize>> {
        if self.slots.is_empty() {
            return None;
        }
        let mut slot = self.home(s);
        while let Some(id) = self.slots[slot].checked_sub(1) {
            if self.resolve(id) == s {
                return Some(Ok(id));
            }
            slot = (slot + 1) & (self.slots.len() - 1);
        }
        Some(Err(slot))
    }

    /// Resolves an index back to its string.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this table.
    pub(crate) fn resolve(&self, id: u32) -> &str {
        let id = id as usize;
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        &self.text[start as usize..self.ends[id] as usize]
    }

    /// Number of distinct interned strings.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }
}

impl fmt::Display for PredId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pred#{}", self.0)
    }
}

impl fmt::Display for LabelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "label#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = SymbolTable::default();
        let a = t.intern("tablename");
        let b = t.intern("tablename");
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn insert_says_whether_the_string_is_new() {
        let mut t = SymbolTable::default();
        assert_eq!(t.insert("type"), (0, true));
        assert_eq!(t.insert("name"), (1, true));
        assert_eq!(t.insert("type"), (0, false));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn intern_distinct_strings() {
        let mut t = SymbolTable::default();
        let a = t.intern("type");
        let b = t.intern("columnname");
        assert_ne!(a, b);
        assert_eq!(t.resolve(a), "type");
        assert_eq!(t.resolve(b), "columnname");
    }

    #[test]
    fn get_without_intern_returns_none() {
        let t = SymbolTable::default();
        assert_eq!(t.get("missing"), None);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn case_sensitivity_is_preserved() {
        let mut t = SymbolTable::default();
        let lower = t.intern("parties");
        let upper = t.intern("Parties");
        assert_ne!(lower, upper);
    }

    #[test]
    fn thousands_of_symbols_survive_the_table_growing() {
        let mut t = SymbolTable::default();
        let ids: Vec<u32> = (0..5_000)
            .map(|i| t.intern(&format!("phys/table_{i}/id")))
            .collect();
        assert_eq!(t.intern(""), 5_000);
        assert_eq!(t.len(), 5_001);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(*id as usize, i);
            assert_eq!(t.resolve(*id), format!("phys/table_{i}/id"));
            assert_eq!(t.get(&format!("phys/table_{i}/id")), Some(*id));
        }
        assert_eq!(t.get(""), Some(5_000));
        assert_eq!(t.resolve(5_000), "");
        assert_eq!(t.get("phys/table_5000/id"), None);
        // A clone probes with the same keys.
        assert_eq!(t.clone().get("phys/table_4999/id"), Some(4_999));
    }
}
