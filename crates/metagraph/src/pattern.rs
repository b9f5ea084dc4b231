//! The metadata-graph pattern language.
//!
//! Patterns follow §4.2.1 of the paper: a pattern is a conjunction of triples;
//! each triple either connects two nodes or connects a node with a text label.
//! A node position is either a static URI or a variable; variables keep their
//! assignment within one match.  In addition, a pattern item may *reference*
//! another named pattern (the paper writes `( x matches-column )` to reuse the
//! column pattern inside the foreign-key pattern).
//!
//! The conventional anchor variable is `x`: when a pattern is tested at a node
//! during graph traversal, `x` is pre-bound to that node.

use std::fmt;

/// A term in subject/object position of a triple pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A variable over nodes (e.g. `x`, `y`, `?join`).
    Var(String),
    /// A static node URI (e.g. `physical_table`).
    Uri(String),
    /// A variable over text labels (the paper writes `t:y`).
    TextVar(String),
    /// A literal text label (e.g. `t:"parties"`).
    TextLit(String),
}

impl Term {
    /// Returns the variable name if this term is a node or text variable.
    pub(crate) fn var_name(&self) -> Option<&str> {
        match self {
            Term::Var(v) | Term::TextVar(v) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Uri(u) => write!(f, "{u}"),
            Term::TextVar(v) => write!(f, "t:{v}"),
            Term::TextLit(s) => write!(f, "t:\"{s}\""),
        }
    }
}

/// A single triple pattern `( subject predicate object )`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriplePattern {
    /// Subject term (node variable or URI).
    pub subject: Term,
    /// Predicate URI (always static in SODA's patterns).
    pub predicate: String,
    /// Object term (node variable/URI or text variable/literal).
    pub object: Term,
}

impl fmt::Display for TriplePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "( {} {} {} )", self.subject, self.predicate, self.object)
    }
}

/// One conjunct of a pattern: either a plain triple or a reference to another
/// named pattern evaluated with its anchor bound to `var`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatternItem {
    /// A triple pattern.
    Triple(TriplePattern),
    /// `( var matches-<name> )`: the referenced pattern must match with its
    /// anchor variable bound to `var`'s assignment.
    Reference {
        /// The variable whose binding anchors the referenced pattern.
        var: Term,
        /// Name of the referenced pattern in the [`crate::matcher::PatternRegistry`].
        pattern: String,
    },
}

impl fmt::Display for PatternItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternItem::Triple(t) => write!(f, "{t}"),
            PatternItem::Reference { var, pattern } => {
                write!(f, "( {var} matches-{pattern} )")
            }
        }
    }
}

/// A named, conjunctive metadata-graph pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    /// Pattern name (e.g. `"table"`, `"column"`, `"foreign_key"`).
    pub name: String,
    /// The conjuncts.
    pub items: Vec<PatternItem>,
    /// The anchor variable, bound to the node being tested (default `"x"`).
    pub anchor: String,
}

impl Pattern {
    /// Builds a pattern from parts, using the conventional anchor `x`.
    pub fn new(name: impl Into<String>, items: Vec<PatternItem>) -> Self {
        Self {
            name: name.into(),
            items,
            anchor: "x".to_string(),
        }
    }

    /// Parses a pattern from the paper's textual syntax; see
    /// [`parse_pattern`](crate::parse_pattern).
    pub fn parse(name: &str, text: &str) -> Result<Self, crate::parser::ParseError> {
        crate::parser::parse_pattern(name, text)
    }

    /// All distinct variable names mentioned by the pattern, anchor first.
    pub fn variables(&self) -> Vec<String> {
        let mut vars = vec![self.anchor.clone()];
        let mut push = |t: &Term| {
            if let Some(v) = t.var_name() {
                if !vars.iter().any(|x| x == v) {
                    vars.push(v.to_string());
                }
            }
        };
        for item in &self.items {
            match item {
                PatternItem::Triple(t) => {
                    push(&t.subject);
                    push(&t.object);
                }
                PatternItem::Reference { var, .. } => push(var),
            }
        }
        vars
    }

    /// Names of patterns referenced through `matches-` items.
    pub fn references(&self) -> Vec<&str> {
        self.items
            .iter()
            .filter_map(|i| match i {
                PatternItem::Reference { pattern, .. } => Some(pattern.as_str()),
                _ => None,
            })
            .collect()
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let body = self
            .items
            .iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join(" &\n");
        write!(f, "{body}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_pattern() -> Pattern {
        Pattern::new(
            "table",
            vec![
                PatternItem::Triple(TriplePattern {
                    subject: Term::Var("x".into()),
                    predicate: "tablename".into(),
                    object: Term::TextVar("y".into()),
                }),
                PatternItem::Triple(TriplePattern {
                    subject: Term::Var("x".into()),
                    predicate: "type".into(),
                    object: Term::Uri("physical_table".into()),
                }),
            ],
        )
    }

    #[test]
    fn variables_are_collected_in_order_anchor_first() {
        let p = table_pattern();
        assert_eq!(p.variables(), vec!["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn references_are_extracted() {
        let p = Pattern::new(
            "foreign_key",
            vec![
                PatternItem::Triple(TriplePattern {
                    subject: Term::Var("x".into()),
                    predicate: "foreign_key".into(),
                    object: Term::Var("y".into()),
                }),
                PatternItem::Reference {
                    var: Term::Var("x".into()),
                    pattern: "column".into(),
                },
                PatternItem::Reference {
                    var: Term::Var("y".into()),
                    pattern: "column".into(),
                },
            ],
        );
        assert_eq!(p.references(), vec!["column", "column"]);
    }

    #[test]
    fn display_round_trips_through_parser() {
        let p = table_pattern();
        let text = p.to_string();
        let reparsed = Pattern::parse("table", &text).unwrap();
        assert_eq!(reparsed.items, p.items);
    }

    #[test]
    fn term_display_forms() {
        assert_eq!(Term::Var("x".into()).to_string(), "x");
        assert_eq!(
            Term::Uri("physical_table".into()).to_string(),
            "physical_table"
        );
        assert_eq!(Term::TextVar("y".into()).to_string(), "t:y");
        assert_eq!(Term::TextLit("Zurich".into()).to_string(), "t:\"Zurich\"");
    }
}
