//! Canonical normalization of input queries, used as the cache key of the
//! serving layer (`soda-service`).
//!
//! Two inputs that normalize identically are guaranteed to produce the same
//! [`ResultPage`](crate::result::ResultPage): the only rewrites applied are
//! ones the engine itself is invariant under.
//!
//! * Keyword groups, aggregation attributes and group-by attributes are
//!   folded through the same tokenizer the lookup step uses
//!   (`write_phrase`, the writing form of `normalize_phrase`): lower-cased,
//!   split on punctuation, re-joined with single spaces.  `"Trade Order TD"`, `trade_order_td` and
//!   `"trade   order  td"` all normalize to `trade order td`.
//! * Values are printed canonically: integral numbers lose their fraction
//!   (`100000.0` → `100000`), dates always render as `date(YYYY-MM-DD)`.
//! * A `top N` term is hoisted to the front — the pipeline reads it with a
//!   position-independent accessor, so its placement never affects output.
//! * Connector words (`and`/`or`), the meaningless `select` prefix and stray
//!   punctuation are already erased by the parser; adjacent keyword groups
//!   are re-separated with a canonical `and`.
//!
//! Deliberately **not** rewritten, because the engine is *not* invariant
//! under them: the order of keyword groups (comparison operators attach to
//! the group before them), the order of constraints (it shows in the
//! generated `WHERE` clause), the case of comparison / `like` values (they
//! flow verbatim into SQL literals) and the order of group-by attributes.
//!
//! The canonical text is written straight from the grammar walk the parser
//! is built on (`parser::walk`) — no token list, no AST — so canonicalising an
//! input allocates its output and nothing else.

use std::fmt::Write as _;

use soda_relation::index::tokenizer::write_phrase;
use soda_relation::CompareOp;

use crate::error::Result;
use crate::query::parser::{walk, Event, ValueRef};

/// Renders the canonical form of an input query.
///
/// Returns the parse error of [`parse_query`](super::parse_query) for inputs
/// the engine would reject anyway — callers can surface it without running
/// the pipeline.
pub fn normalize_query(input: &str) -> Result<String> {
    // Room for what canonical spellings add (`date(…)` around a bare date,
    // the `and` of a `between`), so the output is allocated once.
    let mut writer = CanonicalWriter {
        out: String::with_capacity(input.len() + 16),
        ..CanonicalWriter::default()
    };
    walk(input, |event| writer.event(event))?;
    Ok(writer.finish())
}

/// Writes the canonical text from the walk's events.
#[derive(Default)]
struct CanonicalWriter {
    out: String,
    /// The *last* `top N` term, because that is the one the lookup step
    /// applies (it overwrites on every occurrence) — hoisting any other one
    /// would collide inputs the engine answers differently.
    top_n: Option<usize>,
    /// A keyword group is open and has written a token.
    in_group: bool,
    /// The last part written was a keyword group: the next one is
    /// re-separated from it with a canonical `and`.
    after_keywords: bool,
    /// Inside a `group by` list (attributes separated by `, `) rather than
    /// an aggregation's (all words one attribute).
    group_by: bool,
    /// A `group by` attribute has been finished, and whether the current
    /// one has a word yet.
    listed: bool,
    in_attribute: bool,
    /// A token has been written since the list (aggregation) or the
    /// attribute (`group by`) began.
    spaced: bool,
}

impl CanonicalWriter {
    fn event(&mut self, event: Event<'_>) {
        match event {
            Event::Keyword(word) => {
                let lead = if self.out.is_empty() {
                    ""
                } else if self.in_group || !self.after_keywords {
                    " "
                } else {
                    " and "
                };
                if write_phrase(&mut self.out, lead, word) {
                    self.in_group = true;
                    self.after_keywords = true;
                }
            }
            Event::Connector => self.in_group = false,
            // Hoisted to the front by `finish`.
            Event::TopN(n) => {
                self.in_group = false;
                self.top_n = Some(n);
            }
            Event::Comparison(op, value) => {
                let out = self.part();
                out.push_str(op_text(op));
                out.push(' ');
                write_value(out, value);
            }
            Event::Like(pattern) => {
                let out = self.part();
                out.push_str("like ");
                out.push_str(pattern);
            }
            Event::Between(low, high) => {
                let out = self.part();
                out.push_str("between ");
                write_value(out, low);
                out.push_str(" and ");
                write_value(out, high);
            }
            Event::ValidAt(value) => {
                let out = self.part();
                out.push_str("valid at ");
                write_value(out, value);
            }
            Event::ListOpen(head) => {
                let out = self.part();
                match head {
                    Some(func) => {
                        out.push_str(func.as_sql());
                        out.push_str(" (");
                    }
                    None => out.push_str("group by ("),
                }
                self.group_by = head.is_none();
                self.listed = false;
                self.in_attribute = false;
                self.spaced = false;
            }
            Event::ListWord(word) => {
                if self.group_by && !self.in_attribute {
                    if self.listed {
                        self.out.push_str(", ");
                    }
                    self.in_attribute = true;
                    self.spaced = false;
                }
                let lead = if self.spaced { " " } else { "" };
                self.spaced |= write_phrase(&mut self.out, lead, word);
            }
            Event::ListComma => {
                self.listed |= self.in_attribute;
                self.in_attribute = false;
            }
            Event::ListClose => self.out.push(')'),
        }
    }

    /// Starts a part that is not a keyword group — separated from what is
    /// already written by one blank — and returns where to write it.
    fn part(&mut self) -> &mut String {
        self.in_group = false;
        self.after_keywords = false;
        if !self.out.is_empty() {
            self.out.push(' ');
        }
        &mut self.out
    }

    fn finish(mut self) -> String {
        let Some(n) = self.top_n else {
            return self.out;
        };
        // Written behind the body, then rotated in front of it: in place,
        // and both pieces stay whole, so the text stays UTF-8.
        let body = self.out.len();
        write!(self.out, "top {n}").expect("writing to a String");
        if body > 0 {
            self.out.push(' ');
        }
        let head = self.out.len() - body;
        let mut bytes = self.out.into_bytes();
        bytes.rotate_right(head);
        String::from_utf8(bytes).expect("two whole UTF-8 pieces, swapped")
    }
}

fn op_text(op: CompareOp) -> &'static str {
    match op {
        CompareOp::Eq => "=",
        CompareOp::NotEq => "!=",
        CompareOp::Lt => "<",
        CompareOp::LtEq => "<=",
        CompareOp::Gt => ">",
        CompareOp::GtEq => ">=",
    }
}

fn write_value(out: &mut String, value: ValueRef<'_>) {
    match value {
        ValueRef::Number(n) if n.fract() == 0.0 && n.abs() < 1e15 => write!(out, "{}", n as i64),
        ValueRef::Number(n) => write!(out, "{n}"),
        ValueRef::Date(date) => write!(out, "date({date})"),
        ValueRef::Text(text) => {
            out.push_str(text);
            Ok(())
        }
    }
    .expect("writing to a String");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_and_whitespace_fold_together() {
        let a = normalize_query("Sara   Guttinger").unwrap();
        let b = normalize_query("sara guttinger").unwrap();
        let c = normalize_query("SARA GUTTINGER").unwrap();
        assert_eq!(a, "sara guttinger");
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn identifier_and_phrase_forms_share_a_key() {
        assert_eq!(
            normalize_query("trade_order_td").unwrap(),
            normalize_query("Trade Order TD").unwrap()
        );
    }

    #[test]
    fn numbers_and_dates_render_canonically() {
        let a = normalize_query("salary >= 100000 and birthday = date(1981-04-23)").unwrap();
        let b = normalize_query("Salary >= 100000.0 and Birthday = 1981-04-23").unwrap();
        assert_eq!(a, "salary >= 100000 birthday = date(1981-04-23)");
        assert_eq!(a, b);
    }

    #[test]
    fn top_n_is_hoisted_to_the_front() {
        let a = normalize_query("top 10 wealthy customers").unwrap();
        let b = normalize_query("wealthy customers top 10").unwrap();
        assert_eq!(a, "top 10 wealthy customers");
        assert_eq!(a, b);
    }

    #[test]
    fn repeated_top_n_keeps_the_one_the_engine_applies() {
        // The lookup step overwrites `top_n` per occurrence, so the last one
        // wins at execution time; normalization must agree or two queries
        // the engine answers differently would share a cache key.
        let q = normalize_query("top 5 customers top 10").unwrap();
        assert_eq!(q, "top 10 customers");
        assert_ne!(q, normalize_query("top 5 customers").unwrap());
    }

    #[test]
    fn aggregation_and_group_by_fold_attribute_case() {
        let a = normalize_query("sum (Amount) group by (Transaction Date)").unwrap();
        let b = normalize_query("SUM(amount) group by (transaction_date)").unwrap();
        assert_eq!(a, "sum (amount) group by (transaction date)");
        assert_eq!(a, b);
    }

    #[test]
    fn keyword_groups_are_separated_by_canonical_and() {
        let a = normalize_query("customers and Zurich or financial instruments").unwrap();
        let b = normalize_query("Customers AND zurich AND Financial Instruments").unwrap();
        assert_eq!(a, "customers and zurich and financial instruments");
        assert_eq!(a, b);
        // A single merged group is a *different* query (different longest-word
        // segmentation), so it must not collide.
        let merged = normalize_query("customers Zurich financial instruments").unwrap();
        assert_ne!(a, merged);
    }

    #[test]
    fn comparison_values_keep_their_case() {
        // Text values flow verbatim into SQL literals, so `Zurich` and
        // `zurich` are different filters and must not share a cache slot.
        let a = normalize_query("city = Zurich").unwrap();
        let b = normalize_query("city = zurich").unwrap();
        assert_ne!(a, b);
        // The keyword part still folds.
        assert!(a.starts_with("city = "));
    }

    #[test]
    fn between_and_valid_at_render_canonically() {
        let q = normalize_query(
            "transaction date between date(2010-01-01) and date(2010-12-31) valid at date(2011-01-01)",
        )
        .unwrap();
        assert_eq!(
            q,
            "transaction date between date(2010-01-01) and date(2010-12-31) valid at date(2011-01-01)"
        );
    }

    #[test]
    fn normalized_form_reparses_to_the_same_canonical_form() {
        for input in [
            "Sara Guttinger",
            "top 10 sum (amount) group by (company name)",
            "salary >= 100000 and birthday = date(1981-04-23)",
            "customers and Zurich or financial instruments",
            "agreement like gold",
        ] {
            let once = normalize_query(input).unwrap();
            let twice = normalize_query(&once).unwrap();
            assert_eq!(once, twice, "not a fixed point for '{input}'");
        }
    }

    #[test]
    fn parse_errors_propagate() {
        assert!(normalize_query("   ").is_err());
        assert!(normalize_query("salary >=").is_err());
    }
}
