//! Tokenisation used both by the inverted index over the base data and by the
//! SODA classification index over metadata labels.
//!
//! Tokens are lower-cased and split on any non-alphanumeric character, which
//! mirrors the behaviour the paper needs: "Credit Suisse" indexes as
//! `credit` and `suisse`, `birth_dt` as `birth` and `dt`.

/// Splits `text` into lower-case alphanumeric tokens.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    for c in text.chars() {
        if c.is_ascii_alphanumeric() {
            current.push(c.to_ascii_lowercase());
        } else if c.is_alphanumeric() {
            current.extend(c.to_lowercase());
        } else if !current.is_empty() {
            tokens.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

/// Normalises a multi-word phrase into a single lookup key (lower-case tokens
/// joined by single spaces).
pub fn normalize_phrase(text: &str) -> String {
    let mut out = String::new();
    write_phrase(&mut out, "", text);
    out
}

/// The writing form of [`normalize_phrase`]: appends the tokens of `text` to
/// `out` — `lead` before the first, a single space before every further one
/// — and says whether there was any.  Allocates nothing beyond what `out`
/// grows by.
pub fn write_phrase(out: &mut String, lead: &str, text: &str) -> bool {
    write_tokens(out, lead, " ", text)
}

/// [`write_phrase`] with `sep` between two tokens instead of a space: `"_"`
/// writes a URI slug, `""` the tokens run together.
pub fn write_tokens(out: &mut String, lead: &str, sep: &str, text: &str) -> bool {
    let mut any = false;
    let mut in_token = false;
    for c in text.chars() {
        if !c.is_alphanumeric() {
            in_token = false;
            continue;
        }
        if !in_token {
            out.push_str(if any { sep } else { lead });
            in_token = true;
            any = true;
        }
        if c.is_ascii() {
            out.push(c.to_ascii_lowercase());
        } else {
            out.extend(c.to_lowercase());
        }
    }
    any
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_whitespace_and_punctuation() {
        assert_eq!(tokenize("Credit Suisse"), vec!["credit", "suisse"]);
        assert_eq!(tokenize("birth_dt"), vec!["birth", "dt"]);
        assert_eq!(tokenize("fi-contains.sec"), vec!["fi", "contains", "sec"]);
    }

    #[test]
    fn lowercases_and_keeps_digits() {
        assert_eq!(tokenize("Basel II 2010"), vec!["basel", "ii", "2010"]);
    }

    #[test]
    fn empty_and_symbol_only_strings() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("--- ***").is_empty());
    }

    #[test]
    fn normalize_phrase_canonicalises_spacing_and_case() {
        assert_eq!(
            normalize_phrase("  Private   CUSTOMERS "),
            "private customers"
        );
        assert_eq!(
            normalize_phrase("financial_instruments"),
            "financial instruments"
        );
    }

    #[test]
    fn write_phrase_leads_the_first_token_only() {
        let mut out = String::from("a");
        assert!(write_phrase(&mut out, " and ", "Trade_Order TD"));
        assert_eq!(out, "a and trade order td");
        assert!(!write_phrase(&mut out, " and ", "--- ***"));
        assert_eq!(out, "a and trade order td");
        for text in ["  Private   CUSTOMERS ", "Zürich İx", "fi-contains.sec", ""] {
            assert_eq!(normalize_phrase(text), tokenize(text).join(" "));
            for sep in ["_", ""] {
                let mut out = String::new();
                write_tokens(&mut out, "", sep, text);
                assert_eq!(out, tokenize(text).join(sep));
            }
        }
    }

    #[test]
    fn unicode_characters_are_preserved() {
        assert_eq!(tokenize("Zürich"), vec!["zürich"]);
    }
}
