//! A small SQL lexer.  Tokens borrow from the input: a name, a number or
//! an operator is a slice of it, and a string literal is one too unless it
//! holds a doubled quote.

use std::borrow::Cow;

use crate::error::{RelationError, Result};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Token<'a> {
    /// Keyword or identifier (uppercased check happens in the parser).
    Ident(&'a str),
    /// Numeric literal.
    Number(&'a str),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    StringLit(Cow<'a, str>),
    /// `,`
    Comma,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// Comparison operator: `=`, `<`, `<=`, `>`, `>=`, `<>`, `!=`.
    Op(&'a str),
}

impl Token<'_> {
    /// True if this token is the given keyword (case-insensitive).
    pub(crate) fn is_keyword(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// Reads the string literal whose text starts at `start` (just past its
/// opening quote): its text, `''` unescaped, and the offset past its
/// closing quote.
fn string_literal(input: &str, start: usize) -> Result<(Cow<'_, str>, usize)> {
    let mut end = start;
    loop {
        let Some(quote) = input[end..].find('\'') else {
            return Err(RelationError::Parse("unterminated string literal".into()));
        };
        end += quote;
        if !input[end + 1..].starts_with('\'') {
            break;
        }
        end += 2;
    }
    let raw = &input[start..end];
    let text = if raw.contains("''") {
        Cow::Owned(raw.replace("''", "'"))
    } else {
        Cow::Borrowed(raw)
    };
    Ok((text, end + 1))
}

/// Tokenises a SQL string.
pub(crate) fn lex(input: &str) -> Result<Vec<Token<'_>>> {
    // Generated SQL spends five bytes or more per token: no regrowth.
    let mut tokens = Vec::with_capacity(input.len() / 4);
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            c if c.is_whitespace() => i += 1,
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            '.' => {
                tokens.push(Token::Dot);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            ';' => i += 1,
            '\'' => {
                let (text, end) = string_literal(input, i + 1)?;
                tokens.push(Token::StringLit(text));
                i = end;
            }
            '=' => {
                tokens.push(Token::Op("="));
                i += 1;
            }
            '<' | '>' | '!' => {
                let start = i;
                if let Some(&next) = bytes.get(i + 1) {
                    if next == b'=' || (c == '<' && next == b'>') {
                        i += 1;
                    }
                }
                i += 1;
                let op = &input[start..i];
                if op == "!" {
                    return Err(RelationError::Parse("unexpected '!'".into()));
                }
                tokens.push(Token::Op(op));
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_digit()
                        || bytes[i] as char == '.'
                        || bytes[i] as char == '-' && i == start)
                {
                    // A '.' followed by a non-digit ends the number (covers
                    // `t1.c` style qualified names starting with digits, which
                    // we do not generate anyway).
                    if bytes[i] as char == '.'
                        && (i + 1 >= bytes.len() || !(bytes[i + 1] as char).is_ascii_digit())
                    {
                        break;
                    }
                    i += 1;
                }
                tokens.push(Token::Number(&input[start..i]));
            }
            '-' if i + 1 < bytes.len() && (bytes[i + 1] as char).is_ascii_digit() => {
                let start = i;
                i += 1;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_digit() || bytes[i] as char == '.')
                {
                    i += 1;
                }
                tokens.push(Token::Number(&input[start..i]));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] as char == '_')
                {
                    i += 1;
                }
                tokens.push(Token::Ident(&input[start..i]));
            }
            other => {
                return Err(RelationError::Parse(format!(
                    "unexpected character {other:?} at byte {i}"
                )));
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_a_simple_select() {
        let toks = lex("SELECT * FROM parties WHERE id = 1").unwrap();
        assert_eq!(toks.len(), 8);
        assert!(toks[0].is_keyword("select"));
        assert_eq!(toks[1], Token::Star);
        assert_eq!(toks[6], Token::Op("="));
        assert_eq!(toks[7], Token::Number("1"));
    }

    #[test]
    fn lexes_strings_with_escaped_quotes() {
        let toks = lex("name = 'O''Brien'").unwrap();
        assert_eq!(toks[2], Token::StringLit("O'Brien".into()));
    }

    #[test]
    fn lexes_comparison_operators() {
        let toks = lex("a >= 1 AND b <> 2 AND c != 3 AND d <= 4").unwrap();
        let ops: Vec<_> = toks
            .iter()
            .filter_map(|t| match t {
                Token::Op(o) => Some(*o),
                _ => None,
            })
            .collect();
        assert_eq!(ops, vec![">=", "<>", "!=", "<="]);
    }

    #[test]
    fn lexes_qualified_names_and_floats() {
        let toks = lex("parties.id = 3.5").unwrap();
        assert_eq!(toks[0], Token::Ident("parties"));
        assert_eq!(toks[1], Token::Dot);
        assert_eq!(toks[4], Token::Number("3.5"));
    }

    #[test]
    fn negative_numbers_after_operator() {
        let toks = lex("salary >= -100").unwrap();
        assert_eq!(toks[2], Token::Number("-100"));
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(lex("name = 'oops").is_err());
    }

    #[test]
    fn unexpected_character_is_an_error() {
        assert!(lex("a = #").is_err());
    }
}
