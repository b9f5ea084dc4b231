//! Printer that turns a [`SelectStatement`] back into SQL text.
//!
//! SODA presents the generated SQL to the business user (and our experiment
//! reports include it), so the output aims for the readable style used in the
//! paper's examples.  Every statement of a result page is printed, so the
//! printer writes into one `String` sized up front: no piece of the
//! statement is formatted into a text of its own first.  Quotes inside text
//! literals and `LIKE` patterns are doubled, so the output parses back into
//! the statement it came from.

use std::fmt::{self, Write};

use crate::expr::Expr;
use crate::sql::ast::SelectStatement;
use crate::value::Value;

/// Writes `text` between single quotes, doubling the quotes it contains.
fn write_quoted<W: Write>(out: &mut W, text: &str) -> fmt::Result {
    out.write_char('\'')?;
    for (i, part) in text.split('\'').enumerate() {
        if i > 0 {
            out.write_str("''")?;
        }
        out.write_str(part)?;
    }
    out.write_char('\'')
}

/// Writes one expression as SQL; [`Expr`]'s `Display` is this function.
pub(crate) fn write_expr<W: Write>(out: &mut W, expr: &Expr) -> fmt::Result {
    match expr {
        Expr::Column { table, column } => {
            if let Some(table) = table {
                out.write_str(table)?;
                out.write_char('.')?;
            }
            out.write_str(column)
        }
        Expr::Literal(Value::Text(s)) => write_quoted(out, s),
        Expr::Literal(Value::Date(d)) => write!(out, "'{d}'"),
        Expr::Literal(other) => write!(out, "{other}"),
        Expr::Compare { op, left, right } => {
            write_expr(out, left)?;
            out.write_char(' ')?;
            out.write_str(op.as_sql())?;
            out.write_char(' ')?;
            write_expr(out, right)
        }
        Expr::Like { expr, pattern } => {
            write_expr(out, expr)?;
            out.write_str(" LIKE ")?;
            write_quoted(out, pattern)
        }
        Expr::And(a, b) => {
            write_expr(out, a)?;
            out.write_str(" AND ")?;
            write_expr(out, b)
        }
        Expr::Or(a, b) => {
            out.write_char('(')?;
            write_expr(out, a)?;
            out.write_str(" OR ")?;
            write_expr(out, b)?;
            out.write_char(')')
        }
        Expr::Not(e) => {
            out.write_str("NOT (")?;
            write_expr(out, e)?;
            out.write_char(')')
        }
        Expr::IsNull(e) => {
            write_expr(out, e)?;
            out.write_str(" IS NULL")
        }
        Expr::Aggregate { func, arg } => {
            out.write_str(func.as_sql())?;
            out.write_char('(')?;
            match arg {
                Some(a) => write_expr(out, a)?,
                None => out.write_char('*')?,
            }
            out.write_char(')')
        }
        Expr::Star => out.write_char('*'),
    }
}

/// Writes `items` separated by `", "`.
fn write_list<W: Write, T>(
    out: &mut W,
    items: &[T],
    mut write_item: impl FnMut(&mut W, &T) -> fmt::Result,
) -> fmt::Result {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.write_str(", ")?;
        }
        write_item(out, item)?;
    }
    Ok(())
}

fn write_select<W: Write>(out: &mut W, stmt: &SelectStatement) -> fmt::Result {
    out.write_str("SELECT ")?;
    if stmt.distinct {
        out.write_str("DISTINCT ")?;
    }
    write_list(out, &stmt.projection, |out, item| {
        write_expr(out, &item.expr)?;
        if let Some(alias) = &item.alias {
            out.write_str(" AS ")?;
            out.write_str(alias)?;
        }
        Ok(())
    })?;
    out.write_str(" FROM ")?;
    write_list(out, &stmt.from, |out, table| {
        out.write_str(&table.name)?;
        if let Some(alias) = &table.alias {
            out.write_char(' ')?;
            out.write_str(alias)?;
        }
        Ok(())
    })?;
    if let Some(selection) = &stmt.selection {
        out.write_str(" WHERE ")?;
        write_expr(out, selection)?;
    }
    if !stmt.group_by.is_empty() {
        out.write_str(" GROUP BY ")?;
        write_list(out, &stmt.group_by, |out, e| write_expr(out, e))?;
    }
    if !stmt.order_by.is_empty() {
        out.write_str(" ORDER BY ")?;
        write_list(out, &stmt.order_by, |out, o| {
            write_expr(out, &o.expr)?;
            if o.descending {
                out.write_str(" DESC")?;
            }
            Ok(())
        })?;
    }
    if let Some(limit) = stmt.limit {
        write!(out, " LIMIT {limit}")?;
    }
    Ok(())
}

/// The length of `text` written by [`write_quoted`].
fn quoted_width(text: &str) -> usize {
    text.len() + 2 + text.bytes().filter(|&b| b == b'\'').count()
}

/// The number of bytes [`write_expr`] writes for `expr`: exact, except
/// that a float counts as the longest it prints and a date as a four-digit
/// year.
fn expr_width(expr: &Expr) -> usize {
    match expr {
        Expr::Column { table, column } => table.as_ref().map_or(0, |t| t.len() + 1) + column.len(),
        Expr::Literal(value) => match value {
            Value::Null => 4,
            Value::Bool(b) => 4 + usize::from(!b),
            Value::Int(i) => {
                let digits = i
                    .unsigned_abs()
                    .checked_ilog10()
                    .map_or(1, |d| d as usize + 1);
                digits + usize::from(*i < 0)
            }
            Value::Float(_) => 24,
            Value::Text(s) => quoted_width(s),
            Value::Date(_) => 12,
        },
        Expr::Compare { op, left, right } => {
            expr_width(left) + op.as_sql().len() + 2 + expr_width(right)
        }
        Expr::Like { expr, pattern } => expr_width(expr) + " LIKE ".len() + quoted_width(pattern),
        Expr::And(a, b) => expr_width(a) + " AND ".len() + expr_width(b),
        Expr::Or(a, b) => "(".len() + expr_width(a) + " OR ".len() + expr_width(b) + ")".len(),
        Expr::Not(e) => "NOT (".len() + expr_width(e) + ")".len(),
        Expr::IsNull(e) => expr_width(e) + " IS NULL".len(),
        Expr::Aggregate { func, arg } => {
            func.as_sql().len() + 2 + arg.as_deref().map_or(1, expr_width)
        }
        Expr::Star => 1,
    }
}

/// The width of a `", "`-separated list of items of these widths.
fn list_width(widths: impl ExactSizeIterator<Item = usize>) -> usize {
    let separators = 2 * widths.len().saturating_sub(1);
    widths.sum::<usize>() + separators
}

/// The width of a clause: its keyword and its list, if it has one.
fn clause_width(keyword: &str, widths: impl ExactSizeIterator<Item = usize>) -> usize {
    if widths.len() == 0 {
        0
    } else {
        keyword.len() + list_width(widths)
    }
}

/// The number of bytes [`write_select`] writes for `stmt`, as exact as
/// [`expr_width`]: the one allocation [`print_select`] makes.
fn select_width(stmt: &SelectStatement) -> usize {
    let projection = stmt.projection.iter().map(|item| {
        let alias = item.alias.as_ref().map_or(0, |a| " AS ".len() + a.len());
        expr_width(&item.expr) + alias
    });
    let from = stmt.from.iter().map(|table| {
        let alias = table.alias.as_ref().map_or(0, |a| 1 + a.len());
        table.name.len() + alias
    });
    let order_by = stmt.order_by.iter().map(|o| {
        let descending = if o.descending { " DESC".len() } else { 0 };
        expr_width(&o.expr) + descending
    });
    let limit = stmt.limit.map_or(0, |n| {
        " LIMIT ".len() + n.checked_ilog10().map_or(1, |d| d as usize + 1)
    });
    let distinct = if stmt.distinct { "DISTINCT ".len() } else { 0 };
    "SELECT ".len()
        + distinct
        + list_width(projection)
        + " FROM ".len()
        + list_width(from)
        + stmt
            .selection
            .as_ref()
            .map_or(0, |e| " WHERE ".len() + expr_width(e))
        + clause_width(" GROUP BY ", stmt.group_by.iter().map(expr_width))
        + clause_width(" ORDER BY ", order_by)
        + limit
}

/// Renders a statement as a single-line SQL string.
pub fn print_select(stmt: &SelectStatement) -> String {
    let mut out = String::with_capacity(select_width(stmt));
    write_select(&mut out, stmt).expect("writing into a String cannot fail");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CompareOp;
    use crate::sql::ast::TableRef;
    use crate::sql::parser::parse_select;

    #[test]
    fn round_trips_through_the_parser() {
        let sql = "SELECT count(fi_transactions.id), companyname \
                   FROM transactions, fi_transactions, organizations \
                   WHERE transactions.id = fi_transactions.id \
                   AND transactions.toparty = organizations.id \
                   GROUP BY organizations.companyname \
                   ORDER BY count(fi_transactions.id) DESC LIMIT 10";
        let stmt = parse_select(sql).unwrap();
        let printed = print_select(&stmt);
        let reparsed = parse_select(&printed).unwrap();
        assert_eq!(stmt, reparsed);
    }

    #[test]
    fn distinct_and_aliases_are_preserved() {
        let stmt = parse_select("SELECT DISTINCT a AS x FROM t u WHERE u.a > 1").unwrap();
        let printed = print_select(&stmt);
        assert!(printed.contains("DISTINCT"));
        assert!(printed.contains("AS x"));
        assert!(printed.contains("t u"));
        assert_eq!(parse_select(&printed).unwrap(), stmt);
    }

    /// Regression: a `LIKE` pattern used to be printed as it was, so a
    /// quote in it ended the string early and the text did not parse.
    #[test]
    fn quotes_in_like_patterns_and_literals_are_doubled() {
        let mut stmt = SelectStatement::star_over(vec![TableRef::new("agreements")]);
        stmt.selection = Expr::and_all([
            Expr::Like {
                expr: Box::new(Expr::qualified("agreements", "name")),
                pattern: "%o'brien%".into(),
            },
            Expr::compare(
                CompareOp::Eq,
                Expr::qualified("agreements", "owner"),
                Expr::literal("O'Brien AND 'FROM"),
            ),
        ]);
        let printed = print_select(&stmt);
        assert_eq!(
            printed,
            "SELECT * FROM agreements WHERE agreements.name LIKE '%o''brien%' \
             AND agreements.owner = 'O''Brien AND ''FROM'"
        );
        assert_eq!(parse_select(&printed), Ok(stmt));
    }

    /// The buffer is sized exactly: a cached page holds no spare capacity.
    #[test]
    fn the_buffer_is_sized_to_the_text() {
        for sql in [
            "SELECT * FROM individuals, parties WHERE individuals.id = parties.id \
             AND individuals.firstname = 'Sara' AND individuals.salary >= 100000 LIMIT 5",
            "SELECT DISTINCT t.a AS x, count(*) FROM t u, v WHERE (u.a LIKE '%o''b%' OR NOT (v.b IS NULL)) \
             AND v.c <> -42 AND v.d = TRUE AND v.e = NULL GROUP BY t.a ORDER BY count(*) DESC LIMIT 100",
        ] {
            let stmt = parse_select(sql).unwrap();
            let printed = print_select(&stmt);
            assert_eq!(printed.len(), select_width(&stmt), "{printed}");
            assert_eq!(printed.capacity(), printed.len(), "{printed}");
        }
    }
}
