//! Recursive-descent parser for the SQL subset.

use std::sync::Arc;

use crate::error::{RelationError, Result};
use crate::expr::{AggFunc, CompareOp, Expr};
use crate::sql::ast::{OrderByItem, SelectItem, SelectStatement, TableRef};
use crate::sql::lexer::{lex, Token};
use crate::value::{Date, Value};

/// Reserved words that cannot be used as bare aliases.
const RESERVED: &[&str] = &[
    "select", "from", "where", "group", "order", "by", "limit", "and", "or", "not", "like", "is",
    "null", "as", "asc", "desc", "distinct", "between", "in", "inner", "join", "on",
];

/// The deepest nesting of parentheses, `NOT`s and aggregate calls a
/// statement may have.  Generated statements stay far below it; the cap
/// keeps hostile text (a caller's SQL, a page-cache file) from recursing
/// the parser off the stack, even on the 2 MiB stacks test threads get.
pub(crate) const MAX_NESTING: usize = 200;

/// Parses a single `SELECT` statement.  Nesting deeper than
/// `MAX_NESTING` (200) is a [`RelationError::Parse`].
pub fn parse_select(sql: &str) -> Result<SelectStatement> {
    let tokens = lex(sql)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
        names: Vec::new(),
    };
    let stmt = p.select()?;
    if !p.at_end() {
        return Err(RelationError::Parse(format!(
            "unexpected trailing token: {:?}",
            p.peek()
        )));
    }
    Ok(stmt)
}

/// Whether `word` may stand as a bare alias.
fn is_alias(word: &str) -> bool {
    !RESERVED.iter().any(|kw| word.eq_ignore_ascii_case(kw))
}

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    /// How many parentheses, `NOT`s and aggregate calls enclose the
    /// current position.
    depth: usize,
    /// The table and column names read so far: a statement names few, and
    /// each is allocated once however often it recurs.
    names: Vec<Arc<str>>,
}

impl<'a> Parser<'a> {
    /// `name` as a shared name: one allocation wherever it recurs.
    fn name(&mut self, name: &str) -> Arc<str> {
        if let Some(seen) = self.names.iter().find(|seen| ***seen == *name) {
            return Arc::clone(seen);
        }
        let name: Arc<str> = name.into();
        self.names.push(Arc::clone(&name));
        name
    }

    /// Runs `parse` one nesting level deeper, refusing past [`MAX_NESTING`].
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth == MAX_NESTING {
            return Err(RelationError::Parse(format!(
                "nesting deeper than {MAX_NESTING} levels"
            )));
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    fn peek(&self) -> Option<&Token<'a>> {
        self.tokens.get(self.pos)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn next(&mut self) -> Option<Token<'a>> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(t) if t.is_keyword(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(RelationError::Parse(format!(
                "expected {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn eat(&mut self, tok: &Token<'a>) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &Token<'a>) -> Result<()> {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(RelationError::Parse(format!(
                "expected {tok:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<&'a str> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(RelationError::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn select(&mut self) -> Result<SelectStatement> {
        self.expect_keyword("select")?;
        let distinct = self.eat_keyword("distinct");
        let mut projection = vec![self.select_item()?];
        while self.eat(&Token::Comma) {
            projection.push(self.select_item()?);
        }
        self.expect_keyword("from")?;
        let mut from = vec![self.table_ref()?];
        while self.eat(&Token::Comma) {
            from.push(self.table_ref()?);
        }
        let selection = if self.eat_keyword("where") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_keyword("group") {
            self.expect_keyword("by")?;
            group_by.push(self.operand()?);
            while self.eat(&Token::Comma) {
                group_by.push(self.operand()?);
            }
        }
        let mut order_by = Vec::new();
        if self.eat_keyword("order") {
            self.expect_keyword("by")?;
            loop {
                let expr = self.operand()?;
                let descending = if self.eat_keyword("desc") {
                    true
                } else {
                    self.eat_keyword("asc");
                    false
                };
                order_by.push(OrderByItem { expr, descending });
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_keyword("limit") {
            match self.next() {
                Some(Token::Number(n)) => Some(
                    n.parse::<usize>()
                        .map_err(|_| RelationError::Parse(format!("invalid LIMIT value: {n}")))?,
                ),
                other => {
                    return Err(RelationError::Parse(format!(
                        "expected number after LIMIT, found {other:?}"
                    )))
                }
            }
        } else {
            None
        };
        Ok(SelectStatement {
            distinct,
            projection,
            from,
            selection,
            group_by,
            order_by,
            limit,
        })
    }

    /// An `AS name` or a bare non-reserved name after an item or a table.
    fn alias(&mut self) -> Result<Option<&'a str>> {
        if self.eat_keyword("as") {
            return self.ident().map(Some);
        }
        match self.peek() {
            Some(&Token::Ident(name)) if is_alias(name) => {
                self.pos += 1;
                Ok(Some(name))
            }
            _ => Ok(None),
        }
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat(&Token::Star) {
            return Ok(SelectItem::expr(Expr::Star));
        }
        let expr = self.operand()?;
        let alias = self.alias()?.map(str::to_owned);
        Ok(SelectItem { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let name = self.ident()?;
        let alias = self.alias()?.map(str::to_owned);
        Ok(TableRef {
            name: self.name(name),
            alias,
        })
    }

    fn expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_keyword("or") {
            let right = self.and_expr()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_keyword("and") {
            let right = self.not_expr()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_keyword("not") {
            return Ok(Expr::Not(Box::new(self.nested(Self::not_expr)?)));
        }
        self.predicate()
    }

    fn predicate(&mut self) -> Result<Expr> {
        // Parenthesised boolean expression.
        if self.peek() == Some(&Token::LParen) {
            // Look ahead: a parenthesis could also wrap an operand in a
            // comparison; we only treat it as a boolean group if it parses as
            // one cleanly.
            let checkpoint = self.pos;
            self.pos += 1;
            if let Ok(inner) = self.nested(Self::expr) {
                if self.eat(&Token::RParen) {
                    // If the next token is a comparison operator, the group was
                    // actually an operand; fall through by rewinding.
                    let next_is_cmp = matches!(self.peek(), Some(Token::Op(_)))
                        || matches!(self.peek(), Some(t) if t.is_keyword("like"));
                    if !next_is_cmp {
                        return Ok(inner);
                    }
                }
            }
            self.pos = checkpoint;
        }

        let left = self.operand()?;
        match self.peek().cloned() {
            Some(Token::Op(op)) => {
                self.pos += 1;
                let op = CompareOp::parse(op)
                    .ok_or_else(|| RelationError::Parse(format!("unknown operator {op}")))?;
                let right = self.operand()?;
                Ok(Expr::Compare {
                    op,
                    left: Box::new(left),
                    right: Box::new(right),
                })
            }
            Some(t) if t.is_keyword("like") => {
                self.pos += 1;
                match self.next() {
                    Some(Token::StringLit(p)) => Ok(Expr::Like {
                        expr: Box::new(left),
                        pattern: p.into_owned(),
                    }),
                    other => Err(RelationError::Parse(format!(
                        "expected string pattern after LIKE, found {other:?}"
                    ))),
                }
            }
            Some(t) if t.is_keyword("is") => {
                self.pos += 1;
                let negated = self.eat_keyword("not");
                self.expect_keyword("null")?;
                let e = Expr::IsNull(Box::new(left));
                Ok(if negated { Expr::Not(Box::new(e)) } else { e })
            }
            Some(t) if t.is_keyword("between") => {
                self.pos += 1;
                let low = self.operand()?;
                self.expect_keyword("and")?;
                let high = self.operand()?;
                Ok(Expr::And(
                    Box::new(Expr::Compare {
                        op: CompareOp::GtEq,
                        left: Box::new(left.clone()),
                        right: Box::new(low),
                    }),
                    Box::new(Expr::Compare {
                        op: CompareOp::LtEq,
                        left: Box::new(left),
                        right: Box::new(high),
                    }),
                ))
            }
            _ => Ok(left),
        }
    }

    fn operand(&mut self) -> Result<Expr> {
        match self.next() {
            Some(Token::Number(n)) => {
                if n.contains('.') {
                    let f: f64 = n
                        .parse()
                        .map_err(|_| RelationError::Parse(format!("bad number {n}")))?;
                    Ok(Expr::Literal(Value::Float(f)))
                } else {
                    let i: i64 = n
                        .parse()
                        .map_err(|_| RelationError::Parse(format!("bad number {n}")))?;
                    Ok(Expr::Literal(Value::Int(i)))
                }
            }
            Some(Token::StringLit(s)) => {
                // Date-shaped strings become dates so that comparisons against
                // DATE columns behave naturally.
                if let Some(d) = Date::parse(&s) {
                    Ok(Expr::Literal(Value::Date(d)))
                } else {
                    Ok(Expr::Literal(Value::from(&*s)))
                }
            }
            Some(Token::Star) => Ok(Expr::Star),
            Some(Token::LParen) => {
                let inner = self.nested(Self::operand)?;
                self.expect(&Token::RParen)?;
                Ok(inner)
            }
            Some(Token::Ident(name)) => {
                // DATE '2011-09-01'
                if name.eq_ignore_ascii_case("date") {
                    if let Some(Token::StringLit(s)) = self.peek().cloned() {
                        self.pos += 1;
                        let d = Date::parse(&s).ok_or_else(|| {
                            RelationError::Parse(format!("invalid date literal '{s}'"))
                        })?;
                        return Ok(Expr::Literal(Value::Date(d)));
                    }
                }
                // Aggregate function call.
                if self.peek() == Some(&Token::LParen) {
                    if let Some(func) = AggFunc::parse(name) {
                        self.pos += 1;
                        // Both `count(*)` and a bare `count()` mean "no
                        // argument"; the star just needs consuming.
                        let arg = if self.eat(&Token::Star) || self.peek() == Some(&Token::RParen) {
                            None
                        } else {
                            Some(Box::new(self.nested(Self::operand)?))
                        };
                        self.expect(&Token::RParen)?;
                        return Ok(Expr::Aggregate { func, arg });
                    }
                    return Err(RelationError::Parse(format!("unknown function {name}")));
                }
                // Qualified column (or table.*).
                if self.eat(&Token::Dot) {
                    if self.eat(&Token::Star) {
                        // table.* is only meaningful in projections; represent
                        // it as a Star with a qualifier lost — the executor
                        // treats it as all columns of that table via Column
                        // with a special name. Keep it simple: full star.
                        return Ok(Expr::Star);
                    }
                    let col = self.ident()?;
                    return Ok(Expr::qualified(self.name(name), self.name(col)));
                }
                if name.eq_ignore_ascii_case("null") {
                    return Ok(Expr::Literal(Value::Null));
                }
                if name.eq_ignore_ascii_case("true") {
                    return Ok(Expr::Literal(Value::Bool(true)));
                }
                if name.eq_ignore_ascii_case("false") {
                    return Ok(Expr::Literal(Value::Bool(false)));
                }
                Ok(Expr::column(self.name(name)))
            }
            other => Err(RelationError::Parse(format!(
                "expected operand, found {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_query1_from_the_paper() {
        let sql = "SELECT * FROM parties, individuals \
                   WHERE parties.id = individuals.id \
                   AND individuals.firstName = 'Sara' \
                   AND individuals.lastName = 'Guttinger'";
        let stmt = parse_select(sql).unwrap();
        assert_eq!(stmt.from.len(), 2);
        assert_eq!(stmt.projection.len(), 1);
        let conjuncts = stmt.selection.as_ref().unwrap().conjuncts().len();
        assert_eq!(conjuncts, 3);
    }

    #[test]
    fn parses_query3_aggregation() {
        let sql =
            "SELECT sum(amount), transactiondate FROM fi_transactions GROUP BY transactiondate";
        let stmt = parse_select(sql).unwrap();
        assert!(stmt.is_aggregate());
        assert_eq!(stmt.group_by.len(), 1);
        assert!(matches!(
            stmt.projection[0].expr,
            Expr::Aggregate {
                func: AggFunc::Sum,
                ..
            }
        ));
    }

    #[test]
    fn parses_query4_with_order_by_desc() {
        let sql = "SELECT count(fi_transactions.id), companyname \
                   FROM transactions, fi_transactions, organizations \
                   WHERE transactions.id = fi_transactions.id \
                   AND transactions.toParty = organizations.id \
                   GROUP BY organizations.companyname \
                   ORDER BY count(fi_transactions.id) desc";
        let stmt = parse_select(sql).unwrap();
        assert_eq!(stmt.from.len(), 3);
        assert_eq!(stmt.order_by.len(), 1);
        assert!(stmt.order_by[0].descending);
        assert!(stmt.order_by[0].expr.contains_aggregate());
    }

    #[test]
    fn parses_dates_and_ranges() {
        let stmt = parse_select(
            "SELECT * FROM persons WHERE birthday = date('1981-04-23') AND salary >= 100000",
        );
        // date('...') is not the supported form; DATE 'literal' and plain
        // strings are. Verify the error is clean.
        assert!(stmt.is_err());

        let stmt = parse_select(
            "SELECT * FROM persons WHERE birthday = DATE '1981-04-23' AND salary >= 100000",
        )
        .unwrap();
        let conj = stmt.selection.unwrap();
        assert_eq!(conj.conjuncts().len(), 2);

        let stmt = parse_select(
            "SELECT * FROM trade_order_td WHERE order_dt BETWEEN '2010-01-01' AND '2010-12-31'",
        )
        .unwrap();
        assert_eq!(stmt.selection.unwrap().conjuncts().len(), 2);
    }

    #[test]
    fn parses_distinct_limit_and_aliases() {
        let stmt = parse_select(
            "SELECT DISTINCT i.family_name AS name FROM individual i WHERE i.salary > 500000 LIMIT 10",
        )
        .unwrap();
        assert!(stmt.distinct);
        assert_eq!(stmt.limit, Some(10));
        assert_eq!(stmt.from[0].alias.as_deref(), Some("i"));
        assert_eq!(stmt.projection[0].alias.as_deref(), Some("name"));
    }

    #[test]
    fn parses_like_and_or_and_not() {
        let stmt =
            parse_select("SELECT * FROM t WHERE (a LIKE '%gold%' OR b = 1) AND NOT c IS NULL")
                .unwrap();
        let sel = stmt.selection.unwrap();
        assert_eq!(sel.conjuncts().len(), 2);
    }

    #[test]
    fn rejects_trailing_garbage_and_missing_from() {
        assert!(parse_select("SELECT * FROM t WHERE a = 1 extra garbage tokens").is_err());
        assert!(parse_select("SELECT *").is_err());
        assert!(parse_select("FROM t").is_err());
    }

    #[test]
    fn count_star_and_count_column() {
        let stmt = parse_select("SELECT count(*), count(id) FROM t GROUP BY x").unwrap();
        assert!(matches!(
            stmt.projection[0].expr,
            Expr::Aggregate {
                func: AggFunc::Count,
                arg: None
            }
        ));
        assert!(matches!(
            stmt.projection[1].expr,
            Expr::Aggregate {
                func: AggFunc::Count,
                arg: Some(_)
            }
        ));
    }

    #[test]
    fn null_and_boolean_literals() {
        let stmt = parse_select("SELECT * FROM t WHERE a = NULL OR b = TRUE").unwrap();
        assert!(stmt.selection.is_some());
    }

    /// `levels` parentheses around `a = 1`, `levels` `NOT`s before it, and
    /// `levels` nested `sum(` calls.
    fn nested_statements(levels: usize) -> [String; 3] {
        [
            format!(
                "SELECT * FROM t WHERE {}a = 1{}",
                "(".repeat(levels),
                ")".repeat(levels)
            ),
            format!("SELECT * FROM t WHERE {}a = 1", "NOT ".repeat(levels)),
            format!(
                "SELECT {}a{} FROM t",
                "sum(".repeat(levels),
                ")".repeat(levels)
            ),
        ]
    }

    #[test]
    fn nesting_parses_up_to_the_cap() {
        for sql in nested_statements(MAX_NESTING) {
            assert!(parse_select(&sql).is_ok(), "{}", &sql[..40]);
        }
        for sql in nested_statements(MAX_NESTING + 1) {
            assert!(
                matches!(parse_select(&sql), Err(RelationError::Parse(m)) if m.contains("nesting")),
                "{}",
                &sql[..40]
            );
        }
    }

    /// Hostile text — a caller's SQL, a page-cache file — cannot recurse
    /// the parser off a test thread's stack: 100 000 levels of nesting are
    /// an error, not an abort.
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for sql in nested_statements(100_000) {
            assert!(parse_select(&sql).is_err(), "{}", &sql[..40]);
        }
    }
}
