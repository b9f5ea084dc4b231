//! Compact binary encoding of relational values, rows and SQL statements.
//!
//! The durability layer (`soda-journal`, and the serving layer's persistent
//! result-page cache) needs to write [`Value`]s, [`Row`]s and generated
//! [`SelectStatement`]s to disk and read them back **structurally
//! identical** — re-parsing printed SQL would round-trip the text but not
//! necessarily the AST, and floats must survive bit-exactly for recovered
//! pages to compare equal to never-persisted ones.  This module provides
//! that: a tiny, dependency-free, little-endian tag-length-value codec with
//! an explicit [`Encoder`] / [`Decoder`] pair and per-type helpers.
//!
//! The format is not self-describing and carries no versioning of its own;
//! the files built on top of it (journal, cache) prefix a magic + version
//! header and checksum every frame, so a decoder here only ever sees bytes
//! that were written by the same build lineage and passed a CRC.
//!
//! ```
//! use soda_relation::codec::{Decoder, Encoder};
//! use soda_relation::Value;
//!
//! let mut enc = Encoder::new();
//! enc.put_value(&Value::from("Zurich"));
//! enc.put_value(&Value::Float(1.5));
//! let bytes = enc.into_bytes();
//!
//! let mut dec = Decoder::new(&bytes);
//! assert_eq!(dec.get_value().unwrap(), Value::from("Zurich"));
//! assert_eq!(dec.get_value().unwrap(), Value::Float(1.5));
//! assert!(dec.is_empty());
//! ```

use std::fmt;
use std::sync::Arc;

use crate::expr::{AggFunc, CompareOp, Expr};
use crate::sql::ast::{OrderByItem, SelectItem, SelectStatement, TableRef};
use crate::table::Row;
use crate::value::{Date, Value};

/// Maximum nesting depth accepted when decoding recursive expressions —
/// generated statements stay far below this; the cap keeps a corrupted (but
/// CRC-valid) frame from recursing the decoder off the stack, even on the
/// 2 MiB stacks test threads get.
pub const MAX_EXPR_DEPTH: usize = 200;

/// Errors produced while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value was complete.
    UnexpectedEof,
    /// An enum tag byte had no meaning for the type being decoded.
    BadTag {
        /// The type being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A length prefix exceeded the remaining input.
    BadLength,
    /// A string was not valid UTF-8.
    BadUtf8,
    /// Expression nesting exceeded [`MAX_EXPR_DEPTH`].
    TooDeep,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::BadTag { what, tag } => write!(f, "invalid tag {tag:#04x} for {what}"),
            CodecError::BadLength => write!(f, "length prefix exceeds remaining input"),
            CodecError::BadUtf8 => write!(f, "string is not valid UTF-8"),
            CodecError::TooDeep => write!(f, "expression nesting exceeds the decoder limit"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Convenience alias for decode results.
pub type CodecResult<T> = std::result::Result<T, CodecError>;

/// Appends primitive and relational values to a growing byte buffer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// One raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A boolean as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// A `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// An `i64`, little-endian two's complement.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// An `f64` through its bit pattern — bit-exact round trips, NaN
    /// payloads included.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// A `usize` widened to `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// A length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// An optional string: presence byte, then the string.
    pub fn put_opt_str(&mut self, v: Option<&str>) {
        match v {
            Some(s) => {
                self.put_bool(true);
                self.put_str(s);
            }
            None => self.put_bool(false),
        }
    }

    /// A [`Value`].
    pub fn put_value(&mut self, v: &Value) {
        match v {
            Value::Null => self.put_u8(0),
            Value::Bool(b) => {
                self.put_u8(1);
                self.put_bool(*b);
            }
            Value::Int(i) => {
                self.put_u8(2);
                self.put_i64(*i);
            }
            Value::Float(x) => {
                self.put_u8(3);
                self.put_f64(*x);
            }
            Value::Text(s) => {
                self.put_u8(4);
                self.put_str(s);
            }
            Value::Date(d) => {
                self.put_u8(5);
                self.put_i64(i64::from(d.year));
                self.put_u8(d.month);
                self.put_u8(d.day);
            }
        }
    }

    /// A row (length-prefixed vector of values).
    pub fn put_row(&mut self, row: &[Value]) {
        self.put_usize(row.len());
        for v in row {
            self.put_value(v);
        }
    }

    /// An [`Expr`], encoded structurally (recursive).
    pub fn put_expr(&mut self, expr: &Expr) {
        match expr {
            Expr::Column { table, column } => {
                self.put_u8(0);
                self.put_opt_str(table.as_deref());
                self.put_str(column);
            }
            Expr::Literal(v) => {
                self.put_u8(1);
                self.put_value(v);
            }
            Expr::Compare { op, left, right } => {
                self.put_u8(2);
                self.put_u8(compare_op_tag(*op));
                self.put_expr(left);
                self.put_expr(right);
            }
            Expr::Like { expr, pattern } => {
                self.put_u8(3);
                self.put_expr(expr);
                self.put_str(pattern);
            }
            Expr::And(a, b) => {
                self.put_u8(4);
                self.put_expr(a);
                self.put_expr(b);
            }
            Expr::Or(a, b) => {
                self.put_u8(5);
                self.put_expr(a);
                self.put_expr(b);
            }
            Expr::Not(e) => {
                self.put_u8(6);
                self.put_expr(e);
            }
            Expr::IsNull(e) => {
                self.put_u8(7);
                self.put_expr(e);
            }
            Expr::Aggregate { func, arg } => {
                self.put_u8(8);
                self.put_u8(agg_func_tag(*func));
                match arg {
                    Some(a) => {
                        self.put_bool(true);
                        self.put_expr(a);
                    }
                    None => self.put_bool(false),
                }
            }
            Expr::Star => self.put_u8(9),
        }
    }

    /// A full [`SelectStatement`].
    pub fn put_statement(&mut self, stmt: &SelectStatement) {
        self.put_bool(stmt.distinct);
        self.put_usize(stmt.projection.len());
        for item in &stmt.projection {
            self.put_expr(&item.expr);
            self.put_opt_str(item.alias.as_deref());
        }
        self.put_usize(stmt.from.len());
        for t in &stmt.from {
            self.put_str(&t.name);
            self.put_opt_str(t.alias.as_deref());
        }
        match &stmt.selection {
            Some(e) => {
                self.put_bool(true);
                self.put_expr(e);
            }
            None => self.put_bool(false),
        }
        self.put_usize(stmt.group_by.len());
        for e in &stmt.group_by {
            self.put_expr(e);
        }
        self.put_usize(stmt.order_by.len());
        for o in &stmt.order_by {
            self.put_expr(&o.expr);
            self.put_bool(o.descending);
        }
        match stmt.limit {
            Some(n) => {
                self.put_bool(true);
                self.put_usize(n);
            }
            None => self.put_bool(false),
        }
    }
}

/// Reads values back out of a byte slice, in the order they were written.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> CodecResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// One raw byte.
    pub fn get_u8(&mut self) -> CodecResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// A boolean (any non-zero byte is `true`).
    pub fn get_bool(&mut self) -> CodecResult<bool> {
        Ok(self.get_u8()? != 0)
    }

    /// A little-endian `u64`.
    pub fn get_u64(&mut self) -> CodecResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// A little-endian `i64`.
    pub fn get_i64(&mut self) -> CodecResult<i64> {
        Ok(self.get_u64()? as i64)
    }

    /// An `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> CodecResult<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// A `usize`, checked against the remaining input where it prefixes a
    /// length (so a corrupt length can never trigger a huge allocation).
    pub fn get_usize(&mut self) -> CodecResult<usize> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| CodecError::BadLength)
    }

    fn get_len(&mut self) -> CodecResult<usize> {
        let n = self.get_usize()?;
        // Every encoded element costs at least one byte, so a valid length
        // can never exceed what is left to read.
        if n > self.remaining() {
            return Err(CodecError::BadLength);
        }
        Ok(n)
    }

    /// A length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> CodecResult<String> {
        self.borrow_str().map(str::to_owned)
    }

    /// A length-prefixed UTF-8 string as a shared name (a table or column
    /// of a statement, a table of a result).
    pub fn get_name(&mut self) -> CodecResult<Arc<str>> {
        self.borrow_str().map(Arc::from)
    }

    /// An optional string written by [`Encoder::put_opt_str`], as a shared
    /// name.
    pub fn get_opt_name(&mut self) -> CodecResult<Option<Arc<str>>> {
        if self.get_bool()? {
            Ok(Some(self.get_name()?))
        } else {
            Ok(None)
        }
    }

    /// A length-prefixed UTF-8 string, borrowed from the input.
    fn borrow_str(&mut self) -> CodecResult<&'a str> {
        let n = self.get_len()?;
        std::str::from_utf8(self.take(n)?).map_err(|_| CodecError::BadUtf8)
    }

    /// An optional string written by [`Encoder::put_opt_str`].
    pub fn get_opt_str(&mut self) -> CodecResult<Option<String>> {
        if self.get_bool()? {
            Ok(Some(self.get_str()?))
        } else {
            Ok(None)
        }
    }

    /// A [`Value`].
    pub fn get_value(&mut self) -> CodecResult<Value> {
        match self.get_u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Bool(self.get_bool()?)),
            2 => Ok(Value::Int(self.get_i64()?)),
            3 => Ok(Value::Float(self.get_f64()?)),
            4 => Ok(Value::Text(self.borrow_str()?.into())),
            5 => {
                let year = i32::try_from(self.get_i64()?).map_err(|_| CodecError::BadLength)?;
                let month = self.get_u8()?;
                let day = self.get_u8()?;
                Ok(Value::Date(Date { year, month, day }))
            }
            tag => Err(CodecError::BadTag { what: "Value", tag }),
        }
    }

    /// A [`Row`].
    pub fn get_row(&mut self) -> CodecResult<Row> {
        let n = self.get_len()?;
        let mut row = Vec::with_capacity(n);
        for _ in 0..n {
            row.push(self.get_value()?);
        }
        Ok(row)
    }

    /// An [`Expr`].
    pub fn get_expr(&mut self) -> CodecResult<Expr> {
        self.get_expr_at(0)
    }

    fn get_expr_at(&mut self, depth: usize) -> CodecResult<Expr> {
        if depth > MAX_EXPR_DEPTH {
            return Err(CodecError::TooDeep);
        }
        match self.get_u8()? {
            0 => Ok(Expr::Column {
                table: self.get_opt_name()?,
                column: self.get_name()?,
            }),
            1 => Ok(Expr::Literal(self.get_value()?)),
            2 => {
                let op = compare_op_from_tag(self.get_u8()?)?;
                let left = Box::new(self.get_expr_at(depth + 1)?);
                let right = Box::new(self.get_expr_at(depth + 1)?);
                Ok(Expr::Compare { op, left, right })
            }
            3 => {
                let expr = Box::new(self.get_expr_at(depth + 1)?);
                let pattern = self.get_str()?;
                Ok(Expr::Like { expr, pattern })
            }
            4 => Ok(Expr::And(
                Box::new(self.get_expr_at(depth + 1)?),
                Box::new(self.get_expr_at(depth + 1)?),
            )),
            5 => Ok(Expr::Or(
                Box::new(self.get_expr_at(depth + 1)?),
                Box::new(self.get_expr_at(depth + 1)?),
            )),
            6 => Ok(Expr::Not(Box::new(self.get_expr_at(depth + 1)?))),
            7 => Ok(Expr::IsNull(Box::new(self.get_expr_at(depth + 1)?))),
            8 => {
                let func = agg_func_from_tag(self.get_u8()?)?;
                let arg = if self.get_bool()? {
                    Some(Box::new(self.get_expr_at(depth + 1)?))
                } else {
                    None
                };
                Ok(Expr::Aggregate { func, arg })
            }
            9 => Ok(Expr::Star),
            tag => Err(CodecError::BadTag { what: "Expr", tag }),
        }
    }

    /// A [`SelectStatement`].
    pub fn get_statement(&mut self) -> CodecResult<SelectStatement> {
        let distinct = self.get_bool()?;
        let n = self.get_len()?;
        let mut projection = Vec::with_capacity(n);
        for _ in 0..n {
            let expr = self.get_expr()?;
            let alias = self.get_opt_str()?;
            projection.push(SelectItem { expr, alias });
        }
        let n = self.get_len()?;
        let mut from = Vec::with_capacity(n);
        for _ in 0..n {
            let name = self.get_name()?;
            let alias = self.get_opt_str()?;
            from.push(TableRef { name, alias });
        }
        let selection = if self.get_bool()? {
            Some(self.get_expr()?)
        } else {
            None
        };
        let n = self.get_len()?;
        let mut group_by = Vec::with_capacity(n);
        for _ in 0..n {
            group_by.push(self.get_expr()?);
        }
        let n = self.get_len()?;
        let mut order_by = Vec::with_capacity(n);
        for _ in 0..n {
            let expr = self.get_expr()?;
            let descending = self.get_bool()?;
            order_by.push(OrderByItem { expr, descending });
        }
        let limit = if self.get_bool()? {
            Some(self.get_usize()?)
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
}

fn compare_op_tag(op: CompareOp) -> u8 {
    match op {
        CompareOp::Eq => 0,
        CompareOp::NotEq => 1,
        CompareOp::Lt => 2,
        CompareOp::LtEq => 3,
        CompareOp::Gt => 4,
        CompareOp::GtEq => 5,
    }
}

fn compare_op_from_tag(tag: u8) -> CodecResult<CompareOp> {
    Ok(match tag {
        0 => CompareOp::Eq,
        1 => CompareOp::NotEq,
        2 => CompareOp::Lt,
        3 => CompareOp::LtEq,
        4 => CompareOp::Gt,
        5 => CompareOp::GtEq,
        tag => {
            return Err(CodecError::BadTag {
                what: "CompareOp",
                tag,
            })
        }
    })
}

fn agg_func_tag(func: AggFunc) -> u8 {
    match func {
        AggFunc::Count => 0,
        AggFunc::Sum => 1,
        AggFunc::Avg => 2,
        AggFunc::Min => 3,
        AggFunc::Max => 4,
    }
}

fn agg_func_from_tag(tag: u8) -> CodecResult<AggFunc> {
    Ok(match tag {
        0 => AggFunc::Count,
        1 => AggFunc::Sum,
        2 => AggFunc::Avg,
        3 => AggFunc::Min,
        4 => AggFunc::Max,
        tag => {
            return Err(CodecError::BadTag {
                what: "AggFunc",
                tag,
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parser::parse_select;
    use crate::sql::printer::print_select;

    fn round_trip_value(v: Value) {
        let mut enc = Encoder::new();
        enc.put_value(&v);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_value().unwrap(), v);
        assert!(dec.is_empty());
    }

    #[test]
    fn values_round_trip() {
        round_trip_value(Value::Null);
        round_trip_value(Value::Bool(true));
        round_trip_value(Value::Int(-42));
        round_trip_value(Value::Float(1.5));
        round_trip_value(Value::Float(f64::MIN_POSITIVE));
        round_trip_value(Value::Text("O'Brien — Zürich".into()));
        round_trip_value(Value::Date(Date::new(2011, 12, 31)));
    }

    #[test]
    fn float_round_trip_is_bit_exact() {
        for bits in [0u64, 1, f64::NAN.to_bits(), (-0.0f64).to_bits(), u64::MAX] {
            let mut enc = Encoder::new();
            enc.put_f64(f64::from_bits(bits));
            let bytes = enc.into_bytes();
            let mut dec = Decoder::new(&bytes);
            assert_eq!(dec.get_f64().unwrap().to_bits(), bits);
        }
    }

    #[test]
    fn rows_round_trip() {
        let row: Row = vec![Value::Int(1), Value::Null, Value::from("x")];
        let mut enc = Encoder::new();
        enc.put_row(&row);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_row().unwrap(), row);
    }

    #[test]
    fn statements_round_trip_structurally() {
        let sql = "SELECT DISTINCT parties.id, count(*) FROM parties, individuals \
                   WHERE parties.id = individuals.id AND individuals.firstname LIKE 'Sara%' \
                   GROUP BY parties.id ORDER BY parties.id DESC LIMIT 10";
        let stmt = parse_select(sql).unwrap();
        let mut enc = Encoder::new();
        enc.put_statement(&stmt);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = dec.get_statement().unwrap();
        assert!(dec.is_empty());
        assert_eq!(back, stmt);
        assert_eq!(print_select(&back), print_select(&stmt));
    }

    #[test]
    fn every_expr_variant_round_trips() {
        let exprs = vec![
            Expr::Star,
            Expr::column("a"),
            Expr::qualified("t", "a"),
            Expr::Literal(Value::Float(2.25)),
            Expr::compare(CompareOp::GtEq, Expr::column("a"), Expr::literal(1)),
            Expr::Like {
                expr: Box::new(Expr::column("name")),
                pattern: "Sara%".into(),
            },
            Expr::And(
                Box::new(Expr::column("a")),
                Box::new(Expr::Not(Box::new(Expr::column("b")))),
            ),
            Expr::Or(
                Box::new(Expr::IsNull(Box::new(Expr::column("a")))),
                Box::new(Expr::column("b")),
            ),
            Expr::Aggregate {
                func: AggFunc::Sum,
                arg: Some(Box::new(Expr::column("amount"))),
            },
            Expr::Aggregate {
                func: AggFunc::Count,
                arg: None,
            },
        ];
        for expr in exprs {
            let mut enc = Encoder::new();
            enc.put_expr(&expr);
            let bytes = enc.into_bytes();
            let mut dec = Decoder::new(&bytes);
            assert_eq!(dec.get_expr().unwrap(), expr, "{expr}");
            assert!(dec.is_empty());
        }
    }

    #[test]
    fn truncated_input_reports_eof_not_panic() {
        let mut enc = Encoder::new();
        enc.put_value(&Value::from("a longer text value"));
        let bytes = enc.into_bytes();
        for cut in 0..bytes.len() {
            let mut dec = Decoder::new(&bytes[..cut]);
            assert!(dec.get_value().is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn corrupt_tags_and_lengths_are_rejected() {
        let mut dec = Decoder::new(&[9]);
        assert_eq!(
            dec.get_value(),
            Err(CodecError::BadTag {
                what: "Value",
                tag: 9
            })
        );
        // A length prefix far beyond the buffer is rejected before
        // allocating anything.
        let mut enc = Encoder::new();
        enc.put_u64(u64::MAX);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert!(dec.get_str().is_err());
    }

    #[test]
    fn deep_expression_nesting_is_capped() {
        // NOT(NOT(NOT(...))) beyond the depth cap decodes to TooDeep instead
        // of blowing the stack.
        let mut bytes = vec![6u8; MAX_EXPR_DEPTH + 10];
        bytes.push(9); // innermost Star
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_expr(), Err(CodecError::TooDeep));
    }
}
