//! Compact binary encoding of relational values and rows.
//!
//! The durability layer (`soda-journal`'s feed journal and checkpoints)
//! writes [`Value`]s and [`Row`]s to disk and reads them back; floats
//! survive bit-exactly, so recovered rows compare equal to never-persisted
//! ones.  This module is a tiny, dependency-free, little-endian
//! tag-length-value codec with an explicit [`Encoder`] / [`Decoder`] pair
//! and per-type helpers.
//!
//! The format is not self-describing and carries no versioning of its own;
//! the files built on top of it (journal, cache) prefix a magic + version
//! header and checksum every frame, so a decoder here only ever sees bytes
//! that were written by the same build lineage and passed a CRC.
//!
//! ```
//! use soda_relation::{Decoder, Encoder, Value};
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

use crate::table::Row;
use crate::value::{Date, Value};

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
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::BadTag { what, tag } => write!(f, "invalid tag {tag:#04x} for {what}"),
            CodecError::BadLength => write!(f, "length prefix exceeds remaining input"),
            CodecError::BadUtf8 => write!(f, "string is not valid UTF-8"),
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

    /// One raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A boolean as one byte.
    pub(crate) fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// A `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// An `i64`, little-endian two's complement.
    pub(crate) fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// An `f64` through its bit pattern — bit-exact round trips, NaN
    /// payloads included.
    pub(crate) fn put_f64(&mut self, v: f64) {
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
    pub(crate) fn get_bool(&mut self) -> CodecResult<bool> {
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
    pub(crate) fn get_i64(&mut self) -> CodecResult<i64> {
        Ok(self.get_u64()? as i64)
    }

    /// An `f64` from its bit pattern.
    pub(crate) fn get_f64(&mut self) -> CodecResult<f64> {
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

    /// A length-prefixed UTF-8 string, borrowed from the input.
    fn borrow_str(&mut self) -> CodecResult<&'a str> {
        let n = self.get_len()?;
        std::str::from_utf8(self.take(n)?).map_err(|_| CodecError::BadUtf8)
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
