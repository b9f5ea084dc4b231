//! Row-level change events and the ordered feed that carries them.

use soda_relation::{CodecError, CodecResult, Decoder, Encoder, Row};

/// One row-level change to one table.
///
/// Events are ordered: a feed replays them in sequence, so `Replace`
/// supersedes earlier events for the same table and later `Append`s extend
/// the replacement.
#[derive(Debug, Clone, PartialEq)]
pub enum RowEvent {
    /// One row appended after the table's existing rows.
    Append {
        /// Target table (matched case-insensitively, like the catalog).
        table: String,
        /// The appended row.
        row: Row,
    },
    /// The table's content replaced wholesale (dimension restatement).
    Replace {
        /// Target table.
        table: String,
        /// The replacement rows.
        rows: Vec<Row>,
    },
    /// Every row of the table dropped.
    Truncate {
        /// Target table.
        table: String,
    },
}

impl RowEvent {
    /// The table this event touches.
    pub fn table(&self) -> &str {
        match self {
            RowEvent::Append { table, .. }
            | RowEvent::Replace { table, .. }
            | RowEvent::Truncate { table } => table,
        }
    }

    /// Number of rows this event carries.
    pub fn row_count(&self) -> usize {
        match self {
            RowEvent::Append { .. } => 1,
            RowEvent::Replace { rows, .. } => rows.len(),
            RowEvent::Truncate { .. } => 0,
        }
    }

    /// Appends this event's binary encoding to `enc` (see
    /// [`ChangeFeed::encode`] for the framing this participates in).
    pub fn encode(&self, enc: &mut Encoder) {
        match self {
            RowEvent::Append { table, row } => {
                enc.put_u8(0);
                enc.put_str(table);
                enc.put_row(row);
            }
            RowEvent::Replace { table, rows } => {
                enc.put_u8(1);
                enc.put_str(table);
                enc.put_usize(rows.len());
                for row in rows {
                    enc.put_row(row);
                }
            }
            RowEvent::Truncate { table } => {
                enc.put_u8(2);
                enc.put_str(table);
            }
        }
    }

    /// Decodes one event previously written by [`RowEvent::encode`].
    pub fn decode(dec: &mut Decoder<'_>) -> CodecResult<Self> {
        match dec.get_u8()? {
            0 => Ok(RowEvent::Append {
                table: dec.get_str()?,
                row: dec.get_row()?,
            }),
            1 => {
                let table = dec.get_str()?;
                let n = dec.get_usize()?;
                if n > dec.remaining() {
                    return Err(CodecError::BadLength);
                }
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    rows.push(dec.get_row()?);
                }
                Ok(RowEvent::Replace { table, rows })
            }
            2 => Ok(RowEvent::Truncate {
                table: dec.get_str()?,
            }),
            tag => Err(CodecError::BadTag {
                what: "RowEvent",
                tag,
            }),
        }
    }
}

/// An ordered sequence of [`RowEvent`]s — the unit an ingestion absorbs.
///
/// Built fluently, one call per change:
///
/// ```
/// use soda_ingest::ChangeFeed;
/// use soda_relation::Value;
///
/// let feed = ChangeFeed::new()
///     .append_row("trades", vec![Value::Int(1), Value::from("CHF")])
///     .truncate("stale_dim");
/// assert_eq!(feed.len(), 2);
/// assert_eq!(feed.row_count(), 1);
/// assert_eq!(feed.tables(), vec!["stale_dim".to_string(), "trades".to_string()]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChangeFeed {
    events: Vec<RowEvent>,
}

impl ChangeFeed {
    /// An empty feed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one row to `table`.
    pub fn append_row(mut self, table: impl Into<String>, row: Row) -> Self {
        self.events.push(RowEvent::Append {
            table: table.into(),
            row,
        });
        self
    }

    /// Appends many rows to `table` (one event per row, preserving order).
    pub fn append_rows(mut self, table: impl Into<String>, rows: Vec<Row>) -> Self {
        let table = table.into();
        for row in rows {
            self.events.push(RowEvent::Append {
                table: table.clone(),
                row,
            });
        }
        self
    }

    /// Replaces `table`'s content wholesale.
    pub fn replace(mut self, table: impl Into<String>, rows: Vec<Row>) -> Self {
        self.events.push(RowEvent::Replace {
            table: table.into(),
            rows,
        });
        self
    }

    /// Truncates `table`.
    pub fn truncate(mut self, table: impl Into<String>) -> Self {
        self.events.push(RowEvent::Truncate {
            table: table.into(),
        });
        self
    }

    /// Pushes a pre-built event.
    pub fn push(&mut self, event: RowEvent) {
        self.events.push(event);
    }

    /// Appends every event of `other` after this feed's events.
    pub fn merge(mut self, other: ChangeFeed) -> Self {
        self.events.extend(other.events);
        self
    }

    /// The events, in order.
    pub fn events(&self) -> &[RowEvent] {
        &self.events
    }

    /// Consumes the feed into its events — the zero-copy ingestion path:
    /// appended rows move straight into the database instead of being
    /// cloned out of a borrowed feed
    /// ([`absorb`](crate::absorb)).
    pub fn into_events(self) -> Vec<RowEvent> {
        self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the feed carries no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total rows carried by the feed's events.
    pub fn row_count(&self) -> usize {
        self.events.iter().map(RowEvent::row_count).sum()
    }

    /// The distinct tables the feed touches, folded the way the catalog
    /// folds table names (ASCII case) and sorted — the set whose owning
    /// shards an absorb dirties (and what a cache-retention check needs to
    /// know).
    pub fn tables(&self) -> Vec<String> {
        let mut tables: Vec<String> = self
            .events
            .iter()
            .map(|e| e.table().to_ascii_lowercase())
            .collect();
        tables.sort_unstable();
        tables.dedup();
        tables
    }

    /// A one-line human-readable summary of the feed — what the serving
    /// layer stamps into its operational-event log
    /// ([`QueryService::events`](../soda_service/struct.QueryService.html#method.events)).
    ///
    /// ```
    /// use soda_ingest::ChangeFeed;
    /// use soda_relation::Value;
    ///
    /// let feed = ChangeFeed::new()
    ///     .append_row("trades", vec![Value::Int(1)])
    ///     .truncate("stale_dim");
    /// assert_eq!(feed.describe(), "2 events, 1 row over stale_dim, trades");
    /// ```
    pub fn describe(&self) -> String {
        let rows = self.row_count();
        format!(
            "{} event{}, {} row{} over {}",
            self.len(),
            if self.len() == 1 { "" } else { "s" },
            rows,
            if rows == 1 { "" } else { "s" },
            self.tables().join(", "),
        )
    }

    /// Serializes the feed to the compact binary form the durability journal
    /// stores on disk: an event count followed by each event in order.
    ///
    /// ```
    /// use soda_ingest::ChangeFeed;
    /// use soda_relation::Value;
    ///
    /// let feed = ChangeFeed::new()
    ///     .append_row("trades", vec![Value::Int(7), Value::from("CHF")])
    ///     .truncate("stale_dim");
    /// let bytes = feed.encode();
    /// assert_eq!(ChangeFeed::decode(&bytes).unwrap(), feed);
    /// ```
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.encode_into(&mut enc);
        enc.into_bytes()
    }

    /// Appends the feed's encoding to an existing [`Encoder`] — used when the
    /// feed is embedded in a larger frame (e.g. a journal record).
    pub fn encode_into(&self, enc: &mut Encoder) {
        enc.put_usize(self.events.len());
        for event in &self.events {
            event.encode(enc);
        }
    }

    /// Deserializes a feed previously written by [`ChangeFeed::encode`].
    pub fn decode(bytes: &[u8]) -> CodecResult<Self> {
        let mut dec = Decoder::new(bytes);
        let feed = Self::decode_from(&mut dec)?;
        if !dec.is_empty() {
            return Err(CodecError::BadLength);
        }
        Ok(feed)
    }

    /// Reads a feed out of a decoder positioned at an embedded encoding.
    pub fn decode_from(dec: &mut Decoder<'_>) -> CodecResult<Self> {
        let n = dec.get_usize()?;
        if n > dec.remaining() {
            return Err(CodecError::BadLength);
        }
        let mut events = Vec::with_capacity(n);
        for _ in 0..n {
            events.push(RowEvent::decode(dec)?);
        }
        Ok(Self { events })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_relation::Value;

    #[test]
    fn builder_preserves_event_order() {
        let feed = ChangeFeed::new()
            .append_row("a", vec![Value::Int(1)])
            .replace("b", vec![vec![Value::Int(2)], vec![Value::Int(3)]])
            .truncate("a");
        assert_eq!(feed.len(), 3);
        assert_eq!(feed.row_count(), 3);
        assert!(matches!(feed.events()[2], RowEvent::Truncate { .. }));
        assert_eq!(feed.events()[1].row_count(), 2);
    }

    #[test]
    fn tables_are_case_folded_sorted_and_deduped() {
        let feed = ChangeFeed::new()
            .append_row("Trades", vec![])
            .append_row("ADDRESSES", vec![])
            .truncate("trades");
        assert_eq!(
            feed.tables(),
            vec!["addresses".to_string(), "trades".to_string()]
        );
    }

    #[test]
    fn encode_decode_round_trips_every_event_kind() {
        let feed = ChangeFeed::new()
            .append_row("trades", vec![Value::Int(1), Value::Float(2.5)])
            .replace("dim", vec![vec![Value::from("a")], vec![Value::Null]])
            .truncate("stale");
        let bytes = feed.encode();
        assert_eq!(ChangeFeed::decode(&bytes).unwrap(), feed);
        // An empty feed round-trips too.
        assert_eq!(
            ChangeFeed::decode(&ChangeFeed::new().encode()).unwrap(),
            ChangeFeed::new()
        );
    }

    #[test]
    fn decode_rejects_truncated_and_trailing_bytes() {
        let bytes = ChangeFeed::new()
            .append_row("t", vec![Value::Int(1)])
            .encode();
        assert!(ChangeFeed::decode(&bytes[..bytes.len() - 1]).is_err());
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(ChangeFeed::decode(&padded).is_err());
    }

    #[test]
    fn merge_concatenates_in_order() {
        let a = ChangeFeed::new().append_row("t", vec![Value::Int(1)]);
        let b = ChangeFeed::new().truncate("t");
        let merged = a.merge(b);
        assert_eq!(merged.len(), 2);
        assert!(matches!(merged.events()[1], RowEvent::Truncate { .. }));
        assert!(ChangeFeed::new().is_empty());
    }
}
