//! In-memory table storage (row-oriented, copy-on-write).
//!
//! Rows live in two places: a list of immutable, `Arc`-shared **segments**
//! of exactly [`Table::SEGMENT_ROWS`] rows (frozen, in insertion order) and
//! a **tail** of fewer rows than that, held as `Arc`-shared **chunks**.
//! Segments and chunks store their rows' cells back to back, the table's
//! width to a row, so a stored row costs its cells and no allocation of
//! its own.  New inserts land in the last chunk while no clone shares it,
//! and start a new chunk when one does; the tail is sealed into a fresh
//! segment once it reaches [`Table::SEGMENT_ROWS`].  So cloning a table —
//! which the copy-on-write [`Database`](crate::Database) does for every
//! table an ingest mutates — bumps one `Arc` for the schema and one per
//! segment and chunk, copying no row and no name, and the first insert
//! after the clone writes only its own chunk.
//! Reads go through the segment-aware [`Rows`] view, which yields each row
//! as a `&[Value]`, frozen and tail rows in insertion order.
//!
//! A table also keeps, per column, a [`ColumnIndex`]: its rows sorted by
//! value and a code per distinct value, built by the first statement that
//! reads it and dropped, with every other column's, by the next write.

use std::ops::{Index, Range};
use std::sync::{Arc, OnceLock};

use crate::error::{RelationError, Result};
use crate::expr::CompareOp;
use crate::schema::TableSchema;
use crate::value::{DataType, Value};

/// An owned row of values, as inserts take it; the order matches the table
/// schema.  A stored row is read as a `&[Value]`.
pub type Row = Vec<Value>;

/// An in-memory table: a schema plus rows stored as immutable shared
/// segments and a tail of shared chunks.
#[derive(Clone)]
pub struct Table {
    /// Shared between clones: a derived table copies no name.
    schema: Arc<TableSchema>,
    /// Cells per row: the schema's arity, or a computed table's width.
    width: usize,
    /// Frozen segments of `SEGMENT_ROWS * width` cells, oldest first;
    /// shared structurally between clones (`Arc` bump, no row copy).
    segments: Vec<Arc<[Value]>>,
    /// Rows held by the frozen segments (cached sum).
    frozen: usize,
    /// The tail's cells, oldest chunk first, whole rows to a chunk; shared
    /// between clones like the segments.  Only the last chunk is ever
    /// written, and only while no clone holds it; sealed into a segment at
    /// [`Self::SEGMENT_ROWS`] rows.
    tail: Vec<Arc<Vec<Value>>>,
    /// Rows held by the tail chunks (cached sum).
    tail_len: usize,
    /// Each column's lazily built index, for these rows: the slots are
    /// allocated by the first [`column_index`](Self::column_index) call, shared with the
    /// clones taken after it, and dropped by every write.
    indexes: OnceLock<Arc<[OnceLock<ColumnIndex>]>>,
}

impl Table {
    /// Rows per frozen segment.  Large enough that segment hopping is
    /// invisible to scans and that sealing — the one place tail rows are
    /// copied — happens once per this many inserts.
    pub const SEGMENT_ROWS: usize = 1024;

    /// Creates an empty table with the given schema.
    pub fn new(schema: TableSchema) -> Self {
        Self {
            width: schema.arity(),
            schema: Arc::new(schema),
            segments: Vec::new(),
            frozen: 0,
            tail: Vec::new(),
            tail_len: 0,
            indexes: OnceLock::new(),
        }
    }

    /// A table of `width`-cell rows an execution computed (groups,
    /// aggregates, any projection that is not a column), frozen as they
    /// are: no schema, no validation, read only through [`Rows`].
    pub(crate) fn computed(width: usize, rows: Vec<Row>) -> Self {
        let mut table = Self::new(TableSchema::builder("").build());
        table.width = width;
        for row in rows {
            debug_assert_eq!(row.len(), width);
            table.push(row);
        }
        table
    }

    /// Table schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.schema.name
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.frozen + self.tail_len
    }

    /// All rows, in insertion order, as a segment-aware view: iterable,
    /// indexable and comparable like a slice of rows.
    pub fn rows(&self) -> Rows<'_> {
        Rows {
            segments: &self.segments,
            tail: &self.tail,
            len: self.row_count(),
            width: self.width,
        }
    }

    /// Rows currently in the tail, not yet sealed into a segment.
    pub fn tail_rows(&self) -> usize {
        self.tail_len
    }

    /// Inserts one row, validating arity, types and NULLability.
    pub fn insert(&mut self, row: Row) -> Result<()> {
        if row.len() != self.schema.arity() {
            return Err(RelationError::SchemaViolation(format!(
                "table {} expects {} values, got {}",
                self.schema.name,
                self.schema.arity(),
                row.len()
            )));
        }
        for (value, col) in row.iter().zip(&self.schema.columns) {
            if value.is_null() && !col.nullable {
                return Err(RelationError::SchemaViolation(format!(
                    "column {}.{} is not nullable",
                    self.schema.name, col.name
                )));
            }
            if !value.conforms_to(col.data_type) {
                return Err(RelationError::SchemaViolation(format!(
                    "column {}.{} expects {}, got {value:?}",
                    self.schema.name, col.name, col.data_type
                )));
            }
        }
        self.push(row);
        Ok(())
    }

    /// Appends a row of `width` cells to the tail — into the last chunk
    /// while no clone holds it, else as a chunk of its own — and seals the
    /// tail when it is full.
    fn push(&mut self, row: Row) {
        self.indexes.take();
        match self.tail.last_mut().and_then(Arc::get_mut) {
            Some(chunk) => chunk.extend(row),
            None => self.tail.push(Arc::new(row)),
        }
        self.tail_len += 1;
        if self.tail_len >= Self::SEGMENT_ROWS {
            self.seal_tail();
        }
    }

    /// Inserts many rows (stops at the first invalid row).
    pub fn insert_all<I: IntoIterator<Item = Row>>(&mut self, rows: I) -> Result<usize> {
        let mut n = 0;
        for row in rows {
            self.insert(row)?;
            n += 1;
        }
        Ok(n)
    }

    /// Removes every row, keeping the schema.  Used by the warehouse delta
    /// layer to implement full-table replacement — the old segments are
    /// only released, never copied (clones holding them keep serving).
    pub fn truncate(&mut self) {
        self.indexes.take();
        self.segments.clear();
        self.frozen = 0;
        self.tail.clear();
        self.tail_len = 0;
    }

    /// Freezes the current tail into an immutable shared segment.  Only
    /// ever called at exactly [`Self::SEGMENT_ROWS`] tail rows, so every
    /// frozen segment has that fixed length — the invariant that makes
    /// [`Rows::get`] a constant-time div/mod instead of a segment walk.
    /// A chunk no clone holds gives up its cells; a shared one is copied.
    fn seal_tail(&mut self) {
        debug_assert_eq!(self.tail_len, Self::SEGMENT_ROWS);
        self.indexes.take();
        let mut cells = Vec::with_capacity(Self::SEGMENT_ROWS * self.width);
        for chunk in std::mem::take(&mut self.tail) {
            match Arc::try_unwrap(chunk) {
                Ok(owned) => cells.extend(owned),
                Err(shared) => cells.extend_from_slice(&shared),
            }
        }
        self.frozen += Self::SEGMENT_ROWS;
        self.tail_len = 0;
        self.segments.push(cells.into());
    }

    /// Value of `column` in row `row_index`.
    pub fn value(&self, row_index: usize, column: &str) -> Option<&Value> {
        let col = self.schema.column_index(column)?;
        self.rows().get(row_index).map(|r| &r[col])
    }

    /// The [`ColumnIndex`] of column `col`, built on first use — concurrent
    /// first callers wait for one build — and kept until the table is next
    /// written.
    ///
    /// # Panics
    ///
    /// When `col` is not a column of the table.
    pub fn column_index(&self, col: usize) -> &ColumnIndex {
        let columns = self
            .indexes
            .get_or_init(|| (0..self.width).map(|_| OnceLock::new()).collect());
        columns[col].get_or_init(|| ColumnIndex::build(self.rows().iter().map(|row| &row[col])))
    }

    /// The rows by number, for one execution: O(1) a row, the tail's chunk
    /// boundaries resolved here once.
    pub(crate) fn reader(&self) -> RowReader<'_> {
        let mut starts = Vec::new();
        if self.tail.len() > 1 && self.width > 0 {
            starts.reserve_exact(self.tail.len());
            let mut at = 0;
            for chunk in &self.tail {
                starts.push(at);
                at += chunk.len() / self.width;
            }
        }
        RowReader {
            segments: &self.segments,
            tail: &self.tail,
            starts,
            frozen: self.frozen,
            width: self.width,
        }
    }
}

/// Everything but the column indexes, which are a cache of the rows.
impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("schema", &self.schema)
            .field("width", &self.width)
            .field("segments", &self.segments)
            .field("frozen", &self.frozen)
            .field("tail", &self.tail)
            .field("tail_len", &self.tail_len)
            .finish()
    }
}

/// One column's rows sorted by value, and each row's **code**: the rank of
/// its cell among the column's distinct values, in [`Value::total_cmp`]'s
/// order, so that rows hold equal cells exactly when they hold one code.
/// A code stands for a set of rows — those holding its value, in row order —
/// and a range of codes for the rows between two values.  So the executor
/// reads one index four ways: an equality or range filter is a range of
/// codes, an equi-join finds a driving key's code, and GROUP BY and
/// DISTINCT number their groups by code.
///
/// A column whose every non-NULL cell is an `Int`, spanning fewer values
/// than it has such cells, is coded **by value**: a code is the value minus
/// the smallest, so a key's code takes no search, and a value the column
/// lacks has a code with no rows.  NULL's code is one past the last value's.
///
/// Built by one sort (a counting scatter by value), it takes at most
/// 12 bytes per cell: 4 per non-NULL row, 4 per row's code and 4 per value.
pub struct ColumnIndex {
    /// The rows whose cell is not NULL, by cell, then row number.
    rows: Vec<u32>,
    /// Per code, where its rows end in `rows`.
    ends: Vec<u32>,
    /// Per row, its cell's code: `ends.len()` for NULL.
    codes: Vec<u32>,
    /// The value of code 0 when the column is coded by value.
    min: Option<i64>,
}

impl ColumnIndex {
    /// Indexes a column's cells, given in row order.
    fn build<'v>(cells: impl ExactSizeIterator<Item = &'v Value> + Clone) -> Self {
        // The non-NULL cells' count, their one type if they have one, and
        // while each is an `Int`, their range.
        let mut len: usize = 0;
        let (mut kind, mut mixed) = (None, false);
        let mut span = Some((i64::MAX, i64::MIN));
        for cell in cells.clone() {
            let Some(data_type) = cell.data_type() else {
                continue;
            };
            len += 1;
            mixed |= kind.replace(data_type).is_some_and(|k| k != data_type);
            span = match (cell, span) {
                (&Value::Int(i), Some((lo, hi))) => Some((lo.min(i), hi.max(i))),
                _ => None,
            };
        }
        // A sort of one type compares the cells' own keys, not `Value`s.
        match (span, kind.filter(|_| !mixed)) {
            (Some((lo, hi)), _) if hi.abs_diff(lo) < len as u64 => {
                Self::build_by_value(cells, lo, hi.abs_diff(lo) as u32 + 1, len)
            }
            (_, Some(DataType::Int)) => Self::build_by_rank(cells, len, Value::as_i64),
            (_, Some(DataType::Text)) => Self::build_by_rank(cells, len, Value::as_str),
            (_, Some(DataType::Date)) => Self::build_by_rank(cells, len, |cell| match cell {
                Value::Date(date) => Some(*date),
                _ => None,
            }),
            _ => Self::build_by_rank(cells, len, |cell| (!cell.is_null()).then_some(cell)),
        }
    }

    /// Codes `len` non-NULL `Int` cells, of `values` values from `min` on,
    /// as their value minus `min`, and places each code's rows by counting
    /// them first.
    fn build_by_value<'v>(
        cells: impl ExactSizeIterator<Item = &'v Value>,
        min: i64,
        values: u32,
        len: usize,
    ) -> Self {
        let mut codes = Vec::with_capacity(cells.len());
        codes.extend(cells.map(|cell| match *cell {
            Value::Int(i) => i.abs_diff(min) as u32,
            _ => values,
        }));
        // `ends[c]` counts code `c`'s rows, then marks where they start,
        // then, once they are placed, where they end.
        let mut ends = vec![0; values as usize];
        for &code in &codes {
            if let Some(count) = ends.get_mut(code as usize) {
                *count += 1;
            }
        }
        let mut at = 0;
        for end in &mut ends {
            (at, *end) = (at + *end, at);
        }
        let mut rows = vec![0; len];
        for (row, &code) in (0..).zip(&codes) {
            if let Some(end) = ends.get_mut(code as usize) {
                rows[*end as usize] = row;
                *end += 1;
            }
        }
        Self {
            rows,
            ends,
            codes,
            min: Some(min),
        }
    }

    /// Sorts the `len` non-NULL cells by value, then row — on the key `key`
    /// reads of each, which orders them as [`Value::total_cmp`] does — and
    /// codes each run of equal values.
    fn build_by_rank<'v, K: Ord>(
        cells: impl ExactSizeIterator<Item = &'v Value>,
        len: usize,
        key: impl Fn(&'v Value) -> Option<K>,
    ) -> Self {
        let rows_in = cells.len();
        let mut sorted = Vec::with_capacity(len);
        sorted.extend(
            cells
                .zip(0..)
                .filter_map(|(cell, row)| Some((key(cell)?, row))),
        );
        sorted.sort_unstable();
        let new_value = |i: usize| i == 0 || sorted[i - 1].0 != sorted[i].0;
        let values = (0..len).filter(|&i| new_value(i)).count();
        let mut ends = Vec::with_capacity(values);
        let mut codes = vec![values as u32; rows_in];
        let mut rows = Vec::with_capacity(len);
        for (i, &(_, row)) in sorted.iter().enumerate() {
            if i > 0 && new_value(i) {
                ends.push(i as u32);
            }
            codes[row as usize] = ends.len() as u32;
            rows.push(row);
        }
        if len > 0 {
            ends.push(len as u32);
        }
        Self {
            rows,
            ends,
            codes,
            min: None,
        }
    }

    /// Row `row`'s code.
    pub(crate) fn code(&self, row: u32) -> u32 {
        self.codes[row as usize]
    }

    /// NULL's code: one past the last value's, so a column has this many
    /// codes and one more.
    pub(crate) fn null_code(&self) -> u32 {
        self.ends.len() as u32
    }

    /// The rows holding the values of `codes`, by value, then row number.
    pub(crate) fn rows(&self, codes: Range<u32>) -> &[u32] {
        let start = |code: u32| code.checked_sub(1).map_or(0, |c| self.ends[c as usize]);
        &self.rows[start(codes.start) as usize..start(codes.end) as usize]
    }

    /// The codes of the values that are `op` a `literal`, as
    /// [`Value::sql_cmp`] orders them, the column on the left; `reader`'s
    /// column `col` is the indexed one.  None for `<>`, or for a literal of
    /// another type than a column coded by value; no code for a NULL or NaN
    /// literal, and never NaN's.  The caller checks that the literal shares
    /// the column's order: one type, or `Int` and `Float`.
    pub(crate) fn find(
        &self,
        reader: &RowReader<'_>,
        col: usize,
        op: CompareOp,
        literal: &Value,
    ) -> Option<Range<u32>> {
        if literal.is_null() || literal.is_nan() {
            return Some(0..0);
        }
        let values = self.null_code();
        let value = |end: u32| &reader.row(self.rows[end as usize - 1])[col];
        // The codes below the literal, and those at most the literal.
        let (below, at_most) = match self.min {
            Some(min) => {
                let (below, at_most) = match *literal {
                    Value::Int(i) => (i128::from(i), i128::from(i) + 1),
                    Value::Float(f) => {
                        let f = f.clamp(-1e30, 1e30);
                        (f.ceil() as i128, f.floor() as i128 + 1)
                    }
                    _ => return None,
                };
                let code = |bound: i128| (bound - i128::from(min)).clamp(0, values.into()) as u32;
                (code(below), code(at_most))
            }
            None => {
                let below = self
                    .ends
                    .partition_point(|&end| value(end).total_cmp(literal).is_lt());
                let equal = self
                    .ends
                    .get(below)
                    .is_some_and(|&end| value(end) == literal);
                (below as u32, (below + usize::from(equal)) as u32)
            }
        };
        // A NaN is the greatest value, and no comparison's answer.
        let last = || match self.ends.last() {
            Some(&end) if value(end).is_nan() => values - 1,
            _ => values,
        };
        Some(match op {
            CompareOp::Eq => below..at_most,
            CompareOp::Lt => 0..below,
            CompareOp::LtEq => 0..at_most,
            CompareOp::Gt => at_most..last(),
            CompareOp::GtEq => below..last(),
            CompareOp::NotEq => return None,
        })
    }

    /// Number of indexed cells: every row's, NULL or not.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// True when a code is its value's offset from the smallest.
    pub fn by_value(&self) -> bool {
        self.min.is_some()
    }
}

/// A table's rows by number: a frozen row is a div/mod away, a tail row a
/// search of the chunk starts [`Table::reader`] resolved.
pub(crate) struct RowReader<'a> {
    segments: &'a [Arc<[Value]>],
    tail: &'a [Arc<Vec<Value>>],
    /// The first tail row of each chunk, when there is more than one.
    starts: Vec<usize>,
    frozen: usize,
    width: usize,
}

impl<'a> RowReader<'a> {
    /// Row `n`, which must be one of the table's.
    pub(crate) fn row(&self, n: u32) -> &'a [Value] {
        let (n, width) = (n as usize, self.width);
        if n < self.frozen {
            let at = n % Table::SEGMENT_ROWS * width;
            return &self.segments[n / Table::SEGMENT_ROWS][at..at + width];
        }
        let n = n - self.frozen;
        let chunk = self
            .starts
            .partition_point(|&start| start <= n)
            .saturating_sub(1);
        let at = (n - self.starts.get(chunk).copied().unwrap_or(0)) * width;
        &self.tail[chunk][at..at + width]
    }
}

/// A borrowed, segment-aware view over a table's rows in insertion order.
///
/// Behaves like a slice of rows: [`iter`](Self::iter), [`len`](Self::len),
/// `rows[i]` indexing (a `[Value]`), equality and [`to_vec`](Self::to_vec).
/// Positioned iteration ([`iter_from`](Self::iter_from), or `iter().skip(n)`
/// — the iterator's `nth` hops whole segments and chunks) is O(segments +
/// chunks + rows read), which keeps side-log appends proportional to the
/// new rows, not the table.
#[derive(Clone, Copy)]
pub struct Rows<'a> {
    segments: &'a [Arc<[Value]>],
    tail: &'a [Arc<Vec<Value>>],
    len: usize,
    width: usize,
}

impl<'a> Rows<'a> {
    /// Number of rows in the view.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The row at `index`, if any.  Every frozen segment holds exactly
    /// [`Table::SEGMENT_ROWS`] rows (sealed at the boundary, never
    /// resized), so a frozen row is a div/mod away; a tail row is found by
    /// walking the tail's chunks.
    pub fn get(&self, index: usize) -> Option<&'a [Value]> {
        if index >= self.len {
            return None;
        }
        let width = self.width;
        let frozen = self.segments.len() * Table::SEGMENT_ROWS;
        if index < frozen {
            let at = index % Table::SEGMENT_ROWS * width;
            return Some(&self.segments[index / Table::SEGMENT_ROWS][at..at + width]);
        }
        if width == 0 {
            return Some(&[]);
        }
        let mut at = (index - frozen) * width;
        for chunk in self.tail {
            match chunk.get(at..at + width) {
                Some(row) => return Some(row),
                None => at -= chunk.len(),
            }
        }
        None
    }

    /// Iterates every row in insertion order.
    pub fn iter(&self) -> RowsIter<'a> {
        RowsIter {
            front: [].chunks_exact(self.width.max(1)),
            segments: self.segments.iter(),
            chunks: self.tail.iter(),
            remaining: self.len,
            width: self.width,
        }
    }

    /// Iterates rows `start..`, skipping whole segments to get there —
    /// O(segments) positioning instead of O(start).
    pub fn iter_from(&self, start: usize) -> RowsIter<'a> {
        let mut iter = self.iter();
        if start > 0 {
            iter.nth(start - 1);
        }
        iter
    }

    /// Deep-copies the view into owned rows, for call sites that genuinely
    /// need them; the SQL executor and the checkpoint writer borrow the
    /// view.
    pub fn to_vec(&self) -> Vec<Row> {
        let mut rows = Vec::with_capacity(self.len);
        rows.extend(self.iter().map(<[Value]>::to_vec));
        rows
    }
}

impl Index<usize> for Rows<'_> {
    type Output = [Value];

    fn index(&self, index: usize) -> &[Value] {
        self.get(index)
            .unwrap_or_else(|| panic!("row index {index} out of bounds (len {})", self.len))
    }
}

impl<'a> IntoIterator for Rows<'a> {
    type Item = &'a [Value];
    type IntoIter = RowsIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a> IntoIterator for &Rows<'a> {
    type Item = &'a [Value];
    type IntoIter = RowsIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Rows<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for Rows<'_> {}

impl PartialEq<[Row]> for Rows<'_> {
    fn eq(&self, other: &[Row]) -> bool {
        self.len == other.len() && self.iter().eq(other.iter().map(Vec::as_slice))
    }
}

impl PartialEq<Vec<Row>> for Rows<'_> {
    fn eq(&self, other: &Vec<Row>) -> bool {
        self == other.as_slice()
    }
}

impl std::fmt::Debug for Rows<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over a [`Rows`] view: insertion order, exact-sized, with a
/// segment-hopping `nth` so `skip(n)` never touches the skipped rows.
#[derive(Clone)]
pub struct RowsIter<'a> {
    /// The rows of the segment or chunk currently being drained.
    front: std::slice::ChunksExact<'a, Value>,
    /// Frozen segments not yet started.
    segments: std::slice::Iter<'a, Arc<[Value]>>,
    /// Tail chunks not yet started, drained after the last segment.
    chunks: std::slice::Iter<'a, Arc<Vec<Value>>>,
    remaining: usize,
    /// Cells per row; a zero-width row has no cells to walk.
    width: usize,
}

impl<'a> RowsIter<'a> {
    /// Moves `front` to the next segment or chunk; false when exhausted.
    fn advance_chunk(&mut self) -> bool {
        let cells: &'a [Value] = if let Some(segment) = self.segments.next() {
            segment
        } else if let Some(chunk) = self.chunks.next() {
            chunk
        } else {
            return false;
        };
        self.front = cells.chunks_exact(self.width);
        true
    }
}

impl<'a> Iterator for RowsIter<'a> {
    type Item = &'a [Value];

    fn next(&mut self) -> Option<&'a [Value]> {
        if self.width == 0 {
            self.remaining = self.remaining.checked_sub(1)?;
            return Some(&[]);
        }
        loop {
            if let Some(row) = self.front.next() {
                self.remaining -= 1;
                return Some(row);
            }
            if !self.advance_chunk() {
                return None;
            }
        }
    }

    fn nth(&mut self, mut n: usize) -> Option<&'a [Value]> {
        if self.width == 0 {
            self.remaining = self.remaining.saturating_sub(n);
            return self.next();
        }
        loop {
            let chunk = self.front.len();
            if n < chunk {
                self.remaining -= n + 1;
                return self.front.nth(n);
            }
            n -= chunk;
            self.remaining -= chunk;
            self.front = [].chunks_exact(self.width);
            if !self.advance_chunk() {
                return None;
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for RowsIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{DataType, Date};

    impl Table {
        /// True when `self` and `other` share every frozen segment allocation
        /// — the structural-sharing invariant copy-on-write clones preserve
        /// for untouched tables.
        fn shares_segments_with(&self, other: &Table) -> bool {
            self.segments.len() == other.segments.len()
                && self
                    .segments
                    .iter()
                    .zip(&other.segments)
                    .all(|(a, b)| Arc::ptr_eq(a, b))
        }

        /// Iterates over all values of a column.
        fn column_values<'a>(&'a self, column: &str) -> Option<impl Iterator<Item = &'a Value>> {
            let col = self.schema.column_index(column)?;
            Some(self.rows().iter().map(move |r| &r[col]))
        }
    }

    fn table() -> Table {
        Table::new(
            TableSchema::builder("individual")
                .column("id", DataType::Int)
                .column("given_name", DataType::Text)
                .nullable_column("salary", DataType::Float)
                .column("birth_dt", DataType::Date)
                .primary_key("id")
                .build(),
        )
    }

    fn row(id: i64, name: &str) -> Row {
        vec![
            Value::Int(id),
            Value::from(name),
            Value::Float(100_000.0),
            Value::Date(Date::new(1981, 4, 23)),
        ]
    }

    /// A two-column table whose rows are cheap to generate in bulk —
    /// segment tests need more than [`Table::SEGMENT_ROWS`] of them.
    fn wide() -> Table {
        Table::new(
            TableSchema::builder("t")
                .column("id", DataType::Int)
                .column("label", DataType::Text)
                .build(),
        )
    }

    fn wide_row(i: usize) -> Row {
        vec![Value::Int(i as i64), Value::from(format!("label{i}"))]
    }

    #[test]
    fn insert_and_read_back() {
        let mut t = table();
        t.insert(row(1, "Sara")).unwrap();
        t.insert(row(2, "Peter")).unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.value(0, "given_name"), Some(&Value::from("Sara")));
        assert_eq!(t.value(1, "id"), Some(&Value::Int(2)));
        assert_eq!(t.value(5, "id"), None);
        assert_eq!(t.value(0, "missing"), None);
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let mut t = table();
        let err = t.insert(vec![Value::Int(1)]).unwrap_err();
        assert!(matches!(err, RelationError::SchemaViolation(_)));
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let mut t = table();
        let mut r = row(1, "Sara");
        r[0] = Value::from("not an int");
        assert!(t.insert(r).is_err());
    }

    #[test]
    fn null_rules_are_enforced() {
        let mut t = table();
        let mut r = row(1, "Sara");
        r[2] = Value::Null; // nullable salary
        t.insert(r).unwrap();
        let mut r2 = row(2, "Peter");
        r2[1] = Value::Null; // non-nullable name
        assert!(t.insert(r2).is_err());
    }

    #[test]
    fn int_accepted_in_float_column() {
        let mut t = table();
        let mut r = row(1, "Sara");
        r[2] = Value::Int(90_000);
        t.insert(r).unwrap();
    }

    #[test]
    fn insert_all_counts_rows() {
        let mut t = table();
        let n = t.insert_all((1..=5).map(|i| row(i, "x"))).unwrap();
        assert_eq!(n, 5);
        assert_eq!(t.row_count(), 5);
    }

    #[test]
    fn column_values_iterates_in_row_order() {
        let mut t = table();
        t.insert(row(1, "a")).unwrap();
        t.insert(row(2, "b")).unwrap();
        let names: Vec<_> = t
            .column_values("given_name")
            .unwrap()
            .map(|v| v.to_string())
            .collect();
        assert_eq!(names, vec!["a", "b"]);
        assert!(t.column_values("missing").is_none());
    }

    #[test]
    fn tail_seals_into_segments_at_the_boundary() {
        let mut t = wide();
        let n = Table::SEGMENT_ROWS * 2 + 7;
        t.insert_all((0..n).map(wide_row)).unwrap();
        assert_eq!(t.row_count(), n);
        assert_eq!(t.segments.len(), 2);
        assert_eq!(t.tail_rows(), 7);
        // Order is stable across the seams, by iterator and by index.
        for (i, r) in t.rows().iter().enumerate() {
            assert_eq!(r[0], Value::Int(i as i64), "iterator order at {i}");
        }
        for i in [0, 1023, 1024, 2047, 2048, n - 1] {
            assert_eq!(t.rows()[i][0], Value::Int(i as i64), "index order at {i}");
        }
        assert!(t.rows().get(n).is_none());
        assert_eq!(t.rows().iter().len(), n);
    }

    #[test]
    fn clone_shares_tail() {
        let mut t = wide();
        t.insert_all((0..Table::SEGMENT_ROWS + 3).map(wide_row))
            .unwrap();
        let mut copy = t.clone();
        assert!(copy.shares_segments_with(&t));
        assert!(Arc::ptr_eq(&copy.tail[0], &t.tail[0]), "the tail is shared");
        assert_eq!(copy.rows(), t.rows());
        // An insert into the copy starts a chunk of its own and leaves the
        // shared one — and the original — untouched; the next one joins it.
        copy.insert(wide_row(9_999)).unwrap();
        copy.insert(wide_row(10_000)).unwrap();
        assert_eq!(t.row_count(), Table::SEGMENT_ROWS + 3);
        assert_eq!(t.tail[0].len(), 3 * 2, "three two-cell rows");
        assert_eq!(copy.row_count(), Table::SEGMENT_ROWS + 5);
        assert_eq!(copy.tail.len(), 2);
        assert!(Arc::ptr_eq(&copy.tail[0], &t.tail[0]));
        assert!(copy.shares_segments_with(&t));
        assert_eq!(copy.rows()[Table::SEGMENT_ROWS + 3], wide_row(9_999));
        assert_eq!(copy.rows().get(Table::SEGMENT_ROWS + 5), None);
        // Sealing copies the shared chunk's rows and keeps the order.
        let more = Table::SEGMENT_ROWS - 5;
        copy.insert_all((0..more).map(|i| wide_row(20_000 + i)))
            .unwrap();
        assert_eq!((copy.segments.len(), copy.tail_rows()), (2, 0));
        assert_eq!(
            copy.rows()[Table::SEGMENT_ROWS + 2],
            wide_row(Table::SEGMENT_ROWS + 2)
        );
        assert_eq!(copy.rows()[Table::SEGMENT_ROWS + 4], wide_row(10_000));
        assert_eq!(
            t.rows(),
            (0..Table::SEGMENT_ROWS + 3)
                .map(wide_row)
                .collect::<Vec<_>>()
        );
        // Clones taken between inserts each keep reading their own rows,
        // by iterator and by index, across many shared chunks.
        let mut t = wide();
        let mut clones = Vec::new();
        for i in 0..Table::SEGMENT_ROWS + 40 {
            if i % 7 == 0 {
                clones.push(t.clone());
            }
            t.insert(wide_row(i)).unwrap();
        }
        let want: Vec<Row> = (0..Table::SEGMENT_ROWS + 40).map(wide_row).collect();
        assert_eq!(t.rows(), want);
        for (n, clone) in clones.iter().enumerate() {
            assert_eq!(clone.rows(), want[..n * 7], "clone {n}");
            for (i, row) in want[..n * 7].iter().enumerate() {
                assert_eq!(&clone.rows()[i], row);
            }
        }
    }

    #[test]
    fn truncate_drops_segments_without_touching_clones() {
        let mut t = wide();
        t.insert_all((0..Table::SEGMENT_ROWS + 1).map(wide_row))
            .unwrap();
        let kept = t.clone();
        t.truncate();
        assert_eq!(t.row_count(), 0);
        assert_eq!(t.segments.len(), 0);
        assert!(t.rows().is_empty());
        // The clone keeps serving the pre-truncate rows.
        assert_eq!(kept.row_count(), Table::SEGMENT_ROWS + 1);
        assert_eq!(kept.rows()[0], wide_row(0));
        // Replacement after truncate starts a fresh tail.
        t.insert(wide_row(42)).unwrap();
        assert_eq!(t.rows().to_vec(), vec![wide_row(42)]);
    }

    #[test]
    fn iter_from_skips_whole_segments() {
        let mut t = wide();
        let n = Table::SEGMENT_ROWS * 3 + 5;
        t.insert_all((0..n).map(wide_row)).unwrap();
        for start in [0, 1, 1023, 1024, 2048, n - 1, n] {
            let got: Vec<i64> = t
                .rows()
                .iter_from(start)
                .map(|r| match r[0] {
                    Value::Int(i) => i,
                    _ => unreachable!(),
                })
                .collect();
            let expected: Vec<i64> = (start..n).map(|i| i as i64).collect();
            assert_eq!(got, expected, "iter_from({start})");
        }
        // `skip` positions through `nth`, which hops segments the same way.
        let via_skip: Vec<&[Value]> = t.rows().iter().skip(2_500).collect();
        assert_eq!(via_skip.len(), n - 2_500);
        assert_eq!(via_skip[0][0], Value::Int(2_500));
    }

    #[test]
    fn rows_view_compares_like_a_slice() {
        let mut a = wide();
        let mut b = wide();
        a.insert_all((0..3).map(wide_row)).unwrap();
        b.insert_all((0..3).map(wide_row)).unwrap();
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.rows(), (0..3).map(wide_row).collect::<Vec<_>>());
        b.insert(wide_row(3)).unwrap();
        assert_ne!(a.rows(), b.rows());
        assert_eq!(
            format!("{:?}", a.rows()),
            format!("{:?}", a.rows().to_vec())
        );
    }
}
