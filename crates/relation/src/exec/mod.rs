//! Query execution: bind → scan → join → fold → pick.
//!
//! The executor exists so that the SQL produced by SODA (and the
//! gold-standard SQL) can be *run* — compared tuple by tuple, and shown as a
//! snippet under every statement.  It borrows the tables it reads, and its
//! result holds them:
//!
//! 1. **Bind.**  Every conjunct, projection item, group key, aggregate
//!    argument and sort key is compiled once into a `BoundExpr` (columns
//!    become `(slot, index)` pairs), so unknown or ambiguous names and
//!    misplaced aggregates are reported before a row is read.
//! 2. **Scan.**  Each FROM table is read through its [`Rows`](crate::Rows)
//!    view; single-table predicates are applied here, below the joins, and
//!    the scan records each passing row and its row number.
//! 3. **Join.**  Tables attach in the order join predicates connect them
//!    (cross product only when none does).  A tuple is one scan position per
//!    table joined so far.  An equi-join chains the rows of the smaller input
//!    in a flat table keyed by a per-execution random-keyed SipHash of their
//!    key [`Value`]s (`head` per bucket, `next` and the hash per row); a bit
//!    filter in front of it, set from a cheap unkeyed hash of the same
//!    values, lets a probe row that matches nothing skip the SipHash and the
//!    walk.  A candidate matches when every key compares equal as the
//!    predicate `l = r` would.
//! 4. **Fold.**  Aggregating statements assign each tuple to its group and
//!    update one accumulator per (group, aggregate) in the same pass.
//! 5. **Pick.**  DISTINCT, ORDER BY and LIMIT work on tuple numbers.  The
//!    [`ResultSet`] keeps a shared handle of each FROM table and, per output
//!    row, the row number of each of its tuple's rows; it copies no cell, and
//!    reads one only when a caller reads its row.  What the statement
//!    computes — groups, aggregates, a projection that is not a column — is
//!    computed once into one more table of the result.

pub mod eval;

use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::fmt::Write as _;
use std::hash::{BuildHasher, Hash, Hasher};
use std::ops::{Deref, Index};
use std::sync::Arc;

use self::eval::{Accumulator, AggCall, BoundExpr, GroupExpr, RowSchema, Tuple};
use crate::catalog::Database;
use crate::error::{RelationError, Result};
use crate::expr::{CompareOp, Expr};
use crate::sql::ast::SelectStatement;
use crate::table::{Row, Table};
use crate::value::Value;

/// The result of executing a `SELECT` statement: the tables its rows come
/// from and, per row, a row number in each.  Results are equal when their
/// columns and cells are.
#[derive(Clone)]
pub struct ResultSet {
    columns: Vec<String>,
    /// One table per tuple slot: the FROM tables in join order, then the
    /// rows the statement computed, if it computed any; or, for a grouping
    /// statement, its groups alone.
    tables: Vec<Arc<Table>>,
    /// Per output column: the slot it reads and the column there.
    projection: Vec<(usize, usize)>,
    /// Row numbers, `tables.len()` to a row: a row of the result is the row
    /// of that number in each slot's table.
    numbers: Vec<u32>,
}

impl ResultSet {
    /// Output column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Output rows, in order.
    pub fn rows(
        &self,
    ) -> impl ExactSizeIterator<Item = ResultRow<'_>> + DoubleEndedIterator + Clone + '_ {
        (0..self.row_count()).map(|i| self.row(i))
    }

    /// Row `i`.
    ///
    /// # Panics
    ///
    /// When `i` is not less than [`row_count`](Self::row_count).
    pub fn row(&self, i: usize) -> ResultRow<'_> {
        let rows = self.row_count();
        assert!(i < rows, "row {i} of a {rows}-row result");
        let width = self.tables.len();
        ResultRow {
            set: self,
            numbers: &self.numbers[i * width..][..width],
        }
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.numbers.len() / self.tables.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.numbers.is_empty()
    }

    /// Rows rendered as tab-separated strings — the canonical form used for
    /// precision/recall comparison against the gold standard (the paper
    /// compares result *tuples*).
    pub fn tuple_strings(&self) -> Vec<String> {
        self.rows()
            .map(|row| {
                let mut out = String::new();
                write_cells(&mut out, row, "\t");
                out
            })
            .collect()
    }

    /// First `n` rows formatted for display (the paper's "result snippets" of
    /// up to twenty tuples).
    pub fn snippet(&self, n: usize) -> String {
        let mut out = self.columns.join(" | ");
        out.push('\n');
        for row in self.rows().take(n) {
            write_cells(&mut out, row, " | ");
            out.push('\n');
        }
        out
    }
}

impl PartialEq for ResultSet {
    fn eq(&self, other: &Self) -> bool {
        self.columns == other.columns
            && self.row_count() == other.row_count()
            && self.rows().eq(other.rows())
    }
}

impl std::fmt::Debug for ResultSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultSet")
            .field("columns", &self.columns)
            .field("rows", &self.rows().collect::<Vec<_>>())
            .finish()
    }
}

/// One row of a [`ResultSet`]: its cells are read from the tables the result
/// holds, by index (`row[i]`) or in order ([`iter`](Self::iter)).
#[derive(Clone, Copy)]
pub struct ResultRow<'r> {
    set: &'r ResultSet,
    /// The row's number in each slot's table.
    numbers: &'r [u32],
}

impl<'r> ResultRow<'r> {
    /// Number of cells: the result's column count.
    pub fn len(&self) -> usize {
        self.set.projection.len()
    }

    /// True when the result has no columns.
    pub fn is_empty(&self) -> bool {
        self.set.projection.is_empty()
    }

    /// Cell `i`, if the result has that many columns.
    pub fn get(&self, i: usize) -> Option<&'r Value> {
        let &(slot, col) = self.set.projection.get(i)?;
        let row = self.set.tables[slot]
            .rows()
            .get(self.numbers[slot] as usize);
        Some(&row.expect("a result row number is a row of its table")[col])
    }

    fn cell(&self, i: usize) -> &'r Value {
        self.get(i)
            .unwrap_or_else(|| panic!("column {i} of a {}-column row", self.len()))
    }

    /// The cells in column order.
    pub fn iter(&self) -> Cells<'r> {
        Cells {
            row: *self,
            columns: 0..self.len(),
        }
    }

    /// The cells, cloned (a text cell shares its string).
    pub fn to_vec(&self) -> Vec<Value> {
        self.iter().cloned().collect()
    }
}

impl<'r> Index<usize> for ResultRow<'r> {
    type Output = Value;

    fn index(&self, i: usize) -> &Value {
        self.cell(i)
    }
}

impl<'r> IntoIterator for ResultRow<'r> {
    type Item = &'r Value;
    type IntoIter = Cells<'r>;

    fn into_iter(self) -> Cells<'r> {
        self.iter()
    }
}

/// Iterator over the cells of a [`ResultRow`], in column order.
#[derive(Clone)]
pub struct Cells<'r> {
    row: ResultRow<'r>,
    columns: std::ops::Range<usize>,
}

impl<'r> Iterator for Cells<'r> {
    type Item = &'r Value;

    fn next(&mut self) -> Option<&'r Value> {
        self.columns.next().map(|i| self.row.cell(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.columns.size_hint()
    }
}

impl ExactSizeIterator for Cells<'_> {}

impl PartialEq for ResultRow<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for ResultRow<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

fn write_cells(out: &mut String, row: ResultRow<'_>, separator: &str) {
    for (i, value) in row.iter().enumerate() {
        if i > 0 {
            out.push_str(separator);
        }
        write!(out, "{value}").expect("writing to a String cannot fail");
    }
}

/// One FROM table's rows that pass its own predicates, and their row
/// numbers in the table.
struct Scan<'a> {
    rows: Vec<&'a [Value]>,
    /// `None` when the table has no predicate of its own: then a row's
    /// position in the scan is its row number.
    numbers: Option<Vec<u32>>,
}

impl Scan<'_> {
    fn number(&self, position: u32) -> u32 {
        self.numbers
            .as_ref()
            .map_or(position, |numbers| numbers[position as usize])
    }
}

/// Intermediate join result: `stride` scan positions per tuple, one per
/// table joined so far (slot order), stored back to back.
struct Tuples {
    positions: Vec<u32>,
    stride: usize,
}

impl Tuples {
    fn len(&self) -> usize {
        self.positions.len() / self.stride
    }

    fn get(&self, i: usize) -> &[u32] {
        &self.positions[i * self.stride..(i + 1) * self.stride]
    }

    /// Tuple `i` as rows, for bound expressions.
    fn at<'t, 'a>(&'t self, scans: &'t [Scan<'a>], i: usize) -> At<'t, 'a> {
        At {
            scans,
            positions: self.get(i),
        }
    }

    /// The result's row numbers: those of the tuples `picked` — or of the
    /// first `limit` tuples when `None` — in place of their scan positions,
    /// each followed by its tuple number when the statement `computed` a row
    /// per tuple.  Written over the positions when it can be.
    fn into_numbers(
        mut self,
        scans: &[Scan<'_>],
        picked: Option<Vec<usize>>,
        limit: usize,
        computed: bool,
    ) -> Vec<u32> {
        let number = |slot: usize, position: u32| scans[slot].number(position);
        let mut numbers = match picked {
            None if !computed => {
                self.positions.truncate(self.len().min(limit) * self.stride);
                for tuple in self.positions.chunks_exact_mut(self.stride) {
                    for (slot, position) in tuple.iter_mut().enumerate() {
                        *position = number(slot, *position);
                    }
                }
                self.positions
            }
            picked => {
                let picked = picked.unwrap_or_else(|| (0..self.len().min(limit)).collect());
                let width = self.stride + usize::from(computed);
                let mut numbers = Vec::with_capacity(picked.len() * width);
                for i in picked {
                    let tuple = self.get(i);
                    numbers.extend(tuple.iter().enumerate().map(|(s, &p)| number(s, p)));
                    if computed {
                        numbers.push(row_number(i));
                    }
                }
                numbers
            }
        };
        numbers.shrink_to_fit();
        numbers
    }
}

/// One joined tuple, read through the scans its positions point into.
struct At<'t, 'a> {
    scans: &'t [Scan<'a>],
    positions: &'t [u32],
}

impl<'a: 'v, 'v> Tuple<'v> for At<'_, 'a> {
    fn row(&self, slot: usize) -> &'v [Value] {
        self.scans[slot].rows[self.positions[slot] as usize]
    }
}

/// A scan position, tuple number or row number in the 32 bits the join's
/// tuples and the result store.
fn row_number(i: usize) -> u32 {
    u32::try_from(i).expect("a row or tuple number fits 32 bits")
}

/// No entry: the end of a chain.
const END: u32 = u32::MAX;

/// Entries chained by a per-table random-keyed SipHash of their key values:
/// `head` holds the entry linked last into each power-of-two bucket, `next`
/// the one linked before it, so a chain walks newest first.  Each entry
/// keeps its hash, so a walk compares keys only on an equal 64-bit hash;
/// callers confirm a candidate by comparing the key values themselves, so
/// the join, GROUP BY and DISTINCT tables hold no keys.  The join links a
/// known number of rows ([`link`](Self::link)); GROUP BY and DISTINCT
/// [`push`](Self::push) one entry per group or distinct row, and the table
/// grows with them, not with its input.
struct Chains {
    state: RandomState,
    head: Vec<u32>,
    next: Vec<u32>,
    hashes: Vec<u64>,
}

impl Chains {
    fn new(capacity: usize) -> Self {
        assert!(
            u32::try_from(capacity).is_ok_and(|c| c != END),
            "{capacity} entries do not fit a chained table"
        );
        Self {
            state: RandomState::new(),
            head: vec![END; capacity.next_power_of_two()],
            next: vec![END; capacity],
            hashes: vec![0; capacity],
        }
    }

    fn hash(&self, values: impl Iterator<Item = impl Deref<Target = Value>>) -> u64 {
        hash_values(self.state.build_hasher(), values)
    }

    fn bucket(&self, hash: u64) -> usize {
        hash as usize & (self.head.len() - 1)
    }

    /// Links `entry`, one of `0..capacity`, at the head of its chain.
    fn link(&mut self, entry: usize, hash: u64) {
        let bucket = self.bucket(hash);
        self.hashes[entry] = hash;
        self.next[entry] = self.head[bucket];
        self.head[bucket] = entry as u32;
    }

    /// Links the next entry of a table built by `push` alone, doubling the
    /// buckets when the entries outnumber them, and returns its number.
    fn push(&mut self, hash: u64) -> usize {
        let entry = self.hashes.len();
        assert!(entry < END as usize, "{entry} entries fill a chained table");
        self.hashes.push(hash);
        self.next.push(END);
        if entry >= self.head.len() {
            // Relinked oldest first, so every chain still walks newest first.
            self.head = vec![END; 2 * self.head.len()];
            for (entry, &hash) in self.hashes.iter().enumerate() {
                let bucket = hash as usize & (self.head.len() - 1);
                self.next[entry] = self.head[bucket];
                self.head[bucket] = entry as u32;
            }
        } else {
            self.link(entry, hash);
        }
        entry
    }

    /// The entries linked under `hash`, newest first.
    fn chain(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        let mut at = self.head[self.bucket(hash)];
        std::iter::from_fn(move || {
            while at != END {
                let entry = at as usize;
                at = self.next[entry];
                if self.hashes[entry] == hash {
                    return Some(entry);
                }
            }
            None
        })
    }
}

/// A one-bit-per-hash filter of at least 8 bits per build row, in front of
/// the join's [`Chains`]: a probe row whose bit is clear has no match.  It
/// is fed the same [`Value::hash`] as the table, through [`Mix`], so a
/// collision costs one SipHash and one walk, never a wrong or a missed match.
struct Filter {
    words: Vec<u64>,
    shift: u32,
}

impl Filter {
    fn new(rows: usize) -> Self {
        let bits = rows.saturating_mul(8).next_power_of_two().max(64);
        Self {
            words: vec![0; bits / 64],
            shift: 64 - bits.trailing_zeros(),
        }
    }

    /// The word and the mask of the bit of `hash`: its top bits, the ones
    /// [`Mix`]'s last multiply spreads every input bit into.
    fn bit(&self, hash: u64) -> (usize, u64) {
        let bit = (hash >> self.shift) as usize;
        (bit / 64, 1 << (bit % 64))
    }

    fn insert(&mut self, hash: u64) {
        let (word, mask) = self.bit(hash);
        self.words[word] |= mask;
    }

    fn contains(&self, hash: u64) -> bool {
        let (word, mask) = self.bit(hash);
        self.words[word] & mask != 0
    }
}

fn hash_values<H: Hasher>(
    mut hasher: H,
    values: impl Iterator<Item = impl Deref<Target = Value>>,
) -> u64 {
    for value in values {
        value.hash(&mut hasher);
    }
    hasher.finish()
}

/// An unkeyed multiply–rotate hasher (FxHash's step): a few cycles a word,
/// where a SipHash costs tens.  Only the [`Filter`] reads it.
#[derive(Default)]
struct Mix(u64);

impl Mix {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for Mix {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, byte: u8) {
        self.add(u64::from(byte));
    }

    fn write_u64(&mut self, word: u64) {
        self.add(word);
    }
}

/// Executes a statement against a database.
pub fn execute(db: &Database, stmt: &SelectStatement) -> Result<ResultSet> {
    if stmt.from.is_empty() {
        return Err(RelationError::Unsupported("FROM clause is required".into()));
    }
    let n = stmt.from.len();

    // Bind the FROM tables; `schema` lists their columns in FROM order.
    let mut tables = Vec::with_capacity(n);
    let mut offsets = Vec::with_capacity(n);
    let mut schema = RowSchema::new();
    for tref in &stmt.from {
        let table = db.table_arc(&tref.name)?;
        offsets.push(schema.len());
        for col in &table.schema().columns {
            schema.push(tref.effective_name(), &col.name);
        }
        tables.push(table);
    }
    // Column reference → (FROM index, column index).
    let locate = |table: Option<&str>, column: &str| -> Result<(usize, usize)> {
        let flat = schema.resolve(table, column)?;
        let t = offsets.partition_point(|&start| start <= flat) - 1;
        Ok((t, flat - offsets[t]))
    };
    // Classify the conjuncts of the WHERE clause by the tables they touch.
    let mut pushdowns: Vec<Vec<&Expr>> = vec![Vec::new(); n];
    let mut equi_joins: Vec<[(usize, usize); 2]> = Vec::new();
    let mut residual: Vec<&Expr> = Vec::new();
    for conj in stmt.selection.iter().flat_map(Expr::conjuncts) {
        let located = conj
            .columns()
            .into_iter()
            .map(|(qualifier, name)| locate(qualifier, name))
            .collect::<Result<Vec<_>>>()?;
        let mut touched: Vec<usize> = located.iter().map(|&(t, _)| t).collect();
        touched.sort_unstable();
        touched.dedup();
        let column_pair = matches!(conj, Expr::Compare { op: CompareOp::Eq, left, right }
            if matches!((&**left, &**right), (Expr::Column { .. }, Expr::Column { .. })));
        match touched[..] {
            // A constant filters the same wherever it is applied.
            [] => pushdowns[0].push(conj),
            [t] => pushdowns[t].push(conj),
            [_, _] if column_pair => equi_joins.push([located[0], located[1]]),
            _ => residual.push(conj),
        }
    }

    // Join order: start with table 0, repeatedly attach a table connected to
    // the joined set by an equi-join, else the first remaining one (cross
    // product).  A table's position in this order is its tuple slot.
    let mut order = vec![0usize];
    while order.len() < n {
        let connected = |i: &usize| {
            equi_joins.iter().any(|[l, r]| {
                (order.contains(&l.0) && r.0 == *i) || (order.contains(&r.0) && l.0 == *i)
            })
        };
        let mut remaining = (0..n).filter(|i| !order.contains(i));
        let next = remaining
            .clone()
            .find(connected)
            .or_else(|| remaining.next());
        order.push(next.expect("a table remains"));
    }
    let mut slot_of = vec![0usize; n];
    for (slot, &t) in order.iter().enumerate() {
        slot_of[t] = slot;
    }
    let resolve = |table: Option<&str>, column: &str| {
        let (t, col) = locate(table, column)?;
        let data_type = tables[t].schema().columns[col].data_type;
        Ok((slot_of[t], col, Some(data_type)))
    };
    // Bind predicates and outputs before touching a row.
    let pushdowns = pushdowns
        .iter()
        .map(|preds| bind_all(preds.iter().copied(), &resolve))
        .collect::<Result<Vec<_>>>()?;
    let residual = bind_all(residual, &resolve)?;
    let sort_keys = stmt.order_by.iter().map(|ob| &ob.expr);
    let mut columns = Vec::new();
    let output = if stmt.is_aggregate() {
        let keys = bind_all(&stmt.group_by, &resolve)?;
        let mut calls = Vec::new();
        let mut items = Vec::new();
        for item in &stmt.projection {
            if matches!(item.expr, Expr::Star) {
                return Err(RelationError::Unsupported(
                    "SELECT * cannot be combined with GROUP BY".into(),
                ));
            }
            columns.push(item.output_name());
            items.push(GroupExpr::bind(&item.expr, &resolve, &mut calls)?);
        }
        for key in sort_keys {
            items.push(GroupExpr::bind(key, &resolve, &mut calls)?);
        }
        Output::Grouped { keys, calls, items }
    } else {
        let mut projection = Vec::new();
        for item in &stmt.projection {
            match &item.expr {
                // Every column of every table, in join order.
                Expr::Star => {
                    for &t in &order {
                        let names = &schema.columns()[offsets[t]..][..tables[t].schema().arity()];
                        for (col, (qualifier, name)) in names.iter().enumerate() {
                            columns.push(format!("{qualifier}.{name}"));
                            let slot = slot_of[t];
                            projection.push(BoundExpr::Column { slot, col });
                        }
                    }
                }
                expr => {
                    columns.push(item.output_name());
                    projection.push(BoundExpr::bind(expr, &resolve)?);
                }
            }
        }
        let sort = bind_all(sort_keys, &resolve)?;
        Output::Plain { projection, sort }
    };

    // Scan, in slot order: each table's rows that pass its own predicates,
    // and their row numbers.  A bare LIMIT over one table stops the scan as
    // soon as it is satisfied.
    let bare = n == 1 && !stmt.is_aggregate() && !stmt.distinct && stmt.order_by.is_empty();
    let scan_limit = stmt.limit.filter(|_| bare).unwrap_or(usize::MAX);
    // Predicates are bound to tuple slots, so a scanned row is tested in its
    // table's slot of an otherwise empty tuple.
    let mut probe: Vec<&[Value]> = vec![&[]; n];
    let scans: Vec<Scan<'_>> = order
        .iter()
        .enumerate()
        .map(|(slot, &t)| {
            let rows = tables[t].rows();
            assert!(
                u32::try_from(rows.len()).is_ok(),
                "{} rows do not fit 32-bit row numbers",
                rows.len()
            );
            let preds = &pushdowns[t];
            if preds.is_empty() {
                return Scan {
                    rows: rows.iter().take(scan_limit).collect(),
                    numbers: None,
                };
            }
            let (rows, numbers) = rows
                .iter()
                .zip(0..)
                .filter(|(row, _)| {
                    probe[slot] = row;
                    preds.iter().all(|p| p.test(&probe[..]) == Some(true))
                })
                .take(scan_limit)
                .unzip();
            Scan {
                rows,
                numbers: Some(numbers),
            }
        })
        .collect();

    // Join in slot order.
    let mut tuples = Tuples {
        positions: (0..scans[0].rows.len()).map(row_number).collect(),
        stride: 1,
    };
    for (slot, &t) in order.iter().enumerate().skip(1) {
        // (tuple slot, column) on the joined side = column of table `t`.
        let keys: Vec<((usize, usize), usize)> = equi_joins
            .iter()
            .filter_map(|&[l, r]| {
                if slot_of[l.0] < slot && r.0 == t {
                    Some(((slot_of[l.0], l.1), r.1))
                } else if slot_of[r.0] < slot && l.0 == t {
                    Some(((slot_of[r.0], r.1), l.1))
                } else {
                    None
                }
            })
            .collect();
        tuples = join(&tuples, &scans, &keys);
    }
    if !residual.is_empty() {
        tuples.positions = (0..tuples.len())
            .filter(|&i| {
                let tuple = tuples.at(&scans, i);
                residual.iter().all(|p| p.test(&tuple) == Some(true))
            })
            .flat_map(|i| tuples.get(i))
            .copied()
            .collect();
    }

    let limit = stmt.limit.unwrap_or(usize::MAX);
    let (tables, projection, numbers) = match output {
        Output::Plain { projection, sort } => {
            // A column reads its slot; any other item is computed once per
            // tuple, into a table of its own in the slot after the last.
            let mut computed = Vec::new();
            let projection: Vec<(usize, usize)> = projection
                .iter()
                .map(|item| match *item {
                    BoundExpr::Column { slot, col } => (slot, col),
                    ref expr => {
                        computed.push(expr);
                        (n, computed.len() - 1)
                    }
                })
                .collect();
            let width = computed.len();
            let computed: Option<Vec<Row>> = (width > 0).then(|| {
                (0..tuples.len())
                    .map(|i| {
                        let tuple = tuples.at(&scans, i);
                        computed
                            .iter()
                            .map(|e| e.value(&tuple).into_owned())
                            .collect()
                    })
                    .collect()
            });
            let row = |i: usize, slot: usize| match &computed {
                Some(rows) if slot == n => &rows[i][..],
                _ => tuples.at(&scans, i).row(slot),
            };
            let picked = pick(
                tuples.len(),
                |i| {
                    projection
                        .iter()
                        .map(move |&(slot, col)| &row(i, slot)[col])
                },
                |k, i| sort[k].value(&tuples.at(&scans, i)),
                stmt,
            );
            let computed = computed.map(|rows| Arc::new(Table::computed(width, rows)));
            let numbers = tuples.into_numbers(&scans, picked, limit, computed.is_some());
            let tables = order.iter().map(|&t| Arc::clone(tables[t]));
            (tables.chain(computed).collect(), projection, numbers)
        }
        Output::Grouped { keys, calls, items } => {
            // The groups form a one-slot table of [projection…, sort keys…].
            let groups = fold(&tuples, &scans, &keys, &calls, &items);
            let width = columns.len();
            let picked = pick(
                groups.len(),
                |g| groups[g][..width].iter(),
                |k, g| &groups[g][width + k],
                stmt,
            );
            let picked = picked.unwrap_or_else(|| (0..groups.len().min(limit)).collect());
            let numbers = picked.into_iter().map(row_number).collect();
            let table = Arc::new(Table::computed(items.len(), groups));
            (vec![table], (0..width).map(|c| (0, c)).collect(), numbers)
        }
    };
    Ok(ResultSet {
        columns,
        tables,
        projection,
        numbers,
    })
}

/// What a statement computes from the joined tuples, bound.
enum Output {
    Plain {
        projection: Vec<BoundExpr>,
        sort: Vec<BoundExpr>,
    },
    Grouped {
        keys: Vec<BoundExpr>,
        calls: Vec<AggCall>,
        /// The projection items followed by the sort keys.
        items: Vec<GroupExpr>,
    },
}

fn bind_all<'e>(
    exprs: impl IntoIterator<Item = &'e Expr>,
    resolve: eval::Resolve<'_>,
) -> Result<Vec<BoundExpr>> {
    exprs
        .into_iter()
        .map(|e| BoundExpr::bind(e, resolve))
        .collect()
}

/// Attaches the next slot's scan to every tuple of `left`.  Each of `keys`
/// pairs a `(slot, column)` of the tuples with a column of that scan; with no
/// keys the join is a cross product.  Output is tuple-major, then scan order.
fn join(left: &Tuples, scans: &[Scan<'_>], keys: &[((usize, usize), usize)]) -> Tuples {
    let right = &scans[left.stride].rows;
    let mut positions = Vec::new();
    let emit = |positions: &mut Vec<u32>, l: usize, r: usize| {
        positions.extend_from_slice(left.get(l));
        positions.push(row_number(r));
    };
    if keys.is_empty() {
        for l in 0..left.len() {
            for r in 0..right.len() {
                emit(&mut positions, l, r);
            }
        }
    } else {
        let left_key = |l: usize, k: usize| {
            let ((slot, col), _) = keys[k];
            &scans[slot].rows[left.get(l)[slot] as usize][col]
        };
        let right_key = |r: usize, k: usize| &right[r][keys[k].1];
        // Hash the smaller side; both branches emit in the same order.
        if left.len() < right.len() {
            // Matches arrive right-major; a stable counting scatter by left
            // tuple makes them left-major, each tuple's rights still in order.
            let mut pairs: Vec<(u32, u32)> = Vec::new();
            let found = |r, l| pairs.push((row_number(r), row_number(l)));
            matches(
                keys.len(),
                left.len(),
                left_key,
                right.len(),
                right_key,
                found,
            );
            // `cursor[l]`: where tuple `l`'s next right goes in `rights`;
            // once all are placed, where its run ends.
            let mut cursor = vec![0; left.len()];
            for &(_, l) in &pairs {
                cursor[l as usize] += 1;
            }
            let mut at = 0;
            for slot in &mut cursor {
                (at, *slot) = (at + *slot, at);
            }
            let mut rights = vec![0; pairs.len()];
            for &(r, l) in &pairs {
                rights[cursor[l as usize]] = r;
                cursor[l as usize] += 1;
            }
            drop(pairs);
            positions.reserve_exact(rights.len() * (left.stride + 1));
            let mut start = 0;
            for (l, &end) in cursor.iter().enumerate() {
                for &r in &rights[start..end] {
                    emit(&mut positions, l, r as usize);
                }
                start = end;
            }
        } else {
            let found = |l, r| emit(&mut positions, l, r);
            matches(
                keys.len(),
                right.len(),
                right_key,
                left.len(),
                left_key,
                found,
            );
        }
    }
    Tuples {
        positions,
        stride: left.stride + 1,
    }
}

/// Calls `found(probe row, build row)` for every equi-join match: probe rows
/// in order, the build rows of each in order.  A NULL key matches nothing.
fn matches<'v>(
    keys: usize,
    build_len: usize,
    build_key: impl Fn(usize, usize) -> &'v Value,
    probe_len: usize,
    probe_key: impl Fn(usize, usize) -> &'v Value,
    mut found: impl FnMut(usize, usize),
) {
    let null =
        |key: &dyn Fn(usize, usize) -> &'v Value, row| (0..keys).any(|k| key(row, k).is_null());
    let mut table = Chains::new(build_len);
    let mut filter = Filter::new(build_len);
    // Linked last to first, so that every chain walks in row order.
    for b in (0..build_len).rev() {
        if !null(&build_key, b) {
            let values = || (0..keys).map(|k| build_key(b, k));
            filter.insert(hash_values(Mix::default(), values()));
            table.link(b, table.hash(values()));
        }
    }
    for p in 0..probe_len {
        let values = || (0..keys).map(|k| probe_key(p, k));
        if null(&probe_key, p) || !filter.contains(hash_values(Mix::default(), values())) {
            continue;
        }
        let equal = |&b: &usize| {
            (0..keys).all(|k| probe_key(p, k).sql_cmp(build_key(b, k)) == Some(Ordering::Equal))
        };
        for b in table.chain(table.hash(values())).filter(equal) {
            found(p, b);
        }
    }
}

/// Assigns every tuple to its group — groups in order of first appearance,
/// one group for the whole input when there are no `keys` — updating the
/// group's accumulators as it goes.  Returns the `items` of each group.
fn fold(
    tuples: &Tuples,
    scans: &[Scan<'_>],
    keys: &[BoundExpr],
    calls: &[AggCall],
    items: &[GroupExpr],
) -> Vec<Row> {
    // An entry per group.
    let mut index = Chains::new(0);
    // Per group: its first tuple, and `calls.len()` accumulators in `accs`.
    let mut firsts: Vec<usize> = Vec::new();
    let mut accs: Vec<Accumulator<'_>> = Vec::new();
    for i in 0..tuples.len() {
        let tuple = tuples.at(scans, i);
        let hash = index.hash(keys.iter().map(|k| k.value(&tuple)));
        let same_key = |g: &usize| {
            let first = tuples.at(scans, firsts[*g]);
            keys.iter().all(|k| k.value(&tuple) == k.value(&first))
        };
        // `Int` and `Float` keys make equality intransitive (`Int(0)` equals
        // both zeros, which differ), so the first equal group wins: the last
        // of a newest-first walk.
        let found = index.chain(hash).filter(same_key).last();
        let group = found.unwrap_or_else(|| {
            index.push(hash);
            firsts.push(i);
            accs.resize(accs.len() + calls.len(), Accumulator::default());
            firsts.len() - 1
        });
        for (call, acc) in calls.iter().zip(&mut accs[group * calls.len()..]) {
            call.update(acc, &tuple);
        }
    }
    // An aggregate over no rows still reports one (empty) group.
    let groups = if keys.is_empty() { 1 } else { firsts.len() };
    let mut accs = accs.into_iter();
    (0..groups)
        .map(|g| {
            let finished: Vec<Value> = calls
                .iter()
                .map(|call| call.finish(accs.next().unwrap_or_default()))
                .collect();
            let first = firsts.get(g).map(|&i| tuples.at(scans, i));
            items
                .iter()
                .map(|e| e.eval(first.as_ref(), &finished))
                .collect()
        })
        .collect()
}

/// DISTINCT, ORDER BY and LIMIT over tuple numbers: the tuples of `0..len`
/// the result keeps, in order, or `None` when those are the first LIMIT of
/// them as they stand.  `cells(i)` are tuple `i`'s output values and
/// `key(k, i)` its `k`th sort key.
fn pick<'v, C, K>(
    len: usize,
    cells: impl Fn(usize) -> C,
    key: impl Fn(usize, usize) -> K,
    stmt: &SelectStatement,
) -> Option<Vec<usize>>
where
    C: Iterator<Item = &'v Value>,
    K: Deref<Target = Value>,
{
    if !stmt.distinct && stmt.order_by.is_empty() {
        return None;
    }
    let mut picked: Vec<usize> = Vec::new();
    if stmt.distinct {
        // Entry `j` is the tuple `picked[j]`.
        let mut seen = Chains::new(0);
        for i in 0..len {
            let hash = seen.hash(cells(i));
            if !seen.chain(hash).any(|j| cells(i).eq(cells(picked[j]))) {
                seen.push(hash);
                picked.push(i);
            }
        }
    } else {
        picked.extend(0..len);
    }
    if !stmt.order_by.is_empty() {
        picked.sort_by(|&a, &b| {
            let mut by_key = stmt.order_by.iter().enumerate().map(|(k, ob)| {
                let ord = key(k, a).total_cmp(&key(k, b));
                if ob.descending {
                    ord.reverse()
                } else {
                    ord
                }
            });
            by_key.find(|ord| ord.is_ne()).unwrap_or(Ordering::Equal)
        });
    }
    picked.truncate(stmt.limit.unwrap_or(usize::MAX));
    Some(picked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;
    use crate::value::{DataType, Date};

    /// The mini-bank slice used by the paper's worked examples.
    fn minidb() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("parties")
                .column("id", DataType::Int)
                .column("party_type", DataType::Text)
                .primary_key("id")
                .build(),
        )
        .unwrap();
        db.create_table(
            TableSchema::builder("individuals")
                .column("id", DataType::Int)
                .column("firstname", DataType::Text)
                .column("lastname", DataType::Text)
                .column("salary", DataType::Float)
                .column("birthday", DataType::Date)
                .primary_key("id")
                .foreign_key("id", "parties", "id")
                .build(),
        )
        .unwrap();
        db.create_table(
            TableSchema::builder("fi_transactions")
                .column("id", DataType::Int)
                .column("party_id", DataType::Int)
                .column("amount", DataType::Float)
                .column("transactiondate", DataType::Date)
                .primary_key("id")
                .foreign_key("party_id", "parties", "id")
                .build(),
        )
        .unwrap();

        for (id, ty) in [(1, "IND"), (2, "IND"), (3, "ORG")] {
            db.insert("parties", vec![Value::Int(id), Value::from(ty)])
                .unwrap();
        }
        db.insert(
            "individuals",
            vec![
                Value::Int(1),
                Value::from("Sara"),
                Value::from("Guttinger"),
                Value::Float(120_000.0),
                Value::Date(Date::new(1981, 4, 23)),
            ],
        )
        .unwrap();
        db.insert(
            "individuals",
            vec![
                Value::Int(2),
                Value::from("Peter"),
                Value::from("Meier"),
                Value::Float(80_000.0),
                Value::Date(Date::new(1975, 1, 2)),
            ],
        )
        .unwrap();
        for (id, pid, amount, d) in [
            (10, 1, 500.0, Date::new(2010, 3, 1)),
            (11, 1, 1500.0, Date::new(2010, 3, 1)),
            (12, 2, 700.0, Date::new(2010, 4, 2)),
            (13, 3, 9000.0, Date::new(2011, 9, 5)),
        ] {
            db.insert(
                "fi_transactions",
                vec![
                    Value::Int(id),
                    Value::Int(pid),
                    Value::Float(amount),
                    Value::Date(d),
                ],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn query1_sara_guttinger_join() {
        let db = minidb();
        let rs = db
            .run_sql(
                "SELECT * FROM parties, individuals WHERE parties.id = individuals.id \
                 AND individuals.firstname = 'Sara' AND individuals.lastname = 'Guttinger'",
            )
            .unwrap();
        assert_eq!(rs.row_count(), 1);
        assert_eq!(rs.columns().len(), 7);
    }

    #[test]
    fn query2_salary_and_birthday_filters() {
        let db = minidb();
        let rs = db
            .run_sql(
                "SELECT * FROM individuals WHERE individuals.salary >= 100000 \
                 AND individuals.birthday = '1981-04-23'",
            )
            .unwrap();
        assert_eq!(rs.row_count(), 1);
        assert_eq!(rs.row(0)[1], Value::from("Sara"));
    }

    #[test]
    fn query3_group_by_transaction_date() {
        let db = minidb();
        let rs = db
            .run_sql(
                "SELECT sum(amount), transactiondate FROM fi_transactions GROUP BY transactiondate",
            )
            .unwrap();
        assert_eq!(rs.row_count(), 3);
        let total: f64 = rs.rows().map(|r| r[0].as_f64().unwrap()).sum();
        assert!((total - 11_700.0).abs() < 1e-9);
    }

    #[test]
    fn aggregation_with_order_by_count_desc() {
        let db = minidb();
        let rs = db
            .run_sql(
                "SELECT count(fi_transactions.id), parties.party_type \
                 FROM fi_transactions, parties \
                 WHERE fi_transactions.party_id = parties.id \
                 GROUP BY parties.party_type \
                 ORDER BY count(fi_transactions.id) DESC",
            )
            .unwrap();
        assert_eq!(rs.row_count(), 2);
        assert_eq!(rs.row(0)[0], Value::Int(3)); // IND has 3 transactions
        assert_eq!(rs.row(1)[0], Value::Int(1)); // ORG has 1
    }

    #[test]
    fn date_range_predicate() {
        let db = minidb();
        let rs = db
            .run_sql("SELECT id FROM fi_transactions WHERE transactiondate > '2011-09-01'")
            .unwrap();
        assert_eq!(rs.row_count(), 1);
        assert_eq!(rs.row(0)[0], Value::Int(13));
    }

    #[test]
    fn three_way_join_without_cross_product_explosion() {
        let db = minidb();
        let rs = db
            .run_sql(
                "SELECT individuals.lastname, fi_transactions.amount \
                 FROM parties, individuals, fi_transactions \
                 WHERE parties.id = individuals.id AND fi_transactions.party_id = parties.id",
            )
            .unwrap();
        assert_eq!(rs.row_count(), 3);
    }

    #[test]
    fn cross_product_fallback_when_no_join_predicate() {
        let db = minidb();
        let rs = db
            .run_sql("SELECT parties.id, individuals.id FROM parties, individuals")
            .unwrap();
        assert_eq!(rs.row_count(), 6);
    }

    #[test]
    fn distinct_and_limit() {
        let db = minidb();
        let rs = db
            .run_sql("SELECT DISTINCT party_id FROM fi_transactions ORDER BY party_id LIMIT 2")
            .unwrap();
        assert_eq!(rs.row_count(), 2);
        assert_eq!(rs.row(0)[0], Value::Int(1));
        assert_eq!(rs.row(1)[0], Value::Int(2));
    }

    #[test]
    fn like_predicate() {
        let db = minidb();
        let rs = db
            .run_sql("SELECT firstname FROM individuals WHERE lastname LIKE '%gutt%'")
            .unwrap();
        assert_eq!(rs.row_count(), 1);
        assert_eq!(rs.row(0)[0], Value::from("Sara"));
    }

    #[test]
    fn order_by_column_ascending_and_descending() {
        let db = minidb();
        let asc = db
            .run_sql("SELECT amount FROM fi_transactions ORDER BY amount")
            .unwrap();
        let desc = db
            .run_sql("SELECT amount FROM fi_transactions ORDER BY amount DESC")
            .unwrap();
        assert_eq!(asc.row(0)[0], Value::Float(500.0));
        assert_eq!(desc.row(0)[0], Value::Float(9000.0));
    }

    #[test]
    fn aliases_resolve_in_predicates() {
        let db = minidb();
        let rs = db
            .run_sql(
                "SELECT i.lastname FROM individuals i, parties p WHERE i.id = p.id AND p.party_type = 'IND'",
            )
            .unwrap();
        assert_eq!(rs.row_count(), 2);
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let db = minidb();
        assert!(matches!(
            db.run_sql("SELECT * FROM missing"),
            Err(RelationError::UnknownTable(_))
        ));
        assert!(db.run_sql("SELECT nosuchcol FROM parties").is_err());
    }

    #[test]
    fn count_star_without_group_by() {
        let db = minidb();
        let rs = db.run_sql("SELECT count(*) FROM fi_transactions").unwrap();
        assert_eq!(rs.row_count(), 1);
        assert_eq!(rs.row(0)[0], Value::Int(4));
    }

    /// Two one-column-keyed tables `l(k, tag)` and `r(k, tag)` for the key
    /// semantics tests below; `k` is a nullable FLOAT so that it can hold
    /// `Int`, `Float` and NULL cells side by side.
    fn keyed(left: &[Value], right: &[Value]) -> Database {
        let mut db = Database::new();
        for (name, keys) in [("l", left), ("r", right)] {
            db.create_table(
                TableSchema::builder(name)
                    .nullable_column("k", DataType::Float)
                    .column("tag", DataType::Int)
                    .build(),
            )
            .unwrap();
            for (i, key) in keys.iter().enumerate() {
                db.insert(name, vec![key.clone(), Value::Int(i as i64)])
                    .unwrap();
            }
        }
        db
    }

    fn rows(rs: &ResultSet) -> Vec<Vec<Value>> {
        rs.rows().map(|row| row.to_vec()).collect()
    }

    const JOIN_TAGS: &str = "SELECT l.tag, r.tag FROM l, r WHERE l.k = r.k";

    #[test]
    fn join_keys_compare_integers_exactly() {
        // 2^53 and 2^53 + 1 are the same f64; they are not the same id.
        let big = 1i64 << 53;
        let db = keyed(
            &[Value::Int(big), Value::Int(big + 1)],
            &[Value::Int(big + 1)],
        );
        let rs = db.run_sql(JOIN_TAGS).unwrap();
        assert_eq!(rows(&rs), [vec![Value::Int(1), Value::Int(0)]]);
    }

    #[test]
    fn join_keys_match_int_with_equal_float() {
        let db = keyed(&[Value::Int(5), Value::Float(5.5)], &[Value::Float(5.0)]);
        let rs = db.run_sql(JOIN_TAGS).unwrap();
        assert_eq!(rows(&rs), [vec![Value::Int(0), Value::Int(0)]]);
    }

    #[test]
    fn join_keys_match_int_zero_with_negative_zero_float() {
        let zeros = [Value::Float(-0.0), Value::Float(0.0)];
        let both = [
            vec![Value::Int(0), Value::Int(0)],
            vec![Value::Int(0), Value::Int(1)],
        ];
        // The right side hashed, then the left one.
        let db = keyed(&[Value::Int(0), Value::Float(1.0)], &zeros);
        assert_eq!(rows(&db.run_sql(JOIN_TAGS).unwrap()), both);
        let db = keyed(&[Value::Int(0)], &zeros);
        assert_eq!(rows(&db.run_sql(JOIN_TAGS).unwrap()), both);
    }

    #[test]
    fn null_join_keys_never_match() {
        let db = keyed(&[Value::Null, Value::Int(1)], &[Value::Null, Value::Int(1)]);
        let rs = db.run_sql(JOIN_TAGS).unwrap();
        assert_eq!(rows(&rs), [vec![Value::Int(1), Value::Int(1)]]);
    }

    /// Tables `a` (2 000 rows) and `b` (1 000) of `(k, s, tag)`: `k` a
    /// nullable FLOAT holding `Int`s, equal and unequal `Float`s, both
    /// zeros and NULL, `b`'s from half of `a`'s range so that many probes
    /// miss; `s` a nullable TEXT of 40 repeated words.
    fn large_keyed() -> Database {
        let mut db = Database::new();
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 33) % n
        };
        for (name, rows, keys) in [("a", 2_000, 300), ("b", 1_000, 150)] {
            db.create_table(
                TableSchema::builder(name)
                    .nullable_column("k", DataType::Float)
                    .nullable_column("s", DataType::Text)
                    .column("tag", DataType::Int)
                    .build(),
            )
            .unwrap();
            for tag in 0..rows {
                let key = next(keys) as i64;
                let k = match next(32) {
                    0..=1 => Value::Null,
                    2..=5 => Value::Float(key as f64 + 0.5),
                    6 => Value::Float(if key % 2 == 0 { 0.0 } else { -0.0 }),
                    7..=15 => Value::Float(key as f64),
                    _ => Value::Int(key),
                };
                let s = match next(41) {
                    40 => Value::Null,
                    word => Value::from(format!("w{word}")),
                };
                db.insert(name, vec![k, s, Value::Int(tag)]).unwrap();
            }
        }
        db
    }

    #[test]
    fn large_joins_agree_with_a_nested_loop_rows_and_order() {
        let db = large_keyed();
        let (a, b) = (db.table("a").unwrap(), db.table("b").unwrap());
        for keys in [&["k"][..], &["s"], &["k", "s"]] {
            // `a, b` hashes `b`, the smaller input; `b, a` hashes the left.
            for (left, right) in [(a, b), (b, a)] {
                let (l, r) = (left.name(), right.name());
                let on: Vec<String> = keys.iter().map(|k| format!("{l}.{k} = {r}.{k}")).collect();
                let sql = format!(
                    "SELECT {l}.tag, {r}.tag FROM {l}, {r} WHERE {}",
                    on.join(" AND ")
                );
                let columns: Vec<usize> =
                    keys.iter().map(|k| if *k == "k" { 0 } else { 1 }).collect();
                let mut expected = Vec::new();
                for lrow in left.rows().iter() {
                    for rrow in right.rows().iter() {
                        let equal = |&c: &usize| lrow[c].sql_cmp(&rrow[c]) == Some(Ordering::Equal);
                        if columns.iter().all(equal) {
                            expected.push(vec![lrow[2].clone(), rrow[2].clone()]);
                        }
                    }
                }
                assert!(expected.len() > 100, "{sql}: {} matches", expected.len());
                assert_eq!(rows(&db.run_sql(&sql).unwrap()), expected, "{sql}");
            }
        }
    }

    #[test]
    fn null_group_keys_form_one_group_apart_from_the_text_null() {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("t")
                .nullable_column("k", DataType::Text)
                .build(),
        )
        .unwrap();
        for key in [Value::Null, Value::from("NULL"), Value::Null] {
            db.insert("t", vec![key]).unwrap();
        }
        let grouped = db.run_sql("SELECT k, count(*) FROM t GROUP BY k").unwrap();
        assert_eq!(
            rows(&grouped),
            [
                vec![Value::Null, Value::Int(2)],
                vec![Value::from("NULL"), Value::Int(1)]
            ]
        );
        let distinct = db.run_sql("SELECT DISTINCT k FROM t").unwrap();
        assert_eq!(distinct.row_count(), 2);
        // Int and Float keys that are equal still share a group.
        let db = keyed(&[Value::Int(5), Value::Float(5.0)], &[]);
        let rs = db.run_sql("SELECT count(*) FROM l GROUP BY k").unwrap();
        assert_eq!(rows(&rs), [vec![Value::Int(2)]]);
    }

    #[test]
    fn bare_limit_stops_early_and_keeps_table_order() {
        let db = minidb();
        let rs = db
            .run_sql("SELECT id FROM fi_transactions LIMIT 2")
            .unwrap();
        assert_eq!(rs.tuple_strings(), vec!["10", "11"]);
    }

    #[test]
    fn binding_errors_surface_even_when_no_row_qualifies() {
        let db = minidb();
        let unknown = db.run_sql("SELECT nosuchcol FROM parties WHERE id = 99");
        assert!(matches!(unknown, Err(RelationError::UnknownColumn(_))));
        let ambiguous = db.run_sql("SELECT id FROM parties, individuals WHERE parties.id = 99");
        assert!(matches!(ambiguous, Err(RelationError::AmbiguousColumn(_))));
        for sql in [
            "SELECT id FROM parties WHERE id = 99 AND sum(id) > 1",
            "SELECT * FROM parties WHERE id = 99 GROUP BY party_type",
        ] {
            let misplaced = db.run_sql(sql);
            assert!(
                matches!(misplaced, Err(RelationError::Unsupported(_))),
                "{sql}"
            );
        }
    }

    /// `t(k, tag)`: `tag` counts `0..rows`, `k` is `tag % 3`.
    fn counted(rows: i64) -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("t")
                .column("k", DataType::Int)
                .column("tag", DataType::Int)
                .build(),
        )
        .unwrap();
        db.insert_all(
            "t",
            (0..rows).map(|i| vec![Value::Int(i % 3), Value::Int(i)]),
        )
        .unwrap();
        db
    }

    #[test]
    fn computed_projections_and_groups_read_like_columns() {
        // `sql` with its projection item `at` replaced by `k = 1`, which the
        // parser does not read.
        let with_k_is_1 = |sql: &str, at: usize| {
            let mut stmt = crate::sql::parser::parse_select(sql).unwrap();
            let k_is_1 = Expr::compare(CompareOp::Eq, Expr::column("k"), Expr::literal(1));
            stmt.projection[at] = crate::sql::ast::SelectItem::expr(k_is_1);
            stmt
        };
        // 1 500 tuples: the computed table holds a sealed segment and a tail.
        let db = counted(1_500);
        let stmt = with_k_is_1(
            "SELECT tag, k FROM t WHERE tag >= 2 ORDER BY tag DESC LIMIT 1200",
            1,
        );
        let rs = execute(&db, &stmt).unwrap();
        assert_eq!(rs.row_count(), 1_200);
        for (i, row) in rs.rows().enumerate() {
            let tag = 1_499 - i as i64;
            assert_eq!(row.to_vec(), [Value::Int(tag), Value::Bool(tag % 3 == 1)]);
        }
        let distinct = execute(&db, &with_k_is_1("SELECT DISTINCT k, k FROM t", 0)).unwrap();
        assert_eq!(
            rows(&distinct),
            [
                vec![Value::Bool(false), Value::Int(0)],
                vec![Value::Bool(true), Value::Int(1)],
                vec![Value::Bool(false), Value::Int(2)],
            ]
        );
        let grouped = db
            .run_sql("SELECT tag, count(*) FROM t GROUP BY tag ORDER BY tag DESC")
            .unwrap();
        assert_eq!(grouped.row_count(), 1_500);
        assert_eq!(grouped.row(0).to_vec(), [Value::Int(1_499), Value::Int(1)]);
        assert_eq!(grouped.row(1_499).to_vec(), [Value::Int(0), Value::Int(1)]);
    }

    #[test]
    fn a_result_keeps_its_rows_when_its_database_changes() {
        let mut db = counted(3);
        let held = db.run_sql("SELECT tag FROM t").unwrap();
        db.insert("t", vec![Value::Int(0), Value::Int(3)]).unwrap();
        assert_eq!(held.tuple_strings(), ["0", "1", "2"]);
        let fresh = db.run_sql("SELECT tag FROM t").unwrap();
        assert_eq!(fresh.tuple_strings(), ["0", "1", "2", "3"]);
        assert_ne!(held, fresh);
        assert_eq!(held, db.run_sql("SELECT tag FROM t WHERE tag < 3").unwrap());
    }

    #[test]
    fn tuple_strings_and_snippet() {
        let db = minidb();
        let rs = db.run_sql("SELECT id FROM parties ORDER BY id").unwrap();
        assert_eq!(rs.tuple_strings(), vec!["1", "2", "3"]);
        let snip = rs.snippet(2);
        assert!(snip.starts_with("id"));
        assert_eq!(snip.lines().count(), 3);
    }
}
