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
//! 2. **Scan.**  The first table in join order is read through its
//!    [`Rows`](crate::Rows) view with its own predicates applied, below the
//!    joins, recording the number of each row that passes.  A `column =
//!    literal` among them reads its candidate rows from the column's
//!    [`KeyIndex`] instead, when the literal hashes like the column's type;
//!    failing that, a `column <, <=, >, >= literal` (the literal on either
//!    side) on an INT, DATE or TEXT column and a literal of exactly that
//!    type reads its rows from the column's
//!    [`OrderIndex`](crate::OrderIndex) — two binary searches, the range
//!    marked in a row bitmap and read back ascending — and only the other
//!    predicates are tested on them.
//! 3. **Join.**  Tables attach in the order join predicates connect them
//!    (cross product only when none does).  A tuple is one row number per
//!    table joined so far.  An equi-join looks each tuple's key up in the
//!    attached table's [`KeyIndex`] on the first key column whose two types
//!    hash alike — the table's cached one when the table has no predicate
//!    of its own, so it is never scanned; else one built for this execution
//!    over the rows that pass them — and keeps the candidates whose every
//!    key compares equal as the predicate `l = r` would.  An index over
//!    dense integers finds a key by its value, so a key that misses reads
//!    no row.  Output is tuple-major, then in row order.
//! 4. **Fold.**  Aggregating statements assign each tuple to its group and
//!    update one accumulator per (group, aggregate) in the same pass.  A
//!    tuple whose group keys are identical to the previous tuple's joins its
//!    group unhashed, so a statement hashes once per run of equal keys —
//!    the join's output keeps each first-table row's tuples together — and
//!    an aggregate without GROUP BY hashes nothing.
//! 5. **Pick.**  DISTINCT, ORDER BY and LIMIT work on tuple numbers.  The
//!    [`ResultSet`] keeps a shared handle of each FROM table and, per output
//!    row, the row number of each of its tuple's rows; it copies no cell, and
//!    reads one only when a caller reads its row.  What the statement
//!    computes — groups, aggregates, a projection that is not a column — is
//!    computed once into one more table of the result.

pub mod eval;

use std::borrow::Cow;
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
use crate::schema::TableSchema;
use crate::sql::ast::SelectStatement;
use crate::table::{KeyIndex, Row, RowReader, Table};
use crate::value::{DataType, Value};

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
        let mut slots = Vec::with_capacity(self.tables.len());
        self.rows()
            .map(|row| {
                let mut out = String::new();
                write_cells(&mut out, row, &mut slots, "\t");
                out
            })
            .collect()
    }

    /// First `n` rows formatted for display (the paper's "result snippets" of
    /// up to twenty tuples).
    pub fn snippet(&self, n: usize) -> String {
        let mut out = self.columns.join(" | ");
        out.push('\n');
        let mut slots = Vec::with_capacity(self.tables.len());
        for row in self.rows().take(n) {
            write_cells(&mut out, row, &mut slots, " | ");
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
        Some(&self.slot_row(slot)[col])
    }

    /// The row of slot `slot`'s table this row reads.
    fn slot_row(&self, slot: usize) -> &'r [Value] {
        let row = self.set.tables[slot]
            .rows()
            .get(self.numbers[slot] as usize);
        row.expect("a result row number is a row of its table")
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

/// Writes `row`'s cells, reading each slot's table row once into `slots`.
fn write_cells<'r>(
    out: &mut String,
    row: ResultRow<'r>,
    slots: &mut Vec<&'r [Value]>,
    separator: &str,
) {
    slots.clear();
    slots.extend((0..row.numbers.len()).map(|slot| row.slot_row(slot)));
    for (i, &(slot, col)) in row.set.projection.iter().enumerate() {
        if i > 0 {
            out.push_str(separator);
        }
        write!(out, "{}", slots[slot][col]).expect("writing to a String cannot fail");
    }
}

/// Intermediate join result: `stride` row numbers per tuple, one per table
/// joined so far (slot order), stored back to back.
struct Tuples {
    numbers: Vec<u32>,
    stride: usize,
}

impl Tuples {
    fn len(&self) -> usize {
        self.numbers.len() / self.stride
    }

    fn get(&self, i: usize) -> &[u32] {
        &self.numbers[i * self.stride..(i + 1) * self.stride]
    }

    /// Tuple `i` as rows, for bound expressions.
    fn at<'t, 'a>(&'t self, readers: &'t [RowReader<'a>], i: usize) -> At<'t, 'a> {
        At {
            readers,
            numbers: self.get(i),
        }
    }

    /// The result's row numbers: those of the tuples `picked` — or of the
    /// first `limit` tuples when `None` — each followed by its tuple number
    /// when the statement `computed` a row per tuple.  The tuples' own
    /// numbers when they can be.
    fn into_numbers(
        mut self,
        picked: Option<Vec<usize>>,
        limit: usize,
        computed: bool,
    ) -> Vec<u32> {
        let mut numbers = match picked {
            None if !computed => {
                self.numbers.truncate(self.len().min(limit) * self.stride);
                self.numbers
            }
            picked => {
                let picked = picked.unwrap_or_else(|| (0..self.len().min(limit)).collect());
                let width = self.stride + usize::from(computed);
                let mut numbers = Vec::with_capacity(picked.len() * width);
                for i in picked {
                    numbers.extend_from_slice(self.get(i));
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

/// One joined tuple, read through its tables' readers.
struct At<'t, 'a> {
    readers: &'t [RowReader<'a>],
    numbers: &'t [u32],
}

impl<'a: 'v, 'v> Tuple<'v> for At<'_, 'a> {
    fn row(&self, slot: usize) -> &'v [Value] {
        self.readers[slot].row(self.numbers[slot])
    }
}

/// A row or tuple number in the 32 bits the join's tuples and the result
/// store.
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
/// the GROUP BY and DISTINCT tables hold no keys.  They
/// [`push`](Self::push) one entry per group or distinct row, and the table
/// grows with them, not with its input.
struct Chains {
    state: RandomState,
    head: Vec<u32>,
    next: Vec<u32>,
    hashes: Vec<u64>,
}

impl Chains {
    fn new() -> Self {
        Self {
            state: RandomState::new(),
            head: vec![END],
            next: Vec::new(),
            hashes: Vec::new(),
        }
    }

    fn hash(&self, values: impl Iterator<Item = impl Deref<Target = Value>>) -> u64 {
        let mut hasher = self.state.build_hasher();
        for value in values {
            value.hash(&mut hasher);
        }
        hasher.finish()
    }

    /// Links the next entry at the head of its chain, doubling the buckets
    /// when the entries outnumber them, and returns its number.
    fn push(&mut self, hash: u64) -> usize {
        let entry = self.hashes.len();
        assert!(entry < END as usize, "{entry} entries fill a chained table");
        self.hashes.push(hash);
        self.next.push(END);
        if entry < self.head.len() {
            self.link(entry);
        } else {
            // Relinked oldest first, so every chain still walks newest first.
            self.head = vec![END; 2 * self.head.len()];
            for entry in 0..=entry {
                self.link(entry);
            }
        }
        entry
    }

    fn bucket(&self, hash: u64) -> usize {
        hash as usize & (self.head.len() - 1)
    }

    fn link(&mut self, entry: usize) {
        let bucket = self.bucket(self.hashes[entry]);
        self.next[entry] = self.head[bucket];
        self.head[bucket] = entry as u32;
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

    // Scan the first table, then attach the others in slot order.  A tuple
    // is the row number of each table joined so far.  A bare LIMIT over one
    // table stops the scan as soon as it is satisfied.
    let bare = n == 1 && !stmt.is_aggregate() && !stmt.distinct && stmt.order_by.is_empty();
    let scan_limit = stmt.limit.filter(|_| bare).unwrap_or(usize::MAX);
    let slot_tables: Vec<&Table> = order.iter().map(|&t| &**tables[t]).collect();
    let readers: Vec<RowReader<'_>> = slot_tables
        .iter()
        .map(|table| {
            let rows = table.row_count();
            assert!(
                u32::try_from(rows).is_ok(),
                "{rows} rows do not fit 32-bit row numbers"
            );
            table.reader()
        })
        .collect();
    // Predicates are bound to tuple slots, so a scanned row is tested in its
    // table's slot of an otherwise empty tuple.
    let mut probe: Vec<&[Value]> = vec![&[]; n];
    let mut scan = |slot: usize, limit: usize| {
        let preds = &pushdowns[order[slot]];
        passing(
            slot_tables[slot],
            &readers[slot],
            slot,
            preds,
            &mut probe,
            limit,
        )
    };
    let mut tuples = Tuples {
        numbers: scan(0, scan_limit),
        stride: 1,
    };
    let declared = |slot: usize, col: usize| slot_tables[slot].schema().columns[col].data_type;
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
        // The key looked up: the first whose two columns hash alike.
        let indexed = keys
            .iter()
            .position(|&((s, c), col)| hash_alike(declared(s, c), declared(slot, col)));
        let lookup = match indexed {
            Some(k) if pushdowns[t].is_empty() => Lookup::Cached(k),
            Some(k) => Lookup::Built(k, scan(slot, usize::MAX)),
            None => Lookup::Scan(scan(slot, usize::MAX)),
        };
        tuples = join(&tuples, &readers, slot_tables[slot], &keys, lookup);
    }
    if !residual.is_empty() {
        tuples.numbers = (0..tuples.len())
            .filter(|&i| {
                let tuple = tuples.at(&readers, i);
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
                        let tuple = tuples.at(&readers, i);
                        computed
                            .iter()
                            .map(|e| e.value(&tuple).into_owned())
                            .collect()
                    })
                    .collect()
            });
            let row = |i: usize, slot: usize| match &computed {
                Some(rows) if slot == n => &rows[i][..],
                _ => tuples.at(&readers, i).row(slot),
            };
            let picked = pick(
                tuples.len(),
                |i| {
                    projection
                        .iter()
                        .map(move |&(slot, col)| &row(i, slot)[col])
                },
                |k, i| sort[k].value(&tuples.at(&readers, i)),
                stmt,
            );
            let computed = computed.map(|rows| Arc::new(Table::computed(width, rows)));
            let numbers = tuples.into_numbers(picked, limit, computed.is_some());
            let tables = order.iter().map(|&t| Arc::clone(tables[t]));
            (tables.chain(computed).collect(), projection, numbers)
        }
        Output::Grouped { keys, calls, items } => {
            // The groups form a one-slot table of [projection…, sort keys…].
            let groups = fold(&tuples, &readers, &keys, &calls, &items);
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

/// Whether values of the two types that compare equal also hash alike, so
/// that a [`KeyIndex`] finds one from the other.
fn hash_alike(a: DataType, b: DataType) -> bool {
    use DataType::{Float, Int};
    a == b || matches!((a, b), (Int | Float, Int | Float))
}

/// `column op literal` or `literal op column` on a column of tuple slot
/// `slot`: the column, the operator as it reads with the column on its
/// left, and the literal.
fn column_vs_literal(pred: &BoundExpr, slot: usize) -> Option<(usize, CompareOp, &Value)> {
    let BoundExpr::Compare { op, left, right } = pred else {
        return None;
    };
    match (&**left, &**right) {
        (BoundExpr::Column { slot: s, col }, BoundExpr::Literal(literal)) if *s == slot => {
            Some((*col, *op, literal))
        }
        (BoundExpr::Literal(literal), BoundExpr::Column { slot: s, col }) if *s == slot => {
            let mirrored = match *op {
                CompareOp::Lt => CompareOp::Gt,
                CompareOp::LtEq => CompareOp::GtEq,
                CompareOp::Gt => CompareOp::Lt,
                CompareOp::GtEq => CompareOp::LtEq,
                op @ (CompareOp::Eq | CompareOp::NotEq) => op,
            };
            Some((*col, mirrored, literal))
        }
        _ => None,
    }
}

/// `column = literal` on a column of tuple slot `slot` whose type the
/// literal hashes like: the column and the literal.
fn literal_key<'e>(
    pred: &'e BoundExpr,
    slot: usize,
    schema: &TableSchema,
) -> Option<(usize, &'e Value)> {
    let (col, op, key) = column_vs_literal(pred, slot)?;
    let declared = schema.columns[col].data_type;
    let alike = key.data_type().is_some_and(|t| hash_alike(t, declared));
    (op == CompareOp::Eq && alike).then_some((col, key))
}

/// `column <, <=, >, >= literal`, the literal on either side, on a column
/// of tuple slot `slot` and a literal of exactly the column's type: the
/// column, the operator with the column on its left, and the literal.
fn literal_range<'e>(
    pred: &'e BoundExpr,
    slot: usize,
    schema: &TableSchema,
) -> Option<(usize, CompareOp, &'e Value)> {
    let (col, op, literal) = column_vs_literal(pred, slot)?;
    let range = !matches!(op, CompareOp::Eq | CompareOp::NotEq);
    let typed = literal.data_type() == Some(schema.columns[col].data_type);
    (range && typed).then_some((col, op, literal))
}

/// The numbers of `table`'s rows that pass `preds`, its predicates in tuple
/// slot `slot`, ascending, at most `limit` of them.  A `column = literal`
/// among them reads its candidates from the column's [`KeyIndex`], and
/// every predicate is tested on those; else a range filter reads its rows
/// from the column's [`OrderIndex`](crate::OrderIndex), and only the other
/// predicates are tested on them; otherwise the table is scanned.
fn passing<'a>(
    table: &'a Table,
    reader: &RowReader<'a>,
    slot: usize,
    preds: &[BoundExpr],
    probe: &mut [&'a [Value]],
    limit: usize,
) -> Vec<u32> {
    if preds.is_empty() {
        return (0..table.row_count().min(limit)).map(row_number).collect();
    }
    // Every predicate but the `answered` one holds on `row`.
    let mut passes = |row: &'a [Value], answered: usize| {
        probe[slot] = row;
        preds
            .iter()
            .enumerate()
            .all(|(i, p)| i == answered || p.test(&probe[..]) == Some(true))
    };
    let schema = table.schema();
    if let Some((col, key)) = preds.iter().find_map(|p| literal_key(p, slot, schema)) {
        return table
            .key_index(col)
            .candidates(key)
            .iter()
            .copied()
            .filter(|&r| passes(reader.row(r), usize::MAX))
            .take(limit)
            .collect();
    }
    // The first range filter on a column with an order index (INT, DATE,
    // TEXT), and the rows it passes.
    let range = preds.iter().enumerate().find_map(|(i, p)| {
        let (col, op, literal) = literal_range(p, slot, schema)?;
        let order = |r: u32| {
            let cell = &reader.row(r)[col];
            cell.sql_cmp(literal)
                .expect("an indexed cell compares with a literal of its type")
        };
        Some((i, table.order_index(col)?.range(op, order)?))
    });
    if let Some((answered, rows)) = range {
        return ascending(rows, table.row_count())
            .filter(|&r| preds.len() == 1 || passes(reader.row(r), answered))
            .take(limit)
            .collect();
    }
    table
        .rows()
        .iter()
        .zip(0..)
        .filter(|&(row, _)| passes(row, usize::MAX))
        .map(|(_, r)| r)
        .take(limit)
        .collect()
}

/// `rows`, distinct row numbers below `len`, in ascending order: marked in
/// a bitmap of `len` bits and read back word by word.
fn ascending(rows: &[u32], len: usize) -> impl Iterator<Item = u32> {
    let words = if rows.is_empty() { 0 } else { len.div_ceil(64) };
    let mut marked = vec![0u64; words];
    for &r in rows {
        marked[r as usize / 64] |= 1 << (r % 64);
    }
    marked.into_iter().zip(0u32..).flat_map(|(mut word, w)| {
        std::iter::from_fn(move || {
            let bit = (word != 0).then(|| word.trailing_zeros())?;
            word &= word - 1;
            Some(w * 64 + bit)
        })
    })
}

/// Where a join finds the attached table's candidate rows for a tuple.
enum Lookup {
    /// Key `k`'s column's cached [`KeyIndex`]: the table has no predicate
    /// of its own, and is not scanned.
    Cached(usize),
    /// A [`KeyIndex`] over key `k`'s cells of these rows, the ones that pass
    /// the table's predicates.
    Built(usize, Vec<u32>),
    /// These rows, each of them: no key can be looked up.
    Scan(Vec<u32>),
}

/// Attaches `table`, in the next tuple slot, to every tuple of `left`: the
/// candidate rows `lookup` gives whose cells equal the tuple's under every
/// key.  Each of `keys` pairs a `(slot, column)` of the tuples with a column
/// of `table`; with no keys the join is a cross product.  Output is
/// tuple-major, then in row order.
fn join<'a>(
    left: &Tuples,
    readers: &[RowReader<'a>],
    table: &'a Table,
    keys: &[((usize, usize), usize)],
    lookup: Lookup,
) -> Tuples {
    let reader = &readers[left.stride];
    let left_cell = |tuple: &[u32], k: usize| {
        let ((slot, col), _) = keys[k];
        &readers[slot].row(tuple[slot])[col]
    };
    let built;
    let (index, rows) = match lookup {
        Lookup::Cached(k) => (Some((table.key_index(keys[k].1), k)), Vec::new()),
        Lookup::Built(k, rows) => {
            let col = keys[k].1;
            built = KeyIndex::build(rows.iter().map(|&r| (r, &reader.row(r)[col])));
            (Some((&built, k)), Vec::new())
        }
        Lookup::Scan(rows) => (None, rows),
    };
    let mut numbers = Vec::new();
    for l in 0..left.len() {
        let tuple = left.get(l);
        let candidates = match index {
            Some((index, k)) => index.candidates(left_cell(tuple, k)),
            None => &rows[..],
        };
        for &r in candidates {
            let row = reader.row(r);
            let equal =
                |k: usize| left_cell(tuple, k).sql_cmp(&row[keys[k].1]) == Some(Ordering::Equal);
            if (0..keys.len()).all(equal) {
                numbers.extend_from_slice(tuple);
                numbers.push(r);
            }
        }
    }
    Tuples {
        numbers,
        stride: left.stride + 1,
    }
}

/// Assigns every tuple to its group — groups in order of first appearance,
/// one group for the whole input when there are no `keys` — updating the
/// group's accumulators as it goes.  Returns the `items` of each group.
fn fold(
    tuples: &Tuples,
    readers: &[RowReader<'_>],
    keys: &[BoundExpr],
    calls: &[AggCall],
    items: &[GroupExpr],
) -> Vec<Row> {
    // An entry per group.
    let mut index = Chains::new();
    // Per group: its first tuple, and `calls.len()` accumulators in `accs`.
    let mut firsts: Vec<usize> = Vec::new();
    let mut accs: Vec<Accumulator<'_>> = Vec::new();
    // This tuple's keys, and the last hashed tuple's and its group.
    let mut keyed: Vec<Cow<'_, Value>> = Vec::with_capacity(keys.len());
    let mut last: Vec<Cow<'_, Value>> = Vec::with_capacity(keys.len());
    let mut last_group = None;
    // Keys identical to the last ones find the same first equal group.
    let identical = |(a, b): (&Cow<'_, Value>, &Cow<'_, Value>)| {
        std::mem::discriminant(&**a) == std::mem::discriminant(&**b) && a == b
    };
    for i in 0..tuples.len() {
        let tuple = tuples.at(readers, i);
        keyed.clear();
        keyed.extend(keys.iter().map(|k| k.value(&tuple)));
        let run = last_group.filter(|_| keyed.iter().zip(&last).all(identical));
        let group = run.unwrap_or_else(|| {
            let hash = index.hash(keyed.iter().map(|key| &**key));
            let same_key = |g: &usize| {
                let first = tuples.at(readers, firsts[*g]);
                keys.iter()
                    .zip(&keyed)
                    .all(|(k, key)| *k.value(&first) == **key)
            };
            // `Int` and `Float` keys make equality intransitive (`Int(0)`
            // equals both zeros, which differ), so the first equal group
            // wins: the last of a newest-first walk.
            let found = index.chain(hash).filter(same_key).last();
            let group = found.unwrap_or_else(|| {
                index.push(hash);
                firsts.push(i);
                accs.resize(accs.len() + calls.len(), Accumulator::default());
                firsts.len() - 1
            });
            std::mem::swap(&mut keyed, &mut last);
            group
        });
        last_group = Some(group);
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
            let first = firsts.get(g).map(|&i| tuples.at(readers, i));
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
        let mut seen = Chains::new();
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

    /// Whether `r.k`'s key index, which [`JOIN_TAGS`] reads, finds a key's
    /// rows by its value.
    fn r_keys_by_value(db: &Database) -> bool {
        db.table("r").unwrap().key_index(0).by_value()
    }

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
        assert!(!r_keys_by_value(&db));
        // Dense keys up to 2^53 are indexed by value; 2^53 + 1 is past the
        // last bucket.
        let db = keyed(
            &[Value::Int(big + 1), Value::Int(big), Value::Int(big - 1)],
            &[Value::Int(big - 1), Value::Int(big)],
        );
        let rs = db.run_sql(JOIN_TAGS).unwrap();
        assert_eq!(
            rows(&rs),
            [
                vec![Value::Int(1), Value::Int(1)],
                vec![Value::Int(2), Value::Int(0)]
            ]
        );
        assert!(r_keys_by_value(&db));
    }

    #[test]
    fn join_keys_match_int_with_equal_float() {
        let db = keyed(&[Value::Int(5), Value::Float(5.5)], &[Value::Float(5.0)]);
        let rs = db.run_sql(JOIN_TAGS).unwrap();
        assert_eq!(rows(&rs), [vec![Value::Int(0), Value::Int(0)]]);
        // Indexed by value: a whole `Float` finds the equal `Int`, and
        // `-0.0` finds zero where there is one.
        let big = 1i64 << 53;
        let db = keyed(
            &[
                Value::Int(big + 1),
                Value::Float(-0.0),
                Value::Float(big as f64),
            ],
            &[Value::Int(big - 1), Value::Int(big)],
        );
        let rs = db.run_sql(JOIN_TAGS).unwrap();
        assert_eq!(rows(&rs), [vec![Value::Int(2), Value::Int(1)]]);
        assert!(r_keys_by_value(&db));
        let db = keyed(
            &[Value::Float(-0.5), Value::Float(-0.0)],
            &[Value::Int(-1), Value::Int(0)],
        );
        let rs = db.run_sql(JOIN_TAGS).unwrap();
        assert_eq!(rows(&rs), [vec![Value::Int(1), Value::Int(1)]]);
        assert!(r_keys_by_value(&db));
    }

    #[test]
    fn join_keys_match_int_zero_with_negative_zero_float() {
        let zeros = [Value::Float(-0.0), Value::Float(0.0)];
        let both = [
            vec![Value::Int(0), Value::Int(0)],
            vec![Value::Int(0), Value::Int(1)],
        ];
        // Two left rows, then one: each finds both zeros in the index.
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

    /// A TEXT key joined to a DATE key hashes unlike it, so no index can
    /// find its equals: every pair is compared, and a text that reads as
    /// the date matches it, as the predicate `s = d` does.
    #[test]
    fn text_and_date_join_keys_compare_every_pair() {
        let mut db = Database::new();
        for (name, data_type) in [("s", DataType::Text), ("d", DataType::Date)] {
            db.create_table(
                TableSchema::builder(name)
                    .column("k", data_type)
                    .column("tag", DataType::Int)
                    .build(),
            )
            .unwrap();
        }
        for (tag, text) in ["2011-09-02", "x", "2011-09-01"].into_iter().enumerate() {
            db.insert("s", vec![Value::from(text), Value::Int(tag as i64)])
                .unwrap();
        }
        for (tag, day) in [1, 2, 2].into_iter().enumerate() {
            let date = Value::Date(Date::new(2011, 9, day));
            db.insert("d", vec![date, Value::Int(tag as i64)]).unwrap();
        }
        let rs = db
            .run_sql("SELECT s.tag, d.tag FROM s, d WHERE s.k = d.k")
            .unwrap();
        assert_eq!(rs.tuple_strings(), ["0\t1", "0\t2", "2\t0"]);
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
            // `a, b` looks `a`'s keys up in `b`'s index; `b, a` the other way.
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
        // `Int(0)` joins the `0.0` group; the `-0.0` right after it equals
        // that `Int(0)` but not `0.0`, so it opens a group of its own.
        let keys = [
            Value::Float(0.0),
            Value::Float(1.0),
            Value::Int(0),
            Value::Float(-0.0),
        ];
        let db = keyed(&keys, &[]);
        let rs = db.run_sql("SELECT k, count(*) FROM l GROUP BY k").unwrap();
        assert_eq!(
            rows(&rs),
            [
                vec![Value::Float(0.0), Value::Int(2)],
                vec![Value::Float(1.0), Value::Int(1)],
                vec![Value::Float(-0.0), Value::Int(1)]
            ]
        );
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

    /// `t(k, tag, name)`: `tag` counts `0..rows`, `k` is `tag % 3`, `name`
    /// is `w` and `tag % 7`.
    fn counted(rows: i64) -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("t")
                .column("k", DataType::Int)
                .column("tag", DataType::Int)
                .column("name", DataType::Text)
                .build(),
        )
        .unwrap();
        db.insert_all("t", (0..rows).map(counted_row)).unwrap();
        db
    }

    fn counted_row(tag: i64) -> Row {
        let name = format!("w{}", tag % 7);
        vec![Value::Int(tag % 3), Value::Int(tag), Value::from(name)]
    }

    /// `t` of [`counted`] past a segment, its tail in chunks that earlier
    /// clones hold, and `u(k, name)` of three rows: the key and order
    /// indexes `t`'s joins, key filters and range filters read span the
    /// frozen segment and every chunk.
    #[test]
    fn key_indexes_span_frozen_segments_and_tail_chunks() {
        let mut db = counted(1_000);
        let mut held = Vec::new();
        for tag in 1_000..1_500 {
            if tag % 100 == 0 {
                held.push(db.clone());
            }
            db.insert("t", counted_row(tag)).unwrap();
        }
        let t = db.table("t").unwrap();
        assert_eq!((t.segment_count(), t.tail_rows()), (1, 476));
        db.create_table(
            TableSchema::builder("u")
                .column("k", DataType::Int)
                .column("name", DataType::Text)
                .build(),
        )
        .unwrap();
        for (k, name) in [
            (1_499, "last"),
            (5, "frozen"),
            (1_024, "tail"),
            (1_023, "seam"),
        ] {
            db.insert("u", vec![Value::Int(k), Value::from(name)])
                .unwrap();
        }
        let tags = |db: &Database, sql: &str| db.run_sql(sql).unwrap().tuple_strings();
        let join = "SELECT u.name, t.k FROM u, t WHERE u.k = t.tag";
        // The range filters, and the tags they pass among `0..rows`.
        let ranges = |rows: i64| {
            let upto = |passes: &dyn Fn(i64) -> bool, limit: usize| -> Vec<String> {
                let passing = (0..rows).filter(|&tag| passes(tag));
                passing.take(limit).map(|tag| tag.to_string()).collect()
            };
            [
                (
                    "SELECT tag FROM t WHERE t.tag > 1023",
                    upto(&|tag| tag > 1_023, usize::MAX),
                ),
                (
                    "SELECT tag FROM t WHERE 1023 >= t.tag",
                    upto(&|tag| tag <= 1_023, usize::MAX),
                ),
                (
                    "SELECT tag FROM t WHERE t.tag >= 1020 AND k <> 0 LIMIT 4",
                    upto(&|tag| tag >= 1_020 && tag % 3 != 0, 4),
                ),
                (
                    "SELECT tag FROM t WHERE t.name < 'w2'",
                    upto(&|tag| tag % 7 < 2, usize::MAX),
                ),
            ]
        };
        for _ in 0..2 {
            assert_eq!(
                tags(&db, join),
                ["last\t2", "frozen\t2", "tail\t1", "seam\t0"],
                "{join}"
            );
            let twos: Vec<String> = (0..1_500)
                .filter(|tag| tag % 3 == 2)
                .map(|tag| tag.to_string())
                .collect();
            assert_eq!(tags(&db, "SELECT tag FROM t WHERE k = 2"), twos);
            assert_eq!(
                tags(&db, "SELECT tag FROM t WHERE k = 1 LIMIT 3"),
                ["1", "4", "7"]
            );
            let twos_joined = tags(
                &db,
                "SELECT t.tag FROM u, t WHERE u.name = 'last' AND t.k = 2",
            );
            assert_eq!(twos_joined, twos);
            for (sql, want) in ranges(1_500) {
                assert_eq!(tags(&db, sql), want, "{sql}");
            }
        }
        // A write drops the indexes; the held clones keep reading their rows.
        let mut row = counted_row(1_500);
        row[0] = Value::Int(2);
        db.insert("t", row).unwrap();
        let twos = tags(&db, "SELECT tag FROM t WHERE k = 2");
        assert_eq!((twos.len(), &twos[500]), (501, &"1500".to_string()));
        for (sql, want) in ranges(1_501) {
            assert_eq!(tags(&db, sql), want, "after a write: {sql}");
        }
        for (n, clone) in held.iter().enumerate() {
            let rows = clone.run_sql("SELECT tag FROM t WHERE k = 0").unwrap();
            assert_eq!(rows.row_count(), (1_000 + 100 * n).div_ceil(3), "clone {n}");
            let tail = clone
                .run_sql("SELECT tag FROM t WHERE t.tag > 1023")
                .unwrap();
            let past_the_seam = (1_000 + 100 * n).saturating_sub(1_024);
            assert_eq!(tail.row_count(), past_the_seam, "clone {n}");
        }
    }

    /// A `column = literal` whose literal hashes unlike the column's type
    /// scans the table: a TEXT against a date, which equals a text that
    /// reads as it, and an INT against a text, which equals nothing.
    #[test]
    fn a_literal_of_another_type_is_tested_by_a_scan() {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("s")
                .column("txt", DataType::Text)
                .column("n", DataType::Int)
                .build(),
        )
        .unwrap();
        for n in 0..200 {
            let txt = if n % 10 == 0 {
                "2011-09-02".to_string()
            } else {
                format!("w{n}")
            };
            db.insert("s", vec![Value::from(txt), Value::Int(n)])
                .unwrap();
        }
        let mut stmt = crate::sql::parser::parse_select("SELECT n FROM s").unwrap();
        let date = Value::Date(Date::new(2011, 9, 2));
        stmt.selection = Some(Expr::compare(
            CompareOp::Eq,
            Expr::column("txt"),
            Expr::Literal(date),
        ));
        for _ in 0..2 {
            assert_eq!(execute(&db, &stmt).unwrap().row_count(), 20);
            let none = db.run_sql("SELECT n FROM s WHERE n = '10'").unwrap();
            assert!(none.is_empty());
            let one = db.run_sql("SELECT txt FROM s WHERE n = 10").unwrap();
            assert_eq!(one.tuple_strings(), ["2011-09-02"]);
        }
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
        db.insert("t", counted_row(3)).unwrap();
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
