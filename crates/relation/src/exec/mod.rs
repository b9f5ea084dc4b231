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
//!    joins, recording the number of each row that passes.  A `column op
//!    literal` among them — `=`, `<`, `<=`, `>` or `>=`, the literal on
//!    either side and of a type that shares the column's order — reads its
//!    rows from the column's [`ColumnIndex`] instead, as a range of codes
//!    (an `=` before a range; a range's rows marked in a row bitmap and
//!    read back ascending), and only the other predicates are tested on
//!    them.
//! 3. **Join.**  Tables attach in the order join predicates connect them
//!    (cross product only when none does).  A tuple is one row number per
//!    table joined so far.  An equi-join reads the attached table's
//!    [`ColumnIndex`] on the first key column whose two types share an
//!    order: a column coded by value finds a key with no search, and one
//!    coded by rank is searched once per distinct driving key, which the
//!    driving column's own codes tell apart.  It keeps the rows that pass
//!    the table's own predicates and whose other keys compare equal as the
//!    predicate `l = r` would.  Keys of types with no shared order (TEXT
//!    and DATE) compare every pair.  Output is tuple-major, then in row
//!    order.
//! 4. **Fold.**  Aggregating statements number each tuple's group by its
//!    keys' codes, in order of first appearance — a key that is not a
//!    column is first computed into a table of its own — then update one
//!    accumulator per (group, aggregate).  No key's value is hashed or
//!    compared.
//! 5. **Pick.**  DISTINCT keeps the first tuple of each group of its output
//!    columns' codes; ORDER BY and LIMIT work on tuple numbers.  The
//!    [`ResultSet`] keeps a shared handle of each FROM table and, per output
//!    row, the row number of each of its tuple's rows; it copies no cell, and
//!    reads one only when a caller reads its row.  What the statement
//!    computes — groups, aggregates, a projection that is not a column — is
//!    computed once into one more table of the result.

pub mod eval;

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::{Deref, Index};
use std::sync::Arc;

use self::eval::{Accumulator, AggCall, BoundExpr, GroupExpr, RowSchema, Tuple};
use crate::catalog::Database;
use crate::error::{RelationError, Result};
use crate::expr::{CompareOp, Expr};
use crate::sql::ast::SelectStatement;
use crate::table::{ColumnIndex, Row, RowReader, Table};
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
        // The key looked up: the first whose two columns share an order.
        let indexed = keys
            .iter()
            .position(|&((s, c), col)| share_an_order(declared(s, c), declared(slot, col)));
        let lookup = match indexed {
            Some(k) if pushdowns[t].is_empty() => Lookup::Index(k, None),
            Some(k) => {
                let passing = scan(slot, usize::MAX);
                Lookup::Index(k, Some(marked(&passing, slot_tables[slot].row_count())))
            }
            None => Lookup::Scan(scan(slot, usize::MAX)),
        };
        tuples = join(&tuples, &readers, &slot_tables, &keys, lookup);
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
            let computed = compute(&tuples, &readers, &computed).map(Arc::new);
            let slot_table = |slot: usize| match &computed {
                Some(table) if slot == n => &**table,
                _ => slot_tables[slot],
            };
            let distinct: Vec<&ColumnIndex> = match stmt.distinct {
                true => projection
                    .iter()
                    .map(|&(slot, col)| slot_table(slot).column_index(col))
                    .collect(),
                false => Vec::new(),
            };
            let picked = pick(
                tuples.len(),
                &distinct,
                |i, c| match projection[c].0 {
                    slot if slot == n => row_number(i),
                    slot => tuples.get(i)[slot],
                },
                |k, i| sort[k].value(&tuples.at(&readers, i)),
                stmt,
            );
            let numbers = tuples.into_numbers(picked, limit, computed.is_some());
            let tables = order.iter().map(|&t| Arc::clone(tables[t]));
            (tables.chain(computed).collect(), projection, numbers)
        }
        Output::Grouped { keys, calls, items } => {
            // The groups form a one-slot table of [projection…, sort keys…].
            let groups = fold(&tuples, &readers, &slot_tables, &keys, &calls, &items);
            let table = Arc::new(Table::computed(items.len(), groups));
            let width = columns.len();
            let distinct: Vec<&ColumnIndex> = match stmt.distinct {
                true => (0..width).map(|c| table.column_index(c)).collect(),
                false => Vec::new(),
            };
            let picked = pick(
                table.row_count(),
                &distinct,
                |g, _| row_number(g),
                |k, g| &table.rows().get(g).expect("a group's row")[width + k],
                stmt,
            );
            let picked = picked.unwrap_or_else(|| (0..table.row_count().min(limit)).collect());
            let numbers = picked.into_iter().map(row_number).collect();
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

/// Whether [`Value::sql_cmp`] orders values of the two types as
/// [`Value::total_cmp`] does, so that a [`ColumnIndex`] of one finds the
/// other: one type, or `Int` and `Float`.
fn share_an_order(a: DataType, b: DataType) -> bool {
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

/// The numbers of `table`'s rows that pass `preds`, its predicates in tuple
/// slot `slot`, ascending, at most `limit` of them.  The first `column =
/// literal` among them, else the first range filter, whose literal shares
/// the column's order, reads its rows from the column's [`ColumnIndex`],
/// and only the other predicates are tested on them; otherwise the table is
/// scanned.
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
    let indexed = preds
        .iter()
        .enumerate()
        .filter_map(|(i, p)| {
            let (col, op, literal) = column_vs_literal(p, slot)?;
            let declared = schema.columns[col].data_type;
            let ordered = literal
                .data_type()
                .is_some_and(|t| share_an_order(t, declared));
            (ordered && op != CompareOp::NotEq).then_some((i, col, op, literal))
        })
        .min_by_key(|&(_, _, op, _)| op != CompareOp::Eq);
    let found = indexed.and_then(|(answered, col, op, literal)| {
        let index = table.column_index(col);
        Some((answered, index, index.find(reader, col, op, literal)?))
    });
    if let Some((answered, index, codes)) = found {
        let rows = index.rows(codes.clone());
        let mut keep = |&r: &u32| preds.len() == 1 || passes(reader.row(r), answered);
        // One value's rows ascend; more values' are sorted by value.
        return match codes.len() {
            0 | 1 => rows.iter().copied().filter(&mut keep).take(limit).collect(),
            _ => ascending(rows, table.row_count())
                .filter(&mut keep)
                .take(limit)
                .collect(),
        };
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

/// `rows`, distinct row numbers below `len`, as a bitmap of `len` bits.
fn marked(rows: &[u32], len: usize) -> Vec<u64> {
    let mut marked = vec![0u64; len.div_ceil(64)];
    for &r in rows {
        marked[r as usize / 64] |= 1 << (r % 64);
    }
    marked
}

/// `rows`, distinct row numbers below `len`, in ascending order: marked in
/// a bitmap of `len` bits and read back word by word.
fn ascending(rows: &[u32], len: usize) -> impl Iterator<Item = u32> {
    marked(rows, len)
        .into_iter()
        .zip(0u32..)
        .flat_map(|(mut word, w)| {
            std::iter::from_fn(move || {
                let bit = (word != 0).then(|| word.trailing_zeros())?;
                word &= word - 1;
                Some(w * 64 + bit)
            })
        })
}

/// Where a join finds the attached table's candidate rows for a tuple.
enum Lookup {
    /// In the [`ColumnIndex`] of key `k`'s column, keeping the rows a bitmap
    /// marks when the table has predicates of its own.
    Index(usize, Option<Vec<u64>>),
    /// Each of these rows: no key's two columns share an order.
    Scan(Vec<u32>),
}

/// Attaches the table of the next tuple slot to every tuple of `left`: the
/// candidate rows `lookup` gives whose cells equal the tuple's under every
/// key.  Each of `keys` pairs a `(slot, column)` of the tuples with a column
/// of the attached table; with no keys the join is a cross product.  Output
/// is tuple-major, then in row order.
fn join<'a>(
    left: &Tuples,
    readers: &[RowReader<'a>],
    tables: &[&'a Table],
    keys: &[((usize, usize), usize)],
    lookup: Lookup,
) -> Tuples {
    let reader = &readers[left.stride];
    let left_cell = |tuple: &[u32], k: usize| {
        let ((slot, col), _) = keys[k];
        &readers[slot].row(tuple[slot])[col]
    };
    let mut numbers = Vec::new();
    // Appends `tuple` and row `r` when every key but `found` is equal.
    let mut attach = |tuple: &[u32], r: u32, found: usize| {
        let row = reader.row(r);
        let equal = |k: usize| {
            k == found || left_cell(tuple, k).sql_cmp(&row[keys[k].1]) == Some(Ordering::Equal)
        };
        if (0..keys.len()).all(equal) {
            numbers.extend_from_slice(tuple);
            numbers.push(r);
        }
    };
    match lookup {
        Lookup::Index(k, passing) => {
            let ((slot, col), attached) = keys[k];
            let index = tables[left.stride].column_index(attached);
            // An index coded by value finds a key with no search; one coded
            // by rank searches each distinct driving key once, told apart
            // by the driving column's codes.
            let driving = (!index.by_value()).then(|| tables[slot].column_index(col));
            let mut found = vec![None; driving.map_or(0, |d| d.null_code() as usize + 1)];
            for l in 0..left.len() {
                let tuple = left.get(l);
                let find = || {
                    let codes = index.find(reader, attached, CompareOp::Eq, left_cell(tuple, k));
                    index.rows(codes.unwrap_or(0..0))
                };
                let rows = match driving {
                    Some(driving) => {
                        *found[driving.code(tuple[slot]) as usize].get_or_insert_with(find)
                    }
                    None => find(),
                };
                for &r in rows {
                    let passes = passing
                        .as_ref()
                        .is_none_or(|bits| bits[r as usize / 64] & 1 << (r % 64) != 0);
                    if passes {
                        attach(tuple, r, k);
                    }
                }
            }
        }
        Lookup::Scan(rows) => {
            for l in 0..left.len() {
                for &r in &rows {
                    attach(left.get(l), r, usize::MAX);
                }
            }
        }
    }
    Tuples {
        numbers,
        stride: left.stride + 1,
    }
}

/// The values of `exprs` over every tuple, as a table of their own; none
/// when there are no `exprs`.
fn compute(tuples: &Tuples, readers: &[RowReader<'_>], exprs: &[&BoundExpr]) -> Option<Table> {
    let rows = (0..tuples.len()).map(|i| {
        let tuple = tuples.at(readers, i);
        exprs.iter().map(|e| e.value(&tuple).into_owned()).collect()
    });
    (!exprs.is_empty()).then(|| Table::computed(exprs.len(), rows.collect()))
}

/// Numbers `len` candidates by their cells under `keys`, in order of first
/// appearance: each candidate's group, and each group's first candidate.
/// Key `k` is a column's index, and `row(i, k)` candidate `i`'s row there;
/// equal cells share a code, so no cell is read.  With no keys, every
/// candidate is in one group.
fn group(
    len: usize,
    keys: &[&ColumnIndex],
    row: impl Fn(usize, usize) -> u32,
) -> (Vec<u32>, Vec<usize>) {
    let mut groups = vec![0u32; len];
    let mut firsts = vec![0; len.min(1)];
    for (k, index) in keys.iter().enumerate() {
        // A group per code of the first key; after it, per (group, code).
        let codes = if k == 0 {
            index.null_code() as usize + 1
        } else {
            0
        };
        let mut by_code = vec![u32::MAX; codes];
        let mut by_pair = BTreeMap::new();
        firsts.clear();
        for (i, group) in groups.iter_mut().enumerate() {
            let code = index.code(row(i, k));
            let known = match k {
                0 => &mut by_code[code as usize],
                _ => by_pair.entry((*group, code)).or_insert(u32::MAX),
            };
            if *known == u32::MAX {
                *known = row_number(firsts.len());
                firsts.push(i);
            }
            *group = *known;
        }
    }
    (groups, firsts)
}

/// Assigns every tuple to its group — groups in order of first appearance,
/// one group for the whole input when there are no `keys` — and updates
/// the group's accumulators.  Returns the `items` of each group.
fn fold(
    tuples: &Tuples,
    readers: &[RowReader<'_>],
    tables: &[&Table],
    keys: &[BoundExpr],
    calls: &[AggCall],
    items: &[GroupExpr],
) -> Vec<Row> {
    // A key that is not a column is computed into a column of its own.
    let computed: Vec<&BoundExpr> = keys
        .iter()
        .filter(|key| !matches!(key, BoundExpr::Column { .. }))
        .collect();
    let computed = compute(tuples, readers, &computed);
    // Per key: its column's index and, for a FROM table's, its slot.
    let mut at = 0;
    let columns: Vec<(&ColumnIndex, Option<usize>)> = keys
        .iter()
        .map(|key| match *key {
            BoundExpr::Column { slot, col } => (tables[slot].column_index(col), Some(slot)),
            _ => {
                at += 1;
                let table = computed.as_ref().expect("a computed key has a table");
                (table.column_index(at - 1), None)
            }
        })
        .collect();
    let indexes: Vec<&ColumnIndex> = columns.iter().map(|&(index, _)| index).collect();
    let (group_of, firsts) = group(tuples.len(), &indexes, |i, k| match columns[k].1 {
        Some(slot) => tuples.get(i)[slot],
        None => row_number(i),
    });
    // An aggregate over no rows still reports one (empty) group.
    let groups = if keys.is_empty() { 1 } else { firsts.len() };
    let mut accs = vec![Accumulator::default(); groups * calls.len()];
    for (i, &group) in group_of.iter().enumerate() {
        let tuple = tuples.at(readers, i);
        let accs = &mut accs[group as usize * calls.len()..];
        for (call, acc) in calls.iter().zip(accs) {
            call.update(acc, &tuple);
        }
    }
    let mut accs = accs.into_iter();
    (0..groups)
        .map(|g| {
            let finished: Vec<Value> = calls
                .iter()
                .map(|call| call.finish(accs.next().expect("an accumulator per call")))
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
/// them as they stand.  DISTINCT groups the tuples by `distinct`, the
/// indexes of the output columns, where `row(i, c)` is tuple `i`'s row for
/// column `c`; `key(k, i)` is tuple `i`'s `k`th sort key.
fn pick<K>(
    len: usize,
    distinct: &[&ColumnIndex],
    row: impl Fn(usize, usize) -> u32,
    key: impl Fn(usize, usize) -> K,
    stmt: &SelectStatement,
) -> Option<Vec<usize>>
where
    K: Deref<Target = Value>,
{
    if !stmt.distinct && stmt.order_by.is_empty() {
        return None;
    }
    let mut picked: Vec<usize> = match stmt.distinct {
        true => group(len, distinct, row).1,
        false => (0..len).collect(),
    };
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

    /// Whether `r.k`'s column index, which [`JOIN_TAGS`] reads, codes a key
    /// by its value.
    fn r_keys_by_value(db: &Database) -> bool {
        db.table("r").unwrap().column_index(0).by_value()
    }

    #[test]
    fn join_keys_compare_integers_exactly() {
        // 2^53 and 2^53 + 1 are the same f64; they are not the same id.
        let big = 1i64 << 53;
        let db = keyed(
            &[Value::Int(big), Value::Int(big + 1)],
            &[Value::Int(big + 1), Value::Int(-big)],
        );
        let rs = db.run_sql(JOIN_TAGS).unwrap();
        assert_eq!(rows(&rs), [vec![Value::Int(1), Value::Int(0)]]);
        assert!(!r_keys_by_value(&db));
        // Dense keys are coded by value, whatever their magnitude; 2^53 + 1
        // is past the last code.
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

    /// A TEXT key joined to a DATE key shares no order with it, so no index
    /// can find its equals: every pair is compared, and a text that reads
    /// as the date matches it, as the predicate `s = d` does.
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
        // There is one zero: `0.0`, `Int(0)` and `-0.0` form one group, which
        // shows its first key.
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
                vec![Value::Float(0.0), Value::Int(3)],
                vec![Value::Float(1.0), Value::Int(1)]
            ]
        );
    }

    /// A FLOAT column where `Int` and `Float` meet at 2^53 and at zero:
    /// each value compares exactly, so sorting cannot panic, and the same
    /// statement answers the same on every fresh database.
    #[test]
    fn keys_at_two_to_the_53_and_zero_sort_group_and_deduplicate_alike() {
        let big = 1i64 << 53;
        let keys = [
            Value::Int(big + 1),
            Value::Float(big as f64),
            Value::Int(big),
            Value::Float(-0.0),
            Value::Int(0),
        ];
        let answers = |db: &Database| {
            [
                "SELECT tag FROM l ORDER BY k",
                "SELECT tag FROM l ORDER BY k DESC",
                "SELECT min(tag), count(*) FROM l GROUP BY k ORDER BY k",
                "SELECT DISTINCT k FROM l",
            ]
            .map(|sql| db.run_sql(sql).unwrap().tuple_strings())
        };
        let want = [
            &["3", "4", "1", "2", "0"][..],
            &["0", "1", "2", "3", "4"],
            &["3\t2", "1\t2", "0\t1"],
            &["9007199254740993", "9007199254740992", "-0"],
        ];
        for _ in 0..3 {
            let db = keyed(&keys, &[]);
            assert_eq!(answers(&db), want);
            assert_eq!(answers(&db), want, "with the index built");
        }
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
    /// clones hold, and `u(k, name)` of three rows: the column indexes
    /// `t`'s joins, key filters and range filters read span the frozen
    /// segment and every chunk.
    #[test]
    fn column_indexes_span_frozen_segments_and_tail_chunks() {
        let mut db = counted(1_000);
        let mut held = Vec::new();
        for tag in 1_000..1_500 {
            if tag % 100 == 0 {
                held.push(db.clone());
            }
            db.insert("t", counted_row(tag)).unwrap();
        }
        let t = db.table("t").unwrap();
        assert_eq!(
            (t.row_count() - t.tail_rows(), t.tail_rows()),
            (Table::SEGMENT_ROWS, 476)
        );
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

    /// A `column = literal` whose literal shares no order with the column's
    /// type scans the table: a TEXT against a date, which equals a text that
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
        // A computed group key is grouped by its own column's codes.
        let mut by_k_is_1 = with_k_is_1("SELECT k, count(*) FROM t GROUP BY k", 0);
        by_k_is_1.group_by = vec![by_k_is_1.projection[0].expr.clone()];
        assert_eq!(
            rows(&execute(&db, &by_k_is_1).unwrap()),
            [
                vec![Value::Bool(false), Value::Int(1_000)],
                vec![Value::Bool(true), Value::Int(500)],
            ]
        );
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
