//! Property-based tests of the relational substrate: value ordering, LIKE
//! matching, SQL printer/parser round trips, executor invariants, the
//! executor against a nested-loop reference, and the inverted index against
//! a scan of every cell.

use std::cmp::Ordering;

use proptest::prelude::*;

use soda_relation::exec::eval::like_match;
use soda_relation::{
    execute, parse_select, print_select, tokenize, AggFunc, CompareOp, DataType, Database, Date,
    Expr, InvertedIndex, OrderByItem, PhraseHit, Row, SelectItem, SelectStatement, TableRef,
    TableSchema, Value,
};

/// Any value, drawn often from where `Int` and `Float` meet: both zeros,
/// ±2^53 and its neighbours (where `f64` stops telling integers apart), the
/// `i64` extremes, NaN and the infinities.
fn value_strategy() -> impl Strategy<Value = Value> {
    let big = 1i64 << 53;
    prop_oneof![
        Just(Value::Null),
        pick(&[
            Value::Int(0),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Int(big),
            Value::Int(big - 1),
            Value::Int(big + 1),
            Value::Int(-big),
            Value::Int(-big - 1),
            Value::Float(big as f64),
            Value::Float(-(big as f64)),
            Value::Float((big + 2) as f64),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(i64::MIN as f64),
            Value::Float(i64::MAX as f64),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
        ]),
        any::<bool>().prop_map(Value::Bool),
        (-1_000_000i64..1_000_000).prop_map(Value::Int),
        (-1.0e6..1.0e6).prop_map(Value::Float),
        "[a-zA-Z ]{0,12}".prop_map(Value::from),
        (1980i32..2030, 1u8..13, 1u8..29).prop_map(|(y, m, d)| Value::Date(Date::new(y, m, d))),
    ]
}

proptest! {
    /// `total_cmp` is a total order: reflexive, antisymmetric and
    /// transitive, and `a == b` exactly when it says `Equal`.
    #[test]
    fn total_cmp_is_consistent(
        a in value_strategy(),
        b in value_strategy(),
        c in value_strategy(),
    ) {
        prop_assert_eq!(a.total_cmp(&a), Ordering::Equal);
        for (x, y) in [(&a, &b), (&b, &c), (&a, &c)] {
            let xy = x.total_cmp(y);
            prop_assert_eq!(xy.reverse(), y.total_cmp(x), "{:?} {:?}", x, y);
            prop_assert_eq!(x == y, xy.is_eq(), "{:?} {:?}", x, y);
        }
        // Sorted, each of the three is at most the next.
        let mut sorted = [&a, &b, &c];
        sorted.sort_by(|x, y| x.total_cmp(y));
        let [x, y, z] = sorted;
        prop_assert!(x.total_cmp(y).is_le() && y.total_cmp(z).is_le());
        prop_assert!(x.total_cmp(z).is_le(), "{:?} {:?} {:?}", x, y, z);
    }

    /// `==` is transitive and equal values hash identically, as grouping,
    /// DISTINCT and a column index's codes need.
    #[test]
    fn eq_implies_same_hash(
        a in value_strategy(),
        b in value_strategy(),
        c in value_strategy(),
    ) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |v: &Value| {
            let mut hasher = DefaultHasher::new();
            v.hash(&mut hasher);
            hasher.finish()
        };
        for (x, y) in [(&a, &b), (&b, &c), (&a, &c)] {
            if x == y {
                prop_assert_eq!(hash(x), hash(y), "{:?} {:?}", x, y);
            }
        }
        if a == b && b == c {
            prop_assert_eq!(&a, &c);
        }
        if a == b {
            prop_assert_eq!(a.total_cmp(&c), b.total_cmp(&c));
        }
    }

    /// `%text%` always matches a string containing `text`, and a pattern
    /// without wildcards only matches (case-insensitively) itself.
    #[test]
    fn like_matching_properties(text in "[a-zA-Z ]{0,16}", needle in "[a-zA-Z]{1,6}") {
        let padded = format!("xx{needle}yy {text}");
        let pattern = format!("%{needle}%");
        prop_assert!(like_match(&padded, &pattern));
        prop_assert!(like_match(&text, &text));
        prop_assert_eq!(like_match(&text, &needle), text.eq_ignore_ascii_case(&needle));
    }

    /// Dates parse/display round trip and ordering follows the calendar.
    #[test]
    fn date_round_trip(y in 1900i32..2100, m in 1u8..13, d in 1u8..29) {
        let date = Date::new(y, m, d);
        prop_assert_eq!(Date::parse(&date.to_string()), Some(date));
        let later = Date::new(y, m, d + 1);
        prop_assert!(later > date);
    }

    /// Printer output re-parses to the same statement for generated SELECTs.
    #[test]
    fn sql_print_parse_round_trip(
        limit in proptest::option::of(1usize..100),
        distinct in any::<bool>(),
        value in 0i64..1_000_000,
    ) {
        let mut sql = String::from("SELECT ");
        if distinct {
            sql.push_str("DISTINCT ");
        }
        sql.push_str("a.x, sum(a.y) FROM a, b WHERE a.id = b.id AND a.x >= ");
        sql.push_str(&value.to_string());
        sql.push_str(" GROUP BY a.x ORDER BY sum(a.y) DESC");
        if let Some(l) = limit {
            sql.push_str(&format!(" LIMIT {l}"));
        }
        let stmt = parse_select(&sql).unwrap();
        let printed = print_select(&stmt);
        let reparsed = parse_select(&printed).unwrap();
        prop_assert_eq!(stmt, reparsed);
    }
}

/// Executor invariants over a small randomly populated table.
fn populated_db(salaries: &[i64]) -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::builder("person")
            .column("id", DataType::Int)
            .column("salary", DataType::Int)
            .primary_key("id")
            .build(),
    )
    .unwrap();
    for (i, s) in salaries.iter().enumerate() {
        db.insert("person", vec![Value::Int(i as i64), Value::Int(*s)])
            .unwrap();
    }
    db
}

proptest! {
    /// A filter never returns more rows than the table, LIMIT caps the output,
    /// and count(*) equals the filtered row count.
    #[test]
    fn filters_limits_and_counts_agree(
        salaries in proptest::collection::vec(0i64..200_000, 0..40),
        threshold in 0i64..200_000,
        limit in 1usize..10,
    ) {
        let db = populated_db(&salaries);
        let filtered = db
            .run_sql(&format!("SELECT id FROM person WHERE salary >= {threshold}"))
            .unwrap();
        let expected = salaries.iter().filter(|s| **s >= threshold).count();
        prop_assert_eq!(filtered.row_count(), expected);

        let limited = db
            .run_sql(&format!(
                "SELECT id FROM person WHERE salary >= {threshold} LIMIT {limit}"
            ))
            .unwrap();
        prop_assert_eq!(limited.row_count(), expected.min(limit));

        let counted = db
            .run_sql(&format!("SELECT count(*) FROM person WHERE salary >= {threshold}"))
            .unwrap();
        prop_assert_eq!(counted.row(0)[0].clone(), Value::Int(expected as i64));
    }

    /// A self equi-join on the primary key returns exactly the table rows.
    #[test]
    fn self_join_on_primary_key_is_identity(
        salaries in proptest::collection::vec(0i64..100_000, 0..30),
    ) {
        let db = populated_db(&salaries);
        let joined = db
            .run_sql("SELECT a.id FROM person a, person b WHERE a.id = b.id")
            .unwrap();
        prop_assert_eq!(joined.row_count(), salaries.len());
    }

    /// Aggregation over groups preserves the total: the sum of per-group
    /// counts equals the number of rows.
    #[test]
    fn group_counts_sum_to_row_count(
        salaries in proptest::collection::vec(0i64..5, 1..50),
    ) {
        let db = populated_db(&salaries);
        let grouped = db
            .run_sql("SELECT salary, count(*) FROM person GROUP BY salary")
            .unwrap();
        let total: i64 = grouped
            .rows()
            .map(|r| r[1].as_i64().unwrap())
            .sum();
        prop_assert_eq!(total as usize, salaries.len());
    }
}

// ---------------------------------------------------------------------------
// Differential test: the executor against a nested-loop reference, on random
// small tables and random statements of the shapes SODA generates.
// ---------------------------------------------------------------------------

/// Column `c` (`k`, `f`, `s`, `d`) of table `t<t>`.
type ColRef = (usize, usize);
const COLUMNS: [(&str, DataType); 4] = [
    ("k", DataType::Int),
    ("f", DataType::Float),
    ("s", DataType::Text),
    ("d", DataType::Date),
];

#[derive(Debug, Clone)]
enum Filter {
    /// `column op literal`, or `literal op column` when the flag is set.
    Compare(CompareOp, Value, bool),
    /// `LIKE` with a wildcard before and/or after the needle.
    Like(bool, &'static str, bool),
}

#[derive(Debug, Clone)]
enum Shape {
    Plain(Vec<ColRef>, bool),
    Grouped(Option<ColRef>, AggFunc, Option<ColRef>),
}

#[derive(Debug, Clone)]
struct Case {
    tables: Vec<Vec<Row>>,
    joins: Vec<(ColRef, ColRef)>,
    filters: Vec<(ColRef, Filter)>,
    shape: Shape,
    /// Output column to sort by, and whether descending.
    order: Option<(usize, bool)>,
    limit: Option<usize>,
    /// A row inserted into a table after two runs, and the table's number
    /// (modulo the table count): a joined one whenever there is a join.
    insert: (usize, Row),
}

fn pick<T: Clone + 'static>(options: &[T]) -> BoxedStrategy<T> {
    let options = options.to_vec();
    (0..options.len())
        .prop_map(move |i| options[i].clone())
        .boxed()
}

/// A cell of column `c`: few distinct values, so keys repeat; NULLs; `Int`
/// cells in the FLOAT column, zero among them beside both float zeros, and
/// a NaN; the text `NULL` beside the real one, and a text that reads as a
/// date.  Now and then a number at ±2^53 or 2^53 + 1, which `f64` cannot
/// tell from 2^53 — as `Int`s and, in the FLOAT column, as `Float`s — so
/// that integer columns are coded by value and by rank.
fn cell(c: usize) -> BoxedStrategy<Value> {
    let date = |day| Value::Date(Date::new(2011, 9, day));
    let big = 1i64 << 53;
    let bigs = [Value::Int(big), Value::Int(big + 1), Value::Int(-big)];
    let float_bigs = [
        Value::Int(big),
        Value::Int(big + 1),
        Value::Int(-big),
        Value::Float(big as f64),
        Value::Float(-(big as f64)),
    ];
    match c {
        0 => now_and_then(
            pick(&[Value::Null, Value::Int(0), Value::Int(1), Value::Int(2)]),
            pick(&bigs),
        ),
        1 => now_and_then(
            pick(&[
                Value::Null,
                Value::Int(0),
                Value::Int(1),
                Value::Int(2),
                Value::Float(0.0),
                Value::Float(-0.0),
                Value::Float(1.0),
                Value::Float(2.5),
                Value::Float(-3.25),
                Value::Float(f64::NAN),
            ]),
            pick(&float_bigs),
        ),
        2 => pick(&[
            Value::Null,
            Value::from("NULL"),
            Value::from("ab"),
            Value::from("Abc"),
            Value::from("b"),
            Value::from("2011-09-02"),
        ]),
        _ => pick(&[Value::Null, date(1), date(2), date(3)]),
    }
}

/// `rare` one time in seven, `common` otherwise.
fn now_and_then(common: BoxedStrategy<Value>, rare: BoxedStrategy<Value>) -> BoxedStrategy<Value> {
    (0..7, common, rare)
        .prop_map(|(draw, common, rare)| if draw == 0 { rare } else { common })
        .boxed()
}

fn filter(c: usize) -> BoxedStrategy<Filter> {
    let op = pick(&[
        CompareOp::Eq,
        CompareOp::NotEq,
        CompareOp::Lt,
        CompareOp::LtEq,
        CompareOp::Gt,
        CompareOp::GtEq,
    ]);
    let literal = match c {
        // An INT against a text: nothing compares.
        0 => prop_oneof![cell(0), Just(Value::from("1"))].boxed(),
        // A TEXT against a date, which only a statement built in code holds:
        // a text that reads as that date equals it.
        2 => prop_oneof![cell(2), Just(Value::Date(Date::new(2011, 9, 2)))].boxed(),
        // Dates are compared with text literals, as in the gold SQL.
        3 => pick(&[Value::from("2011-09-02"), Value::from("not a date")]),
        c => cell(c),
    };
    let compare = (op, literal, any::<bool>())
        .prop_map(|(op, v, literal_first)| Filter::Compare(op, v, literal_first));
    if c != 2 {
        return compare.boxed();
    }
    let like = (any::<bool>(), pick(&["a", "AB", "b", ""]), any::<bool>())
        .prop_map(|(before, needle, after)| Filter::Like(before, needle, after));
    prop_oneof![compare, like].boxed()
}

fn row() -> impl Strategy<Value = Row> {
    (cell(0), cell(1), cell(2), cell(3)).prop_map(|(k, f, s, d)| vec![k, f, s, d])
}

fn table() -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec(row(), 0..6)
}

/// A table of more rows than a bitmap word holds, drawn for at most one
/// table of a case, so a cross product stays small.
fn long_table() -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec(row(), 16..80)
}

fn case() -> impl Strategy<Value = Case> {
    let col = |n: usize| (0..n, 0usize..4);
    (2usize..4).prop_flat_map(move |n| {
        // The first `joined` tables after t0 join an earlier table (so the
        // join order is the FROM order); the rest are cross products.
        let joins = (
            0..n,
            proptest::collection::vec((0usize..2, 0usize..4, any::<bool>()), n),
        )
            .prop_map(|(joined, picks)| {
                let mut joins = Vec::new();
                for (t, &(partner, c, second)) in picks.iter().enumerate().skip(1).take(joined) {
                    joins.push(((partner % t, c), (t, c)));
                    if second {
                        joins.push(((t, c ^ 1), ((partner + 1) % t, c ^ 1)));
                    }
                }
                joins
            });
        let filters = proptest::collection::vec(
            col(n).prop_flat_map(|(t, c)| filter(c).prop_map(move |f| ((t, c), f))),
            0..3,
        );
        let func = pick(&[
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ]);
        let plain = (proptest::collection::vec(col(n), 1..4), any::<bool>())
            .prop_map(|(cols, distinct)| Shape::Plain(cols, distinct));
        let grouped = (
            proptest::option::of(col(n)),
            func,
            proptest::option::of(col(n)),
        )
            .prop_map(|(key, func, arg)| match (func, arg) {
                // Only count(*) takes no argument; sums are over numbers.
                (AggFunc::Count, arg) => Shape::Grouped(key, func, arg),
                (AggFunc::Sum | AggFunc::Avg, arg) => {
                    let (t, c) = arg.unwrap_or((0, 1));
                    Shape::Grouped(key, func, Some((t, c % 2)))
                }
                (_, arg) => Shape::Grouped(key, func, Some(arg.unwrap_or((0, 2)))),
            });
        let tables = (
            proptest::collection::vec(table(), n),
            (0..4, 0..n, long_table()),
        )
            .prop_map(|(mut tables, (draw, t, rows))| {
                if draw == 0 {
                    tables[t] = rows;
                }
                tables
            });
        (
            tables,
            joins,
            filters,
            prop_oneof![plain, grouped],
            proptest::option::of((0usize..3, any::<bool>())),
            (proptest::option::of(0usize..6), (0usize..4, row())),
        )
            .prop_map(
                |(tables, joins, filters, shape, order, (limit, (t, row)))| Case {
                    tables,
                    joins,
                    filters,
                    shape,
                    order,
                    limit,
                    insert: (t, row),
                },
            )
    })
}

fn column((t, c): ColRef) -> Expr {
    Expr::qualified(format!("t{t}"), COLUMNS[c].0)
}

impl Case {
    fn database(&self) -> Database {
        let mut db = Database::new();
        for (t, rows) in self.tables.iter().enumerate() {
            let mut schema = TableSchema::builder(format!("t{t}"));
            for (name, data_type) in COLUMNS {
                schema = schema.nullable_column(name, data_type);
            }
            db.create_table(schema.build()).unwrap();
            db.insert_all(&format!("t{t}"), rows.iter().cloned())
                .unwrap();
        }
        db
    }

    /// The output expressions, in order.
    fn outputs(&self) -> Vec<Expr> {
        match &self.shape {
            Shape::Plain(cols, _) => cols.iter().map(|&c| column(c)).collect(),
            Shape::Grouped(key, func, arg) => {
                let aggregate = Expr::Aggregate {
                    func: *func,
                    arg: arg.map(|c| Box::new(column(c))),
                };
                key.map(column).into_iter().chain([aggregate]).collect()
            }
        }
    }

    fn statement(&self) -> SelectStatement {
        let joins = self
            .joins
            .iter()
            .map(|&(a, b)| Expr::compare(CompareOp::Eq, column(a), column(b)));
        let filters = self.filters.iter().map(|(col, f)| match f {
            Filter::Compare(op, v, false) => {
                Expr::compare(*op, column(*col), Expr::Literal(v.clone()))
            }
            Filter::Compare(op, v, true) => {
                Expr::compare(*op, Expr::Literal(v.clone()), column(*col))
            }
            Filter::Like(before, needle, after) => Expr::Like {
                expr: Box::new(column(*col)),
                pattern: [
                    if *before { "%" } else { "" },
                    needle,
                    if *after { "%" } else { "" },
                ]
                .concat(),
            },
        });
        let outputs = self.outputs();
        let mut stmt = SelectStatement::star_over(
            (0..self.tables.len())
                .map(|t| TableRef::new(format!("t{t}")))
                .collect(),
        );
        stmt.selection = Expr::and_all(joins.chain(filters));
        stmt.distinct = matches!(self.shape, Shape::Plain(_, true));
        if let Shape::Grouped(key, ..) = &self.shape {
            stmt.group_by = key.map(column).into_iter().collect();
        }
        stmt.order_by = self
            .order
            .iter()
            .map(|&(i, descending)| OrderByItem {
                expr: outputs[i % outputs.len()].clone(),
                descending,
            })
            .collect();
        stmt.projection = outputs.into_iter().map(SelectItem::expr).collect();
        stmt.limit = self.limit;
        stmt
    }

    /// The answer by definition: cross product in FROM order, filter with
    /// `Value::sql_cmp`, then group, de-duplicate, sort and cut naively.
    fn reference(&self) -> Vec<Row> {
        let mut tuples: Vec<Vec<&Row>> = vec![Vec::new()];
        for table in &self.tables {
            let mut extended = Vec::new();
            for tuple in &tuples {
                for row in table {
                    extended.push(tuple.iter().copied().chain([row]).collect());
                }
            }
            tuples = extended;
        }
        let cell = |tuple: &[&Row], (t, c): ColRef| tuple[t][c].clone();
        tuples.retain(|tuple| {
            let joined = |&(a, b): &(ColRef, ColRef)| {
                cell(tuple, a).sql_cmp(&cell(tuple, b)) == Some(Ordering::Equal)
            };
            let passes = |(col, filter): &(ColRef, Filter)| match (cell(tuple, *col), filter) {
                (value, Filter::Compare(op, literal, literal_first)) => {
                    let (left, right) = if *literal_first {
                        (literal, &value)
                    } else {
                        (&value, literal)
                    };
                    left.sql_cmp(right).is_some_and(|ord| match op {
                        CompareOp::Eq => ord.is_eq(),
                        CompareOp::NotEq => ord.is_ne(),
                        CompareOp::Lt => ord.is_lt(),
                        CompareOp::LtEq => ord.is_le(),
                        CompareOp::Gt => ord.is_gt(),
                        CompareOp::GtEq => ord.is_ge(),
                    })
                }
                (Value::Text(text), Filter::Like(before, needle, after)) => {
                    let (text, needle) = (text.to_lowercase(), needle.to_lowercase());
                    match (before, after) {
                        (true, true) => text.contains(&needle),
                        (true, false) => text.ends_with(&needle),
                        (false, true) => text.starts_with(&needle),
                        (false, false) => text == needle,
                    }
                }
                _ => false,
            };
            self.joins.iter().all(joined) && self.filters.iter().all(passes)
        });
        let mut rows: Vec<Row> = match &self.shape {
            Shape::Plain(cols, _) => tuples
                .iter()
                .map(|tuple| cols.iter().map(|&c| cell(tuple, c)).collect())
                .collect(),
            Shape::Grouped(key, func, arg) => {
                let mut groups: Vec<(Option<Value>, Vec<Value>)> = Vec::new();
                if key.is_none() {
                    groups.push((None, Vec::new()));
                }
                for tuple in &tuples {
                    let k = key.map(|c| cell(tuple, c));
                    let input = arg.map_or(Value::Int(1), |c| cell(tuple, c));
                    match groups.iter_mut().find(|(group, _)| *group == k) {
                        Some((_, inputs)) => inputs.push(input),
                        None => groups.push((k, vec![input])),
                    }
                }
                let finish = |(k, inputs): (Option<Value>, Vec<Value>)| {
                    k.into_iter().chain([aggregate(*func, inputs)]).collect()
                };
                groups.into_iter().map(finish).collect()
            }
        };
        if matches!(self.shape, Shape::Plain(_, true)) {
            let mut kept: Vec<Row> = Vec::new();
            for row in rows {
                if !kept.contains(&row) {
                    kept.push(row);
                }
            }
            rows = kept;
        }
        if let Some((i, descending)) = self.order {
            let i = i % self.outputs().len();
            rows.sort_by(|a, b| {
                let ord = a[i].total_cmp(&b[i]);
                if descending {
                    ord.reverse()
                } else {
                    ord
                }
            });
        }
        rows.truncate(self.limit.unwrap_or(usize::MAX));
        rows
    }
}

/// An aggregate by its definition over the group's inputs, NULLs dropped.
fn aggregate(func: AggFunc, mut inputs: Vec<Value>) -> Value {
    inputs.retain(|v| !v.is_null());
    let floats = || inputs.iter().filter_map(Value::as_f64);
    match func {
        AggFunc::Count => Value::Int(inputs.len() as i64),
        _ if inputs.is_empty() => Value::Null,
        AggFunc::Sum if inputs.iter().all(|v| v.as_i64().is_some()) => {
            Value::Int(inputs.iter().filter_map(Value::as_i64).sum())
        }
        AggFunc::Sum => Value::Float(floats().sum()),
        AggFunc::Avg => Value::Float(floats().sum::<f64>() / inputs.len() as f64),
        AggFunc::Min => inputs.iter().min_by(|a, b| a.total_cmp(b)).unwrap().clone(),
        AggFunc::Max => inputs.iter().max_by(|a, b| a.total_cmp(b)).unwrap().clone(),
    }
}

impl Case {
    /// The case after its row is inserted: into the table the first join
    /// attaches, if there is a join.
    fn inserted(&self) -> (usize, Case) {
        let (t, row) = &self.insert;
        let t = self.joins.first().map_or(t % self.tables.len(), |j| j.1 .0);
        let mut case = self.clone();
        case.tables[t].push(row.clone());
        (t, case)
    }
}

/// `got`'s rows as `Debug` prints them: `Value`'s equality lets `Int(1)`
/// equal `Float(1.0)`; `Debug` does not.
fn printed(got: &soda_relation::ResultSet) -> String {
    format!("{:?}", got.rows().collect::<Vec<_>>())
}

proptest! {
    /// Same rows, same order, same `Int`/`Float`/NULL cells as the
    /// reference: on a first run, which builds the key indexes it reads; on
    /// a second, which reads them built; and after a row is inserted, which
    /// drops them.
    #[test]
    fn executor_agrees_with_the_nested_loop_reference(case in case()) {
        let stmt = case.statement();
        let sql = print_select(&stmt);
        let expected = format!("{:?}", case.reference());
        let mut db = case.database();
        let first = execute(&db, &stmt).unwrap();
        prop_assert_eq!(&printed(&first), &expected, "first run: {}", sql);
        let second = execute(&db, &stmt).unwrap();
        prop_assert_eq!(&printed(&second), &expected, "second run: {}", sql);
        let (t, inserted) = case.inserted();
        db.insert(&format!("t{t}"), inserted.tables[t].last().unwrap().clone()).unwrap();
        let third = execute(&db, &stmt).unwrap();
        prop_assert_eq!(
            printed(&third),
            format!("{:?}", inserted.reference()),
            "after an insert into t{}: {}",
            t,
            sql
        );
        // The results held across the insert keep their rows.
        prop_assert_eq!(&printed(&first), &expected, "held: {}", sql);
    }
}

/// `rows` in an order `seed` draws.
fn shuffle(rows: &mut [Row], mut seed: u64) {
    for i in (1..rows.len()).rev() {
        seed = seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        rows.swap(i, (seed >> 33) as usize % (i + 1));
    }
}

/// A result's rows in one order: its multiset of rows.
fn multiset(got: &soda_relation::ResultSet) -> Vec<Row> {
    let mut rows: Vec<Row> = got.rows().map(|row| row.to_vec()).collect();
    rows.sort();
    rows
}

proptest! {
    /// Permuting a table's rows permutes the result's rows and changes
    /// nothing else: the same multiset of rows, GROUP BY and DISTINCT
    /// included (a group or a distinct row may show another of its equal
    /// values).  LIMIT keeps a prefix, so the statement has none; float
    /// addition rounds in input order, so a sum or average counts instead.
    #[test]
    fn permuting_a_table_permutes_the_result(case in case(), t in 0usize..4, seed in any::<u64>()) {
        let mut case = case;
        case.limit = None;
        if let Shape::Grouped(_, func @ (AggFunc::Sum | AggFunc::Avg), _) = &mut case.shape {
            *func = AggFunc::Count;
        }
        let stmt = case.statement();
        let before = multiset(&execute(&case.database(), &stmt).unwrap());
        let t = t % case.tables.len();
        shuffle(&mut case.tables[t], seed);
        let after = multiset(&execute(&case.database(), &stmt).unwrap());
        prop_assert_eq!(before, after, "t{} shuffled: {}", t, print_select(&stmt));
    }
}

// ---------------------------------------------------------------------------
// The inverted index against a scan of every cell
// ---------------------------------------------------------------------------

/// Table names that spread over 2 and 8 shards; one has a non-ASCII
/// upper-case letter, which the catalog does not fold.
const INDEX_TABLES: [&str; 4] = ["party", "Address", "org_name_hist", "ÄRZTE"];

/// A text cell: up to three of a few words — so values, and tokens across
/// values, repeat — in mixed case, joined by blanks or punctuation.
fn text_cell() -> BoxedStrategy<Value> {
    let word = (
        pick(&["credit", "suisse", "zurich", "gold", "bank", "ab", "b"]),
        0usize..3,
    )
        .prop_map(|(word, case)| match case {
            0 => word.to_string(),
            1 => word.to_uppercase(),
            _ => word[..1].to_uppercase() + &word[1..],
        });
    (
        proptest::collection::vec(word, 0..4),
        pick(&[" ", "  ", "-", ". "]),
    )
        .prop_map(|(words, separator)| Value::from(words.join(separator)))
        .boxed()
}

fn text_rows(max: usize) -> impl Strategy<Value = Vec<Row>> {
    let row =
        (0i64..100, text_cell(), text_cell()).prop_map(|(id, a, b)| vec![Value::Int(id), a, b]);
    proptest::collection::vec(row, 0..max)
}

#[derive(Debug, Clone)]
enum FeedEvent {
    Append(usize, Vec<Row>),
    Replace(usize, Vec<Row>),
    Truncate(usize),
}

fn feed_event(tables: usize) -> impl Strategy<Value = FeedEvent> {
    (0..tables, 0usize..4, text_rows(4)).prop_map(|(table, kind, rows)| match kind {
        0 => FeedEvent::Truncate(table),
        1 => FeedEvent::Replace(table, rows),
        _ => FeedEvent::Append(table, rows),
    })
}

/// A phrase of one to three tokens, some of them *fragments* of cell tokens
/// ("dit suisse" is a substring of "credit suisse") and some in no cell.
fn phrase() -> impl Strategy<Value = String> {
    let part = pick(&[
        "credit", "dit", "suisse", "sui", "Zurich", "rich", "GOLD", "bank", "ab", "b", "nosuch",
    ]);
    proptest::collection::vec(part, 1..4).prop_map(|parts| parts.join(" "))
}

#[derive(Debug, Clone)]
struct IndexCase {
    /// Text columns per table, 0 to 2: the schema is `id` plus the first that
    /// many of `a`, `b`, and every generated row is cut to fit.
    text_columns: Vec<usize>,
    tables: Vec<Vec<Row>>,
    feed: Vec<FeedEvent>,
    phrases: Vec<String>,
}

fn index_case() -> impl Strategy<Value = IndexCase> {
    (1usize..=INDEX_TABLES.len()).prop_flat_map(|n| {
        (
            proptest::collection::vec(0usize..=2, n),
            proptest::collection::vec(text_rows(7), n),
            proptest::collection::vec(feed_event(n), 0..6),
            proptest::collection::vec(phrase(), 1..6),
        )
            .prop_map(|(text_columns, tables, feed, phrases)| IndexCase {
                text_columns,
                tables,
                feed,
                phrases,
            })
    })
}

impl IndexCase {
    /// `rows` cut to the width of table `t`.
    fn fit(&self, t: usize, rows: &[Row]) -> Vec<Row> {
        let width = 1 + self.text_columns[t];
        rows.iter().map(|row| row[..width].to_vec()).collect()
    }

    fn base(&self) -> Database {
        let mut db = Database::new();
        for (t, (name, rows)) in INDEX_TABLES.iter().zip(&self.tables).enumerate() {
            let schema = ["a", "b"][..self.text_columns[t]].iter().fold(
                TableSchema::builder(*name).column("id", DataType::Int),
                |schema, column| schema.column(*column, DataType::Text),
            );
            db.create_table(schema.build()).unwrap();
            db.table_mut(name)
                .unwrap()
                .insert_all(self.fit(t, rows))
                .unwrap();
        }
        db
    }

    /// Applies the feed to `db` and mirrors it into the side logs of
    /// `index`, each event through `log_mut` — what `soda-ingest` does.
    fn ingest(&self, db: &mut Database, index: &mut InvertedIndex) {
        for event in &self.feed {
            match event {
                FeedEvent::Append(t, rows) => {
                    let name = INDEX_TABLES[*t];
                    let start = db.table(name).unwrap().row_count();
                    db.table_mut(name)
                        .unwrap()
                        .insert_all(self.fit(*t, rows))
                        .unwrap();
                    index
                        .log_mut(name)
                        .append_rows(db.table(name).unwrap(), start);
                }
                FeedEvent::Replace(t, rows) => {
                    let name = INDEX_TABLES[*t];
                    let table = db.table_mut(name).unwrap();
                    table.truncate();
                    table.insert_all(self.fit(*t, rows)).unwrap();
                    index.log_mut(name).replace_table(db.table(name).unwrap());
                }
                FeedEvent::Truncate(t) => {
                    let name = INDEX_TABLES[*t];
                    db.table_mut(name).unwrap().truncate();
                    index.log_mut(name).truncate_table(name);
                }
            }
        }
    }
}

/// Every text cell of `db` as `(table, column, text)`, one per row.
fn text_cells(db: &Database) -> Vec<(String, String, String)> {
    let mut cells = Vec::new();
    for table in db.tables() {
        for (c, column) in table.schema().columns.iter().enumerate() {
            for row in table.rows() {
                if let Value::Text(text) = &row[c] {
                    cells.push((
                        table.name().to_string(),
                        column.name.clone(),
                        text.to_string(),
                    ));
                }
            }
        }
    }
    cells
}

/// Rows whose cell holds `token` as a whole token.
fn reference_frequency(cells: &[(String, String, String)], token: &str) -> usize {
    cells
        .iter()
        .filter(|(_, _, text)| tokenize(text).iter().any(|t| t == token))
        .count()
}

/// The phrase lookup by brute force: among the cells holding the phrase's
/// rarest token (by rows, the first among equals), those whose normalised
/// text contains the normalised phrase, grouped by `(table, column, value)`.
fn reference_lookup(cells: &[(String, String, String)], phrase: &str) -> Vec<PhraseHit> {
    let words = tokenize(phrase);
    let frequencies: Vec<usize> = words
        .iter()
        .map(|w| reference_frequency(cells, w))
        .collect();
    let Some(rarest) = (0..words.len()).min_by_key(|&i| frequencies[i]) else {
        return Vec::new();
    };
    let needle = words.join(" ");
    let mut hits: std::collections::BTreeMap<(String, String, String), usize> = Default::default();
    for cell in cells {
        let tokens = tokenize(&cell.2);
        if tokens.contains(&words[rarest]) && tokens.join(" ").contains(&needle) {
            *hits.entry(cell.clone()).or_default() += 1;
        }
    }
    hits.into_iter()
        .map(|((table, column, value), row_count)| PhraseHit {
            table,
            column,
            value,
            row_count,
        })
        .collect()
}

proptest! {
    /// At 1, 2 and 8 shards, merged with its side logs and after some or all
    /// logs were folded into their partitions, the index answers like a
    /// scan of the live database, and a folded partition counts what one
    /// built from scratch does.
    #[test]
    fn index_agrees_with_a_scan_of_every_cell(case in index_case()) {
        let base = case.base();
        for shards in [1usize, 2, 8] {
            let mut live = base.clone();
            let mut logged = InvertedIndex::build_sharded(&base, shards);
            case.ingest(&mut live, &mut logged);
            let cells = text_cells(&live);
            let fresh = InvertedIndex::build_sharded(&live, shards);
            // Every other log folded, the rest still logged; at one shard
            // that is every log.
            let folded: Vec<usize> = (0..shards).step_by(2).collect();
            let merged = logged.with_folded_logs(&folded);
            for phrase in &case.phrases {
                let want = reference_lookup(&cells, phrase);
                prop_assert_eq!(&logged.lookup_phrase(phrase), &want, "logged, {} shards, {:?}", shards, phrase);
                prop_assert_eq!(&merged.lookup_phrase(phrase), &want, "folded, {} shards, {:?}", shards, phrase);
                for token in tokenize(phrase) {
                    let want = reference_frequency(&cells, &token);
                    prop_assert_eq!(logged.token_frequency(&token), want, "logged, {} shards, {:?}", shards, &token);
                    prop_assert_eq!(merged.token_frequency(&token), want, "folded, {} shards, {:?}", shards, &token);
                    // The retention gate reads these of a folded partition.
                    for &shard in &folded {
                        prop_assert_eq!(
                            merged.shard_candidates(shard, &token),
                            fresh.shard_candidates(shard, &token),
                            "candidates, shard {} of {}, {:?}", shard, shards, &token
                        );
                    }
                }
            }
            for &shard in &folded {
                prop_assert!(merged.side_logs()[shard].is_empty());
                prop_assert_eq!(
                    merged.shards()[shard].posting_count(),
                    fresh.shards()[shard].posting_count(),
                    "postings, shard {} of {}", shard, shards
                );
            }
            // Sizes stay row-level: a posting per row and distinct token.
            let postings: usize = cells
                .iter()
                .map(|(_, _, text)| {
                    let mut tokens = tokenize(text);
                    tokens.sort_unstable();
                    tokens.dedup();
                    tokens.len()
                })
                .sum();
            prop_assert_eq!(fresh.posting_count(), postings);
        }
    }
}

// ---------------------------------------------------------------------------
// The printer against the parser, on text that looks like SQL
// ---------------------------------------------------------------------------

/// Text that tries to end a string early or pass for a clause keyword:
/// quotes, `%` wildcards, ` AND ` and ` FROM ` among plain letters.
fn tricky_text() -> BoxedStrategy<String> {
    let fragment = pick(&[
        "'", "''", "%", " AND ", " FROM ", "o'brien", "Zürich", " ", "x",
    ]);
    proptest::collection::vec(fragment, 0..6)
        .prop_map(|parts| parts.concat())
        .boxed()
}

/// A column of one of the statement's tables, qualified or not.
fn printed_column() -> BoxedStrategy<Expr> {
    (0usize..3, 0usize..3, any::<bool>())
        .prop_map(|(t, c, qualified)| {
            let column = format!("c{c}");
            if qualified {
                Expr::qualified(format!("t{t}"), column)
            } else {
                Expr::column(column)
            }
        })
        .boxed()
}

/// A literal that prints as what it is: no dates (they print as text) and
/// no floats (a whole float prints as an integer).
fn printed_literal() -> BoxedStrategy<Expr> {
    prop_oneof![
        tricky_text().prop_map(Expr::literal),
        (0i64..1_000_000).prop_map(Expr::literal),
        any::<bool>().prop_map(|b| Expr::Literal(Value::Bool(b))),
        Just(Expr::Literal(Value::Null)),
    ]
    .boxed()
}

/// A comparison, a `LIKE` or an `IS NULL` test of one column.
fn printed_test() -> BoxedStrategy<Expr> {
    let ops = pick(&[CompareOp::Eq, CompareOp::NotEq, CompareOp::GtEq]);
    prop_oneof![
        (printed_column(), ops, printed_literal())
            .prop_map(|(column, op, literal)| Expr::compare(op, column, literal)),
        (printed_column(), tricky_text()).prop_map(|(column, pattern)| Expr::Like {
            expr: Box::new(column),
            pattern,
        }),
        printed_column().prop_map(|column| Expr::IsNull(Box::new(column))),
    ]
    .boxed()
}

/// One conjunct of a WHERE clause; never an `AND` itself, so that the
/// conjunction stays the left-deep chain the parser builds.
fn printed_condition() -> BoxedStrategy<Expr> {
    prop_oneof![
        printed_test(),
        (printed_test(), printed_test()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
        printed_test().prop_map(|e| Expr::Not(Box::new(e))),
    ]
    .boxed()
}

fn printed_statement() -> impl Strategy<Value = SelectStatement> {
    (
        any::<bool>(),
        1usize..4,
        proptest::collection::vec(printed_condition(), 0..4),
        proptest::option::of(printed_column()),
        proptest::option::of(1usize..100),
    )
        .prop_map(|(distinct, tables, conditions, grouped, limit)| {
            let from = (0..tables)
                .map(|t| TableRef::new(format!("t{t}")))
                .collect();
            let mut statement = SelectStatement::star_over(from);
            statement.distinct = distinct;
            statement.selection = Expr::and_all(conditions);
            if let Some(column) = grouped {
                let count = Expr::Aggregate {
                    func: AggFunc::Count,
                    arg: None,
                };
                statement.projection = vec![
                    SelectItem::expr(column.clone()),
                    SelectItem::expr(count.clone()),
                ];
                statement.group_by = vec![column];
                statement.order_by = vec![OrderByItem {
                    expr: count,
                    descending: true,
                }];
            }
            statement.limit = limit;
            statement
        })
}

proptest! {
    /// A printed statement parses back into itself, whatever its text
    /// literals and `LIKE` patterns hold: quotes are doubled, non-ASCII
    /// letters survive, and nothing inside a string is read as SQL.
    #[test]
    fn printed_statements_parse_back_into_themselves(statement in printed_statement()) {
        let printed = print_select(&statement);
        prop_assert_eq!(parse_select(&printed), Ok(statement), "{}", printed);
    }
}
