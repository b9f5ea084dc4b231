//! What a warm hit, a cold search and an executed statement may allocate —
//! a count (and, for a result, the bytes it keeps), so it does not wobble
//! with the host's clock the way `tests/service.rs`'s cold/warm ratio does.
//!
//! The public `QueryResponse` owns its page, so every answer costs one deep
//! copy of it; this test pins that the copy is *all* a hit costs beyond
//! three small allocations (the canonical text, its shared form in the
//! cache key, the boxed result inside the ready handle).  Before the
//! canonical writer and the shared page a hit read 18–35 allocations over
//! its copy.
//!
//! The binary counts with its own `#[global_allocator]` over `System`,
//! gated by a thread-local, so the service's worker threads — and the other
//! tests of this binary — never count.  That the *worker* copies no page for
//! the submitter or a coalesced waiter is pinned where the shared pointer
//! can be seen: `soda-service`'s
//! `coalesced_and_computing_submissions_get_equal_pages`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use soda::core::{normalize_query, ClassificationIndex, EngineSnapshot, SodaConfig};
use soda::ingest::RowEvent;
use soda::relation::{execute, parse_select, DataType, Database, Table, TableSchema, Value};
use soda::service::{QueryRequest, QueryService, ServiceConfig};
use soda::warehouse::build_graph;
use soda::warehouse::enterprise::{self, EnterpriseConfig};

// The golden suites use the rest of it.
#[allow(dead_code)]
mod common;

struct CountingAllocator;

thread_local! {
    /// `Some(n)` while this thread is inside [`measured`].
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
    /// Bytes this thread allocated and has not freed since [`measured`]
    /// began; meaningful only while it runs.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Books one allocation call (unless `calls` is 0: a free) that changes
/// this thread's live bytes by `bytes`, while counting is on.
fn count(calls: u64, bytes: i64) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = COUNT.try_with(|count| {
        if let Some(n) = count.get() {
            count.set(Some(n + calls));
            let _ = LIVE.try_with(|live| live.set(live.get() + bytes));
        }
    });
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; counting touches only const-initialised
// thread-local `Cell`s and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` and returns what it returned with the number of allocations
/// (`alloc`, `alloc_zeroed` and `realloc` calls) this thread made meanwhile
/// and the bytes of them still allocated when `f` returned — what its
/// return value holds, if `f` frees everything else.
fn measured<T>(f: impl FnOnce() -> T) -> (T, u64, i64) {
    LIVE.with(|live| live.set(0));
    COUNT.with(|count| count.set(Some(0)));
    let value = f();
    let made = COUNT.with(|count| count.take()).expect("counting was on");
    (value, made, LIVE.with(Cell::get))
}

/// [`measured`]'s allocation count alone.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (value, made, _) = measured(f);
    (value, made)
}

/// The canonical text, its `Arc<str>` in the cache key, and the `Box` of a
/// ready `JobHandle`.
const HIT_OVERHEAD: u64 = 3;

#[test]
fn a_warm_hit_allocates_its_page_copy_and_three_more() {
    let warehouse = enterprise::build_with(EnterpriseConfig {
        seed: 42,
        padding: false,
        data_scale: 0.2,
    });
    let (db, graph) = warehouse.shared_parts();
    let engine = Arc::new(EngineSnapshot::build(db, graph, SodaConfig::default()));
    let config = ServiceConfig::default().workers(1).cache_capacity(256);
    let service = QueryService::start(engine, config);
    let (mut statements, mut copied) = (0, 0);
    for question in common::questions() {
        let cold = service
            .query(QueryRequest::new(question.as_str()))
            .wait()
            .expect("every pool question parses")
            .page;
        let (copy, page_copy) = allocations(|| cold.clone());
        // The request is built outside the measurement, as a client would
        // have it in hand.
        let request = QueryRequest::new(question.as_str());
        let hits = service.metrics().cache.hits;
        let (warm, hit) = allocations(|| service.query(request).wait());
        assert_eq!(service.metrics().cache.hits, hits + 1, "`{question}`");
        assert_eq!(warm.expect("a hit").page, copy);
        assert!(
            hit <= page_copy + HIT_OVERHEAD,
            "`{question}`: a warm hit made {hit} allocations, its page copy is {page_copy}"
        );
        statements += copy.results.len();
        copied += page_copy;
    }
    // The budget is only worth something if the pages are not empty.
    assert!(statements > 100 && copied > 1_000, "{statements} {copied}");
}

/// What one cold `search_paged` (page size 10) of every question of
/// `common::questions()` may allocate in all, on the test-scale warehouse.
/// Names are shared with the join catalog, the SQL is printed into one
/// buffer and only the best-ranked interpretations are ever copied: 20 341
/// allocations.  When a name was a `String` of its own at every step, the
/// same 114 searches made 44 094; the budget is half of that.
const COLD_SEARCH_BUDGET: u64 = 22_047;

#[test]
fn cold_searches_stay_within_their_allocation_budget() {
    let warehouse = enterprise::build_with(EnterpriseConfig {
        seed: 42,
        padding: false,
        data_scale: 0.2,
    });
    let (db, graph) = warehouse.shared_parts();
    let engine = EngineSnapshot::build(db, graph, SodaConfig::default());
    let questions = common::questions();
    // Whatever a first search sets up once is not a search's cost.
    engine.search_paged(&questions[0], 0, 10).unwrap();
    let (mut statements, mut made) = (0, 0);
    for question in &questions {
        let (page, count) = allocations(|| engine.search_paged(question, 0, 10));
        statements += page.expect("every pool question parses").results.len();
        made += count;
    }
    assert!(statements > 300, "{statements} statements");
    assert!(
        made <= COLD_SEARCH_BUDGET,
        "{} cold searches made {made} allocations",
        questions.len()
    );
}

#[test]
fn canonicalising_allocates_its_output_and_nothing_else() {
    let mut spellings = common::questions();
    spellings.extend(
        [
            "Top 10 trading volume customer transaction date between date(2010-01-01) date(2010-12-31)",
            "salary >= 100000.0 and birthday = 1981-04-23",
            "SUM(amount) group by (currency, transaction_date) valid at 2011-01-01",
            "agreement like gold% or city != Zürich",
        ]
        .map(String::from),
    );
    for input in spellings {
        let (canonical, made) = allocations(|| normalize_query(&input));
        assert!(canonical.is_ok(), "`{input}`");
        assert_eq!(made, 1, "`{input}` → {canonical:?}");
    }
}

/// What running a statement may allocate, whatever its size: the first
/// table's row numbers, the join's tuples as they grow, the result's row
/// numbers, the output column names, the bound expressions.
const EXECUTE_OVERHEAD: u64 = 120;

/// The statement the execution tests run: the attached `party` has no
/// predicate of its own, so the join reads its cached column index.
const INDIVIDUAL_PARTY: &str =
    "SELECT * FROM individual, party WHERE individual.party_id = party.party_id";

/// A result holds row numbers, not cells, and the join looks each tuple's
/// key up in the attached table's column index, so executing costs
/// allocations neither per text cell nor per row nor per join key.  Once
/// the first execution has built the index, `individual ⋈ party` on the
/// test-scale warehouse (300 rows, 1 200 text cells) makes 88; when the
/// join chained its smaller side per execution it made 94, when the result
/// copied its cells into one buffer 114, with one `Vec` per result row and
/// one candidate list per distinct join key 720, and 1 920 when a text cell
/// owned a `String`.  Eight times the parties (2 400 rows) make 91: only
/// the vectors that grow by doubling take a few more steps.
#[test]
fn executing_allocates_a_constant_not_per_row() {
    let stmt = parse_select(INDIVIDUAL_PARTY).expect("the statement parses");
    let mut sizes = Vec::new();
    for dimension_scale in [1.0, 8.0] {
        let config = EnterpriseConfig {
            seed: 42,
            padding: false,
            data_scale: 0.2,
        };
        let db = enterprise::build_with_dimensions(config, dimension_scale).database;
        execute(&db, &stmt).expect("the statement runs");
        let (result, made) = allocations(|| execute(&db, &stmt));
        let result = result.expect("the statement runs");
        let rows = result.row_count() as u64;
        let text_cells = result
            .rows()
            .flatten()
            .filter(|v| v.as_str().is_some())
            .count() as u64;
        assert!(
            rows >= 300 && text_cells >= 4 * rows,
            "{rows} rows, {text_cells} text cells"
        );
        assert!(
            made <= EXECUTE_OVERHEAD,
            "{made} allocations for {rows} rows and {text_cells} text cells"
        );
        sizes.push(rows);
    }
    assert!(
        sizes[1] >= 8 * sizes[0],
        "rows at the two scales: {sizes:?}"
    );
}

/// What a result may keep beyond its row numbers: its column names, and
/// the vectors that hold them, its tables and its projection.
const RESULT_OVERHEAD_BYTES: i64 = 2_048;

/// A result is its row numbers, not its cells: what an execution leaves
/// allocated when it returns — once the first one has built the column index
/// it reads, which the table keeps — is at most 8 bytes per row and FROM
/// slot (a 32-bit row number and as much again of slack) plus a constant.
/// `individual ⋈ party` (two slots, eleven columns) keeps 3 236 bytes at
/// 300 rows and 20 036 at 2 400; when a result copied its cells it kept 24
/// bytes a cell, 79 844 at 300 rows.
#[test]
fn a_result_holds_row_numbers_not_cells() {
    let stmt = parse_select(INDIVIDUAL_PARTY).expect("the statement parses");
    for dimension_scale in [1.0, 8.0] {
        let config = EnterpriseConfig {
            seed: 42,
            padding: false,
            data_scale: 0.2,
        };
        let db = enterprise::build_with_dimensions(config, dimension_scale).database;
        execute(&db, &stmt).expect("the statement runs");
        let (result, _, retained) = measured(|| execute(&db, &stmt));
        let result = result.expect("the statement runs");
        let (rows, slots) = (result.row_count() as i64, stmt.from.len() as i64);
        assert!(rows >= 300, "{rows} rows");
        assert!(
            retained <= 8 * rows * slots + RESULT_OVERHEAD_BYTES,
            "a {rows}-row result over {slots} tables keeps {retained} bytes"
        );
    }
}

/// A column index is the column's non-NULL row numbers sorted by value, an
/// end per distinct value and a code per row: building one makes at most
/// four allocations (the `(cell, row)` pairs it sorts, freed again, the
/// rows, the ends and the codes; three for dense integers coded by value,
/// which are counted into place, not sorted) whatever the table's size,
/// and keeps at most 12 bytes per cell.  The first index a table builds
/// also allocates the table's one slot per column.  This one test covers
/// what two did while a table kept a key index (≤ 8 bytes a cell, three
/// allocations) and an order index (≤ 4 bytes, two) per column.
#[test]
fn a_column_index_costs_a_constant_allocation_count_and_at_most_12_bytes_a_row() {
    let mut indexed = Vec::new();
    let (mut by_value, mut by_rank) = (0, 0);
    for dimension_scale in [1.0, 8.0] {
        let config = EnterpriseConfig {
            seed: 42,
            padding: false,
            data_scale: 0.2,
        };
        let db = enterprise::build_with_dimensions(config, dimension_scale).database;
        for name in ["party", "individual", "trade_order_td"] {
            let table = db.table(name).unwrap();
            for col in 0..table.schema().arity() {
                let (cells, made, kept) = measured(|| table.column_index(col).len());
                let slots = if col == 0 {
                    (1, KEY_SLOTS_BYTES)
                } else {
                    (0, 0)
                };
                assert!(
                    made <= 4 + slots.0,
                    "{name} column {col}: {made} allocations"
                );
                assert!(
                    kept <= 12 * cells as i64 + slots.1,
                    "{name} column {col}: {kept} bytes for {cells} cells"
                );
                // Built once: a second call allocates nothing.
                assert_eq!(allocations(|| table.column_index(col).len()), (cells, 0));
                if table.column_index(col).by_value() {
                    by_value += 1;
                } else {
                    by_rank += 1;
                }
            }
            indexed.push(table.column_index(0).len());
        }
    }
    assert!(
        indexed[3] >= 8 * indexed[0] && indexed[2] >= 500,
        "{indexed:?}"
    );
    assert!(
        by_value >= 6 && by_rank >= 6,
        "{by_value} by value, {by_rank} by rank"
    );
}

/// What a GROUP BY may allocate beyond a few per group: the tuples, each
/// tuple's group, the groups' accumulators and the result.
const GROUPING_OVERHEAD: u64 = 40;

/// A GROUP BY numbers its groups by the key column's codes, so grouping
/// allocates per group, not per tuple: 2 000 and 20 000 rows of eight
/// currencies, keyed in turn (no run of equal keys), make the same count.
#[test]
fn grouping_allocates_per_group_not_per_tuple() {
    const CURRENCIES: [&str; 8] = ["CHF", "EUR", "GBP", "JPY", "SGD", "USD", "YEN", "AUD"];
    let stmt = parse_select("SELECT currency, count(*), sum(amount) FROM t GROUP BY currency")
        .expect("the statement parses");
    let mut made = Vec::new();
    for rows in [2_000, 20_000] {
        let mut db = Database::new();
        let schema = TableSchema::builder("t")
            .column("currency", DataType::Text)
            .column("amount", DataType::Int);
        db.create_table(schema.build()).unwrap();
        let row = |i: usize| vec![Value::from(CURRENCIES[i % 8]), Value::Int(i as i64)];
        db.insert_all("t", (0..rows).map(row)).unwrap();
        // The first run builds the column index, which the table keeps.
        execute(&db, &stmt).expect("the statement runs");
        let (result, count) = allocations(|| execute(&db, &stmt));
        let result = result.expect("the statement runs");
        assert_eq!(result.row_count(), 8);
        assert!(
            count <= GROUPING_OVERHEAD + 3 * 8,
            "{rows} rows in 8 groups: {count} allocations"
        );
        made.push(count);
    }
    assert_eq!(made[0], made[1], "allocations at 2 000 and 20 000 rows");
}

/// What a table's slots for its column indexes may take: one per column.
const KEY_SLOTS_BYTES: i64 = 2_048;

/// Concurrent first executions build each column index once and read the
/// same one: two threads running a join whose indexes nobody has built
/// yet, on one shared database, get equal results, equal to a later run's.
#[test]
fn two_first_executions_on_one_shared_database_agree() {
    let config = EnterpriseConfig {
        seed: 42,
        padding: false,
        data_scale: 0.2,
    };
    let db = Arc::new(enterprise::build_with(config).database);
    let stmt = parse_select(
        "SELECT * FROM account_td, trade_order_td, agreement_td \
         WHERE account_td.account_id = trade_order_td.account_id \
         AND account_td.agreement_id = agreement_td.agreement_id",
    )
    .expect("the statement parses");
    let start = std::sync::Barrier::new(2);
    let [first, second] = std::thread::scope(|scope| {
        [(); 2]
            .map(|()| {
                scope.spawn(|| {
                    start.wait();
                    execute(&db, &stmt).expect("the statement runs")
                })
            })
            .map(|thread| thread.join().expect("the thread runs"))
    });
    assert!(first.row_count() >= 500, "{} rows", first.row_count());
    assert_eq!(first, second);
    assert_eq!(first, execute(&db, &stmt).unwrap());
}

/// What a 16-customer feed may allocate beyond the same feed over a table
/// whose tail is empty: a copy-on-write table shares its tail's rows with
/// the published one, so what absorbing costs does not grow with them.
const ABSORB_TAIL_SLACK: u64 = 8;

/// `absorbed` copies no row it did not write: a feed onboarding 16
/// customers makes as many allocations when `party`'s unsealed tail holds
/// 1 000 rows as when it holds none (420 each on the test-scale
/// warehouse).  When a derived table deep-copied its tail and every table
/// name, the two made 997 and 1 995.
#[test]
fn absorb_allocs_ignore_tail() {
    let config = EnterpriseConfig {
        seed: 42,
        padding: false,
        data_scale: 0.2,
    };
    let (base, graph) = enterprise::build_with(config).shared_parts();
    let mut made = Vec::new();
    for tail in [0, 1_000] {
        let mut db = (*base).clone();
        let party = db.table("party").unwrap();
        let missing = (tail + Table::SEGMENT_ROWS - party.tail_rows()) % Table::SEGMENT_ROWS;
        let feed = enterprise::data::onboarding_feed(&db, 7, missing);
        for event in feed.into_events() {
            if let RowEvent::Append { table, row } = event {
                if table == "party" {
                    db.insert(&table, row).unwrap();
                }
            }
        }
        assert_eq!(db.table("party").unwrap().tail_rows(), tail);
        let engine = EngineSnapshot::build(Arc::new(db), Arc::clone(&graph), SodaConfig::default());
        let feed = enterprise::data::onboarding_feed(engine.database(), 1, 16);
        let (next, count) = allocations(|| engine.absorbed(feed));
        let next = next.expect("the feed applies");
        assert_eq!(
            next.database().table("party").unwrap().tail_rows(),
            tail + 16
        );
        made.push(count);
    }
    assert!(
        made[1] <= made[0] + ABSORB_TAIL_SLACK,
        "allocations over an empty and a 1 000-row tail: {made:?}"
    );
}

/// What building the enterprise warehouse's metadata graph (Table 1's
/// padded schema) and its classification index may allocate in all.  With
/// each name tokenised once, tables and entities found by hash probes and
/// each URI written into one reused buffer, the two make 30 235 and 6 352.  When every
/// attribute re-tokenised each column of its implementing tables and each
/// label holder collected its type edges per type asked, they made 369 609
/// and 87 094; the budget is half of their sum.
const METADATA_BUILD_BUDGET: u64 = 228_351;

#[test]
fn the_metadata_build_allocates_within_its_budget() {
    let warehouse = enterprise::build_with(EnterpriseConfig {
        seed: 42,
        padding: true,
        data_scale: 0.1,
    });
    let (ontology, synonyms) = (
        enterprise::ontology::ontology(),
        enterprise::ontology::synonyms(),
    );
    let (graph, graph_made) = allocations(|| build_graph(&warehouse.model, &ontology, &synonyms));
    let (index, index_made) = allocations(|| ClassificationIndex::build(&graph, true));
    assert_eq!(graph.node_count(), warehouse.graph.node_count());
    assert!(index.len() > 1_000, "{} phrases", index.len());
    assert!(
        graph_made + index_made <= METADATA_BUILD_BUDGET,
        "build_graph made {graph_made} allocations, the classification index {index_made}"
    );
}
