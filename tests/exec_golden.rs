//! Golden executor digests: every statement SODA generates for the 13
//! Table-2 queries (all result pages), and every gold-standard statement, is
//! executed on the mini-bank and on the small enterprise warehouse, and the
//! answer — column list, row count, and a hash of the result tuples *in
//! order* — is compared with `tests/golden/exec_digests.txt`.
//!
//! The file pins the executor's observable behaviour (which rows, in which
//! order, under which column names) independently of how it computes them;
//! it was captured before the executor was rewritten to borrow its inputs.
//! Regenerate it only on a deliberate change of SQL semantics:
//!
//! ```sh
//! cargo test --test exec_golden -- --ignored regenerate
//! ```

use std::fmt::Write as _;

use soda::core::{EngineSnapshot, SodaConfig};
use soda::eval::workload;
use soda::relation::ResultSet;
use soda::warehouse::enterprise::{self, EnterpriseConfig};
use soda::warehouse::{minibank, Warehouse};

const GOLDEN: &str = "tests/golden/exec_digests.txt";
const PAGE_SIZE: usize = 10;

/// FNV-1a over the result tuples, each terminated by a newline.
fn digest(tuples: &[String]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in tuples.iter().flat_map(|t| t.bytes().chain([b'\n'])) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn digest_line<E: std::fmt::Display>(out: &mut String, label: &str, rs: Result<ResultSet, E>) {
    match rs {
        Ok(rs) => writeln!(
            out,
            "{label} · {} · {} rows · {:016x}",
            rs.columns().join(","),
            rs.row_count(),
            digest(&rs.tuple_strings())
        ),
        Err(e) => writeln!(out, "{label} · error: {e}"),
    }
    .expect("writing to a String");
}

/// `gold`: also run the workload's gold-standard SQL (written against the
/// enterprise schema, so it only binds there).
fn digests_of(name: &str, warehouse: Warehouse, gold: bool, out: &mut String) {
    let (db, graph) = warehouse.shared_parts();
    let engine = EngineSnapshot::build(db, graph, SodaConfig::default());
    for query in workload() {
        let mut rank = 0usize;
        for page in 0.. {
            let Ok(page) = engine.search_paged(query.keywords, page, PAGE_SIZE) else {
                writeln!(out, "{name} · {} · no interpretation", query.id).expect("String");
                break;
            };
            for result in &page.results {
                rank += 1;
                let label = format!("{name} · {} · {rank}", query.id);
                digest_line(out, &label, engine.execute(result));
            }
            if !page.has_next {
                break;
            }
        }
        for (i, sql) in query.gold_sql.iter().enumerate().filter(|_| gold) {
            let label = format!("{name} · {} · gold {}", query.id, i + 1);
            digest_line(out, &label, engine.database().run_sql(sql));
        }
    }
}

fn current_digests() -> String {
    let mut out = String::new();
    digests_of("minibank", minibank::build(42), false, &mut out);
    let enterprise = enterprise::build_with(EnterpriseConfig {
        seed: 42,
        padding: false,
        data_scale: 0.2,
    });
    digests_of("enterprise", enterprise, true, &mut out);
    out
}

#[test]
fn executor_reproduces_the_golden_digests() {
    let got = current_digests();
    let want = include_str!("golden/exec_digests.txt");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} of {GOLDEN} differs", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "{GOLDEN} has a different number of statements"
    );
}

/// Rewrites the golden file from the current executor.  Run by hand only.
#[test]
#[ignore = "rewrites tests/golden/exec_digests.txt"]
fn regenerate() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    std::fs::write(&path, current_digests()).expect("writing the golden file");
}
