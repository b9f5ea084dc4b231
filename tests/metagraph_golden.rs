//! The metadata build pinned byte for byte: the graph `build_graph` makes,
//! the classification index and the join catalog built over it, for the
//! mini-bank (seed 42), the enterprise warehouse (Table 1's padded schema)
//! and its historisation-annotated variant.
//!
//! One line per warehouse and structure in `tests/golden/metagraph_digests.txt`:
//!
//! * `graph` — node, edge, label and predicate counts, and an FNV-1a digest
//!   over every node URI in id order, each followed by its outgoing
//!   `(predicate id, object URI or label text)` list in stored order;
//! * `classification` — the phrase count and a digest over the phrases,
//!   sorted, each with its bucket's `(URI, provenance)` entries in stored
//!   order;
//! * `joins` — the edge, inheritance-link, bridge and historisation-link
//!   counts and a digest over all four lists in stored order.
//!
//! The graph does not depend on the generated rows, so a small `data_scale`
//! keeps a debug run fast.  Regenerate only on a deliberate change of the
//! metadata model:
//!
//! ```sh
//! cargo test --test metagraph_golden -- --ignored regenerate
//! ```

use std::fmt::Write as _;

use soda::core::{ClassificationIndex, JoinCatalog, SodaConfig, SodaPatterns};
use soda::metagraph::{MetaGraph, Object};
use soda::warehouse::enterprise::{self, EnterpriseConfig};
use soda::warehouse::{minibank, Warehouse};

// The other golden suites use the rest of it.
#[allow(dead_code)]
mod common;
use common::fnv1a;

const GOLDEN: &str = "tests/golden/metagraph_digests.txt";

fn warehouses() -> Vec<Warehouse> {
    let config = EnterpriseConfig {
        seed: 42,
        padding: true,
        data_scale: 0.1,
    };
    vec![
        minibank::build(42),
        enterprise::build_with(config),
        enterprise::build_with_historization(config),
    ]
}

fn graph_line(graph: &MetaGraph) -> String {
    let mut text = String::new();
    for node in graph.nodes() {
        writeln!(text, "{}", graph.uri(node)).expect("String");
        for (pred, object) in graph.outgoing(node) {
            match object {
                Object::Node(n) => writeln!(text, "  {} -> {}", pred.index(), graph.uri(*n)),
                Object::Text(l) => {
                    writeln!(text, "  {} \"{}\"", pred.index(), graph.label_text(*l))
                }
            }
            .expect("String");
        }
    }
    let size = graph.size_report();
    format!(
        "{} nodes · {} edges · {} labels · {} predicates · {:016x}",
        size.nodes,
        size.edges,
        size.labels,
        size.predicates,
        fnv1a(&text)
    )
}

fn classification_line(graph: &MetaGraph) -> String {
    let index = ClassificationIndex::build(graph, SodaConfig::default().use_dbpedia);
    let mut phrases: Vec<&str> = index.phrases().collect();
    phrases.sort_unstable();
    let mut text = String::new();
    for phrase in &phrases {
        writeln!(text, "{phrase}").expect("String");
        for entry in index.lookup(phrase) {
            writeln!(
                text,
                "  {} {}",
                graph.uri(entry.node),
                entry.provenance.label()
            )
            .expect("String");
        }
    }
    format!("{} phrases · {:016x}", phrases.len(), fnv1a(&text))
}

fn joins_line(warehouse: &Warehouse) -> String {
    let catalog = JoinCatalog::build(
        &warehouse.graph,
        &SodaPatterns::default(),
        &warehouse.database,
        SodaConfig::default().traversal_depth,
    );
    let text = format!(
        "{:?}\n{:?}\n{:?}\n{:?}",
        catalog.edges, catalog.inheritance, catalog.bridges, catalog.historization
    );
    format!(
        "{} edges · {} inheritance · {} bridges · {} historization · {:016x}",
        catalog.edges.len(),
        catalog.inheritance.len(),
        catalog.bridges.len(),
        catalog.historization.len(),
        fnv1a(&text)
    )
}

fn digests() -> String {
    let mut out = String::new();
    for warehouse in warehouses() {
        let name = &warehouse.name;
        writeln!(out, "{name} · graph · {}", graph_line(&warehouse.graph)).expect("String");
        writeln!(
            out,
            "{name} · classification · {}",
            classification_line(&warehouse.graph)
        )
        .expect("String");
        writeln!(out, "{name} · joins · {}", joins_line(&warehouse)).expect("String");
    }
    out
}

#[test]
fn the_metadata_build_reproduces_the_golden() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(root.join(GOLDEN)).expect("reading the golden file");
    let got = digests();
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} of {GOLDEN} differs", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "{GOLDEN} has a different number of lines"
    );
}

/// Rewrites the golden file from the current build.  Run by hand only.
#[test]
#[ignore = "rewrites tests/golden/metagraph_digests.txt"]
fn regenerate() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    std::fs::write(root.join(GOLDEN), digests()).expect("writing the golden file");
}
