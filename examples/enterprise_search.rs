//! Runs the full Table 2 workload against the enterprise warehouse (the
//! synthetic stand-in for the Credit Suisse integration layer) and prints the
//! regenerated Tables 1–5 of the paper.
//!
//! Run with: `cargo run --release --example enterprise_search`

use soda::core::{EngineSnapshot, SodaConfig};
use soda::eval::experiments::{run_workload, table1::table1, table5::table5};
use soda::eval::report;
use soda::eval::workload::workload;
use soda::warehouse::enterprise::{self, EnterpriseConfig};

fn main() {
    // Full metadata scale (Table 1), moderate data scale.
    println!("building the enterprise warehouse (padding to Table 1 scale)...");
    let padded = enterprise::build_with(EnterpriseConfig {
        seed: 42,
        padding: true,
        data_scale: 0.3,
    });
    println!("{}", report::print_table1(&table1(&padded)));
    println!(
        "metadata graph: {} nodes, {} edges\n",
        padded.graph.node_count(),
        padded.graph.edge_count()
    );

    println!("{}", report::print_table2(&workload()));

    println!("running the workload (this executes every generated statement)...\n");
    let (db, graph) = padded.shared_parts();
    let engine = EngineSnapshot::build(db, graph, SodaConfig::default());
    let evals = run_workload(&engine);
    println!("{}", report::print_table3(&evals));
    println!("{}", report::print_table4(&evals));

    println!("comparing against the baseline systems...\n");
    println!("{}", report::print_table5(&table5(&engine)));

    // Show the generated SQL for a couple of interesting queries.
    for id in ["2.1", "9.0", "10.0"] {
        if let Some(e) = evals.iter().find(|e| e.id == id) {
            println!("Q{id}: {}", e.keywords);
            for r in e.per_result.iter().take(2) {
                println!(
                    "  P={:.2} R={:.2} rows={:>5}  {}",
                    r.precision, r.recall, r.rows, r.sql
                );
            }
            println!();
        }
    }
}
