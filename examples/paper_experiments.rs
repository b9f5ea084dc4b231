//! Regenerates what the paper shows outside its tables: Figures 1–10, the
//! ablations of SODA's design decisions, the far-fetching join-path bound and
//! the re-ranking extensions (Tables 1–5 are `enterprise_search`, the
//! historization table `temporal_history`).
//!
//! Everything printed here except Figure 4 (the share of each pipeline step
//! in one query's time) is the same on every run and pinned by
//! `crates/eval/tests/golden/paper_experiments.txt`.
//!
//! Run with: `cargo run --release --example paper_experiments`

use soda::eval::experiments::ablations::{
    ablation_quality, far_fetching_quality, ranking_variants,
};
use soda::eval::experiments::engines_over;
use soda::eval::report;
use soda::warehouse::enterprise::{self, EnterpriseConfig};
use soda::warehouse::minibank;

fn main() {
    let enterprise = |data_scale| {
        enterprise::build_with(EnterpriseConfig {
            seed: 42,
            padding: false,
            data_scale,
        })
    };
    println!(
        "{}",
        report::print_figures(minibank::build(42), enterprise(0.1))
    );

    // Every variant shares the one warehouse.
    let engine = engines_over(enterprise(0.15));
    println!("{}", report::print_ablations(&ablation_quality(&engine)));
    println!(
        "{}",
        report::print_far_fetching(&far_fetching_quality(&engine))
    );
    print!(
        "{}",
        report::print_ranking_variants(&ranking_variants(&engine))
    );
}
