//! Pins what `examples/paper_experiments.rs` prints — Figures 1–10 (minus
//! Figure 4, a timing), the ablation and far-fetching quality summaries and
//! the "Credit Suisse" ranking variants — against the checked-in capture.

use soda_eval::experiments::ablations::{ablation_quality, far_fetching_quality, ranking_variants};
use soda_eval::experiments::engines_over;
use soda_eval::report;
use soda_warehouse::enterprise::{self, EnterpriseConfig};
use soda_warehouse::minibank;

#[test]
fn the_printed_experiments_match_the_capture() {
    let enterprise = |data_scale| {
        enterprise::build_with(EnterpriseConfig {
            seed: 42,
            padding: false,
            data_scale,
        })
    };
    let engine = engines_over(enterprise(0.15));
    let printed = [
        report::print_figures(minibank::build(42), enterprise(0.1)),
        report::print_ablations(&ablation_quality(&engine)),
        report::print_far_fetching(&far_fetching_quality(&engine)),
        report::print_ranking_variants(&ranking_variants(&engine)),
    ]
    .join("\n");
    let stable: String = printed
        .split_inclusive('\n')
        .filter(|line| !line.starts_with("Figure 4 "))
        .collect();
    assert_eq!(stable, include_str!("golden/paper_experiments.txt"));
}
