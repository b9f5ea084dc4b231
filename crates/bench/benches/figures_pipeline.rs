//! Figures 1–10 — regenerates the paper's figures and benchmarks the pipeline
//! steps they illustrate (lookup classification for Figure 5, the tables step
//! for Figure 6, direct-path join selection for Figure 9).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use soda_core::{EngineSnapshot, SearchOptions, SodaConfig};
use soda_eval::experiments::figures;
use soda_warehouse::enterprise::{self, EnterpriseConfig};
use soda_warehouse::{minibank, Warehouse};

fn engine(warehouse: Warehouse) -> EngineSnapshot {
    let (db, graph) = warehouse.shared_parts();
    EngineSnapshot::build(db, graph, SodaConfig::default())
}

fn bench_figures(c: &mut Criterion) {
    // The schema figures read the model, the pipeline figures an engine.
    let bank = minibank::build(42);
    let enterprise = engine(enterprise::build_with(EnterpriseConfig {
        seed: 42,
        padding: false,
        data_scale: 0.1,
    }));
    let engine = engine(minibank::build(42));

    let mut group = c.benchmark_group("figures_pipeline");
    group.sample_size(20);
    group.bench_function("figure5_lookup_classification", |b| {
        b.iter(|| {
            black_box(
                engine
                    .search_with(
                        "customers Zurich financial instruments",
                        &SearchOptions::default(),
                    )
                    .unwrap(),
            )
        })
    });
    group.bench_function("figure6_tables_step", |b| {
        b.iter(|| black_box(figures::figure6_tables(&engine)))
    });
    group.bench_function("figure9_direct_path_joins", |b| {
        b.iter(|| black_box(figures::figure9_direct_path(&enterprise)))
    });
    group.finish();

    println!(
        "\nFigure 1 (conceptual schema, DOT):\n{}",
        figures::figure1_dot(&bank)
    );
    println!(
        "Figure 2 (logical schema, DOT):\n{}",
        figures::figure2_dot(&bank)
    );
    println!(
        "Figure 3 (metadata layers): {:?}",
        figures::figure3_layers(&bank)
    );
    println!(
        "Figure 4 (pipeline step shares): {:?}",
        figures::figure4_trace(&engine, "customers Zurich financial instruments")
    );
    println!(
        "Figure 5 (classification): {:?}",
        figures::figure5_classification(&engine)
    );
    println!(
        "Figure 6 (tables step): {:?}",
        figures::figure6_tables(&engine)
    );
    println!("Figure 7 (table pattern): {}", figures::figure7_pattern());
    println!(
        "Figure 8 (foreign-key pattern): {}",
        figures::figure8_pattern()
    );
    let (used, attached) = figures::figure9_direct_path(&enterprise);
    println!("Figure 9 (joins on direct path): used {used:?} of attached {attached:?}");
    println!(
        "Figure 10 (schema hierarchy):\n{}",
        figures::figure10_hierarchy(&enterprise)
    );
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
