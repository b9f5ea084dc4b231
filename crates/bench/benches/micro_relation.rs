//! Micro-benchmarks of the relational substrate: SQL parsing, multi-way hash
//! joins, aggregation and the inverted index over the base data.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use soda_relation::{parse_select, InvertedIndex};
use soda_warehouse::enterprise::{self, EnterpriseConfig};

const FIVE_WAY_JOIN: &str = "SELECT trade_order_td.order_id, individual.family_name \
     FROM trade_order_td, account_td, agreement_td, party, individual \
     WHERE trade_order_td.account_id = account_td.account_id \
     AND account_td.agreement_id = agreement_td.agreement_id \
     AND agreement_td.party_id = party.party_id \
     AND party.party_id = individual.party_id \
     AND trade_order_td.currency_cd = 'YEN'";

const AGGREGATION: &str = "SELECT currency_cd, sum(amount), count(*) FROM trade_order_td \
     GROUP BY currency_cd ORDER BY sum(amount) DESC";

fn bench_relation(c: &mut Criterion) {
    let warehouse = enterprise::build_with(EnterpriseConfig {
        seed: 42,
        padding: false,
        data_scale: 1.0,
    });
    let db = &warehouse.database;

    let mut group = c.benchmark_group("micro_relation");
    group.sample_size(20);

    group.bench_function("parse_five_way_join", |b| {
        b.iter(|| black_box(parse_select(FIVE_WAY_JOIN).unwrap()))
    });

    group.bench_function("execute_five_way_hash_join", |b| {
        b.iter(|| black_box(db.run_sql(FIVE_WAY_JOIN).unwrap().row_count()))
    });

    group.bench_function("execute_group_by_aggregation", |b| {
        b.iter(|| black_box(db.run_sql(AGGREGATION).unwrap().row_count()))
    });

    group.bench_function("inverted_index_build", |b| {
        b.iter(|| black_box(InvertedIndex::build(db).posting_count()))
    });

    group.bench_function("inverted_index_phrase_lookup", |b| {
        let index = InvertedIndex::build(db);
        b.iter(|| {
            black_box(index.lookup_phrase("Credit Suisse").len())
                + black_box(index.lookup_phrase("Zurich").len())
                + black_box(index.lookup_phrase("YEN").len())
        })
    });

    group.finish();

    println!(
        "\nbase data: {} tables, {} rows",
        db.table_count(),
        db.total_rows()
    );
}

criterion_group!(benches, bench_relation);
criterion_main!(benches);
