//! A sketch of the "Adjustment Engine" usage described in §5.3.2: business
//! users name the entities they care about ("give me tables X, Y and Z"), SODA
//! discovers the join conditions, and the application compares a measure
//! between two periods without anyone writing SQL.
//!
//! Run with: `cargo run --example adjustment_engine`

use soda::core::{EngineSnapshot, SodaConfig};
use soda::warehouse::enterprise::{self, EnterpriseConfig};

fn main() {
    let (db, graph) = enterprise::build_with(EnterpriseConfig {
        seed: 42,
        padding: false,
        data_scale: 0.5,
    })
    .shared_parts();
    let engine = EngineSnapshot::build(db, graph, SodaConfig::default());

    // The business user names entities and a measure; SODA supplies the joins.
    let question = "sum(investments) group by (currency)";
    let results = engine.search(question).expect("query parses");
    let Some(top) = results.first() else {
        println!("no interpretation found for {question}");
        return;
    };
    println!("business question : {question}");
    println!("generated SQL     : {}\n", top.sql);

    // "Show me the differences with respect to the previous period": run the
    // same generated statement restricted to two periods and diff the output.
    let by_period = |year: i32| {
        let sql = format!(
            "{} ",
            top.sql.replace(
                " WHERE ",
                &format!(" WHERE trade_order_td.order_dt >= '{year}-01-01' AND trade_order_td.order_dt <= '{year}-12-31' AND ")
            )
        );
        engine
            .database()
            .run_sql(sql.trim())
            .expect("period query runs")
    };
    let current = by_period(2011);
    let previous = by_period(2010);

    println!(
        "{:<10} {:>16} {:>16} {:>12}",
        "currency", "2011", "2010", "delta"
    );
    println!("{}", "-".repeat(58));
    for row in current.rows() {
        let currency = row[0].to_string();
        let now = row[1].as_f64().unwrap_or(0.0);
        let before = previous
            .rows()
            .find(|r| r[0].to_string() == currency)
            .and_then(|r| r[1].as_f64())
            .unwrap_or(0.0);
        println!(
            "{:<10} {:>16.2} {:>16.2} {:>12.2}",
            currency,
            now,
            before,
            now - before
        );
    }
}
