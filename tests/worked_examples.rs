//! Cross-crate integration test: the four worked SODA-vs-SQL examples of
//! §4.4 of the paper (Query 1–4), executed on the mini-bank running example.
//!
//! The paper lists, for each example, the SODA input and the SQL a human
//! expert would write.  These tests check that the engine's best-ranked
//! statement is *equivalent* to the expert SQL — same result tuples when
//! projected onto the expert query's output columns — rather than comparing
//! SQL text, because the engine is free to order joins differently.

use std::collections::BTreeSet;

use soda::core::{EngineSnapshot, SodaConfig};
use soda::relation::{ResultSet, Value};
use soda::warehouse::minibank;
use soda::warehouse::Warehouse;

fn warehouse() -> Warehouse {
    minibank::build(42)
}

fn engine(warehouse: Warehouse) -> EngineSnapshot {
    let (db, graph) = warehouse.shared_parts();
    EngineSnapshot::build(db, graph, SodaConfig::default())
}

/// Projects a result set onto the named columns (matched case-insensitively by
/// suffix, so `individuals.firstname` matches a gold column `firstname`) and
/// returns the rows as a set of printable tuples.
fn project(rs: &ResultSet, columns: &[&str]) -> BTreeSet<Vec<String>> {
    let indexes: Vec<usize> = columns
        .iter()
        .map(|wanted| {
            rs.columns()
                .iter()
                .position(|c| {
                    let c = c.to_ascii_lowercase();
                    let wanted = wanted.to_ascii_lowercase();
                    c == wanted || c.ends_with(&format!(".{wanted}"))
                })
                .unwrap_or_else(|| panic!("column {wanted} not in result {:?}", rs.columns()))
        })
        .collect();
    rs.rows()
        .map(|row| indexes.iter().map(|&i| format!("{}", row[i])).collect())
        .collect()
}

/// Runs a SODA query and an expert SQL statement and asserts that the
/// best-ranked SODA result covers exactly the expert's tuples on the expert's
/// output columns.  Returns the best result's SQL for further inspection.
fn assert_equivalent(
    engine: &EngineSnapshot,
    soda_input: &str,
    expert_sql: &str,
    compare_columns: &[&str],
) -> String {
    let expert = engine
        .database()
        .run_sql(expert_sql)
        .unwrap_or_else(|e| panic!("expert SQL failed: {e}\n{expert_sql}"));
    let results = engine.search(soda_input).expect("SODA search failed");
    assert!(
        !results.is_empty(),
        "no results for SODA input '{soda_input}'"
    );
    // The best-ranked interpretation that covers the expert tuples must be
    // among the top results; the paper's UI shows the full first result page.
    let mut best_match: Option<(usize, String)> = None;
    for (i, result) in results.iter().enumerate() {
        let rs = engine.execute(result).expect("generated SQL must execute");
        if rs.row_count() == 0 {
            continue;
        }
        let produced = project(&rs, compare_columns);
        let gold = project(&expert, compare_columns);
        if produced == gold {
            best_match = Some((i, result.sql.clone()));
            break;
        }
    }
    let (rank, sql) = best_match.unwrap_or_else(|| {
        panic!(
            "no SODA result for '{soda_input}' is equivalent to the expert SQL;\n\
             produced: {:#?}",
            results.iter().map(|r| &r.sql).collect::<Vec<_>>()
        )
    });
    assert!(
        rank < 3,
        "the equivalent statement for '{soda_input}' is ranked too low ({rank})"
    );
    sql
}

/// Query 1 (§4.4.1): "Sara Guttinger" — the keyword pattern example.
///
/// Expert SQL: SELECT * FROM parties, individuals WHERE parties.id =
/// individuals.id AND firstName = 'Sara' AND lastName = 'Guttinger'.
#[test]
fn query1_keyword_pattern_sara_guttinger() {
    let e = engine(warehouse());
    let sql = assert_equivalent(
        &e,
        "Sara Guttinger",
        "SELECT individuals.id, individuals.firstname, individuals.lastname \
         FROM parties, individuals \
         WHERE parties.id = individuals.id \
         AND individuals.firstname = 'Sara' AND individuals.lastname = 'Guttinger'",
        &["id", "firstname", "lastname"],
    );
    // The generated statement must filter on both name parts, not just one.
    let lower = sql.to_ascii_lowercase();
    assert!(lower.contains("sara"), "missing first-name filter: {sql}");
    assert!(
        lower.contains("guttinger"),
        "missing last-name filter: {sql}"
    );
}

/// Query 2 (§4.4.1): comparison operators and `date()` values.
///
/// Expert SQL: SELECT * FROM persons WHERE salary >= x AND birthday = d.  The
/// mini-bank stores persons in `individuals`; the salary threshold is chosen
/// low enough to keep the result non-trivial.
#[test]
fn query2_input_pattern_salary_and_birthday() {
    let e = engine(warehouse());

    // Pick an existing individual so the equality on the birthday matches.
    let probe = e
        .database()
        .run_sql("SELECT individuals.birthday FROM individuals WHERE individuals.salary >= 500000")
        .unwrap();
    assert!(
        probe.row_count() > 0,
        "test data must contain wealthy individuals"
    );
    let birthday = format!("{}", probe.row(0)[0]);

    let soda_input = format!("salary >= 500000 and birthday = date({birthday})");
    let expert_sql = format!(
        "SELECT individuals.id, individuals.salary, individuals.birthday FROM individuals \
         WHERE individuals.salary >= 500000 AND individuals.birthday = '{birthday}'"
    );
    assert_equivalent(&e, &soda_input, &expert_sql, &["id", "salary", "birthday"]);
}

/// Query 3 (§4.4.2): "sum (amount) group by (transaction date)".
///
/// Expert SQL: SELECT sum(amount), transactiondate FROM fi_transactions GROUP
/// BY transactiondate — except that in the mini-bank's logical schema the
/// transaction date lives on the `transactions` super-type, so the expert
/// query joins the two, which is exactly the multi-table-join burden the paper
/// says SODA takes off the analyst.
#[test]
fn query3_aggregation_sum_amount_by_transaction_date() {
    let e = engine(warehouse());
    let results = e
        .search("sum (amount) group by (transaction date)")
        .expect("aggregation query must parse");
    assert!(!results.is_empty());

    let expert = e
        .database()
        .run_sql(
            "SELECT transactions.transactiondate, sum(fi_transactions.amount) \
             FROM transactions, fi_transactions \
             WHERE transactions.id = fi_transactions.id \
             GROUP BY transactions.transactiondate",
        )
        .unwrap();

    // The best result whose grouping matches the expert aggregate must exist:
    // same number of groups and same total sum.
    let expert_groups = expert.row_count();
    let expert_total: f64 = expert
        .rows()
        .map(|row| match &row[1] {
            Value::Float(f) => *f,
            Value::Int(i) => *i as f64,
            _ => 0.0,
        })
        .sum();
    let mut matched = false;
    for result in &results {
        let lower = result.sql.to_ascii_lowercase();
        if !lower.contains("sum(") || !lower.contains("group by") {
            continue;
        }
        let rs = e.execute(result).expect("generated SQL must execute");
        if rs.row_count() != expert_groups {
            continue;
        }
        let total: f64 = rs
            .rows()
            .flat_map(|row| row.iter())
            .filter_map(|v| match v {
                Value::Float(f) => Some(*f),
                _ => None,
            })
            .sum();
        if (total - expert_total).abs() < 1e-6 {
            matched = true;
            break;
        }
    }
    assert!(
        matched,
        "no generated aggregate matches the expert grouping; produced: {:#?}",
        results.iter().map(|r| &r.sql).collect::<Vec<_>>()
    );
}

/// Query 4 (§4.4.2): "count (transactions) group by (company name)" — the
/// organizations-ranked-by-trading-volume example with an automatic
/// multi-table join.
#[test]
fn query4_count_transactions_by_company_name() {
    let e = engine(warehouse());
    let results = e
        .search("count (transactions) group by (company name)")
        .expect("aggregation query must parse");
    assert!(!results.is_empty());

    let expert = e
        .database()
        .run_sql(
            "SELECT organizations.companyname, count(transactions.id) \
             FROM transactions, organizations \
             WHERE transactions.toparty = organizations.id \
             GROUP BY organizations.companyname",
        )
        .unwrap();
    let expert_groups = project(&expert, &["companyname"]);

    let mut matched = false;
    for result in &results {
        let lower = result.sql.to_ascii_lowercase();
        if !lower.contains("count(") || !lower.contains("companyname") {
            continue;
        }
        let rs = e.execute(result).expect("generated SQL must execute");
        if rs.row_count() == 0 {
            continue;
        }
        let produced_groups = project(&rs, &["companyname"]);
        if produced_groups == expert_groups {
            matched = true;
            // The statement must join transactions to organizations rather
            // than cross-producting them.
            assert!(
                lower.contains("toparty"),
                "missing join on toparty: {}",
                result.sql
            );
            break;
        }
    }
    assert!(
        matched,
        "no generated aggregate groups by the company names; produced: {:#?}",
        results.iter().map(|r| &r.sql).collect::<Vec<_>>()
    );
}

/// The metadata-defined business term of the introduction: "wealthy customers"
/// must translate into the salary filter stored in the domain ontology.
#[test]
fn metadata_defined_filter_wealthy_customers() {
    let e = engine(warehouse());
    let results = e.search("wealthy customers").expect("search failed");
    assert!(!results.is_empty());
    let top = &results[0];
    let lower = top.sql.to_ascii_lowercase();
    assert!(
        lower.contains("salary >= 500000"),
        "expected the metadata-defined salary filter, got: {}",
        top.sql
    );
    let rs = e.execute(top).unwrap();
    let expert = e
        .database()
        .run_sql("SELECT individuals.id FROM individuals WHERE individuals.salary >= 500000")
        .unwrap();
    assert_eq!(project(&rs, &["id"]), project(&expert, &["id"]));
}

/// The introduction's third example query: "What is the address of Sara
/// Guttinger?" — keywords spanning base data and the addresses table.
#[test]
fn address_of_sara_guttinger() {
    let e = engine(warehouse());
    let results = e.search("addresses Sara Guttinger").expect("search failed");
    assert!(!results.is_empty());
    // At least one result must join through to the addresses table and return
    // Sara's Zurich address.
    let mut found_zurich = false;
    for result in &results {
        if !result.tables.iter().any(|t| &**t == "addresses") {
            continue;
        }
        let rs = e.execute(result).unwrap();
        if rs
            .rows()
            .any(|row| row.iter().any(|v| format!("{v}") == "Zurich"))
        {
            found_zurich = true;
            break;
        }
    }
    assert!(
        found_zurich,
        "no result returned Sara Guttinger's Zurich address"
    );
}
