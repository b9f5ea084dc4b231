//! Data population for the enterprise warehouse.
//!
//! Row counts are laptop-scale but the *distributions* are engineered so that
//! every workload query of Table 2 has a meaningful answer and every failure
//! mode the paper describes is reproduced:
//!
//! * exactly [`CURRENT_SARA`] individuals are *currently* named Sara while
//!   [`HISTORIC_SARA`] further parties carry a historic "Sara" record in
//!   `individual_name_hist` — since the historisation join is not annotated in
//!   the metadata graph, SODA finds only the current ones (recall ≈ 0.2 for
//!   Q2.1/Q2.2, exactly the paper's explanation);
//! * "Credit Suisse" appears both as an organisation name and inside agreement
//!   names (the Q3.1/Q3.2 ambiguity);
//! * "gold", "YEN", "Lehman XYZ" and "Switzerland" occur in the columns the
//!   corresponding queries must reach.

use std::collections::HashSet;
use std::sync::Arc;

use soda_ingest::ChangeFeed;
use soda_relation::{Database, Date, Value};

use crate::datagen::{
    DataGen, AGREEMENT_NAMES, CITIES, COUNTRIES, CURRENCIES, FAMILY_NAMES, GIVEN_NAMES,
    LEGAL_FORMS, ORG_NAMES, PRODUCT_NAMES, PRODUCT_TYPES, STREETS,
};

/// Number of private customers.
pub(crate) const NUM_INDIVIDUALS: usize = 300;
/// Number of corporate customers.
pub(crate) const NUM_ORGANIZATIONS: usize = 80;
/// Number of investment products.
pub(crate) const NUM_PRODUCTS: usize = 30;
/// Number of securities.
pub(crate) const NUM_SECURITIES: usize = 60;
/// Number of trade orders (scaled by the data-scale factor).
pub(crate) const NUM_TRADE_ORDERS: usize = 2_500;
/// Number of money transactions (scaled by the data-scale factor).
pub(crate) const NUM_MONEY_TXNS: usize = 800;
/// Number of employment bridge rows.
pub(crate) const NUM_EMPLOYMENTS: usize = 120;
/// Parties currently named "Sara" (party ids `1..=CURRENT_SARA`).
pub const CURRENT_SARA: usize = 4;
/// Parties with a *historic* "Sara" record (party ids
/// `CURRENT_SARA+1 ..= CURRENT_SARA+HISTORIC_SARA`).
pub const HISTORIC_SARA: usize = 16;

const OPEN_END: Date = Date {
    year: 9999,
    month: 12,
    day: 31,
};

/// The texts a generator has made, so that equal cells share one allocation.
#[derive(Default)]
struct Texts(HashSet<Arc<str>>);

impl Texts {
    /// A text cell holding `text`, shared with every equal cell made before.
    fn text(&mut self, text: impl AsRef<str>) -> Value {
        let text = text.as_ref();
        let shared = match self.0.get(text) {
            Some(shared) => Arc::clone(shared),
            None => {
                let shared: Arc<str> = text.into();
                self.0.insert(Arc::clone(&shared));
                shared
            }
        };
        Value::Text(shared)
    }
}

/// Populates every core table.  `scale` multiplies the transactional row
/// counts (orders, payments); dimension sizes stay fixed.
pub fn populate(db: &mut Database, seed: u64, scale: f64) {
    populate_scaled(db, seed, scale, 1.0);
}

/// Like [`populate`] but with independently scaled dimensions:
/// `dimension_scale` multiplies the party-rooted row counts (individuals,
/// organizations, and through them addresses, agreements, accounts and
/// employments).  The engineered low-id distributions ("Sara", "Credit
/// Suisse", …) are pinned to absolute ids and survive any scale ≥ 1.0 —
/// smaller scales are for callers that don't rely on them.
pub fn populate_scaled(db: &mut Database, seed: u64, scale: f64, dimension_scale: f64) {
    let mut gen = DataGen::new(seed);
    let mut texts = Texts::default();
    let scale = scale.max(0.01);
    let dimension_scale = dimension_scale.max(0.1);
    let orders = ((NUM_TRADE_ORDERS as f64) * scale) as usize;
    let payments = ((NUM_MONEY_TXNS as f64) * scale) as usize;
    let individuals = ((NUM_INDIVIDUALS as f64) * dimension_scale) as usize;
    let organizations = ((NUM_ORGANIZATIONS as f64) * dimension_scale) as usize;
    let employments = ((NUM_EMPLOYMENTS as f64) * dimension_scale) as usize;
    // The fixed address-id offsets (current = party id, organization =
    // 1_000 + party id, historised = 10_000 + party id) only stay disjoint
    // while the party-id space fits below them; fail loudly instead of
    // silently generating duplicate address ids.
    assert!(
        individuals + organizations < 9_000,
        "dimension_scale {dimension_scale} exceeds the address-id headroom \
         ({} parties >= 9000); keep it below ~23",
        individuals + organizations
    );

    // Currencies.
    for (code, name) in CURRENCIES {
        db.insert("currency", vec![texts.text(code), texts.text(name)])
            .expect("currency");
    }

    // Parties: individuals 1..=NUM_INDIVIDUALS, organizations after that.
    for id in 1..=(individuals as i64) {
        let open = gen.date(1990, 2010);
        db.insert(
            "party",
            vec![
                Value::Int(id),
                texts.text("individual"),
                Value::Date(open),
                Value::Date(open),
                Value::Date(OPEN_END),
            ],
        )
        .expect("party");

        let idx = id as usize;
        let (given, family) = if idx == 1 {
            ("Sara".to_string(), "Guttinger".to_string())
        } else if idx <= CURRENT_SARA {
            ("Sara".to_string(), (*gen.pick(FAMILY_NAMES)).to_string())
        } else {
            (
                (*gen.pick(GIVEN_NAMES)).to_string(),
                (*gen.pick(FAMILY_NAMES)).to_string(),
            )
        };
        // Only the first CURRENT_SARA parties may be *currently* named Sara;
        // every other randomly drawn "Sara" is replaced so that the Q2.1
        // precision/recall ratios are exactly controlled.
        let given = if idx > CURRENT_SARA && given == "Sara" {
            "Petra".to_string()
        } else {
            given
        };
        let salary = if gen.chance(0.12) {
            gen.amount(500_000.0, 1_500_000.0)
        } else {
            gen.amount(45_000.0, 420_000.0)
        };
        let domicile = if idx == 1 || gen.chance(0.7) {
            "Switzerland"
        } else {
            *gen.pick(COUNTRIES)
        };
        db.insert(
            "individual",
            vec![
                Value::Int(id),
                texts.text(&given),
                texts.text(&family),
                Value::Date(gen.date(1945, 1995)),
                Value::Float(salary),
                texts.text(domicile),
            ],
        )
        .expect("individual");

        // Historic name records.
        if (CURRENT_SARA + 1..=CURRENT_SARA + HISTORIC_SARA).contains(&idx) {
            db.insert(
                "individual_name_hist",
                vec![
                    Value::Int(id),
                    texts.text("Sara"),
                    texts.text(*gen.pick(FAMILY_NAMES)),
                    Value::Date(gen.date(1995, 2004)),
                    Value::Date(gen.date(2005, 2009)),
                ],
            )
            .expect("individual_name_hist");
        } else if gen.chance(0.3) {
            // Historic records for everyone else use a non-"Sara" name so that
            // the Q2.1 recall ratio stays exactly CURRENT_SARA / (CURRENT_SARA
            // + HISTORIC_SARA).
            let mut former = *gen.pick(GIVEN_NAMES);
            if former == "Sara" {
                former = "Nina";
            }
            db.insert(
                "individual_name_hist",
                vec![
                    Value::Int(id),
                    texts.text(former),
                    texts.text(*gen.pick(FAMILY_NAMES)),
                    Value::Date(gen.date(1995, 2004)),
                    Value::Date(gen.date(2005, 2009)),
                ],
            )
            .expect("individual_name_hist");
        }

        db.insert(
            "address",
            vec![
                Value::Int(id),
                Value::Int(id),
                texts.text(*gen.pick(STREETS)),
                texts.text(if gen.chance(0.3) {
                    "Zurich"
                } else {
                    *gen.pick(CITIES)
                }),
                texts.text(if gen.chance(0.75) {
                    "Switzerland"
                } else {
                    *gen.pick(COUNTRIES)
                }),
                Value::Date(gen.date(2000, 2010)),
                Value::Date(OPEN_END),
            ],
        )
        .expect("address");
        // About a third of the individuals also have a *historised* (closed)
        // address row.  Because SODA has no special support for bi-temporal
        // historisation (§5.3.1), its generated SQL counts these rows too,
        // which is what drives Q9.0 to zero precision against a gold query
        // restricted to the current validity slice.
        if gen.chance(0.35) {
            db.insert(
                "address",
                vec![
                    Value::Int(10_000 + id),
                    Value::Int(id),
                    texts.text(*gen.pick(STREETS)),
                    texts.text(*gen.pick(CITIES)),
                    texts.text(if gen.chance(0.6) {
                        "Switzerland"
                    } else {
                        *gen.pick(COUNTRIES)
                    }),
                    Value::Date(gen.date(1990, 1999)),
                    Value::Date(gen.date(2000, 2009)),
                ],
            )
            .expect("historised address");
        }
        db.insert(
            "party_classification",
            vec![
                Value::Int(id),
                texts.text(if salary >= 500_000.0 {
                    "private banking"
                } else {
                    "retail"
                }),
                Value::Date(gen.date(2005, 2011)),
            ],
        )
        .expect("party_classification");
    }

    for i in 0..organizations {
        let id = (individuals + 1 + i) as i64;
        let open = gen.date(1985, 2010);
        db.insert(
            "party",
            vec![
                Value::Int(id),
                texts.text("organization"),
                Value::Date(open),
                Value::Date(open),
                Value::Date(OPEN_END),
            ],
        )
        .expect("party");
        let name = ORG_NAMES[i % ORG_NAMES.len()];
        let name = if i >= ORG_NAMES.len() {
            format!("{name} {}", i / ORG_NAMES.len() + 1)
        } else {
            name.to_string()
        };
        db.insert(
            "organization",
            vec![
                Value::Int(id),
                texts.text(&name),
                texts.text(*gen.pick(LEGAL_FORMS)),
                texts.text(if gen.chance(0.6) {
                    "Switzerland"
                } else {
                    *gen.pick(COUNTRIES)
                }),
            ],
        )
        .expect("organization");
        if gen.chance(0.25) {
            db.insert(
                "organization_name_hist",
                vec![
                    Value::Int(id),
                    texts.text(format!("{name} (formerly)")),
                    Value::Date(gen.date(1990, 2000)),
                    Value::Date(gen.date(2001, 2008)),
                ],
            )
            .expect("organization_name_hist");
        }
        db.insert(
            "address",
            vec![
                Value::Int(1_000 + id),
                Value::Int(id),
                texts.text(*gen.pick(STREETS)),
                texts.text(*gen.pick(CITIES)),
                texts.text("Switzerland"),
                Value::Date(gen.date(2000, 2010)),
                Value::Date(OPEN_END),
            ],
        )
        .expect("address");
        db.insert(
            "party_classification",
            vec![
                Value::Int(id),
                texts.text("institutional"),
                Value::Date(gen.date(2005, 2011)),
            ],
        )
        .expect("party_classification");
    }

    // Agreements: one per party, ids aligned with party ids.
    let total_parties = (individuals + organizations) as i64;
    for id in 1..=total_parties {
        let name = match id {
            1 => "Gold Savings Agreement",
            2 => "Credit Suisse Master Agreement",
            _ => AGREEMENT_NAMES[gen.index(AGREEMENT_NAMES.len())],
        };
        db.insert(
            "agreement_td",
            vec![
                Value::Int(id),
                texts.text(name),
                Value::Int(id),
                Value::Date(gen.date(2000, 2011)),
            ],
        )
        .expect("agreement");
    }

    // Accounts: one or two per agreement.
    let mut account_ids: Vec<i64> = Vec::new();
    let mut next_account = 1i64;
    for agreement in 1..=total_parties {
        let n = if gen.chance(0.4) { 2 } else { 1 };
        for _ in 0..n {
            db.insert(
                "account_td",
                vec![
                    Value::Int(next_account),
                    Value::Int(agreement),
                    texts.text(CURRENCIES[gen.index(CURRENCIES.len())].0),
                    texts.text(if gen.chance(0.5) { "custody" } else { "cash" }),
                ],
            )
            .expect("account");
            account_ids.push(next_account);
            next_account += 1;
        }
    }

    // Investment products and securities.
    for i in 0..NUM_PRODUCTS {
        let name = if i == 0 {
            "Lehman XYZ Certificate".to_string()
        } else {
            let base = PRODUCT_NAMES[i % PRODUCT_NAMES.len()];
            if i >= PRODUCT_NAMES.len() {
                format!("{base} Series {}", i / PRODUCT_NAMES.len() + 1)
            } else {
                base.to_string()
            }
        };
        db.insert(
            "investment_product_td",
            vec![
                Value::Int(i as i64 + 1),
                texts.text(&name),
                texts.text(*gen.pick(PRODUCT_TYPES)),
                texts.text(ORG_NAMES[gen.index(ORG_NAMES.len())]),
            ],
        )
        .expect("product");
    }
    for i in 0..NUM_SECURITIES {
        db.insert(
            "security_td",
            vec![
                Value::Int(i as i64 + 1),
                texts.text(format!("{} Security {i}", ORG_NAMES[i % ORG_NAMES.len()])),
                texts.text(format!("CH{:010}", 2_000_000 + i)),
                texts.text(CURRENCIES[gen.index(CURRENCIES.len())].0),
            ],
        )
        .expect("security");
    }
    for _ in 0..(NUM_PRODUCTS * 3) {
        db.insert(
            "product_contains_sec",
            vec![
                Value::Int(gen.int(1, NUM_PRODUCTS as i64)),
                Value::Int(gen.int(1, NUM_SECURITIES as i64)),
            ],
        )
        .expect("product_contains_sec");
    }

    // Trade orders.
    for id in 1..=(orders as i64) {
        let account = account_ids[gen.index(account_ids.len())];
        let currency = if gen.chance(0.1) {
            "YEN"
        } else {
            CURRENCIES[gen.index(CURRENCIES.len())].0
        };
        db.insert(
            "trade_order_td",
            vec![
                Value::Int(id),
                Value::Int(account),
                Value::Int(gen.int(1, NUM_PRODUCTS as i64)),
                Value::Date(gen.date(2009, 2012)),
                Value::Float(gen.amount(100.0, 250_000.0)),
                texts.text(currency),
                texts.text(if gen.chance(0.9) { "executed" } else { "open" }),
            ],
        )
        .expect("trade order");
    }

    // Money transactions.
    for id in 1..=(payments as i64) {
        let account = account_ids[gen.index(account_ids.len())];
        db.insert(
            "money_transaction_td",
            vec![
                Value::Int(id),
                Value::Int(account),
                Value::Float(gen.amount(10.0, 50_000.0)),
                texts.text(CURRENCIES[gen.index(CURRENCIES.len())].0),
                Value::Date(gen.date(2009, 2012)),
            ],
        )
        .expect("money transaction");
    }

    // Employment bridge between the inheritance siblings.
    for _ in 0..employments {
        db.insert(
            "associate_employment",
            vec![
                Value::Int(gen.int(1, individuals as i64)),
                Value::Int(gen.int(individuals as i64 + 1, (individuals + organizations) as i64)),
                texts.text(if gen.chance(0.3) {
                    "board member"
                } else {
                    "employee"
                }),
            ],
        )
        .expect("employment");
    }
}

/// A change feed onboarding `count` new private customers: one `party` row
/// plus one `individual` row each (one `Append` event per row, every
/// `individual` event before every `party` event), with party ids continuing
/// after the warehouse's current maximum.  The engineered distributions of
/// [`populate_scaled`] (the pinned "Sara" counts, the Swiss domicile bias)
/// are left untouched — new names are drawn from the regular pools, never
/// "Sara".
///
/// This is the producer side of ingestion:
/// `soda_core::EngineSnapshot::absorbed` (or
/// `soda_service::TenantAdmin::ingest_owned`) replays it into the side logs
/// of the two owning shards while every other shard keeps serving.
pub fn onboarding_feed(db: &Database, seed: u64, count: usize) -> ChangeFeed {
    let mut gen = DataGen::new(seed ^ 0x6f6e_6264); // "onbd"
    let mut texts = Texts::default();
    let next_id = db
        .table("party")
        .ok()
        .and_then(|t| {
            t.rows()
                .iter()
                .filter_map(|r| match r.first() {
                    Some(Value::Int(id)) => Some(*id),
                    _ => None,
                })
                .max()
        })
        .unwrap_or(0)
        + 1;
    let mut parties = Vec::with_capacity(count);
    let mut individuals = Vec::with_capacity(count);
    for offset in 0..count as i64 {
        let id = next_id + offset;
        let open = gen.date(2011, 2024);
        parties.push(vec![
            Value::Int(id),
            texts.text("individual"),
            Value::Date(open),
            Value::Date(open),
            Value::Date(OPEN_END),
        ]);
        let given = {
            let g = *gen.pick(GIVEN_NAMES);
            if g == "Sara" {
                "Petra"
            } else {
                g
            }
        };
        let salary = if gen.chance(0.12) {
            gen.amount(500_000.0, 1_500_000.0)
        } else {
            gen.amount(45_000.0, 420_000.0)
        };
        let domicile = if gen.chance(0.7) {
            "Switzerland"
        } else {
            *gen.pick(COUNTRIES)
        };
        individuals.push(vec![
            Value::Int(id),
            texts.text(given),
            texts.text(*gen.pick(FAMILY_NAMES)),
            Value::Date(gen.date(1950, 2000)),
            Value::Float(salary),
            texts.text(domicile),
        ]);
    }
    ChangeFeed::new()
        .append_rows("individual", individuals)
        .append_rows("party", parties)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enterprise::schema::core_physical_schema;
    use soda_relation::Database;

    fn db() -> Database {
        let mut db = Database::new();
        for schema in core_physical_schema() {
            db.create_table(schema).unwrap();
        }
        populate(&mut db, 42, 0.2);
        db
    }

    #[test]
    fn onboarding_feed_appends_new_parties_without_touching_pinned_counts() {
        let db = db();
        let feed = onboarding_feed(&db, 7, 5);
        assert_eq!(
            feed.tables(),
            vec!["individual".to_string(), "party".to_string()]
        );
        // One append per row, every `individual` before every `party`.
        let order: Vec<&str> = feed.events().iter().map(|e| e.table()).collect();
        assert_eq!(order, [["individual"; 5], ["party"; 5]].concat());
        assert_eq!(feed.row_count(), 10);
        let mut next = db.clone();
        soda_ingest::absorb(&mut next, None, feed.clone()).unwrap();
        assert_eq!(
            next.table("party").unwrap().row_count(),
            db.table("party").unwrap().row_count() + 5
        );
        assert_eq!(
            next.table("individual").unwrap().row_count(),
            db.table("individual").unwrap().row_count() + 5
        );
        // Party ids continue after the current maximum: no collisions.
        let ids = next
            .run_sql("SELECT party_id FROM party")
            .unwrap()
            .row_count();
        assert_eq!(ids, next.table("party").unwrap().row_count());
        // The engineered Sara distribution is untouched by onboarding.
        let saras = next
            .run_sql("SELECT party_id FROM individual WHERE given_name = 'Sara'")
            .unwrap();
        assert_eq!(saras.row_count(), CURRENT_SARA);
        // Deterministic per seed.
        assert_eq!(feed, onboarding_feed(&db, 7, 5));
        assert_ne!(feed, onboarding_feed(&db, 8, 5));
    }

    #[test]
    fn equal_generated_texts_share_one_allocation() {
        let db = db();
        let address = db.table("address").unwrap();
        let country = address.schema().column_index("country").unwrap();
        let swiss: Vec<Value> = address
            .rows()
            .iter()
            .map(|row| row[country].clone())
            .filter(|country| country.as_str() == Some("Switzerland"))
            .take(2)
            .collect();
        let [Value::Text(a), Value::Text(b)] = &swiss[..] else {
            panic!("two Swiss addresses expected, got {swiss:?}");
        };
        assert!(Arc::ptr_eq(a, b));
    }

    #[test]
    fn sara_counts_reproduce_the_recall_gap() {
        let db = db();
        let current = db
            .run_sql("SELECT party_id FROM individual WHERE given_name = 'Sara'")
            .unwrap();
        assert_eq!(current.row_count(), CURRENT_SARA);
        let historic = db
            .run_sql("SELECT party_id FROM individual_name_hist WHERE given_name = 'Sara'")
            .unwrap();
        assert_eq!(historic.row_count(), HISTORIC_SARA);
    }

    #[test]
    fn credit_suisse_is_ambiguous_between_organizations_and_agreements() {
        let db = db();
        let orgs = db
            .run_sql("SELECT party_id FROM organization WHERE org_name LIKE '%Credit Suisse%'")
            .unwrap();
        assert!(orgs.row_count() >= 1);
        let agreements = db
            .run_sql(
                "SELECT agreement_id FROM agreement_td WHERE agreement_name LIKE '%Credit Suisse%'",
            )
            .unwrap();
        assert!(agreements.row_count() >= 1);
    }

    #[test]
    fn workload_literals_exist() {
        let db = db();
        for (sql, what) in [
            ("SELECT agreement_id FROM agreement_td WHERE agreement_name LIKE '%gold%'", "gold agreements"),
            ("SELECT order_id FROM trade_order_td WHERE currency_cd = 'YEN'", "YEN trade orders"),
            ("SELECT instrument_id FROM investment_product_td WHERE product_name LIKE '%Lehman XYZ%'", "Lehman XYZ product"),
            ("SELECT party_id FROM individual WHERE domicile_country = 'Switzerland'", "Swiss individuals"),
            ("SELECT party_id FROM individual WHERE salary >= 500000", "wealthy individuals"),
        ] {
            let rs = db.run_sql(sql).unwrap();
            assert!(rs.row_count() >= 1, "no rows for {what}");
        }
    }

    #[test]
    fn referential_integrity_of_trading_chain() {
        let db = db();
        let orders = db.table("trade_order_td").unwrap().row_count();
        let joined = db
            .run_sql(
                "SELECT trade_order_td.order_id FROM trade_order_td, account_td, agreement_td, party \
                 WHERE trade_order_td.account_id = account_td.account_id \
                 AND account_td.agreement_id = agreement_td.agreement_id \
                 AND agreement_td.party_id = party.party_id",
            )
            .unwrap();
        assert_eq!(joined.row_count(), orders);
    }

    #[test]
    fn employment_bridge_links_individuals_to_organizations() {
        let db = db();
        let joined = db
            .run_sql(
                "SELECT associate_employment.role FROM associate_employment, individual, organization \
                 WHERE associate_employment.individual_id = individual.party_id \
                 AND associate_employment.organization_id = organization.party_id",
            )
            .unwrap();
        assert_eq!(joined.row_count(), NUM_EMPLOYMENTS);
    }

    #[test]
    fn scale_factor_controls_transaction_volume() {
        let mut small = Database::new();
        for schema in core_physical_schema() {
            small.create_table(schema).unwrap();
        }
        populate(&mut small, 42, 0.1);
        let mut large = Database::new();
        for schema in core_physical_schema() {
            large.create_table(schema).unwrap();
        }
        populate(&mut large, 42, 0.5);
        assert!(
            large.table("trade_order_td").unwrap().row_count()
                > small.table("trade_order_td").unwrap().row_count() * 3
        );
        // Dimensions stay fixed.
        assert_eq!(
            large.table("individual").unwrap().row_count(),
            small.table("individual").unwrap().row_count()
        );
    }
}
