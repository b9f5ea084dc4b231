//! The experiment workload: the 13 queries of Table 2, expressed against the
//! synthetic enterprise warehouse, together with their query-type flags and
//! the paper's reported precision/recall for side-by-side comparison.

use soda_baselines::QueryFeature;

/// One workload query (a row of Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadQuery {
    /// Query id as printed in the paper ("1.0", "2.1", …).
    pub id: &'static str,
    /// The SODA input (keywords and operators).
    pub keywords: &'static str,
    /// The paper's comment describing the query.
    pub comment: &'static str,
    /// Query-type flags (B/S/D/I/P/A).
    pub features: Vec<QueryFeature>,
    /// Gold-standard SQL (possibly several statements whose union is the gold
    /// result, e.g. Q5.0's separate private/corporate queries).
    pub gold_sql: Vec<&'static str>,
    /// Precision of the best result as reported in Table 3 of the paper.
    pub paper_precision: f64,
    /// Recall of the best result as reported in Table 3 of the paper.
    pub paper_recall: f64,
    /// Query complexity as reported in Table 4 of the paper.
    pub paper_complexity: usize,
    /// Number of results as reported in Table 4 of the paper.
    pub paper_results: usize,
    /// SODA runtime in seconds as reported in Table 4 of the paper.
    pub paper_soda_runtime_s: f64,
    /// Total end-to-end runtime in minutes as reported in Table 4 of the paper.
    pub paper_total_runtime_min: f64,
}

/// The full workload.
pub fn workload() -> Vec<WorkloadQuery> {
    use QueryFeature::*;
    vec![
        WorkloadQuery {
            id: "1.0",
            keywords: "private customers family name",
            comment: "Customer domain ontology (D) combined with a schema attribute (S); 3-way join incl. inheritance (I).",
            features: vec![DomainOntology, Schema, Inheritance],
            gold_sql: vec![
                "SELECT individual.party_id, individual.family_name FROM party, individual \
                 WHERE party.party_id = individual.party_id",
            ],
            paper_precision: 1.00,
            paper_recall: 1.00,
            paper_complexity: 3,
            paper_results: 1,
            paper_soda_runtime_s: 1.54,
            paper_total_runtime_min: 6.0,
        },
        WorkloadQuery {
            id: "2.1",
            keywords: "Sara",
            comment: "Base data (B) as filter; 3-way join incl. inheritance (I); historised names limit recall.",
            features: vec![BaseData, Inheritance],
            gold_sql: vec![
                "SELECT individual.party_id, individual.family_name, individual.birth_dt \
                 FROM party, individual \
                 WHERE party.party_id = individual.party_id AND individual.given_name = 'Sara'",
                "SELECT individual.party_id, individual_name_hist.family_name, individual.birth_dt \
                 FROM party, individual, individual_name_hist \
                 WHERE party.party_id = individual.party_id \
                 AND individual.party_id = individual_name_hist.party_id \
                 AND individual_name_hist.given_name = 'Sara'",
            ],
            paper_precision: 1.00,
            paper_recall: 0.20,
            paper_complexity: 4,
            paper_results: 4,
            paper_soda_runtime_s: 0.81,
            paper_total_runtime_min: 1.0,
        },
        WorkloadQuery {
            id: "2.2",
            keywords: "Sara given name",
            comment: "Same as Q2.1 plus a restriction on given name (S).",
            features: vec![BaseData, Schema, Inheritance],
            gold_sql: vec![
                "SELECT individual.party_id, individual.family_name, individual.birth_dt \
                 FROM party, individual \
                 WHERE party.party_id = individual.party_id AND individual.given_name = 'Sara'",
                "SELECT individual.party_id, individual_name_hist.family_name, individual.birth_dt \
                 FROM party, individual, individual_name_hist \
                 WHERE party.party_id = individual.party_id \
                 AND individual.party_id = individual_name_hist.party_id \
                 AND individual_name_hist.given_name = 'Sara'",
            ],
            paper_precision: 1.00,
            paper_recall: 0.20,
            paper_complexity: 12,
            paper_results: 2,
            paper_soda_runtime_s: 1.60,
            paper_total_runtime_min: 3.0,
        },
        WorkloadQuery {
            id: "2.3",
            keywords: "Sara birth date",
            comment: "Restriction on birth date focuses the query on the current-name table (S).",
            features: vec![BaseData, Schema, Inheritance],
            gold_sql: vec![
                "SELECT individual.party_id, individual.family_name, individual.birth_dt \
                 FROM party, individual \
                 WHERE party.party_id = individual.party_id AND individual.given_name = 'Sara'",
            ],
            paper_precision: 1.00,
            paper_recall: 1.00,
            paper_complexity: 12,
            paper_results: 3,
            paper_soda_runtime_s: 1.69,
            paper_total_runtime_min: 3.0,
        },
        WorkloadQuery {
            id: "3.1",
            keywords: "Credit Suisse",
            comment: "Base data (B) filter; intent: Credit Suisse as an organization.",
            features: vec![BaseData],
            gold_sql: vec![
                "SELECT organization.party_id, organization.org_name FROM party, organization \
                 WHERE party.party_id = organization.party_id \
                 AND organization.org_name LIKE '%Credit Suisse%'",
            ],
            paper_precision: 1.00,
            paper_recall: 1.00,
            paper_complexity: 12,
            paper_results: 6,
            paper_soda_runtime_s: 3.78,
            paper_total_runtime_min: 2.0,
        },
        WorkloadQuery {
            id: "3.2",
            keywords: "Credit Suisse",
            comment: "Base data (B) filter; intent: Credit Suisse agreements (deals).",
            features: vec![BaseData],
            gold_sql: vec![
                "SELECT agreement_td.agreement_id, agreement_td.agreement_name FROM agreement_td \
                 WHERE agreement_td.agreement_name LIKE '%Credit Suisse%'",
            ],
            paper_precision: 1.00,
            paper_recall: 1.00,
            paper_complexity: 12,
            paper_results: 6,
            paper_soda_runtime_s: 3.78,
            paper_total_runtime_min: 2.0,
        },
        WorkloadQuery {
            id: "4.0",
            keywords: "gold agreement",
            comment: "Base data (B) filter matched with a schema term (S); 2-way join.",
            features: vec![BaseData, Schema],
            gold_sql: vec![
                "SELECT agreement_td.agreement_id, agreement_td.agreement_name, agreement_td.party_id \
                 FROM agreement_td, party \
                 WHERE agreement_td.party_id = party.party_id \
                 AND agreement_td.agreement_name LIKE '%Gold%'",
            ],
            paper_precision: 1.00,
            paper_recall: 1.00,
            paper_complexity: 16,
            paper_results: 4,
            paper_soda_runtime_s: 4.89,
            paper_total_runtime_min: 4.0,
        },
        WorkloadQuery {
            id: "5.0",
            keywords: "customers names",
            comment: "Inheritance (I) plus the names domain ontology (D); gold is two separate 3-way joins.",
            features: vec![DomainOntology, Inheritance],
            gold_sql: vec![
                "SELECT individual.party_id, individual.family_name FROM party, individual \
                 WHERE party.party_id = individual.party_id",
                "SELECT organization.party_id, organization.org_name FROM party, organization \
                 WHERE party.party_id = organization.party_id",
            ],
            paper_precision: 0.12,
            paper_recall: 0.56,
            paper_complexity: 4,
            paper_results: 4,
            paper_soda_runtime_s: 1.24,
            paper_total_runtime_min: 6.0,
        },
        WorkloadQuery {
            id: "6.0",
            keywords: "trade order period > date(2011-09-01)",
            comment: "Time-based range query (P) on a column resolved through the ontology (S).",
            features: vec![Schema, Predicates, Inheritance],
            gold_sql: vec![
                "SELECT trade_order_td.order_id, trade_order_td.order_dt, trade_order_td.amount \
                 FROM trade_order_td, account_td, agreement_td \
                 WHERE trade_order_td.account_id = account_td.account_id \
                 AND account_td.agreement_id = agreement_td.agreement_id \
                 AND trade_order_td.order_dt > '2011-09-01'",
            ],
            paper_precision: 1.00,
            paper_recall: 1.00,
            paper_complexity: 5,
            paper_results: 2,
            paper_soda_runtime_s: 0.73,
            paper_total_runtime_min: 1.0,
        },
        WorkloadQuery {
            id: "7.0",
            keywords: "YEN trade order",
            comment: "Base data (B) filter plus schema (S); 5-way join incl. inheritance (I).",
            features: vec![BaseData, Schema, Inheritance],
            gold_sql: vec![
                "SELECT trade_order_td.order_id, trade_order_td.amount, trade_order_td.currency_cd \
                 FROM trade_order_td, account_td, agreement_td, party, currency \
                 WHERE trade_order_td.account_id = account_td.account_id \
                 AND account_td.agreement_id = agreement_td.agreement_id \
                 AND agreement_td.party_id = party.party_id \
                 AND trade_order_td.currency_cd = currency.currency_cd \
                 AND trade_order_td.currency_cd = 'YEN'",
            ],
            paper_precision: 0.50,
            paper_recall: 1.00,
            paper_complexity: 20,
            paper_results: 4,
            paper_soda_runtime_s: 4.94,
            paper_total_runtime_min: 1.0,
        },
        WorkloadQuery {
            id: "8.0",
            keywords: "trade order investment product Lehman XYZ",
            comment: "Base data (B) plus schema (S); 5-way join incl. inheritance (I).",
            features: vec![BaseData, Schema, Inheritance],
            gold_sql: vec![
                "SELECT trade_order_td.order_id, investment_product_td.product_name \
                 FROM trade_order_td, investment_product_td \
                 WHERE trade_order_td.instrument_id = investment_product_td.instrument_id \
                 AND investment_product_td.product_name LIKE '%Lehman XYZ%'",
            ],
            paper_precision: 1.00,
            paper_recall: 1.00,
            paper_complexity: 8,
            paper_results: 4,
            paper_soda_runtime_s: 2.94,
            paper_total_runtime_min: 2.0,
        },
        WorkloadQuery {
            id: "9.0",
            keywords: "select count() private customers Switzerland",
            comment: "Base data (B), domain ontology (D) and aggregation (A) incl. inheritance (I); bridge tables and historisation defeat the join discovery.",
            features: vec![BaseData, DomainOntology, Aggregates, Inheritance],
            gold_sql: vec![
                "SELECT count(*) FROM party, individual, address \
                 WHERE party.party_id = individual.party_id \
                 AND individual.party_id = address.party_id \
                 AND address.country = 'Switzerland' \
                 AND address.valid_to = '9999-12-31'",
            ],
            paper_precision: 0.00,
            paper_recall: 0.00,
            paper_complexity: 30,
            paper_results: 6,
            paper_soda_runtime_s: 7.31,
            paper_total_runtime_min: 1.0,
        },
        WorkloadQuery {
            id: "10.0",
            keywords: "sum(investments) group by (currency)",
            comment: "Aggregation (A) with explicit grouping and schema (S); 5-way join in the paper.",
            features: vec![Aggregates, Schema],
            gold_sql: vec![
                "SELECT currency.currency_cd, sum(trade_order_td.amount) \
                 FROM trade_order_td, currency \
                 WHERE trade_order_td.currency_cd = currency.currency_cd \
                 GROUP BY currency.currency_cd",
            ],
            paper_precision: 1.00,
            paper_recall: 1.00,
            paper_complexity: 25,
            paper_results: 6,
            paper_soda_runtime_s: 2.83,
            paper_total_runtime_min: 40.0,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirteen_queries_matching_table2() {
        let w = workload();
        assert_eq!(w.len(), 13);
        let ids: Vec<_> = w.iter().map(|q| q.id).collect();
        assert_eq!(
            ids,
            vec![
                "1.0", "2.1", "2.2", "2.3", "3.1", "3.2", "4.0", "5.0", "6.0", "7.0", "8.0", "9.0",
                "10.0"
            ]
        );
    }

    #[test]
    fn every_query_has_gold_sql_and_features() {
        for q in workload() {
            assert!(!q.gold_sql.is_empty(), "query {} has no gold SQL", q.id);
            assert!(
                !q.features.is_empty(),
                "query {} has no feature flags",
                q.id
            );
        }
    }

    #[test]
    fn gold_sql_parses_and_executes_on_the_enterprise_warehouse() {
        let warehouse =
            soda_warehouse::enterprise::build_with(soda_warehouse::enterprise::EnterpriseConfig {
                seed: 42,
                padding: false,
                data_scale: 0.2,
            });
        for q in workload() {
            for sql in &q.gold_sql {
                let rs = warehouse
                    .database
                    .run_sql(sql)
                    .unwrap_or_else(|e| panic!("gold SQL of {} failed: {e}\n{sql}", q.id));
                assert!(
                    rs.row_count() > 0,
                    "gold SQL of {} returned no rows:\n{sql}",
                    q.id
                );
            }
        }
    }

    #[test]
    fn aggregate_queries_are_flagged_as_such() {
        let w = workload();
        let q9 = w.iter().find(|q| q.id == "9.0").unwrap();
        let q10 = w.iter().find(|q| q.id == "10.0").unwrap();
        assert!(q9.features.contains(&QueryFeature::Aggregates));
        assert!(q10.features.contains(&QueryFeature::Aggregates));
    }
}
