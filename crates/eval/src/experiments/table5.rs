//! Table 5 — qualitative comparison with DBExplorer, DISCOVER, BANKS, SQAK and
//! Keymantic.
//!
//! The declared capability matrix reproduces the paper's table; in addition,
//! every baseline is actually *run* on the workload so the table can be backed
//! empirically: a system "covers" a workload query if it produces at least one
//! SQL statement that executes on the warehouse.

use soda_baselines::{all_baselines, capability_matrix, QueryFeature, Support};
use soda_core::EngineSnapshot;
use soda_relation::InvertedIndex;

use crate::workload::workload;

/// Empirical outcome of one system on the workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemCoverage {
    /// System name.
    pub system: String,
    /// Ids of workload queries the system produced an executable answer for.
    pub answered: Vec<String>,
    /// Declared support per feature (Table 5 row cells).
    pub support: Vec<Support>,
}

/// The data behind Table 5.
#[derive(Debug, Clone, PartialEq)]
pub struct Table5 {
    /// Feature rows in paper order, with the workload queries requiring them.
    pub features: Vec<(QueryFeature, Vec<String>)>,
    /// Per-system coverage (baselines plus SODA, in paper column order).
    pub systems: Vec<SystemCoverage>,
}

/// Runs every baseline plus SODA (`engine`) on the workload, the baselines
/// over the engine's base data.
pub fn table5(engine: &EngineSnapshot) -> Table5 {
    let database = engine.database();
    let index = InvertedIndex::build(database);
    let queries = workload();

    let features = QueryFeature::all()
        .iter()
        .map(|f| {
            (
                *f,
                queries
                    .iter()
                    .filter(|q| q.features.contains(f))
                    .map(|q| q.id.to_string())
                    .collect(),
            )
        })
        .collect();

    let declared = capability_matrix();
    let mut systems = Vec::new();
    for baseline in all_baselines() {
        let mut answered = Vec::new();
        for q in &queries {
            let Some(answer) = baseline.answer(database, &index, q.keywords) else {
                continue;
            };
            let executes = answer
                .sql
                .first()
                .map(|sql| database.run_sql(sql).is_ok())
                .unwrap_or(false);
            if executes {
                answered.push(q.id.to_string());
            }
        }
        let support = declared
            .iter()
            .find(|c| c.system == baseline.name())
            .map(|c| c.support.clone())
            .unwrap_or_default();
        systems.push(SystemCoverage {
            system: baseline.name().to_string(),
            answered,
            support,
        });
    }

    // SODA itself.
    let mut answered = Vec::new();
    for q in &queries {
        let produced = engine
            .search(q.keywords)
            .map(|results| !results.is_empty())
            .unwrap_or(false);
        if produced {
            answered.push(q.id.to_string());
        }
    }
    systems.push(SystemCoverage {
        system: "SODA".to_string(),
        answered,
        support: declared
            .iter()
            .find(|c| c.system == "SODA")
            .map(|c| c.support.clone())
            .unwrap_or_default(),
    });

    Table5 { features, systems }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_core::SodaConfig;
    use soda_warehouse::enterprise::{self, EnterpriseConfig};

    #[test]
    fn soda_answers_every_workload_query_and_baselines_answer_fewer() {
        let (db, graph) = enterprise::build_with(EnterpriseConfig {
            seed: 42,
            padding: false,
            data_scale: 0.1,
        })
        .shared_parts();
        let t = table5(&EngineSnapshot::build(db, graph, SodaConfig::default()));
        assert_eq!(t.systems.len(), 6);
        let soda = t.systems.iter().find(|s| s.system == "SODA").unwrap();
        assert_eq!(soda.answered.len(), 13, "SODA must answer all queries");
        for s in &t.systems {
            if s.system != "SODA" {
                assert!(
                    s.answered.len() < 13,
                    "{} unexpectedly answered every query",
                    s.system
                );
            }
        }
        // SQAK answers only aggregate-style queries.
        let sqak = t.systems.iter().find(|s| s.system == "SQAK").unwrap();
        assert!(sqak.answered.iter().all(|id| id == "9.0" || id == "10.0"));
        // Feature rows cover all six query types.
        assert_eq!(t.features.len(), 6);
    }
}
