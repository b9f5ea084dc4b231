//! The synthetic enterprise warehouse.
//!
//! This is the substitution for the Credit Suisse integration-layer warehouse
//! the paper evaluates on: a populated core schema (trading chain, customer
//! inheritance with bi-temporal name history, bridge tables between
//! inheritance siblings) plus *padding* subject areas that scale the metadata
//! graph up to the exact Table 1 complexity (226 conceptual entities, 436
//! logical entities, 472 physical tables, 3181 columns).

pub mod data;
pub mod ontology;
mod padding;
mod schema;

use soda_relation::Database;

use self::padding::PaddingTargets;
use crate::graph_builder::build_graph;
use crate::model::Warehouse;

/// Configuration of the enterprise warehouse builder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnterpriseConfig {
    /// Seed for the deterministic data generator.
    pub seed: u64,
    /// Whether to add the padding subject areas that bring the schema-graph
    /// statistics up to Table 1 of the paper.
    pub padding: bool,
    /// Multiplier on the transactional row counts (1.0 ≈ 2.5k trade orders).
    pub data_scale: f64,
}

impl Default for EnterpriseConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            padding: true,
            data_scale: 1.0,
        }
    }
}

/// Builds the enterprise warehouse with the default configuration except for
/// the seed.
pub fn build(seed: u64) -> Warehouse {
    build_with(EnterpriseConfig {
        seed,
        ..EnterpriseConfig::default()
    })
}

/// Builds the enterprise warehouse from an explicit configuration.
///
/// The metadata graph reproduces the paper's historisation gap: the
/// `*_name_hist` join keys are *not* annotated, which caps the recall of
/// Q2.1/Q2.2 at the share of current names.  Use
/// [`build_with_historization`] for the annotated variant.
pub fn build_with(config: EnterpriseConfig) -> Warehouse {
    build_internal(config, false, 1.0)
}

/// Builds the enterprise warehouse *with* bi-temporal historization
/// annotations in the metadata graph — the paper's proposed remedy for the
/// Q2.1/Q2.2 recall loss (§5.2.1) and part of its future work (§7).  The base
/// data is identical to [`build_with`]; only the metadata graph differs (the
/// historization join relationships become explicit join nodes and
/// historization nodes describe the validity columns).
pub fn build_with_historization(config: EnterpriseConfig) -> Warehouse {
    build_internal(config, true, 1.0)
}

/// Builds the enterprise warehouse with independently scaled *dimension*
/// tables: `dimension_scale` multiplies the party-rooted row counts
/// (individuals, organizations, and through them addresses, agreements,
/// accounts and employments) on top of `config.data_scale`'s transactional
/// scaling.  Schema and metadata graph are unchanged.
///
/// This exists for lookup-layer benchmarks: shared text values such as
/// "Switzerland" or the currency codes then occur in many rows spread over
/// *many* tables — and, in a sharded inverted index, over many shards.
pub fn build_with_dimensions(config: EnterpriseConfig, dimension_scale: f64) -> Warehouse {
    build_internal(config, false, dimension_scale)
}

fn build_internal(
    config: EnterpriseConfig,
    annotate_historization: bool,
    dimension_scale: f64,
) -> Warehouse {
    let mut model = schema::core_model_annotated(annotate_historization);
    if config.padding {
        padding::pad_model(&mut model, PaddingTargets::default());
    }
    let mut database = Database::new();
    for schema in &model.physical {
        database.create_table(schema.clone()).expect("create table");
    }
    data::populate_scaled(
        &mut database,
        config.seed,
        config.data_scale,
        dimension_scale,
    );
    let graph = build_graph(&model, &ontology::ontology(), &ontology::synonyms());
    Warehouse {
        database,
        graph,
        model,
        name: if annotate_historization {
            "enterprise-historization-annotated".to_string()
        } else {
            "enterprise".to_string()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_warehouse_matches_table1_statistics() {
        let w = build_with(EnterpriseConfig {
            seed: 42,
            padding: true,
            data_scale: 0.1,
        });
        let s = w.stats();
        assert_eq!(s.conceptual_entities, 226);
        assert_eq!(s.logical_entities, 436);
        assert_eq!(s.physical_tables, 472);
        assert_eq!(s.physical_columns, 3181);
        assert_eq!(w.database.table_count(), 472);
    }

    #[test]
    fn dimension_scaling_multiplies_parties_and_keeps_pinned_rows() {
        let config = EnterpriseConfig {
            seed: 42,
            padding: false,
            data_scale: 0.05,
        };
        let base = build_with(config);
        let big = build_with_dimensions(config, 3.0);
        let rows = |w: &Warehouse, t: &str| w.database.table(t).unwrap().rows().len();
        assert_eq!(rows(&big, "individual"), 3 * rows(&base, "individual"));
        assert_eq!(rows(&big, "organization"), 3 * rows(&base, "organization"));
        assert_eq!(rows(&big, "agreement_td"), 3 * rows(&base, "agreement_td"));
        // The engineered distributions are pinned to absolute ids and must
        // survive dimension scaling exactly.
        for w in [&base, &big] {
            let saras = w
                .database
                .run_sql("SELECT party_id FROM individual WHERE given_name = 'Sara'")
                .unwrap();
            assert_eq!(saras.row_count(), data::CURRENT_SARA);
        }
    }

    #[test]
    fn unpadded_warehouse_contains_only_the_core_tables() {
        let w = build_with(EnterpriseConfig {
            seed: 42,
            padding: false,
            data_scale: 0.1,
        });
        assert_eq!(w.database.table_count(), 16);
        assert!(w.database.total_rows() > 1_000);
    }

    #[test]
    fn graph_scale_grows_with_padding() {
        let small = build_with(EnterpriseConfig {
            seed: 42,
            padding: false,
            data_scale: 0.05,
        });
        let large = build_with(EnterpriseConfig {
            seed: 42,
            padding: true,
            data_scale: 0.05,
        });
        assert!(large.graph.node_count() > small.graph.node_count() * 5);
        assert!(large.graph.edge_count() > small.graph.edge_count() * 5);
    }

    #[test]
    fn historization_annotations_are_optional_and_only_touch_the_graph() {
        use soda_metagraph::builder::{preds, types};
        let config = EnterpriseConfig {
            seed: 42,
            padding: false,
            data_scale: 0.1,
        };
        let plain = build_with(config);
        let annotated = build_with_historization(config);

        // Base data is identical; only the metadata differs.
        assert_eq!(plain.database.total_rows(), annotated.database.total_rows());

        // The plain graph hides the historisation joins (the paper's gap)…
        assert!(plain.graph.node("hist/individual_name_hist").is_none());
        let plain_fk = plain
            .graph
            .node("phys/individual_name_hist/party_id")
            .unwrap();
        assert!(plain.graph.objects_of(plain_fk, "join").is_empty());
        assert!(plain
            .graph
            .objects_of(plain_fk, preds::FOREIGN_KEY)
            .is_empty());

        // …while the annotated graph carries historization nodes and explicit
        // join nodes for the same physical keys.
        let hist_node = annotated.graph.node("hist/individual_name_hist").unwrap();
        assert!(annotated
            .graph
            .has_type(hist_node, types::HISTORIZATION_NODE));
        assert_eq!(
            annotated.graph.text_of(hist_node, preds::VALID_TO_COLUMN),
            Some("valid_to")
        );
        let annotated_fk = annotated
            .graph
            .node("phys/individual_name_hist/party_id")
            .unwrap();
        assert!(!annotated.graph.objects_of(annotated_fk, "join").is_empty());
        assert_eq!(annotated.model.historization.len(), 2);
    }

    #[test]
    fn build_is_deterministic() {
        let a = build_with(EnterpriseConfig {
            seed: 7,
            padding: false,
            data_scale: 0.1,
        });
        let b = build_with(EnterpriseConfig {
            seed: 7,
            padding: false,
            data_scale: 0.1,
        });
        assert_eq!(a.database.total_rows(), b.database.total_rows());
        assert_eq!(
            a.database.table("individual").unwrap().rows(),
            b.database.table("individual").unwrap().rows()
        );
    }
}
