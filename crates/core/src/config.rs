//! Configuration of the SODA engine.
//!
//! The defaults follow the paper; the switches exist so that the ablation
//! benchmarks can turn individual design decisions off (direct-path join
//! pruning, bridge-table detection, provenance-weighted ranking, the inverted
//! index over the base data, DBpedia).

use crate::provenance::Provenance;

/// Ranking weights per entry-point provenance (Step 2 of the pipeline).
///
/// The paper ranks domain-ontology hits above DBpedia hits because the
/// ontology was built by domain experts; the other weights interpolate along
/// the metadata layering of Figure 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankingWeights {
    /// Weight of a domain-ontology hit.
    pub domain_ontology: f64,
    /// Weight of a conceptual-schema hit.
    pub conceptual: f64,
    /// Weight of a logical-schema hit.
    pub logical: f64,
    /// Weight of a physical-schema hit.
    pub physical: f64,
    /// Weight of a base-data hit.
    pub base_data: f64,
    /// Weight of a DBpedia hit.
    pub dbpedia: f64,
}

impl Default for RankingWeights {
    fn default() -> Self {
        Self {
            domain_ontology: 1.0,
            conceptual: 0.9,
            logical: 0.8,
            physical: 0.7,
            base_data: 0.6,
            dbpedia: 0.4,
        }
    }
}

impl RankingWeights {
    /// Uniform weights: every provenance counts the same (used by the ranking
    /// ablation).
    pub fn uniform() -> Self {
        Self {
            domain_ontology: 1.0,
            conceptual: 1.0,
            logical: 1.0,
            physical: 1.0,
            base_data: 1.0,
            dbpedia: 1.0,
        }
    }

    /// Weight of one provenance.
    pub fn weight(&self, p: Provenance) -> f64 {
        match p {
            Provenance::DomainOntology => self.domain_ontology,
            Provenance::ConceptualSchema => self.conceptual,
            Provenance::LogicalSchema => self.logical,
            Provenance::PhysicalSchema => self.physical,
            Provenance::BaseData => self.base_data,
            Provenance::DbPedia => self.dbpedia,
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SodaConfig {
    /// How many ranked solutions continue past Step 2 (the paper's "top N").
    pub top_n: usize,
    /// Maximum number of SQL statements returned.
    pub max_results: usize,
    /// Maximum keyword-combination length tried by the lookup step.
    pub max_phrase_tokens: usize,
    /// Maximum traversal depth in the tables step.
    pub traversal_depth: usize,
    /// Maximum number of join conditions on a path between two entry-point
    /// tables ("far-fetching" control, §5.3.1): a small bound keeps results
    /// precise but may miss joins between entities that are far apart in the
    /// schema graph; raising it ("far-fetching") finds them at the cost of
    /// longer join chains and more results.
    pub max_join_path_length: usize,
    /// Whether join conditions are pruned to direct paths between entry
    /// points (Figure 9).
    pub direct_path_pruning: bool,
    /// Whether bridge tables (physical N-to-N implementations) are added.
    pub use_bridge_tables: bool,
    /// Whether the base data is consulted through the inverted index.
    pub use_inverted_index: bool,
    /// Whether DBpedia synonyms participate in the lookup.
    pub use_dbpedia: bool,
    /// Whether historization annotations in the metadata graph are exploited
    /// (temporal `valid at` predicates on annotated history tables).  A no-op
    /// on paper-faithful graphs, which carry no such annotations.
    pub use_historization: bool,
    /// Whether results are re-ranked by compactness after SQL generation
    /// (BLINKS-inspired: interpretations that connect their entry points with
    /// fewer tables and a complete join path rank higher).  Off by default —
    /// the paper's ranking uses entry-point provenance only.
    pub compactness_rerank: bool,
    /// Number of partitions ("shards") the inverted index over the base
    /// data is split into.  `1` (the default) keeps the classic monolithic
    /// index; larger values partition it by a stable hash of the owning
    /// table (the classification index is one map at every setting).
    /// A partition is the unit of ingestion side logs, of their folds and
    /// of cache retention, not of parallelism: the lookup step probes the
    /// shards inline, in order.  The merge is canonical, so generated SQL is
    /// byte-identical for every shard count.  Folded into
    /// [`fingerprint`](Self::fingerprint) like every other field.
    pub shards: usize,
    /// Ranking weights.
    pub weights: RankingWeights,
    /// Number of rows the snippet of an executed result shows.
    pub snippet_rows: usize,
}

impl SodaConfig {
    /// A stable hash over every configuration field, used by the serving
    /// layer (`soda-service`) to key its interpretation cache: two engines
    /// with different configurations must never share cached result pages,
    /// because almost every field changes what the pipeline produces.
    ///
    /// It is stamped into every journal and page-cache header, so it must
    /// not move with the toolchain: FNV-1a ([`soda_relation::fnv1a`]) over
    /// the `Debug` rendering, which covers every field by construction and
    /// keeps float fields (the ranking weights) exact.
    pub fn fingerprint(&self) -> u64 {
        soda_relation::fnv1a(0, format!("{self:?}").as_bytes())
    }
}

impl Default for SodaConfig {
    fn default() -> Self {
        Self {
            top_n: 10,
            max_results: 10,
            max_phrase_tokens: 4,
            traversal_depth: 6,
            max_join_path_length: 6,
            direct_path_pruning: true,
            use_bridge_tables: true,
            use_inverted_index: true,
            use_dbpedia: true,
            use_historization: true,
            compactness_rerank: false,
            shards: default_shards(),
            weights: RankingWeights::default(),
            snippet_rows: 20,
        }
    }
}

/// The default lookup-shard count: 1, unless the `SODA_TEST_SHARDS`
/// environment variable overrides it.
///
/// The override exists for CI: because SQL output is shard-invariant by
/// construction, the entire workspace test suite can be re-run with e.g.
/// `SODA_TEST_SHARDS=4` to exercise the multi-shard probe and merge paths
/// everywhere a test builds a default-configured engine, without touching
/// any test.
fn default_shards() -> usize {
    std::env::var("SODA_TEST_SHARDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map_or(1, |n| n.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_the_paper() {
        let c = SodaConfig::default();
        assert_eq!(c.top_n, 10);
        assert_eq!(c.snippet_rows, 20);
        assert!(c.direct_path_pruning);
        assert!(c.use_bridge_tables);
        assert!(c.use_inverted_index);
    }

    #[test]
    fn ontology_outranks_dbpedia() {
        let w = RankingWeights::default();
        assert!(w.weight(Provenance::DomainOntology) > w.weight(Provenance::DbPedia));
        assert!(w.weight(Provenance::ConceptualSchema) > w.weight(Provenance::BaseData));
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        let a = SodaConfig::default();
        let b = SodaConfig::default();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = SodaConfig {
            top_n: 25,
            ..SodaConfig::default()
        };
        assert_ne!(a.fingerprint(), c.fingerprint());
        let d = SodaConfig {
            weights: RankingWeights::uniform(),
            ..SodaConfig::default()
        };
        assert_ne!(a.fingerprint(), d.fingerprint());
        // The shard knob must invalidate service caches too.  Derived from
        // the default so the assertion holds under a SODA_TEST_SHARDS
        // override as well.
        let e = SodaConfig {
            shards: a.shards + 1,
            ..SodaConfig::default()
        };
        assert_ne!(a.fingerprint(), e.fingerprint());
    }

    /// The fingerprint is stamped into files on disk: a toolchain upgrade
    /// must not move it, or recovery would refuse every journal.
    #[test]
    fn fingerprint_is_pinned() {
        let config = SodaConfig {
            shards: 1,
            ..SodaConfig::default()
        };
        assert_eq!(config.fingerprint(), 0x211f_6887_03e3_43f2);
    }

    #[test]
    fn shard_default_is_at_least_one() {
        assert!(SodaConfig::default().shards >= 1);
    }

    #[test]
    fn uniform_weights_are_flat() {
        let w = RankingWeights::uniform();
        assert_eq!(
            w.weight(Provenance::DomainOntology),
            w.weight(Provenance::DbPedia)
        );
    }
}
