//! The static capability matrix behind Table 5 of the paper.
//!
//! The paper derives most of this table from the published descriptions of the
//! systems (only Keymantic could be run); we expose the same declaration here
//! and additionally verify it empirically in `soda-eval` by running our
//! baseline implementations on the workload.

use crate::all_baselines;
use crate::feature::{QueryFeature, Support};

/// Declared capabilities of one system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemCapability {
    /// System name.
    pub system: String,
    /// Support per feature, in [`QueryFeature::all`] order.
    pub support: Vec<Support>,
}

/// The capability matrix of every baseline plus SODA itself (last row).
pub fn capability_matrix() -> Vec<SystemCapability> {
    let mut rows: Vec<SystemCapability> = all_baselines()
        .iter()
        .map(|b| SystemCapability {
            system: b.name().to_string(),
            support: QueryFeature::all().iter().map(|f| b.support(*f)).collect(),
        })
        .collect();
    rows.push(SystemCapability {
        system: "SODA".to_string(),
        support: QueryFeature::all().iter().map(|_| Support::Yes).collect(),
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_matches_table5_of_the_paper() {
        let matrix = capability_matrix();
        assert_eq!(matrix.len(), 6);
        let row =
            |name: &str| -> &SystemCapability { matrix.iter().find(|r| r.system == name).unwrap() };
        // Base data row: (X) (X) X NO (NO) X
        assert_eq!(row("DBExplorer").support[0], Support::Partial);
        assert_eq!(row("DISCOVER").support[0], Support::Partial);
        assert_eq!(row("BANKS").support[0], Support::Yes);
        assert_eq!(row("SQAK").support[0], Support::No);
        assert_eq!(row("Keymantic").support[0], Support::FailsAtScale);
        assert_eq!(row("SODA").support[0], Support::Yes);
        // Schema row: only BANKS, Keymantic and SODA.
        assert_eq!(row("BANKS").support[1], Support::Yes);
        assert_eq!(row("Keymantic").support[1], Support::Yes);
        assert_eq!(row("DBExplorer").support[1], Support::No);
        // Inheritance and predicates: SODA only.
        for system in ["DBExplorer", "DISCOVER", "BANKS", "SQAK", "Keymantic"] {
            assert_eq!(row(system).support[2], Support::No);
            assert_eq!(row(system).support[4], Support::No);
        }
        // Domain ontology: Keymantic partially, SODA fully.
        assert_eq!(row("Keymantic").support[3], Support::Partial);
        assert_eq!(row("SODA").support[3], Support::Yes);
        // Aggregates: SQAK and SODA.
        assert_eq!(row("SQAK").support[5], Support::Yes);
        assert_eq!(row("SODA").support[5], Support::Yes);
    }
}
