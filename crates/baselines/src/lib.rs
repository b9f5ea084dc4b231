//! # soda-baselines
//!
//! Capability-level re-implementations of the systems SODA is compared against
//! in Table 5 of the paper: DBExplorer, DISCOVER, BANKS, SQAK and Keymantic.
//!
//! Each baseline implements the [`BaselineSystem`] trait: it receives a
//! keyword query and the warehouse (base data plus, for Keymantic, the schema
//! metadata) and either produces SQL through the mechanism its paper describes
//! — inverted index plus key/foreign-key candidate networks for the early
//! systems, aggregate SPJG generation for SQAK, metadata-only matching for
//! Keymantic — or declines the query.  The qualitative capability matrix of
//! Table 5 is available both as a static declaration
//! ([`capability::capability_matrix`]) and empirically by running the
//! baselines on the workload (see `soda-eval`).

#![warn(unreachable_pub)]

mod banks;
mod capability;
mod dbexplorer;
mod discover;
mod feature;
mod keymantic;
mod sqak;
mod system;

pub use capability::{capability_matrix, SystemCapability};
pub use feature::{QueryFeature, Support};
pub use system::{BaselineAnswer, BaselineSystem};

/// Constructs every baseline system.
pub fn all_baselines() -> Vec<Box<dyn BaselineSystem>> {
    vec![
        Box::new(dbexplorer::DbExplorer),
        Box::new(discover::Discover),
        Box::new(banks::Banks),
        Box::new(sqak::Sqak),
        Box::new(keymantic::Keymantic::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_five_comparison_systems_are_available() {
        let names: Vec<_> = all_baselines()
            .iter()
            .map(|b| b.name().to_string())
            .collect();
        assert_eq!(
            names,
            vec!["DBExplorer", "DISCOVER", "BANKS", "SQAK", "Keymantic"]
        );
    }
}
