//! Table 1 — complexity of the schema graph (conceptual, logical, physical).

use soda_warehouse::Warehouse;

/// One row of Table 1: a metric, our measured value and the paper's value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Row {
    /// Metric name as printed in the paper.
    pub metric: &'static str,
    /// Value measured on the synthetic enterprise warehouse.
    pub measured: usize,
    /// Value reported in the paper.
    pub paper: usize,
}

/// Computes Table 1 for a warehouse.
pub fn table1(warehouse: &Warehouse) -> Vec<Table1Row> {
    let s = warehouse.stats();
    vec![
        Table1Row {
            metric: "#Conceptual entities",
            measured: s.conceptual_entities,
            paper: 226,
        },
        Table1Row {
            metric: "#Conceptual attributes",
            measured: s.conceptual_attributes,
            paper: 985,
        },
        Table1Row {
            metric: "#Conceptual relationships",
            measured: s.conceptual_relationships,
            paper: 243,
        },
        Table1Row {
            metric: "#Logical entities",
            measured: s.logical_entities,
            paper: 436,
        },
        Table1Row {
            metric: "#Logical attributes",
            measured: s.logical_attributes,
            paper: 2700,
        },
        Table1Row {
            metric: "#Logical relationships",
            measured: s.logical_relationships,
            paper: 254,
        },
        Table1Row {
            metric: "#Physical tables",
            measured: s.physical_tables,
            paper: 472,
        },
        Table1Row {
            metric: "#Physical columns",
            measured: s.physical_columns,
            paper: 3181,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_warehouse::enterprise::{self, EnterpriseConfig};

    #[test]
    fn padded_enterprise_matches_the_paper_exactly() {
        let w = enterprise::build_with(EnterpriseConfig {
            seed: 42,
            padding: true,
            data_scale: 0.05,
        });
        for row in table1(&w) {
            assert_eq!(row.measured, row.paper, "mismatch for {}", row.metric);
        }
    }

    #[test]
    fn unpadded_core_is_much_smaller() {
        let w = enterprise::build_with(EnterpriseConfig {
            seed: 42,
            padding: false,
            data_scale: 0.05,
        });
        let rows = table1(&w);
        assert!(rows.iter().all(|r| r.measured < r.paper));
    }
}
