//! Plain-text renderers that print each experiment in the paper's tabular
//! style (measured values side by side with the paper's reported values).

use soda_core::SodaConfig;
use soda_warehouse::Warehouse;

use crate::experiments::historization::HistorizationRow;
use crate::experiments::table1::Table1Row;
use crate::experiments::table5::Table5;
use crate::experiments::QueryEvaluation;
use crate::experiments::{engines_over, figures};
use crate::workload::WorkloadQuery;

fn hline(width: usize) -> String {
    "-".repeat(width)
}

/// Renders Table 1 (schema-graph complexity).
pub fn print_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str("Table 1: Complexity of the schema graph\n");
    out.push_str(&format!(
        "{:<28} {:>10} {:>10}\n",
        "Type", "measured", "paper"
    ));
    out.push_str(&format!("{}\n", hline(50)));
    for r in rows {
        out.push_str(&format!(
            "{:<28} {:>10} {:>10}\n",
            r.metric, r.measured, r.paper
        ));
    }
    out
}

/// Renders Table 2 (the experiment queries).
pub fn print_table2(queries: &[WorkloadQuery]) -> String {
    let mut out = String::new();
    out.push_str("Table 2: Experiment queries\n");
    out.push_str(&format!(
        "{:<6} {:<45} {:<8} {}\n",
        "Q", "Keywords", "Types", "Comment"
    ));
    out.push_str(&format!("{}\n", hline(110)));
    for q in queries {
        let flags: String = q.features.iter().map(|f| f.flag()).collect();
        out.push_str(&format!(
            "{:<6} {:<45} {:<8} {}\n",
            q.id, q.keywords, flags, q.comment
        ));
    }
    out
}

/// Renders Table 3 (precision and recall of the best result per query).
pub fn print_table3(evals: &[QueryEvaluation]) -> String {
    let mut out = String::new();
    out.push_str("Table 3: Precision and recall (measured vs paper)\n");
    out.push_str(&format!(
        "{:<6} {:>6} {:>6} {:>9} {:>9} {:>11} {:>11}\n",
        "Q", "P", "R", "paper P", "paper R", "#P,R>0", "#P,R=0"
    ));
    out.push_str(&format!("{}\n", hline(66)));
    for e in evals {
        out.push_str(&format!(
            "{:<6} {:>6.2} {:>6.2} {:>9.2} {:>9.2} {:>11} {:>11}\n",
            e.id,
            e.best.precision,
            e.best.recall,
            e.reference.paper_precision,
            e.reference.paper_recall,
            e.results_positive,
            e.results_zero
        ));
    }
    out
}

/// Renders Table 4 (query complexity and runtimes).
pub fn print_table4(evals: &[QueryEvaluation]) -> String {
    let mut out = String::new();
    out.push_str("Table 4: Query complexity and runtime\n");
    out.push_str(&format!(
        "{:<6} {:>11} {:>9} {:>14} {:>14} {:>12} {:>12}\n",
        "Q", "complexity", "#results", "SODA (ms)", "total (ms)", "paper cmplx", "paper SODA s"
    ));
    out.push_str(&format!("{}\n", hline(84)));
    for e in evals {
        out.push_str(&format!(
            "{:<6} {:>11} {:>9} {:>14.2} {:>14.2} {:>12} {:>12.2}\n",
            e.id,
            e.complexity,
            e.num_results,
            e.soda_runtime.as_secs_f64() * 1000.0,
            e.total_runtime.as_secs_f64() * 1000.0,
            e.reference.paper_complexity,
            e.reference.paper_soda_runtime_s
        ));
    }
    out
}

/// Renders Table 5 (qualitative comparison).
pub fn print_table5(table: &Table5) -> String {
    let mut out = String::new();
    out.push_str("Table 5: Qualitative comparison\n");
    out.push_str(&format!(
        "{:<18} {:<28}",
        "Query type", "Experiment queries"
    ));
    for s in &table.systems {
        out.push_str(&format!(" {:>11}", s.system));
    }
    out.push('\n');
    out.push_str(&format!("{}\n", hline(46 + 12 * table.systems.len())));
    for (i, (feature, queries)) in table.features.iter().enumerate() {
        out.push_str(&format!(
            "{:<18} {:<28}",
            feature.label(),
            queries.join(", ")
        ));
        for s in &table.systems {
            let cell = s.support.get(i).map(|sup| sup.cell()).unwrap_or("?");
            out.push_str(&format!(" {cell:>11}"));
        }
        out.push('\n');
    }
    out.push('\n');
    out.push_str("Workload queries answered end-to-end:\n");
    for s in &table.systems {
        out.push_str(&format!(
            "  {:<11} {:>2}/13: {}\n",
            s.system,
            s.answered.len(),
            s.answered.join(", ")
        ));
    }
    out
}

/// Renders the historization-annotation experiment (extension): entity recall
/// of Q2.1/Q2.2 on the paper-faithful vs. the annotated metadata graph.
pub fn print_historization(rows: &[HistorizationRow]) -> String {
    let mut out = String::new();
    out.push_str("Historization annotations (extension): entity precision/recall of Q2.1/Q2.2\n");
    out.push_str(&format!(
        "{:<6} {:<18} {:>9} {:>9} {:>9} {:>11} {:>9} {:>9} {:>11}\n",
        "Q",
        "Keywords",
        "#entities",
        "plain P",
        "plain R",
        "plain page",
        "annot P",
        "annot R",
        "annot page"
    ));
    out.push_str(&format!("{}\n", hline(100)));
    for r in rows {
        out.push_str(&format!(
            "{:<6} {:<18} {:>9} {:>9.2} {:>9.2} {:>11.2} {:>9.2} {:>9.2} {:>11.2}\n",
            r.id,
            r.keywords,
            r.gold_entities,
            r.plain_best_precision,
            r.plain_best_recall,
            r.plain_page_recall,
            r.annotated_best_precision,
            r.annotated_best_recall,
            r.annotated_page_recall
        ));
    }
    out
}

/// Renders the ablation summary: mean best-F1 of the workload per
/// configuration variant.
pub fn print_ablations(rows: &[(&str, f64)]) -> String {
    let mut out = String::new();
    out.push_str("Ablation quality summary (mean best-F1 over the 13 workload queries):\n");
    for (name, f1) in rows {
        out.push_str(&format!("  {name:<24} {f1:.3}\n"));
    }
    out
}

/// Renders the far-fetching extension: mean best-F1 of the workload per
/// join-path bound.
pub fn print_far_fetching(rows: &[(usize, f64)]) -> String {
    let mut out = String::new();
    out.push_str("Far-fetching quality (mean best-F1 over the 13 workload queries):\n");
    for (bound, f1) in rows {
        out.push_str(&format!(
            "  max_join_path_length = {bound:<2}  mean best-F1 = {f1:.3}\n"
        ));
    }
    out
}

/// Renders the re-ranking extensions: the tables of the top interpretation
/// of "Credit Suisse" per ranking variant.
pub fn print_ranking_variants(rows: &[(&str, Vec<String>)]) -> String {
    let mut out = String::new();
    out.push_str("'Credit Suisse' top interpretation per ranking variant:\n");
    for (variant, tables) in rows {
        out.push_str(&format!("  {variant:<20}: {tables:?}\n"));
    }
    out
}

/// Renders Figures 1–10: the schema figures read the mini-bank model
/// (`bank`), the pipeline figures a default-configured engine over it, and
/// Figures 9 and 10 one over the `enterprise` warehouse.  Figure 4 is a
/// timing (the share of each pipeline step in one traced query) and differs
/// from run to run.
pub fn print_figures(bank: Warehouse, enterprise: Warehouse) -> String {
    let schema_figures = [
        format!(
            "Figure 1 (conceptual schema, DOT):\n{}",
            figures::figure1_dot(&bank)
        ),
        format!(
            "Figure 2 (logical schema, DOT):\n{}",
            figures::figure2_dot(&bank)
        ),
        format!(
            "Figure 3 (metadata layers): {:?}",
            figures::figure3_layers(&bank)
        ),
    ];
    let engine = &engines_over(bank)(SodaConfig::default());
    let enterprise = &engines_over(enterprise)(SodaConfig::default());
    let (used, attached) = figures::figure9_direct_path(enterprise);
    let pipeline_figures = [
        format!(
            "Figure 4 (pipeline step shares): {:?}",
            figures::figure4_trace(engine, "customers Zurich financial instruments")
        ),
        format!(
            "Figure 5 (classification): {:?}",
            figures::figure5_classification(engine)
        ),
        format!(
            "Figure 6 (tables step): {:?}",
            figures::figure6_tables(engine)
        ),
        format!("Figure 7 (table pattern): {}", figures::figure7_pattern()),
        format!(
            "Figure 8 (foreign-key pattern): {}",
            figures::figure8_pattern()
        ),
        format!("Figure 9 (joins on direct path): used {used:?} of attached {attached:?}"),
        format!(
            "Figure 10 (schema hierarchy):\n{}",
            figures::figure10_hierarchy(enterprise)
        ),
    ];
    [schema_figures.join("\n"), pipeline_figures.join("\n")].join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::table1::Table1Row;

    #[test]
    fn table1_rendering_contains_measured_and_paper_columns() {
        let rows = vec![Table1Row {
            metric: "#Physical tables",
            measured: 472,
            paper: 472,
        }];
        let text = print_table1(&rows);
        assert!(text.contains("#Physical tables"));
        assert!(text.contains("472"));
        assert!(text.contains("paper"));
    }

    #[test]
    fn table2_rendering_lists_flags() {
        let text = print_table2(&crate::workload::workload());
        assert!(text.contains("1.0"));
        assert!(text.contains("private customers family name"));
        assert!(text.contains("DSI") || text.contains("D"));
    }

    #[test]
    fn historization_rendering_shows_both_variants() {
        let rows = vec![HistorizationRow {
            id: "2.1".into(),
            keywords: "Sara".into(),
            gold_entities: 20,
            plain_best_precision: 1.0,
            plain_best_recall: 0.2,
            plain_page_recall: 0.2,
            annotated_best_precision: 1.0,
            annotated_best_recall: 0.8,
            annotated_page_recall: 1.0,
        }];
        let text = print_historization(&rows);
        assert!(text.contains("2.1"));
        assert!(text.contains("0.20"));
        assert!(text.contains("0.80"));
        assert!(text.contains("annot page"));
    }
}
