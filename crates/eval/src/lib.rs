//! # soda-eval
//!
//! The evaluation harness of the SODA reproduction: the experiment workload of
//! Table 2 with hand-written gold-standard SQL, tuple-level precision/recall
//! metrics, and drivers that regenerate every table and figure of the paper's
//! evaluation section (Tables 1–5, Figures 1–10).
//!
//! The entry points are:
//!
//! * [`workload::workload`] — the 13 experiment queries (Table 2),
//! * [`experiments::run_workload`] — runs SODA on the full workload and
//!   computes precision/recall, complexity and runtimes (Tables 3 and 4),
//! * [`experiments::table1`], [`experiments::table5`],
//!   [`experiments::figures`] — the remaining tables and figures,
//! * [`experiments::ablations`], [`experiments::historization`] — the design
//!   decisions switched off one at a time, and the extensions beyond the
//!   paper's evaluation,
//! * [`report`] — renders everything in the paper's tabular style.

#![warn(unreachable_pub)]

pub mod experiments;
mod metrics;
pub mod report;
pub mod workload;

pub use experiments::{run_workload, QueryEvaluation};
pub use metrics::{evaluate, PrecisionRecall};
pub use workload::{workload, WorkloadQuery};
