//! # parva-bench — the experiment harness
//!
//! Shared machinery for the per-figure binaries (`src/bin/fig*.rs`,
//! `table*.rs`, `repro_all.rs`). Each binary regenerates the rows/series
//! of one table or figure of the paper as a CSV under `results/`; see the
//! README's "Reproduction binaries" section for the index. Performance is
//! measured by `perfbench` at the repository root, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;

pub use harness::{
    evaluate_scenario, framework_names, results_dir, write_csv, FrameworkResult, ScenarioEval,
};
