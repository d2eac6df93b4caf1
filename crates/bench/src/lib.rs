//! # ce-bench — experiment harness
//!
//! One entry point per figure/table of the paper (see DESIGN.md §4 for the
//! index). The `experiments` binary dispatches on the experiment id; each
//! experiment prints the series the paper plots and appends a JSON record
//! under `results/`.

#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod samples;
pub mod scale;

pub use report::{ExperimentRecord, MethodRow};
pub use scale::Scale;
