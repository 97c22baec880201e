//! # dve-experiments — reproduction harness for the paper's evaluation
//!
//! One function per table and figure of *“Towards Estimation Error
//! Guarantees for Distinct Values”* §6 (plus the §3 lower-bound
//! demonstration), built on:
//!
//! * [`config`] — the paper's grid (sampling fractions 0.2–6.4%, ten
//!   trials, the six plotted estimators);
//! * [`runner`] — paired sampling + estimation + aggregation;
//! * [`figures`] — the experiment definitions (`fig1` … `fig16`, `tab1`,
//!   `tab2`, `lb`);
//! * [`report`] — text/CSV/JSON rendering;
//! * [`audit`] — the accuracy-audit sweep behind `dve audit`: shadow
//!   ground truth, per-cell ratio-error / coverage aggregation, and the
//!   baseline regression gate (`BENCH_accuracy.json`);
//! * [`minijson`] — the dependency-free JSON writer and reader the gates
//!   use for baselines (re-exported from `dve-obs`, where the serve API
//!   shares it).
//!
//! Run everything with the bundled binary:
//!
//! ```text
//! cargo run --release -p dve-experiments --bin repro -- all
//! cargo run --release -p dve-experiments --bin repro -- fig2 tab1 --fast
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod config;
pub mod figures;
pub mod report;
pub mod runner;

pub use dve_obs::minijson;
pub use figures::{all_experiments, experiment_by_id, ExperimentCtx};
pub use report::ExperimentReport;
