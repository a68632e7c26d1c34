//! # msweb-bench
//!
//! The experiment harness: one function per table/figure of the paper's
//! evaluation, executed through a deterministic parallel [`Sweep`] and
//! exposed behind the typed [`ExperimentRunner`] API shared by the
//! `experiments` binary, the `msweb` CLI, the criterion benches and the
//! integration tests. See DESIGN.md §4 for the experiment index and
//! EXPERIMENTS.md for recorded paper-vs-measured results.
//!
//! ```no_run
//! use msweb_bench::{ExpConfig, ExperimentId, ExperimentRunner};
//!
//! let report = ExperimentRunner::new(ExpConfig::quick())
//!     .parallelism(0) // all cores; the report is the same at any level
//!     .run(ExperimentId::Fig4a);
//! println!("{}", report.render());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod pareto;
pub mod regions;
pub mod report;
pub mod runner;
pub mod scale;
pub mod sweep;

pub use experiments::*;
pub use pareto::{
    pareto, pareto_check, CellStatus, FrontierRow, ParetoReport, ParetoRow, StageGrid,
};
pub use regions::{
    regions, regions_check, RegionScenarioRow, RegionsReport, ScenarioVerdict, REGION_POLICIES,
    SCENARIOS,
};
pub use runner::{
    AblationReport, ExperimentId, ExperimentReport, ExperimentRunner, Fig3Row, ReportData,
};
pub use sweep::{SeedMode, Sweep};
