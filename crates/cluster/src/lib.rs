//! # msweb-cluster
//!
//! The paper's primary contribution: reservation-based scheduling for a
//! master/slave Web-server cluster (*Scheduling Optimization for
//! Resource-Intensive Web Requests on Server Clusters*, Zhu/Smith/Yang,
//! SPAA 1999).
//!
//! The pieces, mapped to the paper:
//!
//! * [`sched`] — the two-hop placement algorithm as a composable
//!   pipeline: front-end entry selection, reservation admission,
//!   candidate-set formation and minimum-RSRC scoring (§4), assembled
//!   from named stages by [`sched::SchedulerRegistry`], with
//!   [`sched::StageSpec::for_policy`] naming the stages of each
//!   [`config::PolicyKind`];
//! * [`rsrc::RsrcPredictor`] — Equation 5's relative server-site response
//!   cost, with per-class CPU weights from off-line sampling;
//! * [`reservation::ReservationController`] — the self-stabilising
//!   `θ2*` admission limit derived from Theorem 1 and on-line
//!   measurements;
//! * [`loadinfo::LoadMonitor`] — the periodically updated (hence stale)
//!   rstat-style load view;
//! * [`driver::DriverCore`] — the substrate-agnostic half of a driver
//!   (admission, completion accounting, the per-window fold and its
//!   fan-out), shared by the simulator and the live emulation;
//! * [`sim::ClusterSim`] — the trace-driven discrete-event driver over
//!   `msweb-ossim` nodes;
//! * [`config::PolicyKind`] — every contender of §5.2: Flat, M/S, M/S-ns,
//!   M/S-nr, M/S-1, M/S′, plus the HTTP-redirection baseline the paper
//!   rejects;
//! * [`failure::FailurePlan`] — §2's fail-over scenario: slave death and
//!   dynamic-request restart;
//! * [`metrics::Metrics`] — stretch factors per class and level;
//! * [`telemetry`] — zero-cost-when-disabled live telemetry: pipeline
//!   span timing, controller time series, node gauges, and the
//!   Prometheus/JSON/`top` exposition surfaces.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod config;
pub mod driver;
pub mod failure;
pub mod loadinfo;
pub mod metrics;
pub mod reservation;
pub mod rsrc;
#[deny(missing_docs)]
pub mod sched;
pub mod sim;
pub mod telemetry;

pub use cache::{CacheConfig, DynContentCache};
pub use config::{
    plan_masters, table2_grid, ClusterConfig, ConfigError, GridCell, MasterSelection,
    ParsePolicyError, PolicyKind,
};
pub use driver::{DriverCore, RunOptions, RunOutcome};
pub use failure::{FailureEvent, FailurePlan};
pub use loadinfo::{LoadMonitor, NodeLoad};
pub use metrics::{Level, Metrics, RunSummary};
pub use reservation::ReservationController;
pub use rsrc::RsrcPredictor;
pub use sched::{
    analyze, AnalysisReport, AttainedService, CollectingObserver, ComposeError, DecisionObserver,
    DecisionRecord, DropRecord, DynScheduler, GreedyRegion, JsonlSink, NearestRegion, NodeSample,
    Placement, PlacementError, RegionSelector, RegionTopology, RegionView, ReplayError,
    ReplayOptions, ReqKnowledge, RunMeta, Schedule, Scheduler, SchedulerRegistry, StageKind,
    StageSpec, TraceEvent, TraceLog,
};
pub use sim::{
    policy_sim, policy_sim_from_stats, simulate, simulate_source, ClusterSim, WorkloadStats,
};
pub use telemetry::series::{SeriesMeta, SeriesRecorder, SeriesWindowInput, SharedSeriesBuffer};
pub use telemetry::slo::{
    check_log, AlertEvent, BurnWindow, SloCheckReport, SloEngine, SloRule, SloRules, SloSignal,
    WindowSignals,
};
pub use telemetry::{
    render_top, SchedTelemetry, ScorerPaths, Stage, TelemetryProbe, TelemetrySnapshot, WindowSample,
};
