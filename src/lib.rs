//! # msweb — master/slave scheduling for resource-intensive Web requests
//!
//! A full Rust reproduction of *Scheduling Optimization for
//! Resource-Intensive Web Requests on Server Clusters* (Huican Zhu, Ben
//! Smith, Tao Yang — SPAA 1999): the analytic queueing models and
//! Theorem 1, the RSRC cost predictor, reservation-based master/slave
//! scheduling, the trace-driven cluster simulator with its BSD-style node
//! OS model, synthetic regenerations of the paper's four Web traces, and
//! a live thread-backed cluster emulation for validating the simulator.
//!
//! ## Crates
//!
//! | crate | contents |
//! |-------|----------|
//! | [`simcore`] | event queue, deterministic RNG, distributions, statistics |
//! | [`queueing`] | Section 3: Flat / M/S / M/S′ stretch models, Theorem 1 |
//! | [`ossim`] | §5.1 node OS model: MLFQ CPU, round-robin disk, paging |
//! | [`workload`] | Table 1 trace generators, SPECweb96 file set, CGI models |
//! | [`cluster`] | the contribution: dispatcher, RSRC, reservation, simulator |
//! | [`emu`] | live thread-backed cluster (the Sun-prototype substitute) |
//! | [`bench`](mod@bench) | the experiment suite: parallel sweeps, the typed [`ExperimentRunner`](bench::ExperimentRunner) |
//!
//! ## Quickstart
//!
//! ```
//! use msweb::prelude::*;
//!
//! // A CGI-heavy workload on a 16-node cluster.
//! let trace = ucb()
//!     .generate(2_000, &DemandModel::simulation(40.0), 42)
//!     .scaled_to_rate(400.0);
//!
//! // Plan the master level with Theorem 1...
//! let m = plan_masters(16, 400.0, ucb().arrival_ratio_a(), 1.0 / 40.0, 1200.0);
//!
//! // ...then replay under the paper's policy and the flat baseline.
//! let ms = ClusterConfig::simulation(16, PolicyKind::MasterSlave).with_masters(m);
//! let ms_run = simulate(ms, &trace, RunOptions::new()).summary;
//!
//! let flat_run = simulate(
//!     ClusterConfig::simulation(16, PolicyKind::Flat),
//!     &trace,
//!     RunOptions::new(),
//! )
//! .summary;
//!
//! assert!(ms_run.stretch <= flat_run.stretch * 1.1);
//! println!(
//!     "M/S improves stretch by {:.1}%",
//!     ms_run.improvement_over_pct(&flat_run)
//! );
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use msweb_bench as bench;
pub use msweb_cluster as cluster;
pub use msweb_emu as emu;
pub use msweb_ossim as ossim;
pub use msweb_queueing as queueing;
pub use msweb_simcore as simcore;
pub use msweb_workload as workload;

/// The commonly used items, re-exported flat.
pub mod prelude {
    pub use msweb_bench::{ExpConfig, ExperimentId, ExperimentReport, ExperimentRunner, Sweep};
    pub use msweb_cluster::{
        analyze, check_log, plan_masters, policy_sim, policy_sim_from_stats, render_top, simulate,
        simulate_source, table2_grid, AnalysisReport, AttainedService, ClusterConfig, ClusterSim,
        CollectingObserver, ConfigError, DecisionObserver, DecisionRecord, DropRecord,
        DynScheduler, FailureEvent, FailurePlan, GreedyRegion, GridCell, JsonlSink, Level,
        LoadMonitor, MasterSelection, Metrics, NearestRegion, Placement, PlacementError,
        PolicyKind, RegionSelector, RegionTopology, RegionView, ReplayError, ReplayOptions,
        ReqKnowledge, ReservationController, RsrcPredictor, RunOptions, RunOutcome, RunSummary,
        SchedTelemetry, Schedule, Scheduler, SchedulerRegistry, ScorerPaths, SeriesRecorder,
        SloCheckReport, SloEngine, SloRules, StageKind, StageSpec, TelemetryProbe,
        TelemetrySnapshot, TraceEvent, TraceLog, WindowSample, WorkloadStats,
    };
    pub use msweb_emu::{emulate, emulate_source, MetricsServer, Realtime};
    pub use msweb_ossim::{DemandSpec, Node, OsParams};
    pub use msweb_queueing::{
        figure3, plan, reservation_bound, Fig3Config, FlatModel, HeteroCluster, MsModel,
        MsPrimeModel, ThetaRule, Workload,
    };
    pub use msweb_simcore::{SimDuration, SimRng, SimTime};
    pub use msweb_workload::{
        adl, all_traces, dec, ksu, replayed_traces, ucb, CgiKind, DemandModel, DemandVisibility,
        FileSet, GenSource, RateScaling, RegionMix, Request, RequestClass, RequestSource,
        ScaledSource, ServiceDemand, Trace, TraceSpec,
    };
}
