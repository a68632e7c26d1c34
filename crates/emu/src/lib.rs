//! # msweb-emu
//!
//! Live cluster emulation — the workspace's stand-in for the paper's
//! six-node Sun Ultra-1 prototype (§5.2.2). Node workers are real OS
//! threads, each running one `msweb_ossim::Node` — the simulator's own
//! machine model — in real wall-clock time ([`node`]); the dispatcher,
//! RSRC predictor, reservation controller and metrics are *the same code*
//! the simulator runs. The Table 3 validation therefore compares one
//! scheduler on one machine model across two execution substrates, and
//! every live-vs-sim difference is wall-clock overhead: wake lateness,
//! channel hops and timer noise.
//!
//! Workers wait (on their channel, or by sleep + short spin-trim) rather
//! than busy-burn CPU, so the emulation behaves identically on
//! single-core containers — see [`timing`] for the model-to-wall clock
//! and calibration helpers.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod job;
pub mod metrics_http;
pub mod node;
pub mod timing;

pub use cluster::{
    emulate, emulate_source, emulate_with, live_scheduler, LiveConfig, LiveRunOptions,
};
pub use job::{Done, Job, NodeMsg};
pub use metrics_http::MetricsServer;
pub use node::{node_worker, NodeLoadStats, NodeStats};
pub use timing::{calibrate, wait_for, wait_until, Calibration, ModelClock};
