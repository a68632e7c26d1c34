//! # msweb-simcore
//!
//! Discrete-event simulation core shared by the `msweb` workspace — the
//! reproduction of *Scheduling Optimization for Resource-Intensive Web
//! Requests on Server Clusters* (Zhu, Smith, Yang; SPAA 1999).
//!
//! This crate is deliberately application-agnostic. It provides:
//!
//! * [`time`] — integer-microsecond simulation clocks ([`SimTime`],
//!   [`SimDuration`]);
//! * [`event`] — a keyed min-heap holding one next-event time per
//!   component ([`KeyedHeap`]);
//! * [`rng`] — a deterministic, splittable xoshiro256++ generator
//!   ([`SimRng`]);
//! * [`dist`] — the distributions the workload and OS models draw from;
//! * [`stats`] — Welford statistics, exact quantiles, time-weighted
//!   integrals, and the paper's stretch-factor accumulator;
//! * [`hist`] — fixed-footprint log-bucketed histograms
//!   ([`LogHistogram`]) cheap enough for scheduler hot paths and
//!   mergeable across parallel sweep workers;
//! * [`pool`] — a scoped-thread worker pool ([`parallel_map`]) with
//!   submission-order result collection, paired with the stateless
//!   [`split_seed`] so parallel sweeps stay bit-identical to sequential
//!   runs.
//!
//! Everything is deterministic given a seed: the same configuration always
//! produces the same simulated history, which the cross-crate integration
//! tests depend on.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dist;
pub mod event;
pub mod hist;
pub mod pool;
pub mod rng;
pub mod stats;
pub mod time;

pub use dist::{
    BoundedPareto, Constant, Dist, Distribution, Empirical, Exponential, LogNormal,
    ShiftedExponential, Uniform,
};
pub use event::KeyedHeap;
pub use hist::{HistDelta, LogHistogram};
pub use pool::parallel_map;
pub use rng::{split_seed, SimRng};
pub use stats::{OnlineStats, Quantiles, StretchAccumulator, TimeWeighted};
pub use time::{SimDuration, SimTime};
