//! The streaming scale cell behind `msweb scale` and the `scale` bench.
//!
//! A cell streams `n` requests through the indexed master/slave
//! composition on `p` nodes at λ = `lambda_per_p`·p. The arrival rate
//! and workload stats come from a bounded probe prefix of the same
//! generator stream (the arrival process is stationary, so a 50k sample
//! pins the scaling factor without materializing the full workload), and
//! the master count from Theorem 1. [`ScaleWorkload::plan`] builds that
//! cell once; [`scale_cell`] runs it and measures wall time and peak RSS,
//! and [`parity`] checks the streamed run against the materialized one.

use std::time::Instant;

use msweb_cluster::{
    plan_masters, policy_sim_from_stats, simulate, simulate_source, ClusterConfig, ClusterSim,
    PolicyKind, RunOptions, SeriesRecorder, StageSpec, WorkloadStats,
};
use msweb_simcore::SimTime;
use msweb_workload::{DemandModel, GenSource, RateScaling, ScaledSource, TraceSpec};
use serde::Serialize;

/// The peak RSS a scale cell's process may reach.
pub const RSS_BUDGET_BYTES: u64 = 1 << 30;

/// How far the telemetry-instrumented re-run of the largest scale cell
/// may move peak RSS.
pub const TELEMETRY_DELTA_BUDGET_BYTES: u64 = 128 * 1024 * 1024;

/// The (p, n) sizes of the streamed-vs-materialized parity gate.
pub const PARITY_CELLS: [(usize, usize); 2] = [(32, 20_000), (128, 20_000)];

/// The dynamic-to-static demand ratio 1/r of every scale workload.
const INV_R: f64 = 40.0;

/// The most requests materialized to measure arrival rate and stats.
const PROBE_LEN: usize = 50_000;

/// What every cell of one scale grid shares: the trace family, the seed
/// and the per-node arrival rate.
#[derive(Debug, Clone)]
pub struct ScaleWorkload {
    /// The synthetic trace family the requests are drawn from.
    pub spec: TraceSpec,
    /// Seed of the generator and of the cluster.
    pub seed: u64,
    /// Arrival rate per node (req/s); a cell on `p` nodes runs at
    /// `lambda_per_p`·p.
    pub lambda_per_p: f64,
}

/// One cell's cluster and scaled request stream, built once and run as
/// often as needed.
pub struct ScalePlan<'a> {
    workload: &'a ScaleWorkload,
    n: usize,
    scaling: RateScaling,
    stats: WorkloadStats,
    config: ClusterConfig,
}

impl ScaleWorkload {
    /// The arrival rate of a cell on `p` nodes.
    pub fn lambda(&self, p: usize) -> f64 {
        self.lambda_per_p * p as f64
    }

    /// The M/S cluster on `p` nodes with its Theorem-1 master count.
    pub fn config(&self, p: usize) -> ClusterConfig {
        let m = plan_masters(
            p,
            self.lambda(p),
            self.spec.arrival_ratio_a(),
            1.0 / INV_R,
            1200.0,
        );
        ClusterConfig::simulation(p, PolicyKind::MasterSlave)
            .with_masters(m)
            .with_seed(self.seed)
    }

    /// Build the cell of `n` requests on `p` nodes: measure the rate
    /// scaling and workload stats from the probe prefix.
    pub fn plan(&self, p: usize, n: usize) -> ScalePlan<'_> {
        let probe = self.spec.generate(n.min(PROBE_LEN), &demand(), self.seed);
        let t0 = probe
            .requests
            .first()
            .map(|r| r.arrival)
            .unwrap_or(SimTime::ZERO);
        ScalePlan {
            workload: self,
            n,
            scaling: RateScaling::to_rate(probe.mean_rate(), t0, self.lambda(p)),
            stats: WorkloadStats::from_trace(&probe),
            config: self.config(p),
        }
    }
}

impl ScalePlan<'_> {
    /// A fresh simulator for this cell, labelled with its stage spec.
    pub fn sim(&self) -> ClusterSim {
        policy_sim_from_stats(self.config.clone(), self.stats).with_spec_label(spec_label())
    }

    /// The cell's request stream, rate-scaled on the fly.
    pub fn source(&self) -> ScaledSource<GenSource> {
        let w = self.workload;
        ScaledSource::new(w.spec.stream(self.n, &demand(), w.seed), self.scaling)
    }
}

fn demand() -> DemandModel {
    DemandModel::simulation(INV_R)
}

fn spec_label() -> String {
    StageSpec::for_policy(PolicyKind::MasterSlave).render()
}

/// One scale cell's outcome.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScaleCell {
    /// Nodes.
    pub p: usize,
    /// Requests streamed.
    pub n: usize,
    /// Arrival rate (req/s).
    pub lambda: f64,
    /// The scheduler's rendered stage spec.
    pub spec: String,
    /// Wall time of the run (s).
    pub wall_s: f64,
    /// Peak RSS of the process that ran this cell alone.
    pub peak_rss_bytes: u64,
    /// The most nodes that held work at once: the buffer sets the
    /// fleet's node pool lent out at its peak (deterministic).
    pub peak_busy_nodes: usize,
    /// Requests per second of wall time.
    pub throughput_req_per_s: f64,
    /// Requests completed.
    pub completed: u64,
    /// Requests dropped.
    pub dropped: u64,
    /// Mean stretch factor.
    pub stretch: f64,
    /// Node completions that matched no in-flight request (a degraded
    /// path; zero in a correct run).
    pub stale_completions: u64,
}

/// The streamed-vs-materialized parity gate at one size.
#[derive(Debug, Clone, Serialize)]
pub struct ScaleParity {
    /// Nodes.
    pub p: usize,
    /// Requests.
    pub n: usize,
    /// Whether the two summaries serialise to the same bytes.
    pub byte_identical: bool,
}

/// The telemetry-neutrality gate: the largest cell re-run with the
/// probe and a streaming series recorder attached, in the process that
/// just ran it uninstrumented, must not move peak RSS by more than
/// [`TELEMETRY_DELTA_BUDGET_BYTES`]. The probe's window ring and the
/// recorder's delta baseline are O(1) in run length, so any O(windows)
/// or O(requests) growth shows up here.
#[derive(Debug, Clone, Serialize)]
pub struct ScaleTelemetryCheck {
    /// Nodes.
    pub p: usize,
    /// Requests.
    pub n: usize,
    /// Wall time of the instrumented run (s).
    pub wall_s: f64,
    /// Peak RSS after the plain run.
    pub rss_before_bytes: u64,
    /// Peak RSS after the instrumented run.
    pub rss_after_bytes: u64,
    /// The largest allowed difference.
    pub budget_max_delta_bytes: u64,
    /// Whether the difference is within budget (or RSS is unreadable).
    pub ok: bool,
}

/// What one scale child process reports: its cell and, for the largest
/// cell, the telemetry-neutrality pair.
#[derive(Debug, Clone, Serialize)]
pub struct ScaleChildReport {
    /// The plain run.
    pub cell: ScaleCell,
    /// The instrumented re-run, when asked for.
    pub telemetry: Option<ScaleTelemetryCheck>,
}

/// Run the cell of `n` requests on `p` nodes in this process; with
/// `telemetry`, re-run it with the window probe and a streaming series
/// recorder attached (records drained to a sink) for the
/// telemetry-neutrality gate.
pub fn scale_cell(
    workload: &ScaleWorkload,
    p: usize,
    n: usize,
    telemetry: bool,
) -> ScaleChildReport {
    let plan = workload.plan(p, n);
    let mut plain = plan.sim();
    let started = Instant::now();
    let s = plain.run_source(plan.source());
    let wall_s = started.elapsed().as_secs_f64();
    let rss_before = peak_rss_bytes();
    let cell = ScaleCell {
        p,
        n,
        lambda: workload.lambda(p),
        spec: spec_label(),
        wall_s,
        peak_rss_bytes: rss_before,
        peak_busy_nodes: plain.peak_busy_nodes(),
        throughput_req_per_s: n as f64 / wall_s,
        completed: s.completed,
        dropped: s.dropped,
        stretch: s.stretch,
        stale_completions: plain.stale_completions(),
    };
    drop(plain);

    let telemetry = telemetry.then(|| {
        let recorder = SeriesRecorder::to_writer(Box::new(std::io::sink()));
        let mut instrumented = plan.sim().with_series(recorder);
        let started = Instant::now();
        let _ = instrumented.run_source(plan.source());
        let wall_s = started.elapsed().as_secs_f64();
        let rss_after = peak_rss_bytes();
        ScaleTelemetryCheck {
            p,
            n,
            wall_s,
            rss_before_bytes: rss_before,
            rss_after_bytes: rss_after,
            budget_max_delta_bytes: TELEMETRY_DELTA_BUDGET_BYTES,
            ok: rss_after == 0
                || rss_after.saturating_sub(rss_before) <= TELEMETRY_DELTA_BUDGET_BYTES,
        }
    });
    ScaleChildReport { cell, telemetry }
}

/// Run `n` requests on `p` nodes both materialized and streamed and
/// compare the summaries' JSON byte for byte.
pub fn parity(workload: &ScaleWorkload, p: usize, n: usize) -> ScaleParity {
    let trace = workload
        .spec
        .generate(n, &demand(), workload.seed)
        .scaled_to_rate(workload.lambda(p));
    let cfg = workload.config(p);
    let materialized = simulate(cfg.clone(), &trace, RunOptions::new()).summary;
    let stats = WorkloadStats::from_trace(&trace);
    let streamed = simulate_source(cfg, trace.source(), stats, RunOptions::new()).summary;
    ScaleParity {
        p,
        n,
        byte_identical: serde::to_json_string(&materialized) == serde::to_json_string(&streamed),
    }
}

/// Process-wide peak RSS (`VmHWM`) in bytes, read from
/// `/proc/self/status`; 0 when unavailable (non-Linux hosts). The
/// high-water mark is monotone over the process lifetime, which is why
/// `msweb scale` runs each cell in a process of its own.
pub fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use msweb_workload::ucb;

    fn workload() -> ScaleWorkload {
        ScaleWorkload {
            spec: ucb(),
            seed: 42,
            lambda_per_p: 31.25,
        }
    }

    #[test]
    fn small_cell_completes_every_request() {
        let (p, n) = (64, 5_000);
        let report = scale_cell(&workload(), p, n, true);
        let cell = &report.cell;
        assert_eq!(cell.completed, n as u64);
        assert_eq!(cell.dropped, 0);
        assert_eq!(cell.stale_completions, 0);
        assert!(cell.peak_busy_nodes <= p, "{cell:?}");
        assert!(report.telemetry.is_some());
        assert!(scale_cell(&workload(), p, n, false).telemetry.is_none());
    }

    #[test]
    fn cell_is_deterministic_apart_from_measurements() {
        let run = || {
            let mut cell = scale_cell(&workload(), 64, 5_000, false).cell;
            cell.wall_s = 0.0;
            cell.peak_rss_bytes = 0;
            cell.throughput_req_per_s = 0.0;
            cell
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn streamed_run_matches_materialized_at_p32() {
        assert!(parity(&workload(), 32, 20_000).byte_identical);
    }
}
