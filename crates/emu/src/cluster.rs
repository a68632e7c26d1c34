//! The live cluster: real threads, real time, the *same* scheduler
//! value, node model and driver core as the simulator.
//!
//! [`emulate`] replays a workload against `p` node worker threads, each
//! running the simulator's OS model in real time, through
//! `msweb-cluster`'s [`DriverCore`] — the admission, completion
//! accounting and per-window fold the simulator runs — so the
//! validation experiment (the paper's Table 3) compares the *same
//! scheduling code and machine model* stepped by the simulator versus
//! run against the wall clock, as the paper compared its simulator
//! against the Sun-cluster prototype. This module keeps only what is
//! live: the model-to-wall clock, the worker channels and the
//! `/metrics` endpoint. The dispatcher is the only thread besides the
//! node workers (and the optional `/metrics` server): it closes each
//! monitor window itself, and every telemetry signal, the busy gauges
//! included, is read from the driver core's own books at that close.
//!
//! The two entry points mirror the simulator's: [`emulate`] runs
//! `cfg.policy`'s composition over a trace like `simulate`, and
//! [`emulate_source`] drives any [`Schedule`] over a streaming
//! [`RequestSource`], holding only in-flight bookkeeping, like
//! `ClusterSim::with_scheduler`. Both take the simulator's
//! [`ClusterConfig`] and [`RunOptions`]; only [`Realtime`] is live.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use msweb_cluster::{
    render_top, ClusterConfig, DriverCore, DynScheduler, RunOptions, RunOutcome, Schedule,
    WorkloadStats,
};
use msweb_ossim::LoadSnapshot;
use msweb_simcore::{SimDuration, SimTime};
use msweb_workload::{RequestSource, Trace};

use crate::job::{Done, Job, NodeMsg};
use crate::metrics_http::MetricsServer;
use crate::node::{node_worker, NodeStats};
use crate::timing::{wait_until, ModelClock};

fn to_sim(d: Duration) -> SimDuration {
    SimDuration::from_micros(d.as_micros() as u64)
}

/// The live-only side of a run: how fast model time passes and what
/// the run shows while it happens. Everything else — the cluster, the
/// policy, the seed, the monitor period (in model time) — comes from
/// the same [`ClusterConfig`] the simulator takes.
#[derive(Debug)]
pub struct Realtime {
    /// Wall seconds per model second, applied to demands, arrival
    /// spacing and the monitor period alike: 1.0 replays in real time,
    /// 0.1 runs ten times faster at identical utilisation.
    pub time_scale: f64,
    /// Render a `top`-style table to stderr after each monitor window
    /// closes: the window's controller sample and busy gauges, plus each
    /// node's in-flight and finished counts (only together with
    /// [`RunOptions::telemetry`]).
    pub top: bool,
    /// A bound `/metrics` endpoint to publish live Prometheus text to,
    /// once per monitor tick. Turns telemetry on. Binding is
    /// the caller's job ([`MetricsServer::bind`]) so address errors
    /// surface before the run starts.
    pub metrics: Option<MetricsServer>,
}

impl Realtime {
    /// Replay at `time_scale`, showing nothing while it runs.
    pub fn scaled(time_scale: f64) -> Self {
        Realtime {
            time_scale,
            top: false,
            metrics: None,
        }
    }
}

/// Replay `trace` on a live thread-backed cluster of `cfg`, driven by
/// `cfg.policy`'s stage composition with priors estimated from the
/// trace — as [`simulate`](msweb_cluster::simulate) builds its run.
/// Blocks until every request completes and returns the same outcome
/// type the simulator produces. Response times and demands are
/// reported in *scaled* time, so stretch factors are directly
/// comparable with simulation runs of the same workload.
pub fn emulate(cfg: ClusterConfig, trace: &Trace, opts: RunOptions, rt: Realtime) -> RunOutcome {
    let stats = WorkloadStats::from_trace(trace);
    let scheduler = DynScheduler::for_policy(&cfg, stats.a0, stats.r0);
    emulate_source(cfg, trace.source(), stats, scheduler, None, opts, rt)
}

/// Drive a streaming [`RequestSource`] on the live cluster of `cfg`
/// with an explicit `scheduler` — the same [`Schedule`] surface
/// `ClusterSim::with_scheduler` drives — which the caller built for
/// `cfg` from `stats`' priors; `spec` labels a registry composition in
/// the decision log's meta line and in telemetry, like
/// `ClusterSim::with_spec_label`. The caller supplies [`WorkloadStats`]
/// (see [`WorkloadStats::from_trace`] for the materialized
/// equivalent); per-request bookkeeping is dropped on completion and
/// response times are kept as counts per distinct microsecond, so
/// memory stays O(in-flight requests + distinct response times)
/// regardless of stream length.
///
/// The monitor ticks every period while work remains, through the
/// drain after the last arrival too, and the run ends by closing its
/// last, partial window — so every completion and drop reaches the
/// series, the SLO engine and the decision log, and even a run shorter
/// than one period yields one window. Each window close derives the
/// per-node busy gauges from the refreshed load view (1 − CPU idle
/// ratio), as the simulator does, then publishes to `/metrics` and
/// renders `top` when asked.
pub fn emulate_source<S: Schedule, Src: RequestSource>(
    cfg: ClusterConfig,
    mut source: Src,
    stats: WorkloadStats,
    scheduler: S,
    spec: Option<String>,
    opts: RunOptions,
    rt: Realtime,
) -> RunOutcome {
    cfg.validate().expect("invalid cluster configuration");
    // Model time zero: the node workers and the replay share this clock.
    let clock = ModelClock::new(Instant::now(), rt.time_scale);
    let t0 = clock.t0();
    // Substrate time is wall time since `t0`.
    let now_sim = |at: Instant| SimTime(to_sim(at - t0).as_micros());
    // The core runs in wall (scaled) time: its monitor period and the
    // class-mean charges are scaled, so the meta line records the wall
    // period the load view really refreshed at (at least the clock's
    // 1 µs resolution, however small the scale).
    let period = clock
        .scale(cfg.monitor_period())
        .max(Duration::from_micros(1));
    let charges = WorkloadStats {
        static_mean: to_sim(clock.scale(stats.static_mean)),
        dynamic_mean: to_sim(clock.scale(stats.dynamic_mean)),
        ..stats
    };
    let wall_cfg = cfg.clone().with_monitor_period(to_sim(period));
    let top = rt.top && opts.telemetry;
    let metrics_server = rt.metrics;
    let mut core = DriverCore::new("live", wall_cfg, scheduler, charges, spec);
    core.apply(opts);
    // The endpoint publishes telemetry snapshots, so it turns telemetry
    // on even when the caller did not ask for a snapshot back.
    if metrics_server.is_some() {
        core.enable_telemetry();
    }
    core.begin();

    // Spawn one worker per node of the simulator's own fleet.
    let (done_tx, done_rx): (Sender<Done>, Receiver<Done>) = unbounded();
    let mut senders: Vec<Sender<NodeMsg>> = Vec::with_capacity(cfg.p());
    let mut stats_shared: Vec<Arc<NodeStats>> = Vec::with_capacity(cfg.p());
    let mut handles = Vec::with_capacity(cfg.p());
    for node in cfg.nodes() {
        let (tx, rx) = unbounded();
        let st = Arc::new(NodeStats::default());
        let st2 = Arc::clone(&st);
        let dtx = done_tx.clone();
        handles.push(std::thread::spawn(move || {
            node_worker(node, clock, rx, dtx, st2)
        }));
        senders.push(tx);
        stats_shared.push(st);
    }
    drop(done_tx);
    // Close the monitor window ending at `at`, then publish the
    // snapshot and render `top` from what the close recorded.
    let close_window = |core: &mut DriverCore<S>, at: SimTime| {
        let snapshots: Vec<LoadSnapshot> =
            stats_shared.iter().map(|s| s.read().snapshot(at)).collect();
        core.close_window(at, &snapshots);
        if let (Some(server), Some(snap)) = (&metrics_server, core.telemetry_snapshot()) {
            server.publish(snap.to_prometheus());
        }
        if top {
            let (in_flight, finished): (Vec<u64>, Vec<u64>) = stats_shared
                .iter()
                .map(|s| {
                    let s = s.read();
                    (s.processes as u64, s.finished)
                })
                .unzip();
            eprint!(
                "{}",
                render_top(core.last_window(), core.node_busy(), &in_flight, &finished)
            );
        }
    };

    let mut next_monitor = t0 + period;
    // Pending remote transfers: (send-at, node, job).
    let mut transfers: Vec<(Instant, usize, Job)> = Vec::new();
    let mut admitted = 0u64;
    let mut next_req = source.next();
    loop {
        while let Ok(d) = done_rx.try_recv() {
            core.complete(d.id, now_sim(d.finished));
        }
        let now = Instant::now();
        let mut i = 0;
        while i < transfers.len() {
            if transfers[i].0 <= now {
                let (_, node, job) = transfers.swap_remove(i);
                let _ = senders[node].send(NodeMsg::Run(job));
            } else {
                i += 1;
            }
        }
        if now >= next_monitor {
            close_window(&mut core, now_sim(now));
            next_monitor += period;
            continue;
        }
        let wake = transfers
            .iter()
            .fold(next_monitor, |wake, &(at, ..)| wake.min(at));
        let Some(req) = next_req else {
            if core.is_idle() {
                break;
            }
            // Drain: sleep until a completion, a transfer or a tick.
            match done_rx.recv_timeout(wake.saturating_duration_since(now)) {
                Ok(d) => {
                    core.complete(d.id, now_sim(d.finished));
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    panic!("node workers exited with requests in flight")
                }
            }
            continue;
        };
        let target = clock.wall(req.arrival);
        if now < target {
            wait_until(wake.min(target));
            continue;
        }

        // Place the request.
        let seq = admitted;
        admitted += 1;
        next_req = source.next();
        // The core works in substrate (wall) time, so it sees the
        // request with its demand scaled; the node model runs the
        // unscaled demand.
        let mut scaled = req;
        scaled.demand.service = to_sim(clock.scale(req.demand.service));
        let Some(placement) = core.admit(
            seq,
            now_sim(now),
            scaled,
            scaled.demand.service,
            false,
            req.demand.cpu_fraction,
        ) else {
            continue;
        };
        // Scale the placement's own transfer latency (remote hop plus
        // any region round-trip) instead of a fixed constant, so the
        // live substrate charges the same delay the simulator does.
        let arrives = now + clock.scale(placement.latency);
        core.start(seq, placement.node, now_sim(arrives));
        let job = Job {
            id: seq,
            spec: cfg.demand_spec(&req),
        };
        if placement.latency.is_zero() {
            let _ = senders[placement.node].send(NodeMsg::Run(job));
        } else {
            transfers.push((arrives, placement.node, job));
        }
    }

    for tx in &senders {
        let _ = tx.send(NodeMsg::Shutdown);
    }
    for h in handles {
        let _ = h.join();
    }
    // The last, partial window; its publish leaves the final numbers on
    // the endpoint, which lives until the server is dropped.
    close_window(&mut core, now_sim(Instant::now()));
    // Feed the per-node busy time into the shared metrics type so the
    // live path fills the same balance fields (CV, peak-to-mean) the
    // simulator does — Table 3 rows then compare two complete
    // `RunSummary` values instead of a hand-picked subset.
    let busy: Vec<f64> = stats_shared
        .iter()
        .map(|s| s.read().busy_ns() as f64 / 1e9)
        .collect();
    let summary = core.finish(busy);
    core.into_outcome(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use msweb_cluster::{
        JsonlSink, PolicyKind, RegionTopology, SchedulerRegistry, SharedSeriesBuffer, StageSpec,
        TelemetrySnapshot, TraceEvent, TraceLog,
    };
    use msweb_workload::{ucb, DemandModel};

    fn tiny_trace(n: usize, lambda: f64) -> Trace {
        ucb()
            .generate(n, &DemandModel::sun_cluster(40.0), 5)
            .scaled_to_rate(lambda)
    }

    /// The six-node prototype shape with a monitor period of
    /// `period_ms` model milliseconds.
    fn sun(policy: PolicyKind, m: usize, period_ms: u64) -> ClusterConfig {
        ClusterConfig::simulation(6, policy)
            .with_masters(m)
            .with_monitor_period(SimDuration::from_millis(period_ms))
    }

    #[test]
    fn live_flat_completes_everything() {
        let trace = tiny_trace(60, 40.0);
        let cfg = sun(PolicyKind::Flat, 1, 1_000);
        let s = emulate(cfg, &trace, RunOptions::new(), Realtime::scaled(0.05)).summary;
        assert_eq!(s.completed, 60);
        assert!(s.stretch >= 1.0, "stretch {}", s.stretch);
    }

    #[test]
    fn live_ms_completes_everything() {
        let trace = tiny_trace(60, 40.0);
        let cfg = sun(PolicyKind::MasterSlave, 3, 1_000);
        let s = emulate(cfg, &trace, RunOptions::new(), Realtime::scaled(0.05)).summary;
        assert_eq!(s.completed, 60);
        assert!(s.stretch >= 1.0);
        assert!(s.completed_static > 0);
        // The live path populates the same node-balance fields as the
        // simulator; six real nodes never end up with bit-identical busy
        // time, so a populated vector shows up as a strictly positive CV.
        assert!(
            s.node_busy_cv > 0.0,
            "live run should report per-node busy balance, cv = {}",
            s.node_busy_cv
        );
    }

    #[test]
    fn idle_cluster_stretch_near_one() {
        // Very light load: responses should be close to demands. The
        // bound is loose because on a single-core host every thread
        // wake-up adds milliseconds of latency to millisecond-scale
        // demands.
        let trace = tiny_trace(12, 4.0);
        let cfg = sun(PolicyKind::Flat, 1, 500);
        let s = emulate(cfg, &trace, RunOptions::new(), Realtime::scaled(0.5)).summary;
        assert_eq!(s.completed, 12);
        assert!(
            s.stretch < 3.0,
            "idle live cluster should not queue: stretch {}",
            s.stretch
        );
    }

    #[test]
    fn emulate_source_streams_the_workload() {
        let trace = tiny_trace(24, 30.0);
        let cfg = sun(PolicyKind::MasterSlave, 2, 1_000);
        let stats = WorkloadStats::from_trace(&trace);
        let scheduler = DynScheduler::for_policy(&cfg, stats.a0, stats.r0);
        let s = emulate_source(
            cfg,
            trace.clone().into_source(),
            stats,
            scheduler,
            None,
            RunOptions::new(),
            Realtime::scaled(0.05),
        )
        .summary;
        assert_eq!(s.completed, 24);
        assert_eq!(s.dropped, 0);
    }

    /// The live substrate derives its priors with the simulator's
    /// estimator: a traced run records `WorkloadStats::from_trace`'s
    /// pair in its meta line.
    #[test]
    fn emulate_seeds_the_run_with_the_workload_stats() {
        let trace = tiny_trace(24, 30.0);
        let stats = WorkloadStats::from_trace(&trace);
        let buf = SharedSeriesBuffer::new();
        let opts = RunOptions::new().observer(Box::new(JsonlSink::new(buf.clone())));
        let cfg = sun(PolicyKind::MasterSlave, 2, 1_000);
        emulate(cfg, &trace, opts, Realtime::scaled(0.05));
        let log = TraceLog::parse(&buf.contents()).expect("live log parses");
        let Some(TraceEvent::Meta(meta)) = log.events.first() else {
            panic!("live log starts with its meta line");
        };
        assert_eq!((meta.a0, meta.r0), (stats.a0, stats.r0));
    }

    #[test]
    fn live_region_run_charges_regions_and_completes() {
        let trace = tiny_trace(40, 40.0);
        let slug = "region-nearest/rotation-masters/reservation/level-split/\
                    rsrc-indexed-reserve/split-demand";
        let cfg =
            sun(PolicyKind::MasterSlave, 2, 1_000).with_regions(RegionTopology::even(6, 2, 2));
        let spec = StageSpec::parse(slug).unwrap();
        let stats = WorkloadStats::from_trace(&trace);
        let scheduler = SchedulerRegistry::builtin()
            .compose(&cfg, &spec, stats.a0, stats.r0)
            .unwrap();
        let outcome = emulate_source(
            cfg,
            trace.source(),
            stats,
            scheduler,
            Some(slug.to_string()),
            RunOptions::new().telemetry(true),
            Realtime::scaled(0.05),
        );
        assert_eq!(outcome.summary.completed, 40);
        let snap = outcome.telemetry.expect("telemetry requested");
        assert_eq!(
            snap.policy, slug,
            "live telemetry labels the run by its spec"
        );
        assert_eq!(snap.sched.region_charges.len(), 2);
        assert_eq!(snap.sched.region_charges.iter().sum::<u64>(), 40);
    }

    #[test]
    fn live_telemetry_produces_a_complete_snapshot() {
        let trace = tiny_trace(40, 40.0);
        let cfg = sun(PolicyKind::MasterSlave, 2, 200);
        let opts = RunOptions::new().telemetry(true);
        let outcome = emulate(cfg, &trace, opts, Realtime::scaled(0.25));
        let s = outcome.summary;
        let snap = outcome.telemetry.expect("telemetry requested");
        assert_eq!(s.completed, 40);
        assert_eq!(snap.substrate, "live");
        assert_eq!(snap.sched.place_calls, 40);
        assert_eq!(snap.node_busy.len(), 6, "one busy gauge per node");
        assert!(
            snap.node_busy.iter().all(|b| (0.0..=0.99).contains(b)),
            "busy gauges follow the load view's CPU rule: {:?}",
            snap.node_busy
        );
        assert!(
            !snap.windows.is_empty(),
            "a 50 ms wall monitor period must tick during the replay"
        );
        // The snapshot round-trips through its own JSON encoding.
        let v = serde::Value::parse(&snap.to_json()).expect("parse own JSON");
        let back = TelemetrySnapshot::from_value(&v).expect("decode own JSON");
        assert_eq!(back, snap);
        // The Prometheus rendering carries the headline series.
        let prom = snap.to_prometheus();
        for needle in [
            "msweb_place_decisions_total",
            "msweb_reservation_theta2_star",
            "msweb_node_busy_ratio",
            "msweb_stage_span_ns_total",
        ] {
            assert!(prom.contains(needle), "missing {needle}");
        }
    }
}
