//! The live cluster: real threads, real time, the *same* scheduler
//! value and node model as the simulator.
//!
//! [`emulate`] replays a workload against `p` node worker threads, each
//! running the simulator's OS model in real time, using
//! `msweb-cluster`'s scheduling pipeline, [`LoadMonitor`] and
//! [`Metrics`] unchanged — so the validation experiment (the paper's
//! Table 3) compares the *same scheduling code and machine model*
//! stepped by the simulator versus run against the wall clock, as the
//! paper compared its simulator against the Sun-cluster prototype.
//! [`emulate_with`] accepts any [`Schedule`] implementation (e.g. the
//! [`live_scheduler`] composition with a `DecisionObserver` installed,
//! or a custom registry composition);
//! [`emulate_source`] drives a streaming [`RequestSource`], holding
//! only in-flight bookkeeping, so live runs scale to workloads too long
//! to materialize.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use msweb_cluster::{
    render_top, ClusterConfig, DropRecord, DynScheduler, Level, LoadMonitor, Metrics, NodeSample,
    PolicyKind, ReqKnowledge, RunMeta, RunSummary, SchedTelemetry, Schedule, SchedulerRegistry,
    SeriesMeta, SeriesRecorder, SeriesWindowInput, SloEngine, StageSpec, TelemetryProbe,
    TelemetrySnapshot, TraceEvent, WindowSample, WorkloadStats,
};
use msweb_ossim::LoadSnapshot;
use msweb_simcore::{SimDuration, SimTime};
use msweb_workload::{RequestSource, Trace};

use crate::job::{Done, Job, NodeMsg};
use crate::metrics_http::MetricsServer;
use crate::node::{node_worker, NodeStats};
use crate::timing::{wait_until, ModelClock};

/// Configuration of a live run.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Number of emulated nodes (the paper's prototype: 6).
    pub p: usize,
    /// Number of masters.
    pub m: usize,
    /// Scheduling policy (same set as the simulator).
    pub policy: PolicyKind,
    /// Time scale applied to demands *and* arrival spacing: 1.0 replays
    /// in real time, 0.1 runs ten times faster at identical utilisation.
    pub time_scale: f64,
    /// Real-time load-monitor period (unscaled; the paper's rstat
    /// sampling).
    pub monitor_period: Duration,
    /// Master capacity reserve, as in the simulator.
    pub master_reserve: f64,
    /// Dispatch RNG seed.
    pub seed: u64,
    /// Stage-spec label recorded in the decision log's meta line when
    /// the caller drives [`emulate_with`] with a registry composition
    /// (`None` for plain policy runs).
    pub spec: Option<String>,
}

impl LiveConfig {
    /// The paper's §5.2.2 prototype shape: six Ultra-1-class nodes.
    pub fn sun_cluster(policy: PolicyKind, m: usize) -> Self {
        LiveConfig {
            p: 6,
            m,
            policy,
            time_scale: 1.0,
            monitor_period: Duration::from_millis(250),
            master_reserve: 0.5,
            seed: 0x50e5,
            spec: None,
        }
    }

    /// Record a stage-spec label in the decision log's meta line
    /// (builder style).
    pub fn with_spec(mut self, spec: impl Into<String>) -> Self {
        self.spec = Some(spec.into());
        self
    }

    /// The simulator-side configuration this live cluster mirrors; the
    /// scheduler is built from it so both substrates share one
    /// composition.
    pub fn cluster_config(&self) -> ClusterConfig {
        ClusterConfig::simulation(self.p, self.policy)
            .with_masters(self.m.max(1))
            .with_master_reserve(self.master_reserve)
            .with_seed(self.seed)
            .with_monitor_period(to_sim(self.monitor_period))
    }
}

fn to_sim(d: Duration) -> SimDuration {
    SimDuration::from_micros(d.as_micros() as u64)
}

/// Class demand means of `trace` in unscaled seconds: (static, dynamic).
fn class_means(trace: &Trace) -> (f64, f64) {
    let (mut ds, mut nd, mut ss, mut ns) = (0.0f64, 0u64, 0.0f64, 0u64);
    for r in &trace.requests {
        if r.class.is_dynamic() {
            ds += r.demand.service.as_secs_f64();
            nd += 1;
        } else {
            ss += r.demand.service.as_secs_f64();
            ns += 1;
        }
    }
    let stat_mean = if ns > 0 { ss / ns as f64 } else { 1.0 / 110.0 };
    let dyn_mean = if nd > 0 { ds / nd as f64 } else { stat_mean };
    (stat_mean, dyn_mean)
}

/// Build the scheduler a live run of `config` over `trace` uses —
/// exactly the value [`emulate`] constructs internally: the registry
/// composition of `config.policy`'s [`StageSpec::for_policy`]. Build it
/// yourself (to install an observer, or compose another spec over the
/// same `ClusterConfig`) and hand it to [`emulate_with`]. Panics on an
/// invalid configuration.
pub fn live_scheduler(config: &LiveConfig, trace: &Trace) -> DynScheduler {
    let cc = config.cluster_config();
    let (a0, r0) = live_priors(trace);
    SchedulerRegistry::builtin()
        .compose(&cc, &StageSpec::for_policy(cc.policy()), a0, r0)
        .expect("invalid cluster configuration")
}

/// The reservation-controller priors a live run derives from `trace` —
/// the same `(a0, r0)` pair [`live_scheduler`] seeds the scheduler with,
/// recorded in the decision log's meta line so replay can rebuild an
/// identical composition.
pub fn live_priors(trace: &Trace) -> (f64, f64) {
    let summary = trace.summary();
    let a0 = if summary.arrival_ratio_a.is_finite() && summary.arrival_ratio_a > 0.0 {
        summary.arrival_ratio_a.clamp(0.01, 10.0)
    } else {
        0.5
    };
    let (stat_mean, dyn_mean) = class_means(trace);
    let r0 = (stat_mean / dyn_mean).clamp(1e-4, 1.0);
    (a0, r0)
}

/// The workload statistics a live run derives from `trace`: the
/// [`live_priors`] pair plus the class demand means used to charge the
/// stale load view. [`emulate_source`] takes this value directly so
/// streaming callers can compute it from a measuring pass (or
/// analytically) without materializing the workload.
pub fn live_stats(trace: &Trace) -> WorkloadStats {
    let (a0, r0) = live_priors(trace);
    let (stat_mean, dyn_mean) = class_means(trace);
    WorkloadStats {
        a0,
        r0,
        static_mean: SimDuration::from_secs_f64(stat_mean),
        dynamic_mean: SimDuration::from_secs_f64(dyn_mean),
    }
}

/// Options for one live run: the builder-style entry point that replaced
/// the `run_live` / `run_live_with` / `run_live_telemetry` triplet.
#[derive(Debug, Default)]
pub struct LiveRunOptions {
    /// Enable live telemetry: scheduler per-stage counters, controller
    /// samples each monitor tick, and a sampler thread turning node
    /// counters into busy gauges. The snapshot comes back in
    /// [`LiveOutcome::telemetry`].
    pub telemetry: bool,
    /// Also render a `top`-style table to stderr each monitor period
    /// (implies nothing unless `telemetry` is set).
    pub top: bool,
    /// Windowed time-series recorder: one JSONL record per monitor
    /// tick, same schema as the simulator's (only `at_us` and the busy
    /// gauges are wall-clock-derived). Implies the telemetry probe and
    /// sampler thread.
    pub series: Option<SeriesRecorder>,
    /// SLO burn-rate rules evaluated at every monitor tick; fired
    /// alerts go to stderr and — when decision tracing is active — to
    /// the log as `alert` events.
    pub slo: Option<SloEngine>,
    /// A bound `/metrics` endpoint to publish live Prometheus text to,
    /// once per monitor tick. Implies the telemetry probe. Binding is
    /// the caller's job ([`MetricsServer::bind`]) so address errors
    /// surface before the run starts.
    pub metrics: Option<MetricsServer>,
}

impl LiveRunOptions {
    /// No telemetry, no `top` rendering, nothing attached.
    pub fn new() -> Self {
        LiveRunOptions::default()
    }

    /// Enable telemetry collection (builder style).
    pub fn telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    /// Enable the `top`-style stderr rendering (builder style; only
    /// effective together with telemetry).
    pub fn top(mut self, on: bool) -> Self {
        self.top = on;
        self
    }

    /// Attach a windowed time-series recorder (builder style).
    pub fn series(mut self, recorder: SeriesRecorder) -> Self {
        self.series = Some(recorder);
        self
    }

    /// Attach SLO burn-rate rules (builder style).
    pub fn slo(mut self, engine: SloEngine) -> Self {
        self.slo = Some(engine);
        self
    }

    /// Attach a bound live `/metrics` endpoint (builder style).
    pub fn metrics(mut self, server: MetricsServer) -> Self {
        self.metrics = Some(server);
        self
    }
}

/// What one live run produced.
#[derive(Debug)]
pub struct LiveOutcome {
    /// The run summary (same type as the simulator's).
    pub summary: RunSummary,
    /// The telemetry snapshot (substrate `"live"`), when
    /// [`LiveRunOptions::telemetry`] was set.
    pub telemetry: Option<TelemetrySnapshot>,
    /// The series recorder, flushed, when [`LiveRunOptions::series`]
    /// was set.
    pub series: Option<SeriesRecorder>,
    /// The SLO engine after the run, when [`LiveRunOptions::slo`] was
    /// set (e.g. to read [`SloEngine::alerts_fired`]).
    pub slo: Option<SloEngine>,
}

/// Replay `trace` on a live thread-backed cluster; blocks until every
/// request completes and returns the same summary type the simulator
/// produces. Response times and demands are reported in *scaled* time,
/// so stretch factors are directly comparable with simulation runs of
/// the same workload.
pub fn emulate(config: &LiveConfig, trace: &Trace, opts: LiveRunOptions) -> LiveOutcome {
    let scheduler = live_scheduler(config, trace);
    emulate_with(config, trace, scheduler, opts)
}

/// [`emulate`] with an explicit scheduler value — the same [`Schedule`]
/// surface `ClusterSim` drives, so simulator and live emulation
/// literally share the scheduler.
pub fn emulate_with<S: Schedule>(
    config: &LiveConfig,
    trace: &Trace,
    scheduler: S,
    opts: LiveRunOptions,
) -> LiveOutcome {
    emulate_source(config, trace.source(), live_stats(trace), scheduler, opts)
}

/// Drive a streaming [`RequestSource`] on the live cluster. The caller
/// supplies [`WorkloadStats`] (see [`live_stats`] for the materialized
/// equivalent); per-request bookkeeping is dropped on completion, so
/// memory stays O(in-flight requests) regardless of stream length.
pub fn emulate_source<S: Schedule, Src: RequestSource>(
    config: &LiveConfig,
    source: Src,
    stats: WorkloadStats,
    scheduler: S,
    opts: LiveRunOptions,
) -> LiveOutcome {
    run_live_inner(config, source, stats, scheduler, opts)
}

/// Per-request bookkeeping for a live request between placement and
/// completion. Map membership replaces the old trace-length vectors:
/// entries are dropped on completion, so the working set tracks the
/// number of requests actually in flight.
#[derive(Debug, Clone, Copy)]
struct LiveFlight {
    dynamic: bool,
    service: SimDuration,
    on_master: bool,
    node: usize,
    arrived: Instant,
    /// When the job reaches its node (dispatch, or transfer delivery
    /// for remote placements) — the origin for attained-service
    /// progress reports.
    started: Instant,
}

fn run_live_inner<S: Schedule, Src: RequestSource>(
    config: &LiveConfig,
    mut source: Src,
    stats: WorkloadStats,
    mut scheduler: S,
    mut opts: LiveRunOptions,
) -> LiveOutcome {
    assert!(config.p >= 1);
    // Model time zero: the node workers and the replay share this clock.
    let clock = ModelClock::new(Instant::now(), config.time_scale);
    let t0 = clock.t0();
    // The series recorder and the metrics endpoint both read the probe
    // (busy gauges) and the scheduler counters, so they imply them even
    // when the caller did not ask for a snapshot back.
    let want_snapshot = opts.telemetry;
    let probe_needed = opts.telemetry || opts.series.is_some() || opts.metrics.is_some();
    let telemetry = if probe_needed {
        Some((TelemetryProbe::new(), opts.top && opts.telemetry))
    } else {
        None
    };
    let mut series = opts.series.take();
    let mut slo = opts.slo.take();
    let metrics_server = opts.metrics.take();
    if telemetry.is_some() {
        scheduler.set_telemetry_enabled(true);
    }
    let probe_ref = telemetry.as_ref().map(|(p, _)| p);

    let cc = config.cluster_config();
    if scheduler.tracing() {
        scheduler.emit(&TraceEvent::Meta(RunMeta {
            substrate: "live".to_string(),
            p: cc.p(),
            m: scheduler.masters(),
            policy: cc.policy().slug().to_string(),
            spec: config.spec.clone(),
            seed: cc.seed(),
            a0: stats.a0,
            r0: stats.r0,
            master_reserve: cc.master_reserve(),
            dns_skew: cc.dns_skew(),
            monitor_period_us: cc.monitor_period().as_micros(),
            remote_latency_us: cc.remote_latency().as_micros(),
            redirect_rtt_us: cc.redirect_rtt().as_micros(),
            speeds: cc.speeds().map(<[f64]>::to_vec),
            regions: scheduler.region_topology().cloned(),
        }));
    }
    if let Some(rec) = &mut series {
        let policy = match &config.spec {
            Some(spec) => spec.clone(),
            None => cc.policy().slug().to_string(),
        };
        rec.begin(&SeriesMeta {
            substrate: "live",
            policy: &policy,
            p: cc.p(),
            m: scheduler.masters(),
            seed: cc.seed(),
        });
    }
    // Charges are in wall (scaled) time, matching the monitor's window.
    let stat_charge = to_sim(clock.scale(stats.static_mean));
    let dyn_charge = to_sim(clock.scale(stats.dynamic_mean));

    // Spawn one worker per node of the simulator's own fleet.
    let (done_tx, done_rx): (Sender<Done>, Receiver<Done>) = unbounded();
    let mut senders: Vec<Sender<NodeMsg>> = Vec::with_capacity(config.p);
    let mut stats_shared: Vec<Arc<NodeStats>> = Vec::with_capacity(config.p);
    let mut handles = Vec::with_capacity(config.p);
    for node in cc.nodes() {
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

    // Sampler thread: converts the published node counters into
    // busy-ratio gauges once per monitor period (and optionally renders
    // `top`). It only ever reads the shared counters and writes to the
    // probe, so it stays entirely off the dispatch path.
    let sampler = telemetry.as_ref().map(|(probe, top)| {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let probe = probe.clone();
        let stats: Vec<Arc<NodeStats>> = stats_shared.iter().map(Arc::clone).collect();
        let interval = config.monitor_period;
        let top = *top;
        let handle = std::thread::spawn(move || {
            let step = interval.min(Duration::from_millis(25));
            let mut prev_busy = vec![0u64; stats.len()];
            let mut prev_t = Instant::now();
            let mut next = prev_t + interval;
            while !stop2.load(Ordering::Relaxed) {
                std::thread::sleep(step);
                let now = Instant::now();
                if now < next {
                    continue;
                }
                next = now + interval;
                let wall = now.duration_since(prev_t).as_nanos().max(1) as f64;
                prev_t = now;
                let mut busy = Vec::with_capacity(stats.len());
                let mut in_flight = Vec::with_capacity(stats.len());
                let mut finished = Vec::with_capacity(stats.len());
                for (i, s) in stats.iter().enumerate() {
                    let s = s.read();
                    let b = s.busy_ns();
                    busy.push(((b.saturating_sub(prev_busy[i])) as f64 / wall).clamp(0.0, 1.0));
                    prev_busy[i] = b;
                    in_flight.push(s.processes as u64);
                    finished.push(s.finished);
                }
                probe.set_node_busy(&busy);
                if top {
                    eprint!(
                        "{}",
                        render_top(probe.last_window().as_ref(), &busy, &in_flight, &finished)
                    );
                }
            }
        });
        (stop, handle)
    });

    let mut monitor = LoadMonitor::new(config.p, cc.monitor_period(), SimTime::ZERO);
    let mut metrics = Metrics::new();

    // Per-request bookkeeping, dropped on completion: placement
    // level/node for attribution and connection-count release.
    let mut in_flight: HashMap<u64, LiveFlight> = HashMap::new();
    let mut next_monitor = t0 + config.monitor_period;
    // Pending remote transfers: (send-at, node, job).
    let mut transfers: Vec<(Instant, usize, Job)> = Vec::new();
    let mut admitted = 0usize;
    let mut completed = 0usize;
    let mut dropped = 0usize;

    let deliver_due =
        |transfers: &mut Vec<(Instant, usize, Job)>, senders: &[Sender<NodeMsg>], now: Instant| {
            let mut i = 0;
            while i < transfers.len() {
                if transfers[i].0 <= now {
                    let (_, node, job) = transfers.swap_remove(i);
                    let _ = senders[node].send(NodeMsg::Run(job));
                } else {
                    i += 1;
                }
            }
        };

    let handle_done = |d: Done,
                       in_flight: &mut HashMap<u64, LiveFlight>,
                       metrics: &mut Metrics,
                       scheduler: &mut S,
                       completed: &mut usize| {
        let fl = in_flight
            .remove(&d.id)
            .expect("completion for request not in flight");
        let response = to_sim(d.finished - fl.arrived);
        let demand = to_sim(clock.scale(fl.service));
        let level = if fl.dynamic {
            Some(if fl.on_master {
                Level::Master
            } else {
                Level::Slave
            })
        } else {
            None
        };
        metrics.record(response, demand, level);
        if let Some(probe) = probe_ref {
            probe.record_response(fl.dynamic, response.as_micros());
        }
        // Release the connection slot — keeps switch-style counts
        // truthful, matching the simulator's completion path.
        scheduler.note_completion(fl.node);
        scheduler.note_service_end(fl.node, d.id, demand);
        scheduler
            .reservation_mut()
            .note_response(fl.dynamic, response);
        if scheduler.tracing() {
            scheduler.emit(&TraceEvent::Complete {
                req: d.id,
                node: fl.node,
                dynamic: fl.dynamic,
                response_us: response.as_micros(),
            });
        }
        *completed += 1;
    };

    // Replay loop.
    let mut next_req = source.next();
    while let Some(req) = next_req {
        let idx = admitted as u64;
        let target = clock.wall(req.arrival);
        // Until the arrival is due: collect completions, tick the
        // monitor, flush transfers.
        loop {
            while let Ok(d) = done_rx.try_recv() {
                handle_done(
                    d,
                    &mut in_flight,
                    &mut metrics,
                    &mut scheduler,
                    &mut completed,
                );
            }
            let now = Instant::now();
            deliver_due(&mut transfers, &senders, now);
            if now >= next_monitor {
                let at = to_sim(now - t0);
                let snaps: Vec<LoadSnapshot> = stats_shared
                    .iter()
                    .map(|s| s.read().snapshot(SimTime(at.as_micros())))
                    .collect();
                monitor.tick(SimTime(at.as_micros()), &snaps);
                // Feed attained service: wall-clock time on-node (which
                // *is* scaled time), capped at the scaled demand —
                // mirrors the simulator's per-tick progress reports.
                for (&id, fl) in in_flight.iter() {
                    if now < fl.started {
                        continue;
                    }
                    let cap = to_sim(clock.scale(fl.service));
                    let attained = to_sim(now - fl.started).min(cap);
                    scheduler.note_service_progress(fl.node, id, attained);
                }
                let rho = monitor.mean_utilisation();
                // Capture the windowed master fraction before update()
                // resets it (same ordering as the simulator).
                let theta_hat = scheduler.reservation().master_fraction();
                scheduler.reservation_mut().update(rho);
                let mut window = None;
                if probe_ref.is_some() {
                    let res = scheduler.reservation();
                    let (a_hat, r_hat) = res.measured();
                    let sample = WindowSample {
                        at_us: at.as_micros(),
                        theta2_star: res.theta2_star(),
                        a_hat,
                        r_hat,
                        rho,
                        theta_hat,
                        clamp_events: res.clamp_events(),
                    };
                    if let Some(probe) = probe_ref {
                        probe.record_window(sample);
                    }
                    window = Some(sample);
                }
                let window_stretch = metrics.close_window();
                if let Some(rec) = &mut series {
                    let sample = window.as_ref().expect("series implies the probe");
                    // Busy gauges come from the sampler thread's latest
                    // pass (wall-clock, like `at_us`).
                    let busy = probe_ref.map(TelemetryProbe::node_busy).unwrap_or_default();
                    rec.record(&SeriesWindowInput {
                        window: sample,
                        sched: scheduler.telemetry(),
                        node_busy: &busy,
                        window_stretch,
                        drops: metrics.dropped(),
                    });
                }
                if scheduler.tracing() {
                    scheduler.emit(&TraceEvent::Tick {
                        at_us: at.as_micros(),
                        rho,
                        nodes: snaps.iter().map(NodeSample::from_snapshot).collect(),
                    });
                }
                if let Some(engine) = &mut slo {
                    let alerts = engine.observe_cumulative(
                        at.as_micros(),
                        window_stretch,
                        metrics.completed(),
                        metrics.dropped(),
                        scheduler.reservation().clamp_events(),
                    );
                    for alert in &alerts {
                        eprintln!("{}", alert.to_line());
                        if scheduler.tracing() {
                            scheduler.emit(&alert.to_trace_event());
                        }
                    }
                }
                if let (Some(server), Some(probe)) = (&metrics_server, probe_ref) {
                    let sched_tel = scheduler
                        .telemetry()
                        .cloned()
                        .unwrap_or_else(|| SchedTelemetry::new(cc.p()));
                    let snap = TelemetrySnapshot::assemble(
                        "live",
                        cc.policy().slug(),
                        cc.seed(),
                        scheduler.masters(),
                        &sched_tel,
                        scheduler.scorer_path_counts(),
                        scheduler.reservation().clamp_events(),
                        probe,
                    );
                    server.publish(snap.to_prometheus());
                }
                next_monitor += config.monitor_period;
                continue;
            }
            if now >= target {
                break;
            }
            let mut wake = target.min(next_monitor);
            for &(at, _, _) in &transfers {
                wake = wake.min(at);
            }
            wait_until(wake);
        }

        // Place the request.
        let now = Instant::now();
        admitted += 1;
        next_req = source.next();
        let dynamic = req.class.is_dynamic();
        let expected = if dynamic { dyn_charge } else { stat_charge };
        let at_us = to_sim(now - t0).as_micros();
        let scaled_demand = to_sim(clock.scale(req.demand.service));
        scheduler.note_request(idx, SimTime(at_us), scaled_demand);
        scheduler.note_origin(req.origin);
        // The live front-end only ever knows the class-mean charge, not
        // the request's true demand — declare it as a sampled estimate.
        let know = ReqKnowledge::sampled(req.demand.cpu_fraction, expected);
        let Ok(placement) = scheduler.place(dynamic, know, &mut monitor) else {
            // Whole cluster dead: degrade gracefully, as the simulator
            // does.
            scheduler.emit(&TraceEvent::Drop(DropRecord {
                req: idx,
                at_us,
                dynamic,
                w: know.w,
                expected_us: know.expected.as_micros(),
                redrive: true,
                restart: false,
                origin: req.origin,
            }));
            metrics.note_dropped();
            dropped += 1;
            continue;
        };
        // Scale the placement's own transfer latency (remote hop plus
        // any region round-trip) instead of a fixed constant, so the
        // live substrate charges the same delay the simulator does.
        let started = now + clock.scale(placement.latency);
        in_flight.insert(
            idx,
            LiveFlight {
                dynamic,
                service: req.demand.service,
                on_master: placement.on_master,
                node: placement.node,
                arrived: now,
                started,
            },
        );
        scheduler.note_service_start(placement.node, idx);
        let job = Job {
            id: idx,
            spec: cc.demand_spec(&req),
        };
        if placement.latency.is_zero() {
            let _ = senders[placement.node].send(NodeMsg::Run(job));
        } else {
            transfers.push((started, placement.node, job));
        }
    }

    // Drain: flush transfers, then wait for all completions.
    while completed + dropped < admitted {
        let now = Instant::now();
        deliver_due(&mut transfers, &senders, now);
        match done_rx.recv_timeout(Duration::from_millis(5)) {
            Ok(d) => handle_done(
                d,
                &mut in_flight,
                &mut metrics,
                &mut scheduler,
                &mut completed,
            ),
            Err(_) => {
                // Timeout: loop to flush any transfer that became due.
                if transfers.is_empty() && now.elapsed() > Duration::from_secs(300) {
                    panic!("live cluster wedged waiting for completions");
                }
            }
        }
    }

    for tx in &senders {
        let _ = tx.send(NodeMsg::Shutdown);
    }
    for h in handles {
        let _ = h.join();
    }
    if let Some((stop, handle)) = sampler {
        stop.store(true, Ordering::Relaxed);
        let _ = handle.join();
    }
    if let Some(probe) = probe_ref {
        // A replay shorter than one monitor period never ticks; leave
        // at least one controller sample so the series is never empty.
        if probe.window_count() == 0 {
            let res = scheduler.reservation();
            let (a_hat, r_hat) = res.measured();
            probe.record_window(WindowSample {
                at_us: to_sim(t0.elapsed()).as_micros(),
                theta2_star: res.theta2_star(),
                a_hat,
                r_hat,
                rho: monitor.mean_utilisation(),
                theta_hat: res.master_fraction(),
                clamp_events: res.clamp_events(),
            });
        }
        // Leave a whole-run busy average in the gauges so even runs
        // shorter than one sampler interval report `p` entries.
        let wall = t0.elapsed().as_nanos().max(1) as f64;
        let busy: Vec<f64> = stats_shared
            .iter()
            .map(|s| (s.read().busy_ns() as f64 / wall).clamp(0.0, 1.0))
            .collect();
        probe.set_node_busy(&busy);
        // The same guarantee for the series: a replay shorter than one
        // monitor period still yields one (whole-run) record.
        if let Some(rec) = &mut series {
            if rec.records() == 0 {
                let sample = probe.last_window().expect("fallback window recorded");
                rec.record(&SeriesWindowInput {
                    window: &sample,
                    sched: scheduler.telemetry(),
                    node_busy: &busy,
                    window_stretch: metrics.close_window(),
                    drops: metrics.dropped(),
                });
            }
        }
    }
    // Feed the per-node busy time into the shared metrics type so the
    // live path fills the same balance fields (CV, peak-to-mean) the
    // simulator does — Table 3 rows then compare two complete
    // `RunSummary` values instead of a hand-picked subset.
    let busy: Vec<f64> = stats_shared
        .iter()
        .map(|s| s.read().busy_ns() as f64 / 1e9)
        .collect();
    metrics.set_node_busy(busy);
    let snapshot = telemetry.filter(|_| want_snapshot).map(|(probe, _)| {
        let sched_tel = scheduler
            .telemetry()
            .cloned()
            .unwrap_or_else(|| SchedTelemetry::new(cc.p()));
        TelemetrySnapshot::assemble(
            "live",
            cc.policy().slug(),
            cc.seed(),
            scheduler.masters(),
            &sched_tel,
            scheduler.scorer_path_counts(),
            scheduler.reservation().clamp_events(),
            &probe,
        )
    });
    if let Some(rec) = &mut series {
        rec.flush();
    }
    // One last publish so a scrape racing the run's end sees the final
    // numbers (the endpoint itself lives until the server is dropped).
    if let Some(server) = &metrics_server {
        if let Some(snap) = &snapshot {
            server.publish(snap.to_prometheus());
        }
    }
    LiveOutcome {
        summary: metrics.summary(),
        telemetry: snapshot,
        series,
        slo,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msweb_workload::{ucb, DemandModel};

    fn tiny_trace(n: usize, lambda: f64) -> Trace {
        ucb()
            .generate(n, &DemandModel::sun_cluster(40.0), 5)
            .scaled_to_rate(lambda)
    }

    #[test]
    fn live_flat_completes_everything() {
        let trace = tiny_trace(60, 40.0);
        let mut cfg = LiveConfig::sun_cluster(PolicyKind::Flat, 1);
        cfg.time_scale = 0.05;
        cfg.monitor_period = Duration::from_millis(50);
        let s = emulate(&cfg, &trace, LiveRunOptions::new()).summary;
        assert_eq!(s.completed, 60);
        assert!(s.stretch >= 1.0, "stretch {}", s.stretch);
    }

    #[test]
    fn live_ms_completes_everything() {
        let trace = tiny_trace(60, 40.0);
        let mut cfg = LiveConfig::sun_cluster(PolicyKind::MasterSlave, 3);
        cfg.time_scale = 0.05;
        cfg.monitor_period = Duration::from_millis(50);
        let s = emulate(&cfg, &trace, LiveRunOptions::new()).summary;
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
        let mut cfg = LiveConfig::sun_cluster(PolicyKind::Flat, 1);
        cfg.time_scale = 0.5;
        let s = emulate(&cfg, &trace, LiveRunOptions::new()).summary;
        assert_eq!(s.completed, 12);
        assert!(
            s.stretch < 3.0,
            "idle live cluster should not queue: stretch {}",
            s.stretch
        );
    }

    #[test]
    fn emulate_with_accepts_an_explicit_scheduler() {
        let trace = tiny_trace(24, 30.0);
        let mut cfg = LiveConfig::sun_cluster(PolicyKind::MasterSlave, 2);
        cfg.time_scale = 0.05;
        cfg.monitor_period = Duration::from_millis(50);
        let scheduler = live_scheduler(&cfg, &trace);
        let s = emulate_with(&cfg, &trace, scheduler, LiveRunOptions::new()).summary;
        assert_eq!(s.completed, 24);
    }

    #[test]
    fn emulate_source_streams_the_workload() {
        let trace = tiny_trace(24, 30.0);
        let mut cfg = LiveConfig::sun_cluster(PolicyKind::MasterSlave, 2);
        cfg.time_scale = 0.05;
        cfg.monitor_period = Duration::from_millis(50);
        let scheduler = live_scheduler(&cfg, &trace);
        let stats = live_stats(&trace);
        let s = emulate_source(
            &cfg,
            trace.clone().into_source(),
            stats,
            scheduler,
            LiveRunOptions::new(),
        )
        .summary;
        assert_eq!(s.completed, 24);
        assert_eq!(s.dropped, 0);
    }

    #[test]
    fn live_region_run_charges_regions_and_completes() {
        use msweb_cluster::{RegionTopology, SchedulerRegistry, StageSpec};
        let trace = tiny_trace(40, 40.0);
        let mut cfg = LiveConfig::sun_cluster(PolicyKind::MasterSlave, 2);
        cfg.time_scale = 0.05;
        cfg.monitor_period = Duration::from_millis(50);
        let slug = "region-nearest/rotation-masters/reservation/level-split/\
                    rsrc-indexed-reserve/split-demand";
        cfg = cfg.with_spec(slug);
        let cc = cfg
            .cluster_config()
            .with_regions(RegionTopology::even(6, 2, 2));
        let spec = StageSpec::parse(slug).unwrap();
        let (a0, r0) = live_priors(&trace);
        let scheduler = SchedulerRegistry::builtin()
            .compose(&cc, &spec, a0, r0)
            .unwrap();
        let outcome = emulate_with(
            &cfg,
            &trace,
            scheduler,
            LiveRunOptions::new().telemetry(true),
        );
        assert_eq!(outcome.summary.completed, 40);
        let snap = outcome.telemetry.expect("telemetry requested");
        assert_eq!(snap.sched.region_charges.len(), 2);
        assert_eq!(snap.sched.region_charges.iter().sum::<u64>(), 40);
    }

    #[test]
    fn live_telemetry_produces_a_complete_snapshot() {
        let trace = tiny_trace(40, 40.0);
        let mut cfg = LiveConfig::sun_cluster(PolicyKind::MasterSlave, 2);
        cfg.time_scale = 0.25;
        cfg.monitor_period = Duration::from_millis(50);
        let scheduler = live_scheduler(&cfg, &trace);
        let outcome = emulate_with(
            &cfg,
            &trace,
            scheduler,
            LiveRunOptions::new().telemetry(true),
        );
        let s = outcome.summary;
        let snap = outcome.telemetry.expect("telemetry requested");
        assert_eq!(s.completed, 40);
        assert_eq!(snap.substrate, "live");
        assert_eq!(snap.sched.place_calls, 40);
        assert_eq!(snap.node_busy.len(), 6, "whole-run busy gauges");
        assert!(
            !snap.windows.is_empty(),
            "a 50 ms monitor period must tick during the replay"
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
