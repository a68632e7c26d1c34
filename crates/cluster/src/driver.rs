//! The substrate-agnostic half of a cluster driver.
//!
//! Both execution substrates — the discrete-event simulator
//! ([`ClusterSim`](crate::ClusterSim)) and the live thread emulation
//! (`msweb-emu`) — drive one [`DriverCore`]. The core owns the
//! scheduler, the stale load view, the run metrics, the in-flight book
//! and the attached observers (telemetry, series recorder, SLO engine),
//! and gives each substrate one call per driver step: begin,
//! admit, start, complete, close a monitor window, snapshot, finish.
//! A substrate supplies only time (simulated or wall-clock) and service
//! (the node models), so everything a run records — the decision log,
//! the series, the alerts, the summary — comes from one piece of code.

use std::collections::VecDeque;

use msweb_ossim::{DemandSpec, LoadSnapshot};
use msweb_simcore::{rng::split_seed, SimDuration, SimRng, SimTime};
use msweb_workload::{DemandVisibility, Request};

use crate::config::ClusterConfig;
use crate::loadinfo::LoadMonitor;
use crate::metrics::{Level, Metrics, RunSummary, WindowFold};
use crate::sched::{
    DecisionObserver, DropRecord, NodeSample, Placement, ReqKnowledge, RunMeta, Schedule,
    TraceEvent,
};
use crate::sim::WorkloadStats;
use crate::telemetry::series::{SeriesMeta, SeriesRecorder, SeriesWindowInput};
use crate::telemetry::slo::SloEngine;
use crate::telemetry::{TelemetrySnapshot, WindowSample, WINDOW_RING_CAP};

/// Per-request bookkeeping for a request that has been admitted and not
/// yet completed or dropped. Book membership *is* the pending state:
/// completion and drop both remove the entry, so a stale event for a
/// request simply misses the book.
///
/// The record keeps only what completion, fail-over, delivery and the
/// cache read, not the whole [`Request`]: at 80 bytes a copy in or out
/// of the book stays an inline move rather than a `memmove` call.
#[derive(Debug, Clone, Copy)]
pub struct InFlight {
    /// Arrival time at the cluster front end.
    pub(crate) arrival: SimTime,
    /// True service demand actually being served (cache-hit adjusted) —
    /// ground truth the scheduler never sees directly; it closes the
    /// attained-service books at completion.
    pub(crate) served: SimDuration,
    /// CPU weight of `served`.
    pub(crate) w: f64,
    /// When service started on the current node; `None` while the
    /// request is still in transfer.
    pub(crate) started: Option<SimTime>,
    /// Node currently hosting the request.
    pub(crate) node: usize,
    /// The request's content key (dynamic-content caching).
    pub(crate) cache_key: Option<u64>,
    /// The request's client origin region.
    pub(crate) origin: usize,
    /// Working-set pages of the service the node runs: the fetched
    /// bytes for a cache hit, the request's memory demand otherwise.
    pub(crate) pages: u32,
    /// Whether the request is dynamic (its class, cache hit or not).
    pub(crate) dynamic: bool,
    /// Whether the dynamic-content cache served this request.
    pub(crate) cache_hit: bool,
    /// Where the request was placed (for level attribution).
    pub(crate) on_master: bool,
}

const _: () = assert!(std::mem::size_of::<InFlight>() <= 80);

impl InFlight {
    /// The node-model demand of the service this request receives: a
    /// cache hit is a static-scale fetch with no fork.
    pub(crate) fn demand_spec(&self) -> DemandSpec {
        DemandSpec {
            service: self.served,
            cpu_fraction: self.w,
            memory_pages: self.pages,
            is_cgi: self.dynamic && !self.cache_hit,
        }
    }
}

/// `split_seed` label for the demand-noise stream, disjoint from the
/// workload generators' labels (1..=5) and stable across runs.
const NOISE_RNG_LABEL: u64 = 0xD15E;

/// [`InFlightBook`] ring marker for a seq with no live record.
const VACANT: u32 = u32::MAX;

/// The in-flight requests, indexed by admission seq. Seqs are inserted
/// in increasing order, so a ring over the window from the oldest live
/// seq (always at the front) to the newest maps each seq to its
/// record's slab index in O(1); the window may hold vacant seqs
/// (requests dropped at admission, or finished out of order). The ring
/// stores only `u32` indices because the oldest live request pins the
/// whole window; the records sit in a slab whose free list recycles
/// them.
#[derive(Debug, Default)]
pub(crate) struct InFlightBook {
    /// Admission seq of `ring[0]`.
    base: u64,
    /// Slab index per seq in the window, or [`VACANT`].
    ring: VecDeque<u32>,
    slab: Vec<InFlight>,
    free: Vec<u32>,
}

impl InFlightBook {
    /// Record `seq`, which must be newer than every seq recorded so far.
    fn insert(&mut self, seq: u64, fl: InFlight) {
        if self.ring.is_empty() {
            self.base = seq;
        }
        let offset = (seq - self.base) as usize;
        debug_assert!(offset >= self.ring.len(), "in-flight seq reused");
        self.ring.resize(offset, VACANT);
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = fl;
                slot
            }
            None => {
                self.slab.push(fl);
                (self.slab.len() - 1) as u32
            }
        };
        self.ring.push_back(slot);
    }

    /// `seq`'s ring offset and slab index, if it is live.
    fn locate(&self, seq: u64) -> Option<(usize, usize)> {
        let offset = usize::try_from(seq.checked_sub(self.base)?).ok()?;
        match self.ring.get(offset) {
            Some(&slot) if slot != VACANT => Some((offset, slot as usize)),
            _ => None,
        }
    }

    pub(crate) fn get(&self, seq: u64) -> Option<&InFlight> {
        self.locate(seq).map(|(_, slot)| &self.slab[slot])
    }

    pub(crate) fn get_mut(&mut self, seq: u64) -> Option<&mut InFlight> {
        self.locate(seq).map(|(_, slot)| &mut self.slab[slot])
    }

    fn remove(&mut self, seq: u64) -> Option<InFlight> {
        let (offset, slot) = self.locate(seq)?;
        self.ring[offset] = VACANT;
        self.free.push(slot as u32);
        while self.ring.front() == Some(&VACANT) {
            self.ring.pop_front();
            self.base += 1;
        }
        Some(self.slab[slot])
    }

    fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Live `(seq, record)` pairs in seq order.
    fn iter(&self) -> impl Iterator<Item = (u64, &InFlight)> {
        self.ring
            .iter()
            .enumerate()
            .filter(|&(_, &slot)| slot != VACANT)
            .map(|(offset, &slot)| (self.base + offset as u64, &self.slab[slot as usize]))
    }
}

/// Options for one run on either substrate: what observes it and what
/// the scheduler is told. `simulate` and the live emulation both hand
/// them to [`DriverCore::apply`].
///
/// ```
/// use msweb_cluster::{simulate, ClusterConfig, PolicyKind, RunOptions};
/// use msweb_workload::{ucb, DemandModel};
///
/// let trace = ucb()
///     .generate(500, &DemandModel::simulation(40.0), 1)
///     .scaled_to_rate(100.0);
/// let outcome = simulate(
///     ClusterConfig::simulation(8, PolicyKind::Flat),
///     &trace,
///     RunOptions::new(),
/// );
/// assert_eq!(outcome.summary.completed, 500);
/// assert!(outcome.summary.stretch >= 1.0);
/// assert!(outcome.telemetry.is_none());
/// ```
#[derive(Default)]
pub struct RunOptions {
    /// Per-decision observer (e.g. a [`crate::sched::JsonlSink`] backing
    /// `--trace-decisions`), installed on the scheduler before replay.
    pub observer: Option<Box<dyn DecisionObserver>>,
    /// Enable telemetry collection; the snapshot comes back in
    /// [`RunOutcome::telemetry`].
    pub telemetry: bool,
    /// What the scheduler is told about each request's demand; defaults
    /// to [`DemandVisibility::Exact`] (the paper's regime).
    pub visibility: DemandVisibility,
    /// Windowed time-series recorder (one JSONL record per monitor
    /// tick), streamed to its sink during the run and handed back in
    /// [`RunOutcome::series`].
    pub series: Option<SeriesRecorder>,
    /// SLO burn-rate rules evaluated at every monitor tick; the engine
    /// comes back in [`RunOutcome::slo`].
    pub slo: Option<SloEngine>,
}

impl RunOptions {
    /// No observer, no telemetry, exact demand visibility.
    pub fn new() -> Self {
        RunOptions::default()
    }

    /// Install a per-decision observer (builder style).
    pub fn observer(mut self, observer: Box<dyn DecisionObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Enable telemetry collection (builder style).
    pub fn telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    /// Choose the demand-visibility regime (builder style).
    pub fn visibility(mut self, visibility: DemandVisibility) -> Self {
        self.visibility = visibility;
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
}

/// What one run produced, on either substrate.
#[derive(Debug)]
pub struct RunOutcome {
    /// The run summary.
    pub summary: RunSummary,
    /// The telemetry snapshot, when telemetry was requested.
    pub telemetry: Option<TelemetrySnapshot>,
    /// The series recorder, flushed, when one was attached (e.g. to
    /// read [`SeriesRecorder::records`]).
    pub series: Option<SeriesRecorder>,
    /// The SLO engine after the run, when rules were attached (e.g. to
    /// read [`SloEngine::alerts_fired`]).
    pub slo: Option<SloEngine>,
}

/// The substrate-agnostic driver state and steps shared by the
/// simulator and the live emulation (see the module docs). Generic over
/// the scheduler, so the per-request path stays monomorphised.
pub struct DriverCore<S: Schedule> {
    pub(crate) config: ClusterConfig,
    pub(crate) scheduler: S,
    pub(crate) monitor: LoadMonitor,
    pub(crate) metrics: Metrics,
    /// Admitted-but-unfinished requests, indexed by admission sequence.
    pub(crate) in_flight: InFlightBook,
    /// Reservation priors (recorded in the trace meta line so replay can
    /// rebuild the same controller) and the off-line-sampled class mean
    /// demands that charge the stale load view, in substrate time.
    pub(crate) stats: WorkloadStats,
    /// Registry spec label recorded in the trace meta line when the
    /// scheduler is a custom composition rather than `config.policy`.
    pub(crate) spec_label: Option<String>,
    fold: WindowFold,
    /// Node completions that matched no in-flight request.
    stale_completions: u64,
    substrate: &'static str,
    /// Whether telemetry is on ([`DriverCore::enable_telemetry`]).
    telemetry: bool,
    /// Whether [`DriverCore::into_outcome`] hands back a telemetry
    /// snapshot ([`RunOptions::telemetry`]).
    report_telemetry: bool,
    /// The latest [`WINDOW_RING_CAP`] controller window samples, kept
    /// while telemetry is on.
    windows: VecDeque<WindowSample>,
    /// Per-node busy gauges of the latest window, 1 − the refreshed load
    /// view's CPU idle ratio, kept while telemetry or a series recorder
    /// is on.
    node_busy: Vec<f64>,
    pub(crate) series: Option<SeriesRecorder>,
    pub(crate) slo: Option<SloEngine>,
    /// What the scheduler is told about each request's demand.
    visibility: DemandVisibility,
    /// Dedicated noise stream for `DemandVisibility::Noisy`. Never
    /// drawn from under any other regime, so the regime cannot perturb
    /// the scheduler's RNG sequence (the golden fixtures).
    noise_rng: SimRng,
}

impl<S: Schedule> DriverCore<S> {
    /// A core for a `substrate` (`"sim"` or `"live"`) run of `config`,
    /// driving `scheduler`, which the caller built for this same
    /// `config` from `stats`' priors. `stats`' mean demands are the
    /// per-class charges, in substrate time. `spec_label` names a
    /// registry composition in the trace meta line and as the
    /// telemetry policy label.
    pub fn new(
        substrate: &'static str,
        config: ClusterConfig,
        scheduler: S,
        stats: WorkloadStats,
        spec_label: Option<String>,
    ) -> Self {
        let monitor = LoadMonitor::new(config.p(), config.monitor_period(), SimTime::ZERO);
        let noise_rng = SimRng::seed_from_u64(split_seed(config.seed(), NOISE_RNG_LABEL));
        DriverCore {
            config,
            scheduler,
            monitor,
            metrics: Metrics::new(),
            in_flight: InFlightBook::default(),
            stats,
            spec_label,
            fold: WindowFold::new(),
            stale_completions: 0,
            substrate,
            telemetry: false,
            report_telemetry: false,
            windows: VecDeque::new(),
            node_busy: Vec::new(),
            series: None,
            slo: None,
            visibility: DemandVisibility::Exact,
            noise_rng,
        }
    }

    /// Apply one run's options: install the observer, choose the
    /// visibility regime, and turn on telemetry and attach the series
    /// recorder and the SLO engine. Both substrates call this.
    pub fn apply(&mut self, opts: RunOptions) {
        if opts.observer.is_some() {
            self.scheduler.set_observer(opts.observer);
        }
        self.set_visibility(opts.visibility);
        if opts.telemetry {
            self.enable_telemetry();
        }
        self.report_telemetry = opts.telemetry;
        if let Some(recorder) = opts.series {
            self.attach_series(recorder);
        }
        if let Some(engine) = opts.slo {
            self.attach_slo(engine);
        }
    }

    /// Choose what the scheduler is told about each request's demand.
    /// Panics on a negative or non-finite `Noisy` half-width.
    pub(crate) fn set_visibility(&mut self, visibility: DemandVisibility) {
        if let DemandVisibility::Noisy(sigma) = visibility {
            assert!(
                sigma >= 0.0 && sigma.is_finite(),
                "bad noise half-width {sigma}"
            );
        }
        self.visibility = visibility;
    }

    /// Turn on the scheduler's per-stage counters and keep the window
    /// samples and busy gauges a telemetry snapshot reports.
    pub fn enable_telemetry(&mut self) {
        self.scheduler.set_telemetry_enabled(true);
        self.telemetry = true;
    }

    /// Attach a windowed time-series recorder (implies the scheduler's
    /// per-stage counters, so the per-window deltas are real).
    pub fn attach_series(&mut self, recorder: SeriesRecorder) {
        self.scheduler.set_telemetry_enabled(true);
        self.series = Some(recorder);
    }

    /// Attach an SLO burn-rate engine, evaluated at every window close.
    pub fn attach_slo(&mut self, engine: SloEngine) {
        self.slo = Some(engine);
    }

    /// The latest controller window sample, while telemetry is on.
    pub fn last_window(&self) -> Option<&WindowSample> {
        self.windows.back()
    }

    /// The latest window's per-node busy gauges (empty before the first
    /// window close, or with neither telemetry nor a series recorder).
    pub fn node_busy(&self) -> &[f64] {
        &self.node_busy
    }

    /// Node completions that matched no in-flight request and were
    /// skipped — a degraded path that a correct run never takes.
    pub fn stale_completions(&self) -> u64 {
        self.stale_completions
    }

    /// Whether no admitted request is still in flight.
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_empty()
    }

    /// The policy label reported in telemetry: the registry spec when
    /// one was recorded, the policy slug otherwise.
    fn policy_label(&self) -> String {
        match &self.spec_label {
            Some(spec) => spec.clone(),
            None => self.config.policy().slug().to_string(),
        }
    }

    /// Start the run: write the decision log's meta line (when tracing)
    /// and the series header (when a recorder is attached).
    pub fn begin(&mut self) {
        if self.scheduler.tracing() {
            let cc = &self.config;
            let meta = RunMeta {
                substrate: self.substrate.to_string(),
                p: cc.p(),
                m: self.scheduler.masters(),
                policy: cc.policy().slug().to_string(),
                spec: self.spec_label.clone(),
                seed: cc.seed(),
                a0: self.stats.a0,
                r0: self.stats.r0,
                master_reserve: cc.master_reserve(),
                dns_skew: cc.dns_skew(),
                monitor_period_us: cc.monitor_period().as_micros(),
                remote_latency_us: cc.remote_latency().as_micros(),
                redirect_rtt_us: cc.redirect_rtt().as_micros(),
                speeds: cc.speeds().map(<[f64]>::to_vec),
                regions: self.scheduler.region_topology().cloned(),
            };
            self.scheduler.emit(&TraceEvent::Meta(meta));
        }
        let policy = self.policy_label();
        if let Some(rec) = &mut self.series {
            rec.begin(&SeriesMeta {
                substrate: self.substrate,
                policy: &policy,
                p: self.config.p(),
                m: self.scheduler.masters(),
                seed: self.config.seed(),
            });
        }
    }

    /// The class-mean demand charged to the stale load view for a
    /// request placed as dynamic (`true`) or static.
    pub fn expected(&self, dynamic: bool) -> SimDuration {
        if dynamic {
            self.stats.dynamic_mean
        } else {
            self.stats.static_mean
        }
    }

    /// Produce the declaration the scheduler will be shown for a request
    /// whose true CPU weight is `w` and whose class-mean demand is
    /// `expected`, under the run's visibility regime. Only `Noisy` draws
    /// from the dedicated noise stream.
    fn declare(&mut self, w: f64, expected: SimDuration) -> ReqKnowledge {
        match self.visibility {
            DemandVisibility::Exact => ReqKnowledge::new(w, expected),
            DemandVisibility::Noisy(sigma) => {
                let dw = sigma * (2.0 * self.noise_rng.next_f64() - 1.0);
                let dx = sigma * (2.0 * self.noise_rng.next_f64() - 1.0);
                ReqKnowledge::new(
                    (w + dw).clamp(0.0, 1.0),
                    expected.mul_f64((1.0 + dx).max(0.05)),
                )
            }
            DemandVisibility::Hidden => ReqKnowledge::hidden(expected),
        }
    }

    /// A request arrives at the front end at `t`: declare it under the
    /// run's visibility regime, place it and book it as in flight, or —
    /// when no live node exists — drop it and return `None`. `req`
    /// carries its demand in substrate time; `served` and `w` are the
    /// service the node will really give it and that service's CPU
    /// weight, which differ from the request's own only for a cache hit
    /// (`cache_hit`, placed as a static request).
    #[inline]
    pub fn admit(
        &mut self,
        seq: u64,
        t: SimTime,
        req: Request,
        served: SimDuration,
        cache_hit: bool,
        w: f64,
    ) -> Option<Placement> {
        let dynamic = req.class.is_dynamic() && !cache_hit;
        let know = self.declare(w, self.expected(dynamic));
        self.scheduler.note_request(seq, t, served);
        self.scheduler.note_origin(req.origin);
        let Ok(placement) = self.scheduler.place(dynamic, know, &mut self.monitor) else {
            // Whole cluster dead: degrade gracefully instead of aborting
            // the experiment.
            self.drop_request(DropRecord {
                req: seq,
                at_us: t.0,
                dynamic,
                w: know.w,
                expected_us: know.expected.as_micros(),
                redrive: true,
                restart: false,
                origin: req.origin,
            });
            return None;
        };
        let pages = self.config.os().bytes_to_pages(if cache_hit {
            req.bytes
        } else {
            req.demand.memory_bytes
        });
        self.in_flight.insert(
            seq,
            InFlight {
                arrival: t,
                served,
                w,
                started: None,
                node: placement.node,
                cache_key: req.cache_key,
                origin: req.origin,
                pages,
                dynamic: req.class.is_dynamic(),
                cache_hit,
                on_master: placement.on_master,
            },
        );
        Some(placement)
    }

    /// Re-place in-flight request `seq`, lost to a crash at `t`, freshly
    /// declared and placed as [`DriverCore::admit`] placed it (a cache
    /// hit as a static fetch) — or, when it may not be restarted
    /// (`restart_dynamic` unset, or a static request) or no live node
    /// remains, drop it. A drop event's `redrive` records whether the
    /// scheduler actually ran (and advanced its RNG) before the drop,
    /// in which case `w` is the weight the failed call was given.
    pub(crate) fn fail_over(
        &mut self,
        seq: u64,
        t: SimTime,
        restart_dynamic: bool,
    ) -> Option<Placement> {
        let fl = *self.in_flight.get(seq).expect("lost request in flight");
        let dynamic = fl.dynamic && !fl.cache_hit;
        // The charge `admit` declared for a dynamic request; a static
        // loss is never re-placed and logs the dynamic charge.
        let expected = self.expected(!fl.cache_hit);
        let know = (restart_dynamic && fl.dynamic).then(|| self.declare(fl.w, expected));
        let restarted = know.and_then(|know| {
            self.scheduler.note_request(seq, t, fl.served);
            self.scheduler.note_origin(fl.origin);
            self.scheduler
                .replace_after_failure(dynamic, know, &mut self.monitor)
                .ok()
        });
        if restarted.is_some() {
            self.metrics.note_restarted();
        } else {
            self.in_flight.remove(seq);
            self.drop_request(DropRecord {
                req: seq,
                at_us: t.0,
                dynamic,
                w: know.map_or(fl.w, |k| k.w),
                expected_us: expected.as_micros(),
                redrive: know.is_some(),
                restart: true,
                origin: fl.origin,
            });
        }
        restarted
    }

    /// Count a lost request and log its drop event.
    #[inline]
    fn drop_request(&mut self, record: DropRecord) {
        self.metrics.note_dropped();
        self.fold.note_drop();
        if self.scheduler.tracing() {
            self.scheduler.emit(&TraceEvent::Drop(record));
        }
    }

    /// Request `seq` starts service on `node` at `at` (its arrival
    /// there, after any transfer).
    #[inline]
    pub fn start(&mut self, seq: u64, node: usize, at: SimTime) {
        let fl = self
            .in_flight
            .get_mut(seq)
            .expect("started request in flight");
        fl.node = node;
        fl.started = Some(at);
        self.scheduler.note_service_start(node, seq);
    }

    /// Request `seq` finished at `finished`: account it in the metrics,
    /// the window fold and the reservation controller, and
    /// log it. Returns its booking; a `seq` with no booking is a stale
    /// completion, counted ([`DriverCore::stale_completions`]) and
    /// skipped.
    #[inline]
    pub fn complete(&mut self, seq: u64, finished: SimTime) -> Option<InFlight> {
        let Some(fl) = self.in_flight.remove(seq) else {
            self.stale_completions += 1;
            return None;
        };
        let dynamic = fl.dynamic;
        self.scheduler.note_completion(fl.node);
        self.scheduler.note_service_end(fl.node, seq, fl.served);
        if fl.cache_hit {
            self.metrics.note_cache_hit();
        }
        let response = finished - fl.arrival;
        let level = dynamic.then_some(if fl.on_master {
            Level::Master
        } else {
            Level::Slave
        });
        // Stretch divides by the service the node really gave — a cache
        // hit's cheap fetch, not the CGI it replaced — which is also the
        // demand the scheduler and the decision log were told.
        self.metrics.record(response, fl.served, level);
        self.fold.record(response, fl.served);
        self.scheduler
            .reservation_mut()
            .note_response(dynamic, response);
        if self.scheduler.tracing() {
            self.scheduler.emit(&TraceEvent::Complete {
                req: seq,
                node: fl.node,
                dynamic,
                response_us: response.as_micros(),
            });
        }
        Some(fl)
    }

    /// Close the monitor window ending at `t`, given one load snapshot
    /// per node: report attained service, refresh the stale load view,
    /// update the reservation controller, then close the window fold and
    /// fan its signals out to the telemetry window ring, the series, the
    /// decision log and the SLO engine. The busy gauges are derived from
    /// the refreshed load view on both substrates.
    pub fn close_window(&mut self, t: SimTime, snapshots: &[LoadSnapshot]) {
        // Attained service: elapsed service time on the current node,
        // capped at the true demand, in admission order.
        for (seq, fl) in self.in_flight.iter() {
            if let Some(started) = fl.started.filter(|&s| s <= t) {
                let attained = (t - started).min(fl.served);
                self.scheduler.note_service_progress(fl.node, seq, attained);
            }
        }
        self.monitor.tick(t, snapshots);
        // Mean per-node utilisation over the window: busy resource-time
        // (CPU + disk, which execute serially within one request) per
        // second of window, averaged across nodes.
        let rho = self.monitor.mean_utilisation();
        // Capture the windowed master fraction before update() resets it.
        let theta_hat = self.scheduler.reservation().master_fraction();
        self.scheduler.reservation_mut().update(rho);
        let signals = self
            .fold
            .close(t.0, self.scheduler.reservation().clamp_events());
        // The window sample and busy gauges feed telemetry and the
        // series recorder alike (pure reads — skipping them cannot
        // change the run).
        if self.telemetry || self.series.is_some() {
            let res = self.scheduler.reservation();
            let (a_hat, r_hat) = res.measured();
            let sample = WindowSample {
                at_us: t.0,
                theta2_star: res.theta2_star(),
                a_hat,
                r_hat,
                rho,
                theta_hat,
                clamp_events: res.clamp_events(),
            };
            self.node_busy.clear();
            self.node_busy
                .extend(self.monitor.all().iter().map(|l| 1.0 - l.cpu_idle_ratio));
            if self.telemetry {
                if self.windows.len() == WINDOW_RING_CAP {
                    self.windows.pop_front();
                }
                self.windows.push_back(sample);
            }
            if let Some(rec) = &mut self.series {
                rec.record(&SeriesWindowInput {
                    window: &sample,
                    sched: self.scheduler.telemetry(),
                    node_busy: &self.node_busy,
                    window_stretch: signals.stretch,
                    drops: signals.drops,
                });
            }
        }
        if self.scheduler.tracing() {
            self.scheduler.emit(&TraceEvent::Tick {
                at_us: t.0,
                rho,
                nodes: snapshots.iter().map(NodeSample::from_snapshot).collect(),
            });
        }
        if let Some(engine) = &mut self.slo {
            for alert in engine.observe(&signals) {
                eprintln!("{}", alert.to_line());
                if self.scheduler.tracing() {
                    self.scheduler.emit(&alert.to_trace_event());
                }
            }
        }
    }

    /// The full telemetry snapshot for the run so far; `None` unless
    /// telemetry is enabled and the scheduler keeps per-stage counters.
    /// The response histograms come from the run metrics' exact
    /// per-class response counts.
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        if !self.telemetry {
            return None;
        }
        let sched = self.scheduler.telemetry()?;
        Some(TelemetrySnapshot {
            substrate: self.substrate.to_string(),
            policy: self.policy_label(),
            p: sched.node_charges.len(),
            m: self.scheduler.masters(),
            seed: self.config.seed(),
            sched: sched.clone(),
            scorer_paths: self.scheduler.scorer_path_counts(),
            clamp_events: self.scheduler.reservation().clamp_events(),
            windows: self.windows.iter().copied().collect(),
            node_busy: self.node_busy.clone(),
            response_static_us: self.metrics.responses(false).histogram(),
            response_dynamic_us: self.metrics.responses(true).histogram(),
        })
    }

    /// Mean stretch of every measured monitor window so far.
    pub fn stretch_series(&self) -> &[f64] {
        self.fold.stretch_series()
    }

    /// End the run: record the per-node busy times (CPU + disk seconds)
    /// for the balance diagnostics, flush the series, and summarise.
    pub fn finish(&mut self, node_busy: Vec<f64>) -> RunSummary {
        self.metrics.set_node_busy(node_busy);
        if let Some(rec) = &mut self.series {
            rec.flush();
        }
        self.metrics.summary()
    }

    /// Hand back what the run produced after [`DriverCore::finish`]:
    /// `summary`, the telemetry snapshot when [`RunOptions::telemetry`]
    /// asked for one, and the attached series recorder and SLO engine.
    pub fn into_outcome(mut self, summary: RunSummary) -> RunOutcome {
        RunOutcome {
            summary,
            telemetry: if self.report_telemetry {
                self.telemetry_snapshot()
            } else {
                None
            },
            series: self.series.take(),
            slo: self.slo.take(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicyKind;
    use crate::sched::DynScheduler;

    fn stats() -> WorkloadStats {
        WorkloadStats {
            a0: 0.13,
            r0: 0.05,
            static_mean: SimDuration::from_millis(1),
            dynamic_mean: SimDuration::from_millis(50),
        }
    }

    /// The node demand built from the in-flight record is the request's
    /// own spec for a miss, and for a cache hit the hit's service over
    /// the pages of the bytes it returns, with no fork.
    #[test]
    fn in_flight_record_rebuilds_the_delivered_demand() {
        use msweb_workload::{RequestClass, ServiceDemand};
        let cfg = ClusterConfig::simulation(4, PolicyKind::MasterSlave);
        let scheduler = DynScheduler::for_policy(&cfg, stats().a0, stats().r0);
        let mut core = DriverCore::new("sim", cfg.clone(), scheduler, stats(), None);
        let demand = ServiceDemand {
            service: SimDuration::from_millis(40),
            cpu_fraction: 0.9,
            memory_bytes: 1 << 20,
        };
        let req =
            Request::new(0, SimTime::ZERO, RequestClass::Dynamic, 20_000, demand).with_cache_key(7);
        let hit_service = SimDuration::from_millis(2);
        core.admit(0, SimTime::ZERO, req, req.demand.service, false, 0.9)
            .expect("placed");
        core.admit(1, SimTime::ZERO, req, hit_service, true, 0.3)
            .expect("placed");
        let miss = core.in_flight.get(0).expect("booked");
        assert_eq!(miss.demand_spec(), cfg.demand_spec(&req));
        assert_eq!(miss.cache_key, Some(7));
        let hit = core.in_flight.get(1).expect("booked");
        let pages = cfg.os().bytes_to_pages(req.bytes);
        assert_ne!(pages, cfg.os().bytes_to_pages(demand.memory_bytes));
        assert_eq!(
            hit.demand_spec(),
            DemandSpec {
                service: hit_service,
                cpu_fraction: 0.3,
                memory_pages: pages,
                is_cgi: false,
            }
        );
    }

    #[test]
    fn telemetry_window_ring_is_bounded() {
        let cfg = ClusterConfig::simulation(4, PolicyKind::MasterSlave);
        let stats = stats();
        let scheduler = DynScheduler::for_policy(&cfg, stats.a0, stats.r0);
        let nodes = cfg.nodes();
        let period_us = cfg.monitor_period().as_micros();
        let mut core = DriverCore::new("sim", cfg, scheduler, stats, None);
        core.enable_telemetry();
        let total = (WINDOW_RING_CAP + 100) as u64;
        for i in 1..=total {
            let snapshots: Vec<LoadSnapshot> = nodes.iter().map(|n| n.load()).collect();
            core.close_window(SimTime(i * period_us), &snapshots);
        }
        let last_us = total * period_us;
        assert_eq!(core.last_window().map(|w| w.at_us), Some(last_us));
        let snap = core.telemetry_snapshot().expect("telemetry is on");
        assert_eq!(snap.windows.len(), WINDOW_RING_CAP);
        assert_eq!(snap.windows.last().map(|w| w.at_us), Some(last_us));
        assert_eq!(snap.windows[0].at_us, 101 * period_us);
        assert_eq!(snap.node_busy.len(), 4);
    }
}
