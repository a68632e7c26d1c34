//! The substrate-agnostic half of a cluster driver.
//!
//! Both execution substrates — the discrete-event simulator
//! ([`ClusterSim`](crate::ClusterSim)) and the live thread emulation
//! (`msweb-emu`) — drive one [`DriverCore`]. The core owns the
//! scheduler, the stale load view, the run metrics, the in-flight book
//! and the attached observers (telemetry probe, series recorder, SLO
//! engine), and gives each substrate one call per driver step: begin,
//! admit, start, complete, close a monitor window, snapshot, finish.
//! A substrate supplies only time (simulated or wall-clock) and service
//! (the node models), so everything a run records — the decision log,
//! the series, the alerts, the summary — comes from one piece of code.

use std::collections::VecDeque;

use msweb_ossim::LoadSnapshot;
use msweb_simcore::{SimDuration, SimTime};
use msweb_workload::Request;

use crate::config::ClusterConfig;
use crate::loadinfo::LoadMonitor;
use crate::metrics::{Level, Metrics, RunSummary, WindowFold};
use crate::sched::{
    DropRecord, NodeSample, Placement, ReqKnowledge, RunMeta, Schedule, TraceEvent,
};
use crate::sim::WorkloadStats;
use crate::telemetry::series::{SeriesMeta, SeriesRecorder, SeriesWindowInput};
use crate::telemetry::slo::SloEngine;
use crate::telemetry::{TelemetryProbe, TelemetrySnapshot, WindowSample};

/// Per-request bookkeeping for a request that has been admitted and not
/// yet completed or dropped. Book membership *is* the pending state:
/// completion and drop both remove the entry, so a stale event for a
/// request simply misses the book.
#[derive(Debug, Clone, Copy)]
pub struct InFlight {
    /// The request itself, its demand in substrate time.
    pub(crate) req: Request,
    /// Arrival time at the cluster front end.
    pub(crate) arrival: SimTime,
    /// Where the request was placed (for level attribution).
    pub(crate) on_master: bool,
    /// Node currently hosting the request.
    pub(crate) node: usize,
    /// Whether the dynamic-content cache served this request.
    pub(crate) cache_hit: bool,
    /// True service demand actually being served (cache-hit adjusted) —
    /// ground truth the scheduler never sees directly; it closes the
    /// attained-service books at completion.
    pub(crate) served: SimDuration,
    /// When service started on the current node; `None` while the
    /// request is still in transfer.
    pub(crate) started: Option<SimTime>,
}

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
    probe: Option<TelemetryProbe>,
    pub(crate) series: Option<SeriesRecorder>,
    pub(crate) slo: Option<SloEngine>,
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
            probe: None,
            series: None,
            slo: None,
        }
    }

    /// Turn on the scheduler's per-stage counters and install a
    /// telemetry probe.
    pub fn enable_telemetry(&mut self) {
        self.scheduler.set_telemetry_enabled(true);
        self.probe = Some(TelemetryProbe::new());
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

    /// The telemetry probe, when telemetry is enabled.
    pub fn probe(&self) -> Option<&TelemetryProbe> {
        self.probe.as_ref()
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

    /// A request arrives at the front end at `t`: place it with the
    /// declaration `know` and book it as in flight, or — when no live
    /// node exists — drop it and return `None`. `req` carries its demand
    /// in substrate time; `served` is the service the node will really
    /// give it, which differs from that demand only for a cache hit
    /// (`cache_hit`, placed as a static request).
    #[inline]
    pub fn admit(
        &mut self,
        seq: u64,
        t: SimTime,
        req: Request,
        served: SimDuration,
        cache_hit: bool,
        know: ReqKnowledge,
    ) -> Option<Placement> {
        let dynamic = req.class.is_dynamic() && !cache_hit;
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
        self.in_flight.insert(
            seq,
            InFlight {
                req,
                arrival: t,
                on_master: placement.on_master,
                node: placement.node,
                cache_hit,
                served,
                started: None,
            },
        );
        Some(placement)
    }

    /// Re-place in-flight request `seq`, lost to a crash at `t`, with
    /// the declaration `know` — or, when `know` is `None` (the request
    /// may not be restarted) or no live node remains, drop it. A drop
    /// event's `redrive` records whether the scheduler actually ran (and
    /// advanced its RNG) before the drop, in which case `w` is the
    /// weight the failed call was given.
    pub(crate) fn fail_over(
        &mut self,
        seq: u64,
        t: SimTime,
        know: Option<ReqKnowledge>,
    ) -> Option<Placement> {
        let req = self.in_flight.get(seq).expect("lost request in flight").req;
        let restarted = know.and_then(|know| {
            self.scheduler.note_request(seq, t, req.demand.service);
            self.scheduler.note_origin(req.origin);
            self.scheduler
                .replace_after_failure(true, know, &mut self.monitor)
                .ok()
        });
        if restarted.is_some() {
            self.metrics.note_restarted();
        } else {
            self.in_flight.remove(seq);
            self.drop_request(DropRecord {
                req: seq,
                at_us: t.0,
                dynamic: req.class.is_dynamic(),
                w: know.map_or(req.demand.cpu_fraction, |k| k.w),
                expected_us: self.stats.dynamic_mean.as_micros(),
                redrive: know.is_some(),
                restart: true,
                origin: req.origin,
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
    /// the window fold, the probe and the reservation controller, and
    /// log it. Returns its booking; a `seq` with no booking is a stale
    /// completion, counted ([`DriverCore::stale_completions`]) and
    /// skipped.
    #[inline]
    pub fn complete(&mut self, seq: u64, finished: SimTime) -> Option<InFlight> {
        let Some(fl) = self.in_flight.remove(seq) else {
            self.stale_completions += 1;
            return None;
        };
        let dynamic = fl.req.class.is_dynamic();
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
        self.metrics.record(response, fl.req.demand.service, level);
        self.fold.record(response, fl.req.demand.service);
        if let Some(probe) = &self.probe {
            probe.record_response(dynamic, response.as_micros());
        }
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
    /// per node: report attained service, refresh the stale load view
    /// (sharded across `workers` threads, bit-identically), update the
    /// reservation controller, then close the window fold and fan its
    /// signals out to the probe, the series, the decision log and the
    /// SLO engine. `node_busy` is the substrate's own per-node busy
    /// gauges when it measures them (the live sampler thread); `None`
    /// derives them from the refreshed load view and publishes them to
    /// the probe.
    pub fn close_window(
        &mut self,
        t: SimTime,
        snapshots: &[LoadSnapshot],
        workers: usize,
        node_busy: Option<&[f64]>,
    ) {
        // Attained service: elapsed service time on the current node,
        // capped at the true demand, in admission order.
        for (seq, fl) in self.in_flight.iter() {
            if let Some(started) = fl.started.filter(|&s| s <= t) {
                let attained = (t - started).min(fl.served);
                self.scheduler.note_service_progress(fl.node, seq, attained);
            }
        }
        self.monitor.tick_with_workers(t, snapshots, workers);
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
        // The window sample and busy gauges feed the probe and the
        // series recorder alike (pure reads — skipping them cannot
        // change the run).
        if self.probe.is_some() || self.series.is_some() {
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
            let derived;
            let busy = match node_busy {
                Some(busy) => busy,
                None => {
                    derived = self
                        .monitor
                        .all()
                        .iter()
                        .map(|l| 1.0 - l.cpu_idle_ratio)
                        .collect::<Vec<f64>>();
                    if let Some(probe) = &self.probe {
                        probe.set_node_busy(&derived);
                    }
                    &derived
                }
            };
            if let Some(probe) = &self.probe {
                probe.record_window(sample);
            }
            if let Some(rec) = &mut self.series {
                rec.record(&SeriesWindowInput {
                    window: &sample,
                    sched: self.scheduler.telemetry(),
                    node_busy: busy,
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
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        let probe = self.probe.as_ref()?;
        let sched = self.scheduler.telemetry()?;
        Some(TelemetrySnapshot::assemble(
            self.substrate,
            &self.policy_label(),
            self.config.seed(),
            self.scheduler.masters(),
            sched,
            self.scheduler.scorer_path_counts(),
            self.scheduler.reservation().clamp_events(),
            probe,
        ))
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
    /// `summary`, the telemetry snapshot when `telemetry` is set, and
    /// the attached series recorder and SLO engine.
    pub fn into_outcome(mut self, summary: RunSummary, telemetry: bool) -> RunOutcome {
        RunOutcome {
            summary,
            telemetry: if telemetry {
                self.telemetry_snapshot()
            } else {
                None
            },
            series: self.series.take(),
            slo: self.slo.take(),
        }
    }
}
