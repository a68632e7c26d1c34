//! The trace-driven cluster simulation driver.
//!
//! [`ClusterSim`] wires a scheduling pipeline, the per-node OS models,
//! the load monitor and the reservation controller into one
//! discrete-event loop. Events are processed in global timestamp order
//! with a fixed tie order (node internals, then transfers, then
//! arrivals, then failures, then monitor ticks) so every run is exactly
//! reproducible.
//!
//! The driver is generic over [`Schedule`], so it accepts any
//! composition: a built-in policy's registry spec (the default, see
//! [`ClusterSim::new`]), a custom spec, or stages composed at compile
//! time — the very same scheduler value the live emulation
//! (`msweb-emu`) consumes. Admission, completion accounting and the
//! per-window fold live in the [`DriverCore`] both substrates drive;
//! this module adds the event ordering, the nodes, transfers, failures
//! and the cache.
//!
//! Workloads arrive as [`RequestSource`] streams: the driver holds only
//! in-flight bookkeeping (the core's ring indexed by admission sequence
//! number over a slab of records) and, for the response-time quantiles,
//! one count per distinct microsecond value
//! ([`Quantiles`](msweb_simcore::Quantiles)), so peak memory is
//! O(concurrent requests + distinct response times), not O(run length).
//! A materialized [`Trace`] runs through the
//! identical code path via its borrowing source adapter, which is what
//! keeps the streamed and materialized summaries byte-identical.
//!
//! Node internals are indexed by an [`EventTree`], a 4-ary min-tree
//! over node ids whose leaves hold each node's current next-event time,
//! so finding the fleet's next event is one read of the root and every
//! node mutation rewrites its leaf and the log₄ p vertices above it,
//! with no data-dependent branch. A node step re-keys the minimum node
//! in place rather than removing and re-inserting it, and reads the
//! node's next event once per [`Node::advance`]: the last read is the
//! new key.
//!
//! The driver feeds the scheduler's attained-service books on every
//! service start, tick and finish; a composition keeps those books only
//! when one of its stages declares it reads them
//! ([`Scorer::reads_attained`](crate::sched::Scorer::reads_attained)),
//! so for the M/S pipeline each feed call is one branch. Placements
//! charge the stale load view, and the decision index
//! ([`RsrcIndex`](crate::sched::RsrcIndex)) folds each charge in by
//! climbing from the node's leaf only until a summary comes out
//! unchanged.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use msweb_ossim::{DemandSpec, Node, NodeScratch};
use msweb_simcore::{EventTree, SimDuration, SimTime};
use msweb_workload::{DemandVisibility, Request, RequestSource, Trace};

use crate::cache::DynContentCache;
use crate::config::ClusterConfig;
use crate::driver::{DriverCore, RunOptions, RunOutcome};
use crate::failure::FailurePlan;
use crate::metrics::RunSummary;
use crate::sched::{DynScheduler, Placement, Schedule};
use crate::telemetry::series::SeriesRecorder;
use crate::telemetry::slo::SloEngine;
use crate::telemetry::TelemetrySnapshot;

/// A fully wired simulated cluster, generic over the scheduling
/// pipeline it drives (defaults to the registry's boxed composition).
pub struct ClusterSim<Sch: Schedule = DynScheduler> {
    /// The scheduler, metrics, in-flight book and observers.
    core: DriverCore<Sch>,
    nodes: Vec<Node>,
    /// In-flight remote transfers: (deliver-at, seq, request, target node).
    transfers: BinaryHeap<Reverse<(u64, u64, u64, usize)>>,
    transfer_seq: u64,
    failures: FailurePlan,
    failure_cursor: usize,
    /// Pending node recoveries: (at, node).
    recoveries: Vec<(SimTime, usize)>,
    /// Dynamic-content cache (Swala extension), when enabled.
    cache: Option<DynContentCache>,
    /// Every node's current next-event time, keyed by node id. Each
    /// mutation of a node rewrites its leaf, so the root is the fleet's
    /// next internal event — O(log p) per mutation instead of an O(p)
    /// scan, with ties in node-id order.
    node_events: EventTree,
    /// The fleet's one buffer pool (idle nodes hold no heap memory) and
    /// the completions of the node step in progress.
    scratch: NodeScratch,
}

impl ClusterSim<DynScheduler> {
    /// Build a cluster driven by `config.policy`'s stage composition
    /// ([`DynScheduler::for_policy`]). `a0`/`r0` are the workload priors
    /// used to seed the reservation controller and (when `masters` is
    /// `Auto`) the Theorem-1 planner. Panics on an invalid
    /// configuration.
    pub fn new(config: ClusterConfig, a0: f64, r0: f64) -> Self {
        let scheduler = DynScheduler::for_policy(&config, a0, r0);
        ClusterSim::with_scheduler(config, scheduler)
            .with_priors(a0, r0)
            .with_mean_demands(
                SimDuration::from_secs_f64(1.0 / 1200.0),
                SimDuration::from_secs_f64(1.0 / 1200.0 / r0.max(1e-4)),
            )
    }
}

impl<Sch: Schedule> ClusterSim<Sch> {
    /// Build a cluster around an explicit scheduler value (e.g. a
    /// registry composition). The caller is responsible for having
    /// built `scheduler` for this same `config`; mean demands default
    /// to the static fetch cost and should usually be overridden with
    /// [`ClusterSim::with_mean_demands`].
    pub fn with_scheduler(config: ClusterConfig, scheduler: Sch) -> Self {
        config.validate().expect("invalid cluster configuration");
        let nodes = config.nodes();
        let cache = config.cache().cloned().map(DynContentCache::new);
        let node_events = EventTree::new(nodes.len());
        let stats = WorkloadStats {
            a0: 0.5,
            r0: 0.05,
            static_mean: SimDuration::from_secs_f64(1.0 / 1200.0),
            dynamic_mean: SimDuration::from_secs_f64(1.0 / 60.0),
        };
        ClusterSim {
            core: DriverCore::new("sim", config, scheduler, stats, None),
            nodes,
            cache,
            transfers: BinaryHeap::new(),
            transfer_seq: 0,
            failures: FailurePlan::none(),
            failure_cursor: 0,
            recoveries: Vec::new(),
            node_events,
            scratch: NodeScratch::default(),
        }
    }

    /// Choose what the scheduler is told about each request's demand
    /// (before `run`). The default, [`DemandVisibility::Exact`], keeps
    /// the paper's idealised-sampling behaviour and draws nothing from
    /// the noise stream.
    pub fn with_visibility(mut self, visibility: DemandVisibility) -> Self {
        self.core.set_visibility(visibility);
        self
    }

    /// Install a failure schedule (before `run`).
    pub fn with_failures(mut self, plan: FailurePlan) -> Self {
        self.failures = plan;
        self
    }

    /// Record the reservation priors the scheduler was seeded with, so
    /// the trace meta line reproduces them. [`ClusterSim::new`] sets
    /// this automatically; callers of [`ClusterSim::with_scheduler`]
    /// should pass the same `a0`/`r0` they composed the scheduler with.
    pub fn with_priors(mut self, a0: f64, r0: f64) -> Self {
        self.core.stats.a0 = a0;
        self.core.stats.r0 = r0;
        self
    }

    /// Record a registry stage-spec label in the trace meta line (for
    /// custom compositions, where `config.policy` alone does not
    /// describe the scheduler).
    pub fn with_spec_label(mut self, spec: impl Into<String>) -> Self {
        self.core.spec_label = Some(spec.into());
        self
    }

    /// Override the off-line-sampled mean class demands (static, dynamic)
    /// used to debit the stale load view after each placement.
    pub fn with_mean_demands(mut self, stat: SimDuration, dynamic: SimDuration) -> Self {
        self.core.stats.static_mean = stat;
        self.core.stats.dynamic_mean = dynamic;
        self
    }

    /// A no-op kept while the perfbench harness still calls it; ticks
    /// always run inline.
    #[doc(hidden)]
    pub fn with_tick_workers(self, _workers: usize) -> Self {
        self
    }

    /// Enable live telemetry: turns on the scheduler's per-stage
    /// counters/spans and has the driver sample the reservation
    /// controller and node gauges at every monitor tick.
    /// Read the result back with [`ClusterSim::telemetry_snapshot`].
    pub fn with_telemetry(mut self) -> Self {
        self.core.enable_telemetry();
        self
    }

    /// Attach a windowed time-series recorder: one JSONL record per
    /// monitor tick, streamed to the recorder's sink (O(1) driver
    /// memory — only the previous tick's cumulative counters are
    /// retained for delta computation). Implies the scheduler's
    /// per-stage telemetry counters, so the per-window placement and
    /// stage deltas are real rather than null; the counters never
    /// influence placement decisions, so summaries and decision logs
    /// are byte-identical with and without a recorder attached.
    pub fn with_series(mut self, recorder: SeriesRecorder) -> Self {
        self.core.attach_series(recorder);
        self
    }

    /// Attach an SLO burn-rate engine, evaluated at every monitor
    /// tick. Fired alerts go to stderr, and — only when decision
    /// tracing is active — to the log as `alert` events, so rule-less
    /// logs stay byte-identical.
    pub fn with_slo(mut self, engine: SloEngine) -> Self {
        self.core.attach_slo(engine);
        self
    }

    /// The attached SLO engine, if any (e.g. to read
    /// [`SloEngine::alerts_fired`] after a run).
    pub fn slo_engine(&self) -> Option<&SloEngine> {
        self.core.slo.as_ref()
    }

    /// Take back the attached series recorder (flushing is the
    /// caller's concern; the recorder also flushes on drop).
    pub fn take_series(&mut self) -> Option<SeriesRecorder> {
        self.core.series.take()
    }

    /// Assemble the full telemetry snapshot for the run so far. `None`
    /// unless [`ClusterSim::with_telemetry`] was called.
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        self.core.telemetry_snapshot()
    }

    /// Node completions that matched no in-flight request and were
    /// skipped — a degraded path that a correct run never takes.
    pub fn stale_completions(&self) -> u64 {
        self.core.stale_completions()
    }

    /// The simulated nodes, by id.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The most nodes that held work at once so far: the buffer sets the
    /// fleet's pool has had to lend out at its peak (deterministic).
    pub fn peak_busy_nodes(&self) -> usize {
        self.scratch.peak_lent()
    }

    /// The resolved master count.
    pub fn masters(&self) -> usize {
        self.core.scheduler.masters()
    }

    /// Cache statistics `(hits, misses, expirations, evictions)`, when
    /// caching is enabled.
    pub fn cache_stats(&self) -> Option<(u64, u64, u64, u64)> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// The configuration in force.
    pub fn config(&self) -> &ClusterConfig {
        &self.core.config
    }

    /// The scheduling pipeline driving this cluster.
    pub fn scheduler(&self) -> &Sch {
        &self.core.scheduler
    }

    /// Mutable access to the pipeline, e.g. to install a
    /// [`DecisionObserver`](crate::sched::DecisionObserver) before `run`.
    pub fn scheduler_mut(&mut self) -> &mut Sch {
        &mut self.core.scheduler
    }

    /// Replay `trace` to completion and return the run summary.
    ///
    /// Thin wrapper over [`ClusterSim::run_source`] via the trace's
    /// borrowing source adapter — both paths execute the identical event
    /// loop, so their summaries are byte-identical.
    pub fn run(&mut self, trace: &Trace) -> RunSummary {
        self.run_source(trace.source())
    }

    /// Drive a [`RequestSource`] to completion and return the run
    /// summary. Peak memory is bounded by the number of concurrently
    /// in-flight requests; the source is consumed one request at a time.
    pub fn run_source<S: RequestSource>(&mut self, mut source: S) -> RunSummary {
        self.core.begin();
        // Seed the node-event index with whatever the fleet already has
        // scheduled (non-empty only when resuming after a prior run).
        for i in 0..self.nodes.len() {
            self.note_node_event(i);
        }
        let mut peeked = source.next();
        let mut admitted: u64 = 0;
        let mut guard: u64 = 0;

        while peeked.is_some() || !self.core.is_idle() {
            guard += 1;
            // Generous bound: every request can cause only finitely many
            // events; the guard catches driver bugs, not real workloads.
            assert!(
                guard < 10_000 * (admitted + 1_000),
                "cluster simulation did not converge"
            );

            // Candidate event times in µs; `NONE` stands for no event.
            const NONE: u64 = u64::MAX;
            let t_node = self.node_events.peek().map_or(NONE, |(t, _)| t.0);
            let t_transfer = self.transfers.peek().map_or(NONE, |Reverse((t, ..))| *t);
            let t_arrival = peeked.as_ref().map_or(NONE, |r| r.arrival.0);
            let t_failure = self
                .failures
                .events()
                .get(self.failure_cursor)
                .map_or(NONE, |e| e.at.0);
            let t_recover = self.recoveries.first().map_or(NONE, |&(t, _)| t.0);
            // Monitor only matters while work remains; it never blocks
            // termination because the loop exits on the in-flight set.
            // It always has a next tick, so the minimum is a real event.
            let t_monitor = self.core.monitor.next_tick().0;

            let t_us = t_node
                .min(t_transfer)
                .min(t_arrival)
                .min(t_failure)
                .min(t_recover)
                .min(t_monitor);
            let t = SimTime(t_us);

            // Tie order: node internals, transfers, arrivals, failures,
            // recoveries, monitor.
            if t_node == t_us {
                self.step_nodes(t);
            } else if t_transfer == t_us {
                let Reverse((_, _, req, node)) = self.transfers.pop().expect("peeked");
                self.deliver(req, node, t);
            } else if t_arrival == t_us {
                let req = peeked.take().expect("checked t_arrival");
                peeked = source.next();
                // The RequestSource contract requires non-decreasing
                // arrival order; a violation would reorder admissions.
                debug_assert!(
                    peeked
                        .as_ref()
                        .is_none_or(|next| next.arrival >= req.arrival),
                    "RequestSource yielded out-of-order arrivals"
                );
                let seq = admitted;
                admitted += 1;
                self.admit(req, seq, t);
            } else if t_failure == t_us {
                self.fail_node(t);
            } else if t_recover == t_us {
                let (_, node) = self.recoveries.remove(0);
                self.core.scheduler.set_dead(node, false);
            } else {
                self.tick_monitor(t);
            }
        }
        let busy: Vec<f64> = self
            .nodes
            .iter()
            .map(|n| {
                let l = n.load();
                l.cpu_busy.as_secs_f64() + l.disk_busy.as_secs_f64()
            })
            .collect();
        self.core.finish(busy)
    }

    /// Re-key node `i` in the event index. Call after any mutation that
    /// can change its next event (submit, advance, kill).
    fn note_node_event(&mut self, i: usize) {
        self.node_events.set(i, self.nodes[i].next_event());
    }

    /// Advance every node whose next event is due at `t` (processing all
    /// same-timestamp internal events), then collect completions — node
    /// by node in id order, matching the dense scan the index replaced.
    /// The minimum node is advanced past `t` and re-keyed in place, so
    /// the next minimum is the next due node: the tree orders by
    /// (time, id), and handling a completion schedules no node event, so
    /// the due nodes surface in ascending id. Every `advance` and
    /// `submit` leaves its completions in the shared scratch, and both
    /// are followed by a drain, so each node's completions are handled
    /// in node order.
    fn step_nodes(&mut self, t: SimTime) {
        while let Some((te, i)) = self.node_events.peek() {
            if te > t {
                break;
            }
            debug_assert_eq!(te, t, "node event index fell behind");
            // The index holds the node's next event, so the node is due:
            // advance first, then read the next event once per advance.
            let node = &mut self.nodes[i];
            let next = loop {
                node.advance(t, &mut self.scratch);
                let next = node.next_event();
                if next != Some(t) {
                    break next;
                }
            };
            self.node_events.set(i, next);
            self.handle_completions(i);
        }
    }

    /// Account node `node`'s completions in the driver core, then
    /// install each completed CGI miss's result in the cache for future
    /// hits.
    fn handle_completions(&mut self, node: usize) {
        for c in self.scratch.drain_completed() {
            let Some(fl) = self.core.complete(c.tag, c.finished) else {
                continue;
            };
            debug_assert_eq!(fl.node, node, "completion from unexpected node");
            if let (Some(cache), true, Some(key)) = (
                &mut self.cache,
                fl.req.class.is_dynamic() && !fl.cache_hit,
                fl.req.cache_key,
            ) {
                cache.insert(key, c.finished);
            }
        }
    }

    /// A request arrives at the front end: place it, or drop it (counted
    /// in the summary) when no live node exists.
    fn admit(&mut self, req: Request, seq: u64, t: SimTime) {
        // Swala extension: a fresh cached result turns this CGI into a
        // cheap fetch served like a static request at the entry node.
        let cache_hit = match (&mut self.cache, req.class.is_dynamic(), req.cache_key) {
            (Some(cache), true, Some(key)) => cache.lookup(key, t),
            _ => false,
        };
        let (w, served_demand) = match &self.cache {
            Some(cache) if cache_hit => {
                (cache.config().hit_cpu_fraction, cache.config().hit_service)
            }
            _ => (req.demand.cpu_fraction, req.demand.service),
        };
        let Some(placement) = self.core.admit(seq, t, req, served_demand, cache_hit, w) else {
            return;
        };
        if placement.latency.is_zero() {
            self.deliver(seq, placement.node, t);
        } else {
            self.transfer(seq, placement.node, t + placement.latency);
        }
    }

    /// Put request `seq` in transfer to `node`, arriving `at`.
    fn transfer(&mut self, seq: u64, node: usize, at: SimTime) {
        self.transfer_seq += 1;
        self.transfers
            .push(Reverse((at.as_micros(), self.transfer_seq, seq, node)));
    }

    /// Hand a request to its node.
    fn deliver(&mut self, tag: u64, node: usize, t: SimTime) {
        let fl = *self
            .core
            .in_flight
            .get(tag)
            .expect("delivery of request not in flight");
        let spec = if fl.cache_hit {
            // Serve from the cache: static-fetch-scale demand, no fork.
            DemandSpec {
                service: fl.served,
                cpu_fraction: fl.w,
                memory_pages: self.core.config.os().bytes_to_pages(fl.req.bytes),
                is_cgi: false,
            }
        } else {
            self.core.config.demand_spec(&fl.req)
        };
        self.core.start(tag, node, t);
        self.nodes[node].submit(&spec, t, tag, &mut self.scratch);
        self.note_node_event(node);
        // A zero-work spec completes inside submit; account it now so
        // the event index never strands a finished request.
        self.handle_completions(node);
    }

    /// Kill the node named by the due failure event.
    fn fail_node(&mut self, t: SimTime) {
        let event = self.failures.events()[self.failure_cursor];
        self.failure_cursor += 1;
        let lost = self.nodes[event.node].kill_all(&mut self.scratch);
        self.note_node_event(event.node);
        self.core.scheduler.set_dead(event.node, true);
        if let Some(r) = event.recover_at {
            self.recoveries.push((r, event.node));
            self.recoveries.sort_by_key(|&(t, _)| t);
        }
        for tag in lost {
            if self.core.in_flight.get(tag).is_none() {
                continue;
            }
            // The crash loses whatever service the request had attained.
            self.core.scheduler.note_service_lost(event.node, tag);
            if let Some(placement) = self.restart_or_drop(tag, event.restart_dynamic, t) {
                let entry = self.core.in_flight.get_mut(tag).expect("restarted");
                entry.on_master = placement.on_master;
                entry.started = None;
            }
        }
        // Requests in flight *towards* the dead node: re-route them too.
        let pending: Vec<_> = std::mem::take(&mut self.transfers).into_vec();
        for Reverse((at, seq, tag, node)) in pending {
            if node == event.node && self.core.in_flight.get(tag).is_some() {
                self.restart_or_drop(tag, event.restart_dynamic, t);
            } else {
                self.transfers.push(Reverse((at, seq, tag, node)));
            }
        }
    }

    /// Re-place in-flight request `tag`, lost to a crash at `t`, after
    /// the detection delay of one monitor period — or, when it may not
    /// be restarted or no live node remains, drop it
    /// ([`DriverCore::fail_over`]).
    fn restart_or_drop(
        &mut self,
        tag: u64,
        restart_dynamic: bool,
        t: SimTime,
    ) -> Option<Placement> {
        let placement = self.core.fail_over(tag, t, restart_dynamic)?;
        let at = t + self.core.config.monitor_period() + placement.latency;
        self.transfer(tag, placement.node, at);
        Some(placement)
    }

    /// Load-monitor tick: collect the node snapshots and close the
    /// driver core's window.
    fn tick_monitor(&mut self, t: SimTime) {
        let snapshots: Vec<_> = self.nodes.iter().map(|n| n.load()).collect();
        self.core.close_window(t, &snapshots);
    }

    /// Per-monitor-window mean stretch across the run — the convergence
    /// trace of the self-stabilising reservation (§4).
    pub fn stretch_series(&self) -> &[f64] {
        self.core.stretch_series()
    }
}

/// Workload-derived priors and mean demands, estimated with one pass
/// over the requests — the same estimates [`policy_sim`] has always
/// made from a materialized trace, factored out so streaming callers
/// can compute them from a generation pass (O(1) memory) and get
/// bit-identical values: the summation order is the request order in
/// both paths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadStats {
    /// Reservation prior `a0` (arrival ratio, clamped to [0.01, 10]).
    pub a0: f64,
    /// Reservation prior `r0` (demand ratio, clamped to [1e-4, 1]).
    pub r0: f64,
    /// Mean static service demand.
    pub static_mean: SimDuration,
    /// Mean dynamic service demand.
    pub dynamic_mean: SimDuration,
}

impl WorkloadStats {
    /// Estimate from any request stream (consumed).
    pub fn from_requests<I: IntoIterator<Item = Request>>(requests: I) -> Self {
        let (mut ds, mut nd, mut ss, mut ns) = (0.0f64, 0u64, 0.0f64, 0u64);
        for r in requests {
            if r.class.is_dynamic() {
                ds += r.demand.service.as_secs_f64();
                nd += 1;
            } else {
                ss += r.demand.service.as_secs_f64();
                ns += 1;
            }
        }
        let n = nd + ns;
        let cgi_frac = if n > 0 { nd as f64 / n as f64 } else { 0.0 };
        let arrival_ratio = if cgi_frac < 1.0 {
            cgi_frac / (1.0 - cgi_frac)
        } else {
            f64::INFINITY
        };
        let a0 = arrival_ratio.clamp(0.01, 10.0);
        let r0 = if nd > 0 && ns > 0 && ds > 0.0 {
            ((ss / ns as f64) / (ds / nd as f64)).clamp(1e-4, 1.0)
        } else {
            0.05
        };
        let static_mean = if ns > 0 {
            SimDuration::from_secs_f64(ss / ns as f64)
        } else {
            SimDuration::from_secs_f64(1.0 / 1200.0)
        };
        let dynamic_mean = if nd > 0 {
            SimDuration::from_secs_f64(ds / nd as f64)
        } else {
            static_mean
        };
        WorkloadStats {
            a0,
            r0,
            static_mean,
            dynamic_mean,
        }
    }

    /// Estimate from a materialized trace (not consumed).
    pub fn from_trace(trace: &Trace) -> Self {
        WorkloadStats::from_requests(trace.requests.iter().copied())
    }
}

/// Run one policy over a materialized trace with priors estimated from
/// the trace itself. See [`RunOptions`] for the observer/telemetry
/// switches; use [`simulate_source`] to stream workloads too long to
/// materialize.
pub fn simulate(config: ClusterConfig, trace: &Trace, opts: RunOptions) -> RunOutcome {
    let stats = WorkloadStats::from_trace(trace);
    simulate_source(config, trace.source(), stats, opts)
}

/// Run one policy over a streaming [`RequestSource`]. The caller
/// supplies [`WorkloadStats`] (from a measuring pass or analytically);
/// peak memory is O(in-flight requests + distinct response times)
/// regardless of stream length.
pub fn simulate_source<S: RequestSource>(
    config: ClusterConfig,
    source: S,
    stats: WorkloadStats,
    opts: RunOptions,
) -> RunOutcome {
    let mut sim = policy_sim_from_stats(config, stats);
    sim.core.apply(opts);
    let summary = sim.run_source(source);
    sim.core.into_outcome(summary)
}

/// Build the [`ClusterSim`] that [`simulate`] would run: reservation
/// priors and mean class demands are estimated from `trace` itself.
/// Exposed so callers can install an observer or enable telemetry
/// before the replay while keeping the same estimation logic.
pub fn policy_sim(config: ClusterConfig, trace: &Trace) -> ClusterSim<DynScheduler> {
    policy_sim_from_stats(config, WorkloadStats::from_trace(trace))
}

/// Build the [`ClusterSim`] that [`simulate_source`] would run from
/// pre-computed workload stats.
pub fn policy_sim_from_stats(
    config: ClusterConfig,
    stats: WorkloadStats,
) -> ClusterSim<DynScheduler> {
    ClusterSim::new(config, stats.a0, stats.r0)
        .with_mean_demands(stats.static_mean, stats.dynamic_mean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicyKind;
    use msweb_workload::{ksu, ucb, DemandModel};

    fn small_trace(n: usize, inv_r: f64, lambda: f64) -> Trace {
        ucb()
            .generate(n, &DemandModel::simulation(inv_r), 42)
            .scaled_to_rate(lambda)
    }

    fn run_summary(config: ClusterConfig, trace: &Trace) -> RunSummary {
        simulate(config, trace, RunOptions::new()).summary
    }

    #[test]
    fn flat_run_completes_every_request() {
        let trace = small_trace(500, 20.0, 200.0);
        let cfg = ClusterConfig::simulation(8, PolicyKind::Flat);
        let s = run_summary(cfg, &trace);
        assert_eq!(s.completed, 500);
        assert!(s.stretch >= 1.0, "stretch {}", s.stretch);
    }

    #[test]
    fn ms_run_completes_every_request() {
        let trace = small_trace(500, 20.0, 200.0);
        let cfg = ClusterConfig::simulation(8, PolicyKind::MasterSlave).with_masters(3);
        let s = run_summary(cfg, &trace);
        assert_eq!(s.completed, 500);
        assert!(s.stretch >= 1.0);
        // Static work exists and was measured.
        assert!(s.stretch_static >= 1.0);
        assert!(s.stretch_dynamic >= 1.0);
    }

    /// The M/S pipeline reads no attained service, so the scheduler
    /// keeps no books and the driver's feed is a no-op; an attained
    /// scorer's run keeps them and closes every request it started.
    #[test]
    fn only_attained_readers_keep_books_through_a_run() {
        use crate::sched::{SchedulerRegistry, StageSpec};
        let trace = small_trace(300, 20.0, 200.0);
        let cfg = ClusterConfig::simulation(8, PolicyKind::MasterSlave).with_masters(3);
        let mut sim = ClusterSim::new(cfg.clone(), 0.13, 0.05);
        assert_eq!(sim.run(&trace).completed, 300);
        assert!(sim.scheduler().attained().is_none(), "M/S kept books");

        let spec = StageSpec::parse("rotation-masters/reservation/level-split/las/split-demand")
            .expect("spec parses");
        let scheduler = SchedulerRegistry::builtin()
            .compose(&cfg, &spec, 0.13, 0.05)
            .expect("spec composes");
        let mut sim = ClusterSim::with_scheduler(cfg, scheduler);
        let s = sim.run(&trace);
        let books = sim.scheduler().attained().expect("las keeps books");
        assert_eq!(books.completed(), s.completed);
        assert_eq!(books.in_flight(), 0);
    }

    /// Identical requests admitted at one instant onto distinct nodes
    /// finish at one instant; their completions are handled, and logged,
    /// in ascending node id whatever order they were placed in.
    #[test]
    fn same_instant_completions_are_handled_in_node_order() {
        use crate::sched::{CollectingObserver, SchedulerRegistry, StageSpec, TraceEvent};
        use msweb_workload::{RequestClass, ServiceDemand};
        use std::cell::RefCell;
        use std::rc::Rc;

        const P: usize = 6;
        let demand = ServiceDemand {
            service: SimDuration::from_millis(5),
            cpu_fraction: 1.0,
            memory_bytes: 0,
        };
        let at = SimTime::from_millis(1);
        let requests = (0..P as u64)
            .map(|id| Request::new(id, at, RequestClass::Dynamic, 2_048, demand))
            .collect();
        let trace = Trace::new("same-instant", requests);
        // Least-connections entry scans from a random start, so the
        // requests land one per node in a seed-dependent order.
        let spec = StageSpec::parse("least-connections/none/entry-only/random/split-demand")
            .expect("spec parses");
        let cfg = ClusterConfig::simulation(P, PolicyKind::Flat).with_seed(3);
        let scheduler = SchedulerRegistry::builtin()
            .compose(&cfg, &spec, 0.13, 0.05)
            .expect("spec composes");
        let log = Rc::new(RefCell::new(CollectingObserver::default()));
        let mut sim = ClusterSim::with_scheduler(cfg, scheduler);
        sim.scheduler_mut()
            .set_observer(Some(Box::new(log.clone())));
        assert_eq!(sim.run(&trace).completed, P as u64);

        let log = log.borrow();
        let placed: Vec<usize> = log.records.iter().map(|r| r.chosen).collect();
        let mut sorted = placed.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..P).collect::<Vec<_>>(), "one request per node");
        assert_ne!(
            placed, sorted,
            "placement order must differ from node order"
        );
        let completions: Vec<(usize, u64)> = log
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Complete {
                    node, response_us, ..
                } => Some((*node, *response_us)),
                _ => None,
            })
            .collect();
        assert_eq!(completions.len(), P);
        assert!(
            completions.iter().all(|&(_, r)| r == completions[0].1),
            "completions must share one instant: {completions:?}"
        );
        let nodes: Vec<usize> = completions.iter().map(|&(n, _)| n).collect();
        assert_eq!(nodes, (0..P).collect::<Vec<_>>());
    }

    #[test]
    fn runs_are_deterministic() {
        let trace = small_trace(300, 40.0, 150.0);
        let run = || {
            let cfg = ClusterConfig::simulation(8, PolicyKind::MasterSlave).with_masters(2);
            run_summary(cfg, &trace)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn streamed_source_matches_materialized_run() {
        let trace = small_trace(400, 40.0, 250.0);
        let cfg = ClusterConfig::simulation(8, PolicyKind::MasterSlave).with_masters(3);
        let materialized = simulate(cfg.clone(), &trace, RunOptions::new()).summary;
        let stats = WorkloadStats::from_trace(&trace);
        let streamed =
            simulate_source(cfg, trace.clone().into_source(), stats, RunOptions::new()).summary;
        assert_eq!(materialized, streamed);
    }

    #[test]
    fn light_load_stretch_near_one() {
        // A nearly idle cluster: responses ~ demands.
        let trace = small_trace(100, 20.0, 5.0);
        let cfg = ClusterConfig::simulation(8, PolicyKind::Flat);
        let s = run_summary(cfg, &trace);
        assert!(
            s.stretch < 1.6,
            "idle cluster should have stretch near 1, got {}",
            s.stretch
        );
    }

    #[test]
    fn heavier_load_increases_stretch() {
        let light = run_summary(
            ClusterConfig::simulation(8, PolicyKind::Flat),
            &small_trace(400, 40.0, 50.0),
        );
        let heavy = run_summary(
            ClusterConfig::simulation(8, PolicyKind::Flat),
            &small_trace(400, 40.0, 400.0),
        );
        assert!(
            heavy.stretch > light.stretch,
            "heavy {} <= light {}",
            heavy.stretch,
            light.stretch
        );
    }

    #[test]
    fn ms_beats_no_reservation_under_pressure() {
        // KSU-like mix at meaningful load on a small cluster.
        let trace = ksu()
            .generate(1500, &DemandModel::simulation(40.0), 7)
            .scaled_to_rate(250.0);
        let ms_cfg = ClusterConfig::simulation(8, PolicyKind::MasterSlave).with_masters(4);
        let ms = run_summary(ms_cfg, &trace);
        let nr_cfg = ClusterConfig::simulation(8, PolicyKind::MsNoReservation).with_masters(4);
        let nr = run_summary(nr_cfg, &trace);
        assert!(
            ms.stretch <= nr.stretch * 1.05,
            "M/S {} should not lose to M/S-nr {}",
            ms.stretch,
            nr.stretch
        );
    }

    #[test]
    fn window_series_tracks_the_run() {
        let trace = small_trace(2_000, 40.0, 300.0);
        let cfg = ClusterConfig::simulation(8, PolicyKind::MasterSlave).with_masters(3);
        let mut sim = ClusterSim::new(cfg, 0.13, 1.0 / 40.0);
        sim.run(&trace);
        let series = sim.stretch_series();
        assert!(
            series.len() >= 3,
            "expected several windows, got {}",
            series.len()
        );
        assert!(series.iter().all(|&s| s >= 0.99));
        // The self-stabilising controller should not leave the tail of
        // the run dramatically worse than its head.
        let head: f64 = series[..series.len() / 2].iter().sum::<f64>() / (series.len() / 2) as f64;
        let tail: f64 = series[series.len() / 2..].iter().sum::<f64>()
            / (series.len() - series.len() / 2) as f64;
        assert!(
            tail <= head * 3.0,
            "run diverging: head {head}, tail {tail}"
        );
    }

    #[test]
    fn content_cache_serves_repeated_queries() {
        use msweb_workload::adl;
        // Heavy query popularity: a handful of hot queries dominate.
        let demand = DemandModel::simulation(40.0).with_query_popularity(20, 1.1);
        let trace = adl().generate(3_000, &demand, 13).scaled_to_rate(400.0);

        let base = ClusterConfig::simulation(8, PolicyKind::MasterSlave).with_masters(3);
        let uncached = run_summary(base.clone(), &trace);
        assert_eq!(uncached.cache_hits, 0);

        let cached_cfg = base.with_cache(crate::cache::CacheConfig::default_swala());
        let mut sim = ClusterSim::new(cached_cfg, 0.8, 1.0 / 40.0);
        let cached = sim.run(&trace);
        let (hits, misses, _, _) = sim.cache_stats().unwrap();
        assert!(hits > 0, "hot queries must hit");
        assert_eq!(cached.cache_hits, hits);
        assert_eq!(hits + misses, cached.completed_dynamic);
        // Offloading repeated CGI work must help overall.
        assert!(
            cached.stretch <= uncached.stretch,
            "cached {} vs uncached {}",
            cached.stretch,
            uncached.stretch
        );
    }

    #[test]
    fn failure_drops_or_restarts_everything() {
        let trace = small_trace(400, 20.0, 200.0);
        let cfg = ClusterConfig::simulation(8, PolicyKind::MasterSlave).with_masters(3);
        let mut sim = ClusterSim::new(cfg, 0.13, 0.05)
            .with_failures(FailurePlan::crash(5, SimTime::from_millis(500)));
        let s = sim.run(&trace);
        // Everything is accounted: completed + dropped = total.
        assert_eq!(s.completed + s.dropped, 400);
        // A slave died mid-run with restart enabled; if it held dynamic
        // work, restarts happened.
        assert!(s.dropped == 0 || s.restarted > 0 || s.dropped > 0);
    }

    /// A loaded crash-and-restart plan: every lost request is restarted
    /// or dropped, no node completion goes unmatched, and an identical
    /// second run charges identical context switches on every node
    /// (whole-node kills follow slot order, not hash order).
    #[test]
    fn crash_restart_runs_have_no_stale_completions_and_repeat_exactly() {
        use crate::failure::FailureEvent;
        let trace = ksu()
            .generate(1_500, &DemandModel::simulation(40.0), 7)
            .scaled_to_rate(400.0);
        let run = || {
            // Overloaded, so each crash kills a running process with
            // others queued behind it: the case where kill order moves
            // the context-switch count.
            let cfg = ClusterConfig::simulation(4, PolicyKind::Flat).with_seed(5);
            // Every node crashes once, then recovers.
            let plan = FailurePlan::new(
                (0..4u64)
                    .map(|k| FailureEvent {
                        at: SimTime::from_millis(300 + 250 * k),
                        node: k as usize,
                        restart_dynamic: true,
                        recover_at: Some(SimTime::from_millis(450 + 250 * k)),
                    })
                    .collect(),
            );
            let mut sim = ClusterSim::new(cfg, 0.13, 0.05).with_failures(plan);
            let s = sim.run(&trace);
            let switches: Vec<u64> = sim.nodes().iter().map(Node::context_switches).collect();
            (s, sim.stale_completions(), switches)
        };
        let (s, stale, switches) = run();
        assert!(s.restarted > 0, "the plan must hit in-flight dynamic work");
        assert_eq!(s.completed + s.dropped, 1_500);
        assert_eq!(stale, 0, "no completion may miss the in-flight book");
        assert_eq!(run(), (s, stale, switches));
    }

    #[test]
    fn failed_node_receives_nothing_after_crash() {
        let trace = small_trace(300, 20.0, 300.0);
        let cfg = ClusterConfig::simulation(4, PolicyKind::Flat).with_seed(9);
        let mut sim = ClusterSim::new(cfg, 0.13, 0.05)
            .with_failures(FailurePlan::crash(3, SimTime::from_millis(100)));
        let s = sim.run(&trace);
        assert_eq!(s.completed + s.dropped, 300);
    }

    #[test]
    fn recovery_restores_the_node() {
        let trace = small_trace(600, 20.0, 200.0);
        let cfg = ClusterConfig::simulation(4, PolicyKind::Flat).with_seed(11);
        let plan = FailurePlan::new(vec![crate::failure::FailureEvent {
            at: SimTime::from_millis(200),
            node: 2,
            restart_dynamic: true,
            recover_at: Some(SimTime::from_millis(700)),
        }]);
        let mut sim = ClusterSim::new(cfg, 0.13, 0.05).with_failures(plan);
        let s = sim.run(&trace);
        assert_eq!(s.completed + s.dropped, 600);
    }

    #[test]
    fn whole_cluster_death_drops_instead_of_panicking() {
        let trace = small_trace(300, 20.0, 400.0);
        let cfg = ClusterConfig::simulation(2, PolicyKind::Flat).with_seed(3);
        let plan = FailurePlan::new(
            (0..2)
                .map(|node| crate::failure::FailureEvent {
                    at: SimTime::from_millis(100),
                    node,
                    restart_dynamic: false,
                    recover_at: None,
                })
                .collect(),
        );
        let mut sim = ClusterSim::new(cfg, 0.13, 0.05).with_failures(plan);
        let s = sim.run(&trace);
        assert_eq!(s.completed + s.dropped, 300);
        assert!(
            s.dropped > 0,
            "arrivals after total failure must be dropped"
        );
    }
}
