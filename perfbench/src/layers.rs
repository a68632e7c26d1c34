//! Forwarding wrappers for the traced pass.
//!
//! Each wrapper sits on a public layer boundary of the simulator
//! (`RequestSource`, `Schedule`, the five stage traits, `DecisionObserver`)
//! and adds the wall time of every call it forwards to a shared
//! [`Ledger`]. Sums are exact (every call is timed); spans are kept for a
//! sampled subset of requests only and written out after the run. None of
//! the wrappers changes an argument or a result, so a traced run must
//! produce the same summary as an untraced one, which the benchmark
//! checks.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use msweb_cluster::loadinfo::LoadMonitor;
use msweb_cluster::sched::{
    Admission, AttainedService, CandidateDecision, CandidateSet, ChargeBack, EntrySelector,
    RegionTopology, Scorer, StageCtx,
};
use msweb_cluster::{
    DecisionObserver, DecisionRecord, Placement, PlacementError, ReqKnowledge,
    ReservationController, SchedTelemetry, Schedule, ScorerPaths, TraceEvent,
};
use msweb_simcore::{LogHistogram, SimDuration, SimTime};
use msweb_workload::{Request, RequestSource};

/// Requests whose admission sequence number is a multiple of this keep
/// their spans.
const SPAN_EVERY: u64 = 4096;

/// The five pipeline stages, in pipeline order.
const STAGES: [&str; 5] = ["entry", "admission", "candidates", "scorer", "charge"];

/// One recorded span: nanoseconds since the ledger was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Admission sequence number of the request the span belongs to.
    pub id: u64,
    /// Layer name (`place` or a stage name).
    pub name: &'static str,
    /// Name of the enclosing span, if any.
    pub parent: Option<&'static str>,
    /// Start, ns since the ledger origin.
    pub start_ns: u64,
    /// End, ns since the ledger origin.
    pub end_ns: u64,
}

/// Per-layer sums for one traced run.
#[derive(Debug)]
pub struct Ledger {
    origin: Instant,
    /// Total ns in `RequestSource::next`.
    pub gen_ns: Cell<u64>,
    /// `Schedule::place` and `replace_after_failure`: total ns, failed
    /// calls, and the per-call histogram (its count is the call count).
    pub place_ns: Cell<u64>,
    pub place_errors: Cell<u64>,
    pub place_hist: RefCell<LogHistogram>,
    /// `note_request`, `note_completion`, `note_origin`, `note_service_*`.
    pub notify_ns: Cell<u64>,
    /// `Schedule::emit`: trace events the simulator emits outside `place`.
    pub emit_ns: Cell<u64>,
    /// Total ns in observer calls (decision records and events).
    pub observer_ns: Cell<u64>,
    /// Per-stage call counts and ns, indexed like [`STAGES`].
    pub stage_calls: [Cell<u64>; 5],
    pub stage_ns: [Cell<u64>; 5],
    /// Candidate-stage calls that produced a remote candidate set, and
    /// the summed size of those sets.
    pub remote: Cell<u64>,
    pub candidates_len_sum: Cell<u64>,
    /// Request id of the placement in progress and whether its spans
    /// are kept.
    current: Cell<u64>,
    sampled: Cell<bool>,
    spans: RefCell<Vec<Span>>,
}

impl Ledger {
    pub fn new() -> Rc<Ledger> {
        Rc::new(Ledger {
            origin: Instant::now(),
            gen_ns: Cell::new(0),
            place_ns: Cell::new(0),
            place_errors: Cell::new(0),
            place_hist: RefCell::new(LogHistogram::new()),
            notify_ns: Cell::new(0),
            emit_ns: Cell::new(0),
            observer_ns: Cell::new(0),
            stage_calls: Default::default(),
            stage_ns: Default::default(),
            remote: Cell::new(0),
            candidates_len_sum: Cell::new(0),
            current: Cell::new(0),
            sampled: Cell::new(false),
            spans: RefCell::new(Vec::new()),
        })
    }

    fn since_origin(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    fn span(&self, name: &'static str, parent: Option<&'static str>, start: Instant, end: Instant) {
        if self.sampled.get() {
            self.spans.borrow_mut().push(Span {
                id: self.current.get(),
                name,
                parent,
                start_ns: self.since_origin(start),
                end_ns: self.since_origin(end),
            });
        }
    }

    fn stage(&self, i: usize, start: Instant) {
        let end = Instant::now();
        add(&self.stage_calls[i], 1);
        add(&self.stage_ns[i], ns(start, end));
        self.span(STAGES[i], Some("place"), start, end);
    }

    /// The sampled spans, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

fn add(cell: &Cell<u64>, v: u64) {
    cell.set(cell.get() + v);
}

fn ns(start: Instant, end: Instant) -> u64 {
    end.duration_since(start).as_nanos() as u64
}

/// Times a wrapped call and adds its duration to `cell`.
fn timed<R>(cell: &Cell<u64>, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    add(cell, ns(start, Instant::now()));
    r
}

/// A `RequestSource` that times the generator.
pub struct TimedSource<S> {
    pub inner: S,
    pub ledger: Rc<Ledger>,
}

impl<S: RequestSource> Iterator for TimedSource<S> {
    type Item = Request;
    fn next(&mut self) -> Option<Request> {
        timed(&self.ledger.gen_ns, || self.inner.next())
    }
}

impl<S: RequestSource> RequestSource for TimedSource<S> {
    fn source_name(&self) -> &str {
        self.inner.source_name()
    }
    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }
}

/// A pipeline stage that times its calls. One generic wrapper serves all
/// five stage traits; the trait decides which ledger slot a call lands in.
pub struct Timed<T> {
    inner: T,
    ledger: Rc<Ledger>,
}

impl<T> Timed<T> {
    pub fn new(inner: T, ledger: &Rc<Ledger>) -> Self {
        Timed {
            inner,
            ledger: ledger.clone(),
        }
    }
}

impl<T: EntrySelector> EntrySelector for Timed<T> {
    fn select_entry(&mut self, ctx: &mut StageCtx<'_>) -> Result<usize, PlacementError> {
        let start = Instant::now();
        let r = self.inner.select_entry(ctx);
        self.ledger.stage(0, start);
        r
    }
}

impl<T: Admission> Admission for Timed<T> {
    fn enforces_reservation(&self) -> bool {
        self.inner.enforces_reservation()
    }
    fn master_eligible(&self, ctx: &StageCtx<'_>, know: ReqKnowledge) -> bool {
        let start = Instant::now();
        let r = self.inner.master_eligible(ctx, know);
        self.ledger.stage(1, start);
        r
    }
    fn note_placement(&self, reservation: &mut ReservationController, on_master: bool) {
        timed(&self.ledger.stage_ns[1], || {
            self.inner.note_placement(reservation, on_master)
        });
    }
}

impl<T: CandidateSet> CandidateSet for Timed<T> {
    fn collect(
        &self,
        ctx: &StageCtx<'_>,
        dynamic: bool,
        masters_ok: bool,
        out: &mut Vec<usize>,
    ) -> CandidateDecision {
        let start = Instant::now();
        let r = self.inner.collect(ctx, dynamic, masters_ok, out);
        self.ledger.stage(2, start);
        if r == CandidateDecision::Remote {
            add(&self.ledger.remote, 1);
            add(&self.ledger.candidates_len_sum, out.len() as u64);
        }
        r
    }
    fn attributes_masters(&self) -> bool {
        self.inner.attributes_masters()
    }
}

impl<T: Scorer> Scorer for Timed<T> {
    fn choose(
        &self,
        ctx: &mut StageCtx<'_>,
        candidates: &[usize],
        know: ReqKnowledge,
    ) -> Option<usize> {
        let start = Instant::now();
        let r = self.inner.choose(ctx, candidates, know);
        self.ledger.stage(3, start);
        r
    }
    fn score(&self, ctx: &StageCtx<'_>, node: usize, know: ReqKnowledge) -> f64 {
        self.inner.score(ctx, node, know)
    }
    fn path_counts(&self) -> Option<ScorerPaths> {
        self.inner.path_counts()
    }
}

impl<T: ChargeBack> ChargeBack for Timed<T> {
    fn debit(&self, monitor: &mut LoadMonitor, node: usize, know: ReqKnowledge) {
        let start = Instant::now();
        self.inner.debit(monitor, node, know);
        self.ledger.stage(4, start);
    }
}

/// A `Schedule` that times placement and the simulator's notifications,
/// and forwards every other call unchanged.
pub struct TimedSchedule<S> {
    pub inner: S,
    pub ledger: Rc<Ledger>,
}

impl<S: Schedule> TimedSchedule<S> {
    fn timed_place(
        &mut self,
        f: impl FnOnce(&mut S) -> Result<Placement, PlacementError>,
    ) -> Result<Placement, PlacementError> {
        let l = &self.ledger;
        let start = Instant::now();
        let r = f(&mut self.inner);
        let end = Instant::now();
        let d = ns(start, end);
        add(&l.place_ns, d);
        l.place_hist.borrow_mut().record(d);
        if r.is_err() {
            add(&l.place_errors, 1);
        }
        l.span("place", None, start, end);
        l.sampled.set(false);
        r
    }
}

impl<S: Schedule> Schedule for TimedSchedule<S> {
    fn place(
        &mut self,
        dynamic: bool,
        know: ReqKnowledge,
        monitor: &mut LoadMonitor,
    ) -> Result<Placement, PlacementError> {
        self.timed_place(|s| s.place(dynamic, know, monitor))
    }
    fn replace_after_failure(
        &mut self,
        dynamic: bool,
        know: ReqKnowledge,
        monitor: &mut LoadMonitor,
    ) -> Result<Placement, PlacementError> {
        self.timed_place(|s| s.replace_after_failure(dynamic, know, monitor))
    }
    fn masters(&self) -> usize {
        self.inner.masters()
    }
    fn set_dead(&mut self, node: usize, dead: bool) {
        self.inner.set_dead(node, dead)
    }
    fn is_dead(&self, node: usize) -> bool {
        self.inner.is_dead(node)
    }
    fn note_completion(&mut self, node: usize) {
        timed(&self.ledger.notify_ns, || self.inner.note_completion(node))
    }
    fn in_flight(&self, node: usize) -> u32 {
        self.inner.in_flight(node)
    }
    fn reservation(&self) -> &ReservationController {
        self.inner.reservation()
    }
    fn reservation_mut(&mut self) -> &mut ReservationController {
        self.inner.reservation_mut()
    }
    fn set_observer(&mut self, observer: Option<Box<dyn DecisionObserver>>) {
        self.inner.set_observer(observer)
    }
    fn tracing(&self) -> bool {
        self.inner.tracing()
    }
    fn emit(&mut self, event: &TraceEvent) {
        timed(&self.ledger.emit_ns, || self.inner.emit(event))
    }
    fn note_request(&mut self, req: u64, at: SimTime, demand: SimDuration) {
        self.ledger.current.set(req);
        self.ledger.sampled.set(req.is_multiple_of(SPAN_EVERY));
        timed(&self.ledger.notify_ns, || {
            self.inner.note_request(req, at, demand)
        })
    }
    fn note_origin(&mut self, origin: usize) {
        timed(&self.ledger.notify_ns, || self.inner.note_origin(origin))
    }
    fn region_topology(&self) -> Option<&RegionTopology> {
        self.inner.region_topology()
    }
    fn set_telemetry_enabled(&mut self, on: bool) {
        self.inner.set_telemetry_enabled(on)
    }
    fn telemetry(&self) -> Option<&SchedTelemetry> {
        self.inner.telemetry()
    }
    fn scorer_path_counts(&self) -> Option<ScorerPaths> {
        self.inner.scorer_path_counts()
    }
    fn note_service_start(&mut self, node: usize, tag: u64) {
        timed(&self.ledger.notify_ns, || {
            self.inner.note_service_start(node, tag)
        })
    }
    fn note_service_progress(&mut self, node: usize, tag: u64, attained: SimDuration) {
        timed(&self.ledger.notify_ns, || {
            self.inner.note_service_progress(node, tag, attained)
        })
    }
    fn note_service_end(&mut self, node: usize, tag: u64, total: SimDuration) {
        timed(&self.ledger.notify_ns, || {
            self.inner.note_service_end(node, tag, total)
        })
    }
    fn note_service_lost(&mut self, node: usize, tag: u64) {
        timed(&self.ledger.notify_ns, || {
            self.inner.note_service_lost(node, tag)
        })
    }
    fn attained(&self) -> Option<&AttainedService> {
        self.inner.attained()
    }
}

/// A `DecisionObserver` that times the observer it wraps.
pub struct TimedObserver<O> {
    pub inner: O,
    pub ledger: Rc<Ledger>,
}

impl<O: DecisionObserver> DecisionObserver for TimedObserver<O> {
    fn observe(&mut self, record: &DecisionRecord) {
        timed(&self.ledger.observer_ns, || self.inner.observe(record))
    }
    fn event(&mut self, event: &TraceEvent) {
        timed(&self.ledger.observer_ns, || self.inner.event(event))
    }
}

/// An in-memory sink that keeps only the number of bytes written to it.
#[derive(Debug, Clone, Default)]
pub struct ByteCounter(pub Arc<AtomicU64>);

impl ByteCounter {
    pub fn bytes(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Write for ByteCounter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
