//! Composable scheduling pipeline.
//!
//! The paper's §4 dispatcher is a *pipeline*: front-end entry selection
//! (DNS rotation, LB switch), reservation admission (the θ2* cap of
//! Theorem 1), candidate-set formation by cluster level, RSRC cost
//! scoring (Eq. 5) and an expected-demand charge-back against the stale
//! load view. This module splits it into five stage traits —
//! [`EntrySelector`], [`Admission`], [`CandidateSet`], [`Scorer`] and
//! [`ChargeBack`] — composed into a [`Scheduler`] value that both the
//! event-driven simulator (`ClusterSim`) and the live emulation
//! (`emu::emulate`) consume unchanged.
//!
//! The string-keyed [`SchedulerRegistry`] builds every composition,
//! built-in or custom: [`StageSpec::for_policy`] names the stages of
//! each [`PolicyKind`], and examples and the CLI compose their own
//! specs — including user-defined stages — without touching this crate.
//!
//! Every placement can be observed through a [`DecisionObserver`]
//! ([`trace`]): the scheduler emits one [`DecisionRecord`] per decision
//! with the entry node, the candidate set considered, the reservation
//! state (θ̂, θ2*) and the chosen node, plus per-candidate RSRC scores
//! for an observer that asks for them. The hot path pays only an
//! `Option` check when no observer is installed.

pub mod index;
pub mod knowledge;
pub mod region;
pub mod registry;
pub mod replay;
pub mod stages;
pub mod trace;

use crate::config::ClusterConfig;
use crate::config::PolicyKind;
use crate::loadinfo::{LoadMonitor, NodeLoad};
use crate::reservation::ReservationController;
use crate::rsrc::RsrcPredictor;
use crate::telemetry::{SchedTelemetry, ScorerPaths, SpanTimer, Stage, SPAN_SAMPLE_MASK};
use msweb_simcore::rng::SimRng;
use msweb_simcore::time::{SimDuration, SimTime};

pub use index::RsrcIndex;
pub use knowledge::{AttainedService, ReqKnowledge};
pub use region::{GreedyRegion, NearestRegion, RegionSelector, RegionTopology, RegionView};
pub use registry::{ComposeError, SchedulerRegistry, StageSpec};
pub use replay::{
    analyze, model_stretch, AnalysisReport, LogReplay, RecordedRun, ReplayError, ReplayOptions,
    StageKind, Step, MAX_REPLAY_NODES,
};
pub use trace::{
    encode_event, parse_line, read_log, Candidates, CollectingObserver, DecisionObserver,
    DecisionRecord, DropRecord, JsonlSink, LogLine, NodeSample, ParseLineError, RunMeta,
    TraceEvent, TraceLog, TRACE_SCHEMA_VERSION,
};

/// Outcome of a scheduling decision: where the request runs and what it
/// costs to get it there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Node index the request is assigned to.
    pub node: usize,
    /// Transfer latency paid before service starts (zero when the
    /// request stays on the entry node).
    pub latency: SimDuration,
    /// Whether the target counts as a master for accounting purposes.
    pub on_master: bool,
}

/// Typed error returned when a scheduling stage cannot produce a
/// placement, replacing the former `panic!("entire cluster is dead")`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementError {
    /// Every node in the cluster is marked dead; there is nowhere to
    /// place the request. Drivers should drop the request and count it.
    NoLiveNodes,
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::NoLiveNodes => write!(f, "no live node available for placement"),
        }
    }
}

impl std::error::Error for PlacementError {}

/// Read-mostly view of scheduler state handed to every stage.
///
/// Stages receive disjoint borrows of the scheduler's internals so that
/// concrete stage types stay plain data (unit structs or small
/// parameter bags) and the composition can be instantiated both with
/// concrete stage types ([`Scheduler::compose`]) and boxed trait
/// objects (the registry).
pub struct StageCtx<'a> {
    /// Deterministic RNG; every draw must go through this handle so the
    /// decision sequence is reproducible.
    pub rng: &'a mut SimRng,
    /// Per-node liveness flags (`true` = dead). Length is the cluster
    /// size `p`.
    pub dead: &'a [bool],
    /// Number of dead nodes in `dead` on the master level `[0, m)` and
    /// on the slave level `[m, p)`, kept by the scheduler so a stage can
    /// test a level for liveness in O(1) (see [`StageCtx::all_live`]).
    pub dead_levels: [usize; 2],
    /// Per-node in-flight request counts (LB-switch connection view).
    pub in_flight: &'a [u32],
    /// Number of master nodes `m` (0 for level-free policies).
    pub masters: usize,
    /// RSRC cost predictor (Eq. 5) over the current load view.
    pub rsrc: &'a RsrcPredictor,
    /// Reservation controller state (θ̂ estimates and θ2* cap).
    pub reservation: &'a ReservationController,
    /// Most recent per-node load view from the monitor.
    pub loads: &'a [NodeLoad],
    /// Instance id of the monitor `loads` came from; see
    /// [`LoadMonitor::id`](crate::loadinfo::LoadMonitor::id).
    pub monitor_id: u64,
    /// Monitor view-replacement counter; see
    /// [`LoadMonitor::epoch`](crate::loadinfo::LoadMonitor::epoch).
    pub load_epoch: u64,
    /// Nodes charged since the monitor's last tick, in charge order;
    /// see [`LoadMonitor::charges`](crate::loadinfo::LoadMonitor::charges).
    pub charge_log: &'a [u32],
    /// Bumped by the scheduler whenever node liveness changes, so
    /// load-state mirrors (the decision index) can detect deaths and
    /// revivals without scanning `dead`.
    pub liveness_epoch: u64,
    /// Per-in-flight attained-service accounting fed by the driving
    /// substrate; the demand signal size-oblivious stages rank by.
    /// `Some` exactly when the composed admission or scorer declares
    /// [`Admission::reads_attained`] / [`Scorer::reads_attained`]: the
    /// scheduler keeps no books otherwise, so a stage that reads them
    /// without declaring it finds `None` and fails loudly rather than
    /// ranking by empty books.
    pub attained: Option<&'a AttainedService>,
}

impl<'a> StageCtx<'a> {
    /// Cluster size `p`.
    pub fn nodes(&self) -> usize {
        self.dead.len()
    }

    /// The attained-service books, for a stage that declared
    /// [`Admission::reads_attained`] or [`Scorer::reads_attained`].
    ///
    /// # Panics
    ///
    /// When the scheduler keeps none: the calling stage reads books it
    /// did not declare.
    pub fn books(&self) -> &'a AttainedService {
        self.attained
            .expect("stage reads attained service without declaring reads_attained()")
    }

    /// Number of live nodes in `[lo, hi)`: O(1) from
    /// [`StageCtx::dead_levels`] when the range is a level or the whole
    /// cluster, a scan of `dead` otherwise.
    pub fn live_count(&self, lo: usize, hi: usize) -> usize {
        let (p, m) = (self.nodes(), self.masters.min(self.nodes()));
        let [masters_dead, slaves_dead] = self.dead_levels;
        let dead = match (lo, hi) {
            (0, h) if h == p => masters_dead + slaves_dead,
            (0, h) if h == m => masters_dead,
            (l, h) if l == m && h == p => slaves_dead,
            _ => self.dead[lo..hi].iter().filter(|&&d| d).count(),
        };
        hi - lo - dead
    }

    /// Whether no node in `[lo, hi)` is dead; see
    /// [`StageCtx::live_count`].
    pub fn all_live(&self, lo: usize, hi: usize) -> bool {
        self.live_count(lo, hi) == hi - lo
    }
}

/// Whether the candidate stage kept the request on its entry node or
/// produced a remote candidate set to score.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateDecision {
    /// Serve on the entry node; no candidate scoring happens.
    Stay,
    /// Score the collected candidate set and transfer if needed.
    Remote,
}

/// Stage 1: pick the node a request arrives at (DNS rotation with
/// optional skew, or an LB switch's least-connections scan).
pub trait EntrySelector {
    /// Select the entry node, or fail if the whole cluster is dead.
    fn select_entry(&mut self, ctx: &mut StageCtx<'_>) -> Result<usize, PlacementError>;
}

/// Stage 2: admission control for master nodes (the reservation
/// controller of §4.2, an attained-service backlog gate, or a no-op).
pub trait Admission {
    /// Whether the composed scheduler should run its reservation
    /// controller in enforcing mode (used at construction time).
    fn enforces_reservation(&self) -> bool;
    /// Whether masters may receive dynamic requests right now, given
    /// the declared knowledge about the request.
    fn master_eligible(&self, ctx: &StageCtx<'_>, know: ReqKnowledge) -> bool;
    /// Record the final placement level with the controller.
    fn note_placement(&self, reservation: &mut ReservationController, on_master: bool);
    /// Whether this stage reads [`StageCtx::attained`]. The scheduler
    /// keeps attained-service books only when its admission or scorer
    /// says so (used at construction time).
    fn reads_attained(&self) -> bool {
        false
    }
}

/// Stage 3: form the candidate set for a request (level split, M/S′
/// pin set, entry-only), including the liveness fallback.
pub trait CandidateSet {
    /// Collect live candidate nodes into `out`, or decide the request
    /// stays on its entry node. `out` arrives cleared.
    fn collect(
        &self,
        ctx: &StageCtx<'_>,
        dynamic: bool,
        masters_ok: bool,
        out: &mut Vec<usize>,
    ) -> CandidateDecision;
    /// The candidate set as a node range, when it is one: `Some((lo,
    /// hi))` promises that [`CandidateSet::collect`] with the same
    /// arguments would return [`CandidateDecision::Remote`] with
    /// exactly the live nodes of `[lo, hi)` (in any order). The
    /// scheduler then offers the range to [`Scorer::choose_range`] and
    /// builds no list unless the scorer declines or the observer wants
    /// per-candidate scores. `None` (the default) always means "call
    /// `collect`"; a request that stays on its entry node must answer
    /// `None`.
    /// Debug builds check the promise against `collect` on every
    /// placement that takes the range.
    fn live_range(
        &self,
        ctx: &StageCtx<'_>,
        dynamic: bool,
        masters_ok: bool,
    ) -> Option<(usize, usize)> {
        let _ = (ctx, dynamic, masters_ok);
        None
    }
    /// Whether placements from this candidate set should be attributed
    /// to the master level when the chosen node index is below `m`
    /// (false for M/S′, whose pinned nodes never count as masters).
    fn attributes_masters(&self) -> bool {
        true
    }
}

/// Stage 4: pick one node from the candidate set.
pub trait Scorer {
    /// Choose the best candidate, or `None` when the set is empty.
    /// `know` is the request's *declared* demand knowledge; scorers
    /// that rank by attained service read [`StageCtx::attained`]
    /// instead of trusting it, and must say so through
    /// [`Scorer::reads_attained`] or they find no books there.
    fn choose(
        &self,
        ctx: &mut StageCtx<'_>,
        candidates: &[usize],
        know: ReqKnowledge,
    ) -> Option<usize>;
    /// Choose among the live nodes of `[lo, hi)`, the candidate set a
    /// [`CandidateSet::live_range`] declared, without a list. `Some`
    /// carries the answer [`Scorer::choose`] would give for those nodes
    /// in any order, with the same RNG draws and the same
    /// [`Scorer::path_counts`] bumps, so only scorers whose answer does
    /// not depend on candidate order can take it. `None` (the default)
    /// declines: the scheduler then collects the list and calls
    /// `choose`, so a declining scorer must draw nothing first.
    fn choose_range(
        &self,
        ctx: &mut StageCtx<'_>,
        lo: usize,
        hi: usize,
        know: ReqKnowledge,
    ) -> Option<Option<usize>> {
        let _ = (ctx, lo, hi, know);
        None
    }
    /// Score a single node for an observer that wants scores (lower is
    /// better for cost-based scorers). Never called on the hot path.
    fn score(&self, ctx: &StageCtx<'_>, node: usize, know: ReqKnowledge) -> f64 {
        let _ = (ctx, node, know);
        0.0
    }
    /// Cumulative counts of which internal path resolved each `choose`
    /// call (decision index vs dense-scan fallbacks), for scorers
    /// that track them. `None` for scorers without internal paths.
    fn path_counts(&self) -> Option<ScorerPaths> {
        None
    }
    /// Whether this stage reads [`StageCtx::attained`]; see
    /// [`Admission::reads_attained`].
    fn reads_attained(&self) -> bool {
        false
    }
}

/// Stage 5: debit the expected demand of a placed request against the
/// stale load view so back-to-back decisions within one monitor window
/// see the earlier commitments.
pub trait ChargeBack {
    /// Charge the request's declared expected demand to `node`. The
    /// scheduler hands this stage knowledge whose `w` has already been
    /// passed through [`RsrcPredictor::effective_w`] (clamped, with the
    /// no-sampling fallback applied).
    fn debit(&self, monitor: &mut LoadMonitor, node: usize, know: ReqKnowledge);
}

impl EntrySelector for Box<dyn EntrySelector> {
    fn select_entry(&mut self, ctx: &mut StageCtx<'_>) -> Result<usize, PlacementError> {
        (**self).select_entry(ctx)
    }
}

impl Admission for Box<dyn Admission> {
    fn enforces_reservation(&self) -> bool {
        (**self).enforces_reservation()
    }
    fn master_eligible(&self, ctx: &StageCtx<'_>, know: ReqKnowledge) -> bool {
        (**self).master_eligible(ctx, know)
    }
    fn note_placement(&self, reservation: &mut ReservationController, on_master: bool) {
        (**self).note_placement(reservation, on_master)
    }
    fn reads_attained(&self) -> bool {
        (**self).reads_attained()
    }
}

impl CandidateSet for Box<dyn CandidateSet> {
    fn collect(
        &self,
        ctx: &StageCtx<'_>,
        dynamic: bool,
        masters_ok: bool,
        out: &mut Vec<usize>,
    ) -> CandidateDecision {
        (**self).collect(ctx, dynamic, masters_ok, out)
    }
    fn live_range(
        &self,
        ctx: &StageCtx<'_>,
        dynamic: bool,
        masters_ok: bool,
    ) -> Option<(usize, usize)> {
        (**self).live_range(ctx, dynamic, masters_ok)
    }
    fn attributes_masters(&self) -> bool {
        (**self).attributes_masters()
    }
}

impl Scorer for Box<dyn Scorer> {
    fn choose(
        &self,
        ctx: &mut StageCtx<'_>,
        candidates: &[usize],
        know: ReqKnowledge,
    ) -> Option<usize> {
        (**self).choose(ctx, candidates, know)
    }
    fn choose_range(
        &self,
        ctx: &mut StageCtx<'_>,
        lo: usize,
        hi: usize,
        know: ReqKnowledge,
    ) -> Option<Option<usize>> {
        (**self).choose_range(ctx, lo, hi, know)
    }
    fn score(&self, ctx: &StageCtx<'_>, node: usize, know: ReqKnowledge) -> f64 {
        (**self).score(ctx, node, know)
    }
    fn path_counts(&self) -> Option<ScorerPaths> {
        (**self).path_counts()
    }
    fn reads_attained(&self) -> bool {
        (**self).reads_attained()
    }
}

impl ChargeBack for Box<dyn ChargeBack> {
    fn debit(&self, monitor: &mut LoadMonitor, node: usize, know: ReqKnowledge) {
        (**self).debit(monitor, node, know)
    }
}

/// Optional stage 0 state: a region selector plus the topology it
/// selects over, and a scratch liveness mask restricting the rest of
/// the pipeline to the chosen region.
struct RegionState {
    selector: Box<dyn RegionSelector>,
    topo: RegionTopology,
    /// `masked[i] = dead[i] || i ∉ chosen region`, refilled per
    /// placement and handed to the downstream stages as their `dead`
    /// view, so entry/candidates/scorer confine themselves to the
    /// region without knowing regions exist.
    masked: Vec<bool>,
    /// Dead counts per level of `masked` ([`StageCtx::dead_levels`]).
    masked_levels: [usize; 2],
}

/// Bundle of the five pipeline stages handed to [`Scheduler::compose`].
pub struct Stages<E, A, C, S, G> {
    /// Entry selection stage.
    pub entry: E,
    /// Admission stage.
    pub admission: A,
    /// Candidate-set stage.
    pub candidates: C,
    /// Scoring stage.
    pub scorer: S,
    /// Charge-back stage.
    pub charge: G,
}

/// A scheduling pipeline: five stages plus the shared state they
/// operate on (RNG, liveness, in-flight counts, reservation controller,
/// RSRC predictor).
///
/// The registry composes the boxed [`DynScheduler`]; a caller that
/// fixes its stage types at compile time composes them directly through
/// [`Scheduler::compose`]. Every instantiation implements [`Schedule`],
/// the driver-facing surface consumed by `ClusterSim` and
/// `emu::emulate`.
pub struct Scheduler<E, A, C, S, G> {
    entry: E,
    admission: A,
    candidates: C,
    scorer: S,
    charge: G,
    p: usize,
    m: usize,
    rsrc: RsrcPredictor,
    reservation: ReservationController,
    remote_latency: SimDuration,
    redirect_rtt: SimDuration,
    pay_redirect: bool,
    rng: SimRng,
    buf: Vec<usize>,
    dead: Vec<bool>,
    /// Dead counts per level, handed to stages as
    /// [`StageCtx::dead_levels`].
    dead_levels: [usize; 2],
    in_flight: Vec<u32>,
    /// Bumped on every liveness change; exposed to stages through
    /// [`StageCtx::liveness_epoch`] so load-state mirrors can
    /// invalidate themselves.
    liveness: u64,
    seq: u64,
    observer: Option<Box<dyn DecisionObserver>>,
    /// The observer's [`DecisionObserver::wants_scores`], read when it
    /// was installed.
    observer_scores: bool,
    /// The record handed to the observer, refilled in place for every
    /// traced decision so its `candidates`/`scores` keep their capacity.
    record: DecisionRecord,
    /// Live telemetry; `None` (the default) costs the hot path a single
    /// pointer check, mirroring the observer.
    telemetry: Option<Box<SchedTelemetry>>,
    /// Driver annotation for the next `place` call: (request id, decision
    /// time, actual service demand). Consumed (and cleared) by `place`
    /// whether or not the placement succeeds.
    pending: Option<(u64, SimTime, SimDuration)>,
    /// Set while `replace_after_failure` runs so the emitted record is
    /// marked as a post-failure restart.
    restarting: bool,
    /// Optional region front tier (stage 0); `None` keeps the classic
    /// five-stage pipeline byte-identical.
    region: Option<RegionState>,
    /// Client origin tag for the next `place` call, set by the driver
    /// through [`Schedule::note_origin`]; consumed (reset to 0) by
    /// `place`.
    pending_origin: usize,
    /// Attained-service books, fed by the driver through the
    /// [`Schedule::note_service_*`](Schedule::note_service_start)
    /// calls and read by stages through [`StageCtx::attained`]. `None`
    /// unless a stage declares it reads them: then the feed is a no-op.
    attained: Option<AttainedService>,
}

/// Boxed-stage scheduler produced by the [`SchedulerRegistry`], for
/// every built-in policy and for custom compositions whose stage types
/// are chosen at runtime.
pub type DynScheduler = Scheduler<
    Box<dyn EntrySelector>,
    Box<dyn Admission>,
    Box<dyn CandidateSet>,
    Box<dyn Scorer>,
    Box<dyn ChargeBack>,
>;

impl<E, A, C, S, G> Scheduler<E, A, C, S, G>
where
    E: EntrySelector,
    A: Admission,
    C: CandidateSet,
    S: Scorer,
    G: ChargeBack,
{
    /// Compose a scheduler from explicit stages over a validated
    /// cluster configuration. `a0`/`r0` seed the reservation
    /// controller's arrival-ratio and demand-ratio estimates.
    pub fn compose(
        config: &ClusterConfig,
        stages: Stages<E, A, C, S, G>,
        a0: f64,
        r0: f64,
    ) -> Result<Self, crate::config::ConfigError> {
        config.validate()?;
        let p = config.p();
        let m = config.resolve_masters();
        let use_sampling = config.policy() != PolicyKind::MsNoSampling;
        let rsrc = match config.speeds() {
            Some(s) => RsrcPredictor::with_speeds(s.to_vec(), use_sampling),
            None => RsrcPredictor::homogeneous(p, use_sampling),
        };
        let enforce = stages.admission.enforces_reservation();
        let books = stages.admission.reads_attained() || stages.scorer.reads_attained();
        let m_for_bound = m.clamp(1, p);
        let reservation = ReservationController::new(m_for_bound, p, a0, r0, enforce);
        Ok(Self {
            entry: stages.entry,
            admission: stages.admission,
            candidates: stages.candidates,
            scorer: stages.scorer,
            charge: stages.charge,
            p,
            m,
            rsrc,
            reservation,
            remote_latency: config.remote_latency(),
            redirect_rtt: config.redirect_rtt(),
            pay_redirect: config.policy() == PolicyKind::Redirect,
            rng: SimRng::seed_from_u64(config.seed() ^ 0xd15b),
            buf: Vec::with_capacity(p),
            dead: vec![false; p],
            dead_levels: [0; 2],
            in_flight: vec![0; p],
            liveness: 0,
            seq: 0,
            observer: None,
            observer_scores: false,
            record: DecisionRecord::default(),
            telemetry: None,
            pending: None,
            restarting: false,
            region: None,
            pending_origin: 0,
            attained: books.then(|| AttainedService::new(p)),
        })
    }

    /// Install a region front tier: every subsequent placement first
    /// picks a region with `selector`, then runs the five classic
    /// stages confined to that region's nodes. The topology must
    /// already have been validated against this scheduler's
    /// configuration (the registry path does this via
    /// [`ClusterConfig::with_regions`]).
    pub fn set_region_stage(&mut self, topo: RegionTopology, selector: Box<dyn RegionSelector>) {
        self.region = Some(RegionState {
            selector,
            topo,
            masked: vec![false; self.p],
            masked_levels: [0; 2],
        });
    }

    /// Cluster size `p`.
    pub fn nodes(&self) -> usize {
        self.p
    }

    /// The decision RNG, read-only: two pipelines in draw-for-draw
    /// lockstep hold equal generators after every placement.
    pub fn rng(&self) -> &SimRng {
        &self.rng
    }
}

/// Driver-facing surface of a composed scheduler: everything
/// `ClusterSim` and `emu::emulate` need, independent of the concrete
/// stage types. Implemented by every [`Scheduler`] instantiation.
pub trait Schedule {
    /// Run the pipeline for one request.
    ///
    /// `dynamic` distinguishes CGI-class requests from statics, `know`
    /// carries the request's *declared* demand knowledge (Eq. 5 `w` and
    /// the expected demand for charge-back), and `monitor` is the shared
    /// (stale) load view.
    fn place(
        &mut self,
        dynamic: bool,
        know: ReqKnowledge,
        monitor: &mut LoadMonitor,
    ) -> Result<Placement, PlacementError>;
    /// Re-place a request that was lost to a node failure. Identical to
    /// [`Schedule::place`] except the transfer latency is never zero:
    /// the request must at least travel back from the failed node.
    fn replace_after_failure(
        &mut self,
        dynamic: bool,
        know: ReqKnowledge,
        monitor: &mut LoadMonitor,
    ) -> Result<Placement, PlacementError>;
    /// Number of master nodes (0 for level-free compositions).
    fn masters(&self) -> usize;
    /// Mark a node dead or alive for future placements. Emits a
    /// [`TraceEvent::NodeDown`]/[`TraceEvent::NodeUp`] to the installed
    /// observer on an actual state change, so failure scenarios are
    /// replayable from the log alone.
    fn set_dead(&mut self, node: usize, dead: bool);
    /// Whether a node is currently marked dead.
    fn is_dead(&self, node: usize) -> bool;
    /// Record a request completion on `node`, releasing its in-flight
    /// slot. Saturates at zero: completions for requests that were lost
    /// to a crash (and hence never released) must not underflow the
    /// counter for subsequent placements.
    fn note_completion(&mut self, node: usize);
    /// Current in-flight count for `node`.
    fn in_flight(&self, node: usize) -> u32;
    /// Shared reservation controller state.
    fn reservation(&self) -> &ReservationController;
    /// Mutable access to the reservation controller (drivers feed it
    /// responses and monitor-window ρ updates).
    fn reservation_mut(&mut self) -> &mut ReservationController;
    /// Install (or remove) a per-decision observer. The scheduler emits
    /// one [`DecisionRecord`] per successful placement plus liveness
    /// events; drivers forward run-level events through
    /// [`Schedule::emit`].
    fn set_observer(&mut self, observer: Option<Box<dyn DecisionObserver>>);
    /// Whether an observer is installed (drivers skip building trace
    /// events entirely when not).
    fn tracing(&self) -> bool;
    /// Forward a non-decision event to the installed observer (no-op
    /// without one).
    fn emit(&mut self, event: &TraceEvent);
    /// Annotate the next [`Schedule::place`] call with the driver's
    /// request identity: request id, decision time, and the request's
    /// actual service demand. The annotation is consumed by the next
    /// `place` (successful or not) and enriches its [`DecisionRecord`]
    /// so a log line carries everything replay needs.
    fn note_request(&mut self, req: u64, at: SimTime, demand: SimDuration);
    /// Tag the next [`Schedule::place`] call with the client origin
    /// region index. Ignored when no region stage is installed.
    /// Defaults to a no-op so third-party `Schedule` impls (and
    /// region-free pipelines) keep compiling unchanged.
    fn note_origin(&mut self, origin: usize) {
        let _ = origin;
    }
    /// The installed region topology, when a region stage is active.
    /// Defaults to `None`.
    fn region_topology(&self) -> Option<&RegionTopology> {
        None
    }
    /// Enable (allocating fresh counters) or disable telemetry. When
    /// disabled — the default — `place` pays only an `Option` check.
    /// Defaults to a no-op so third-party `Schedule` impls keep
    /// compiling.
    fn set_telemetry_enabled(&mut self, on: bool) {
        let _ = on;
    }
    /// The accumulated scheduler-side telemetry, when enabled. Defaults
    /// to `None`.
    fn telemetry(&self) -> Option<&SchedTelemetry> {
        None
    }
    /// The scorer's internal path counters (indexed vs dense-scan
    /// fallbacks), when the composed scorer tracks them. A [`Scheduler`]
    /// always has them — the counters are maintained unconditionally
    /// because they cost a `Cell` add on paths already chosen. Defaults
    /// to `None`.
    fn scorer_path_counts(&self) -> Option<ScorerPaths> {
        None
    }
    /// Begin attained-service accounting for request `tag` on `node`
    /// (service has started; attained time is zero). This and the other
    /// `note_service_*` calls do nothing when no stage reads the books.
    /// Defaults to a no-op so third-party `Schedule` impls keep
    /// compiling.
    fn note_service_start(&mut self, node: usize, tag: u64) {
        let _ = (node, tag);
    }
    /// Raise request `tag`'s attained service (from the driver's tick
    /// accounting; monotone, and the driver caps it at the truth).
    /// Defaults to a no-op.
    fn note_service_progress(&mut self, node: usize, tag: u64, attained: SimDuration) {
        let _ = (node, tag, attained);
    }
    /// Close the attained-service books for request `tag`: it completed
    /// having received exactly `total` service. This is a sanctioned
    /// truth leak — at completion the size is observable by definition.
    /// Defaults to a no-op.
    fn note_service_end(&mut self, node: usize, tag: u64, total: SimDuration) {
        let _ = (node, tag, total);
    }
    /// Drop request `tag`'s attained-service entry without completing
    /// it (the request was lost to a node failure). Defaults to a no-op.
    fn note_service_lost(&mut self, node: usize, tag: u64) {
        let _ = (node, tag);
    }
    /// The attained-service books (read-only; tests and size-oblivious
    /// analysis), or `None` when no stage of this composition reads
    /// them and so none are kept. Defaults to `None` for impls that do
    /// not track attained service.
    fn attained(&self) -> Option<&AttainedService> {
        None
    }
}

impl<E, A, C, S, G> Schedule for Scheduler<E, A, C, S, G>
where
    E: EntrySelector,
    A: Admission,
    C: CandidateSet,
    S: Scorer,
    G: ChargeBack,
{
    fn place(
        &mut self,
        dynamic: bool,
        know: ReqKnowledge,
        monitor: &mut LoadMonitor,
    ) -> Result<Placement, PlacementError> {
        let pending = self.pending.take();
        let origin = std::mem::take(&mut self.pending_origin);
        // Wall-clock span timing is sampled (1 in SPAN_SAMPLE_EVERY
        // decisions): an Instant pair per stage costs more than an
        // uncontended placement, so timing every call would dominate.
        let mut spans = match &self.telemetry {
            Some(_) if self.seq & SPAN_SAMPLE_MASK == 0 => Some(SpanTimer::start()),
            _ => None,
        };
        // Stage 0: region selection. The selector sees the *unmasked*
        // cluster; its choice is then folded into a masked liveness
        // view so every downstream stage operates inside the region.
        let region_sel = match &mut self.region {
            Some(rs) => {
                let view = RegionView {
                    dead: &self.dead,
                    in_flight: &self.in_flight,
                    masters: self.m,
                    at_us: pending.map_or(0, |(_, at, _)| at.0),
                };
                let Some(r) = rs.selector.select(origin, &rs.topo, &view) else {
                    if let Some(tel) = &mut self.telemetry {
                        tel.stage_calls[Stage::Entry as usize] += 1;
                        tel.no_live_nodes += 1;
                    }
                    return Err(PlacementError::NoLiveNodes);
                };
                rs.masked_levels = [0; 2];
                for (i, slot) in rs.masked.iter_mut().enumerate() {
                    *slot = self.dead[i] || !rs.topo.contains(r, i);
                    rs.masked_levels[usize::from(i >= self.m)] += usize::from(*slot);
                }
                Some(r)
            }
            None => None,
        };
        // Downstream stages read liveness through the region mask. The
        // mask changes per placement, so the effective liveness epoch
        // must change too (the RSRC index caches its live set by
        // epoch); `seq` increments every placement, making the blend
        // strictly increasing. Regionless pipelines keep the plain
        // epoch and are byte-identical to before.
        let (eff_dead, eff_dead_levels, eff_epoch): (&[bool], [usize; 2], u64) = match &self.region
        {
            Some(rs) => (
                &rs.masked,
                rs.masked_levels,
                self.liveness.wrapping_add(self.seq).wrapping_add(1),
            ),
            None => (&self.dead, self.dead_levels, self.liveness),
        };
        // Every stage sees the same view; a macro rather than a method
        // keeps its borrows disjoint from the stage fields being called.
        macro_rules! ctx {
            () => {
                StageCtx {
                    rng: &mut self.rng,
                    dead: eff_dead,
                    dead_levels: eff_dead_levels,
                    in_flight: &self.in_flight,
                    masters: self.m,
                    rsrc: &self.rsrc,
                    reservation: &self.reservation,
                    loads: monitor.all(),
                    monitor_id: monitor.id(),
                    load_epoch: monitor.epoch(),
                    charge_log: monitor.charges(),
                    liveness_epoch: eff_epoch,
                    attained: self.attained.as_ref(),
                }
            };
        }
        let entry = match self.entry.select_entry(&mut ctx!()) {
            Ok(entry) => entry,
            Err(e) => {
                if let Some(tel) = &mut self.telemetry {
                    tel.stage_calls[Stage::Entry as usize] += 1;
                    tel.no_live_nodes += 1;
                }
                return Err(e);
            }
        };
        if let Some(t) = &mut spans {
            t.mark(Stage::Entry);
        }
        self.reservation.note_arrival(dynamic);
        // The charge-back stage sees the *effective* weight (clamped,
        // no-sampling fallback applied); scorers keep the declaration.
        let charge_know = know.with_w(self.rsrc.effective_w(know.w));

        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        let (masters_ok, range, decision) = {
            let ctx = ctx!();
            let masters_ok = self.admission.master_eligible(&ctx, know);
            if let Some(t) = &mut spans {
                t.mark(Stage::Admission);
            }
            // An observer that wants scores records the list and its
            // scores in collect order, so it keeps the list path.
            let range = match self.observer_scores {
                false => self.candidates.live_range(&ctx, dynamic, masters_ok),
                true => None,
            };
            let decision = match range {
                Some(range) => {
                    if cfg!(debug_assertions) {
                        check_live_range(
                            &self.candidates,
                            &ctx,
                            dynamic,
                            masters_ok,
                            range,
                            &mut buf,
                        );
                    }
                    CandidateDecision::Remote
                }
                None => self.candidates.collect(&ctx, dynamic, masters_ok, &mut buf),
            };
            if let Some(t) = &mut spans {
                t.mark(Stage::Candidates);
            }
            (masters_ok, range, decision)
        };
        // Candidate-set size of a remote decision, for telemetry.
        let mut remote_len = 0;
        // The observed record's candidate set, filled in by a remote
        // placement, and the buffer it reuses.
        let mut recorded = None;
        let mut spare = match self.observer {
            Some(_) => self.record.candidates.take_buffer(),
            None => Vec::new(),
        };

        let mut placement = match decision {
            CandidateDecision::Stay => {
                self.charge.debit(monitor, entry, charge_know);
                if let Some(t) = &mut spans {
                    t.mark(Stage::Charge);
                }
                self.in_flight[entry] += 1;
                Placement {
                    node: entry,
                    latency: SimDuration::ZERO,
                    on_master: entry < self.m,
                }
            }
            CandidateDecision::Remote => {
                let chosen = {
                    let mut ctx = ctx!();
                    let ranged = range.and_then(|(lo, hi)| {
                        if self.telemetry.is_some() {
                            remote_len = ctx.live_count(lo, hi);
                        }
                        self.scorer.choose_range(&mut ctx, lo, hi, know)
                    });
                    let chosen = match ranged {
                        Some(chosen) => chosen,
                        None => {
                            if range.is_some() {
                                // The scorer declined the range: build
                                // the list it stands for.
                                self.candidates.collect(&ctx, dynamic, masters_ok, &mut buf);
                            }
                            if self.observer_scores {
                                let scores = &mut self.record.scores;
                                scores.clear();
                                scores
                                    .extend(buf.iter().map(|&n| self.scorer.score(&ctx, n, know)));
                            }
                            remote_len = buf.len();
                            self.scorer.choose(&mut ctx, &buf, know)
                        }
                    };
                    if self.observer.is_some() && chosen.is_some() {
                        let mut nodes = std::mem::take(&mut spare);
                        recorded = Some(match range {
                            _ if self.observer_scores => {
                                nodes.extend_from_slice(&buf);
                                Candidates::List(nodes)
                            }
                            Some((lo, hi)) => range_record(&ctx, lo, hi, nodes),
                            None => list_record(&ctx, &mut buf, nodes),
                        });
                    }
                    chosen
                };
                if let Some(t) = &mut spans {
                    t.mark(Stage::Scorer);
                }
                let Some(node) = chosen else {
                    if let Some(tel) = &mut self.telemetry {
                        tel.stage_calls[Stage::Entry as usize] += 1;
                        tel.stage_calls[Stage::Admission as usize] += 1;
                        tel.stage_calls[Stage::Candidates as usize] += 1;
                        tel.stage_calls[Stage::Scorer as usize] += 1;
                        tel.no_live_nodes += 1;
                    }
                    self.buf = buf;
                    return Err(PlacementError::NoLiveNodes);
                };
                self.charge.debit(monitor, node, charge_know);
                if let Some(t) = &mut spans {
                    t.mark(Stage::Charge);
                }
                self.in_flight[node] += 1;
                let on_master = self.candidates.attributes_masters() && node < self.m;
                self.admission
                    .note_placement(&mut self.reservation, on_master);
                let latency = if node == entry {
                    SimDuration::ZERO
                } else if self.pay_redirect {
                    self.redirect_rtt + self.remote_latency
                } else {
                    self.remote_latency
                };
                Placement {
                    node,
                    latency,
                    on_master,
                }
            }
        };
        // The origin→region hop is paid by every request entering the
        // region, on top of any intra-cluster transfer latency.
        if let (Some(rs), Some(r)) = (&self.region, region_sel) {
            placement.latency += SimDuration::from_micros(rs.topo.latency_us(origin, r));
        }

        if let Some(tel) = &mut self.telemetry {
            tel.place_calls += 1;
            tel.stage_calls[Stage::Entry as usize] += 1;
            tel.stage_calls[Stage::Admission as usize] += 1;
            tel.stage_calls[Stage::Candidates as usize] += 1;
            tel.stage_calls[Stage::Charge as usize] += 1;
            match decision {
                CandidateDecision::Stay => tel.stay_local += 1,
                CandidateDecision::Remote => {
                    tel.remote += 1;
                    tel.stage_calls[Stage::Scorer as usize] += 1;
                    tel.candidates_hist.record(remote_len as u64);
                }
            }
            if self.restarting {
                tel.restarts += 1;
            }
            tel.node_charges[placement.node] += 1;
            if let (Some(rs), Some(r)) = (&self.region, region_sel) {
                if tel.region_charges.is_empty() {
                    tel.region_charges = vec![0; rs.topo.regions()];
                }
                tel.region_charges[r] += 1;
            }
            tel.latency_us_hist.record(placement.latency.as_micros());
            if let Some(t) = &spans {
                tel.fold_spans(t);
            }
        }

        self.seq += 1;
        if let Some(mut obs) = self.observer.take() {
            let (req, at, demand) = pending.unwrap_or((self.seq, SimTime(0), SimDuration::ZERO));
            // A remote decision filled in its candidates, and its scores
            // when the observer wants them; a local one has neither.
            let mut scores = std::mem::take(&mut self.record.scores);
            if matches!(decision, CandidateDecision::Stay) || !self.observer_scores {
                scores.clear();
            }
            self.record = DecisionRecord {
                seq: self.seq,
                dynamic,
                entry,
                candidates: recorded.unwrap_or(Candidates::List(spare)),
                scores,
                theta_hat: self.reservation.master_fraction(),
                theta2_star: self.reservation.theta2_star(),
                chosen: placement.node,
                on_master: placement.on_master,
                redirected: self.pay_redirect && placement.node != entry,
                latency_us: placement.latency.as_micros(),
                req,
                at_us: at.0,
                demand_us: demand.as_micros(),
                w: know.w,
                expected_us: know.expected.as_micros(),
                masters_ok,
                restart: self.restarting,
                origin,
                region: region_sel,
            };
            obs.observe(&self.record);
            self.observer = Some(obs);
        }
        self.buf = buf;
        Ok(placement)
    }

    fn replace_after_failure(
        &mut self,
        dynamic: bool,
        know: ReqKnowledge,
        monitor: &mut LoadMonitor,
    ) -> Result<Placement, PlacementError> {
        self.restarting = true;
        let placed = self.place(dynamic, know, monitor);
        self.restarting = false;
        let mut placement = placed?;
        if placement.latency.is_zero() {
            placement.latency = self.remote_latency;
        }
        Ok(placement)
    }

    fn masters(&self) -> usize {
        self.m
    }

    fn set_dead(&mut self, node: usize, dead: bool) {
        if self.dead[node] != dead {
            self.liveness += 1;
            let level = &mut self.dead_levels[usize::from(node >= self.m)];
            *level = if dead { *level + 1 } else { *level - 1 };
            let event = if dead {
                TraceEvent::NodeDown { node }
            } else {
                TraceEvent::NodeUp { node }
            };
            self.emit(&event);
        }
        self.dead[node] = dead;
    }

    fn is_dead(&self, node: usize) -> bool {
        self.dead[node]
    }

    fn note_completion(&mut self, node: usize) {
        let slot = &mut self.in_flight[node];
        debug_assert!(
            *slot > 0,
            "note_completion on node {node} with zero in-flight requests"
        );
        *slot = slot.saturating_sub(1);
    }

    fn in_flight(&self, node: usize) -> u32 {
        self.in_flight[node]
    }

    fn reservation(&self) -> &ReservationController {
        &self.reservation
    }

    fn reservation_mut(&mut self) -> &mut ReservationController {
        &mut self.reservation
    }

    fn set_observer(&mut self, observer: Option<Box<dyn DecisionObserver>>) {
        self.observer_scores = observer.as_ref().is_some_and(|o| o.wants_scores());
        self.observer = observer;
    }

    fn tracing(&self) -> bool {
        self.observer.is_some()
    }

    fn emit(&mut self, event: &TraceEvent) {
        if let Some(obs) = self.observer.as_mut() {
            obs.event(event);
        }
    }

    fn note_request(&mut self, req: u64, at: SimTime, demand: SimDuration) {
        self.pending = Some((req, at, demand));
    }

    fn note_origin(&mut self, origin: usize) {
        self.pending_origin = origin;
    }

    fn region_topology(&self) -> Option<&RegionTopology> {
        self.region.as_ref().map(|rs| &rs.topo)
    }

    fn set_telemetry_enabled(&mut self, on: bool) {
        if on {
            if self.telemetry.is_none() {
                self.telemetry = Some(Box::new(SchedTelemetry::new(self.p)));
            }
        } else {
            self.telemetry = None;
        }
    }

    fn telemetry(&self) -> Option<&SchedTelemetry> {
        self.telemetry.as_deref()
    }

    fn scorer_path_counts(&self) -> Option<ScorerPaths> {
        self.scorer.path_counts()
    }

    fn note_service_start(&mut self, node: usize, tag: u64) {
        if let Some(books) = &mut self.attained {
            books.start(node, tag);
        }
    }

    fn note_service_progress(&mut self, node: usize, tag: u64, attained: SimDuration) {
        if let Some(books) = &mut self.attained {
            books.progress(node, tag, attained);
        }
    }

    fn note_service_end(&mut self, node: usize, tag: u64, total: SimDuration) {
        if let Some(books) = &mut self.attained {
            books.finish(node, tag, total);
        }
    }

    fn note_service_lost(&mut self, node: usize, tag: u64) {
        if let Some(books) = &mut self.attained {
            books.forget(node, tag);
        }
    }

    fn attained(&self) -> Option<&AttainedService> {
        self.attained.as_ref()
    }
}

/// The record form of the live nodes of `[lo, hi)` (see [`Candidates`]):
/// the range trimmed to its first and last live node, with the dead
/// nodes between, or the live nodes as an ascending list when the dead
/// outnumber them. A range with no dead node, which a level or the
/// whole cluster answers in O(1) through [`StageCtx::live_count`], is
/// written as is without a scan. Builds into `nodes`, which arrives
/// empty. The range holds at least one live node.
fn range_record(ctx: &StageCtx<'_>, lo: usize, hi: usize, mut nodes: Vec<usize>) -> Candidates {
    let live = ctx.live_count(lo, hi);
    if live == hi - lo {
        return Candidates::Range {
            lo,
            hi,
            dead: nodes,
        };
    }
    let dead = ctx.dead;
    let lo = (lo..hi).find(|&n| !dead[n]).unwrap_or(hi);
    let hi = (lo..hi).rfind(|&n| !dead[n]).map_or(lo, |n| n + 1);
    if hi - lo - live > live {
        nodes.extend((lo..hi).filter(|&n| !dead[n]));
        Candidates::List(nodes)
    } else {
        nodes.extend((lo..hi).filter(|&n| dead[n]));
        Candidates::Range {
            lo,
            hi,
            dead: nodes,
        }
    }
}

/// The record form of a collected candidate list: the form
/// [`range_record`] gives when the list holds, without repeats, exactly
/// the live nodes of the range from its least to its greatest node, so
/// a candidate stage that declares no [`CandidateSet::live_range`]
/// records the same bytes as one that does; otherwise the list,
/// ascending. Sorts `list`, whose order the scorer has already used, and
/// builds into `nodes`, which arrives empty.
fn list_record(ctx: &StageCtx<'_>, list: &mut [usize], mut nodes: Vec<usize>) -> Candidates {
    list.sort_unstable();
    if let (Some(&lo), Some(&last)) = (list.first(), list.last()) {
        let distinct_live =
            list.windows(2).all(|pair| pair[0] < pair[1]) && list.iter().all(|&n| !ctx.dead[n]);
        if distinct_live && ctx.live_count(lo, last + 1) == list.len() {
            return range_record(ctx, lo, last + 1, nodes);
        }
    }
    nodes.extend_from_slice(list);
    Candidates::List(nodes)
}

/// The contract of [`CandidateSet::live_range`], which `place` checks
/// in debug builds: `collect` returns [`CandidateDecision::Remote`]
/// with exactly the live nodes of the declared range. Leaves `buf`
/// empty.
fn check_live_range<C: CandidateSet>(
    candidates: &C,
    ctx: &StageCtx<'_>,
    dynamic: bool,
    masters_ok: bool,
    (lo, hi): (usize, usize),
    buf: &mut Vec<usize>,
) {
    let decision = candidates.collect(ctx, dynamic, masters_ok, buf);
    buf.sort_unstable();
    assert!(
        decision == CandidateDecision::Remote
            && buf.iter().copied().eq((lo..hi).filter(|&n| !ctx.dead[n])),
        "live_range declared [{lo}, {hi}) but collect returned {decision:?} with {buf:?}"
    );
    buf.clear();
}

#[cfg(test)]
mod tests;
