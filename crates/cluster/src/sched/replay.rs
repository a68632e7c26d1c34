//! Counterfactual decision-log replay and stage-level attribution.
//!
//! A decision log (see [`super::trace`]) records every scheduler-state
//! mutation of a run: the placement decisions with their inputs, the
//! load-monitor ticks with the raw per-node counters, request
//! completions, node failures and drops. That makes the log a
//! complete *replay input*: this module re-drives a scheduler — the
//! same composition, or any [`SchedulerRegistry`] spec — over the
//! recorded request stream, reconstructing each placement's `StageCtx`
//! from the recorded snapshots, and diffs the decisions.
//!
//! The analysis answers three questions:
//!
//! 1. **Per-request counterfactual diff** — for each recorded
//!    placement, where would the replayed composition have put the
//!    request?
//! 2. **Stage attribution** — for each divergent placement, which
//!    pipeline stage *first* disagreed, checked in pipeline order:
//!    entry selection, admission (the `masters_ok` verdict and the
//!    reservation state θ̂/θ2*), candidate-set membership, charged-load
//!    view (per-node scores over the same candidates), and finally the
//!    scorer's choice itself.
//!
//! A log records no per-candidate scores (schema v3 writes none, and
//! the scores a v2 line carries are ignored), so the factual scores
//! come from a second replay: under a counterfactual spec, [`analyze`]
//! re-drives the *recorded* composition in lockstep with it, with its
//! own scheduler and load monitor fed the same ticks, liveness events
//! and re-driven drops, and each completion routed to the node the log
//! recorded. Replay is a fixed point, so these are the scores the
//! recorded run saw, and a v2 log and a v3 log of one run analyze
//! alike. A self-replay compares the replay with itself, so it never
//! attributes a divergence to the charged-load view.
//! 3. **Aggregate deltas** — divergence rate, node-busy coefficient of
//!    variation, and a stretch-factor estimate from a per-node
//!    processor-sharing model applied identically to the factual and
//!    counterfactual placements (so the *delta* is apples-to-apples).
//!
//! ## Replay fidelity
//!
//! Replaying a log under its own composition is a fixed point: the
//! scheduler RNG is reseeded from the recorded seed, failed placements
//! (drop events with `redrive: true`) are re-driven so their RNG draws
//! are consumed, monitor ticks are replayed from the recorded
//! cumulative counters, and the reservation controller is fed the
//! recorded completions and window utilisation. Under a *different*
//! composition the recorded ticks/completions stand in for the world's
//! response to the counterfactual placements — a deliberate
//! approximation (the log cannot know how the world would have
//! reacted), which is exactly what makes the per-stage diff
//! well-defined.
//!
//! Both log readers, [`analyze`] and `slo-check`, walk a log once
//! through one [`LogReplay`].

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::rc::Rc;

use msweb_simcore::{SimDuration, SimTime};

use super::registry::{SchedulerRegistry, StageSpec};
use super::trace::{
    Candidates, DecisionRecord, DropRecord, LogLine, NodeSample, ParseLineError, TraceEvent,
    TRACE_SCHEMA_VERSION,
};
use super::{CollectingObserver, ComposeError, DynScheduler, ReqKnowledge, RunMeta, Schedule};
use crate::config::{ClusterConfig, ConfigError, PolicyKind};
use crate::loadinfo::LoadMonitor;
use crate::metrics::{cv, WindowFold};
use crate::reservation::ReservationController;
use crate::telemetry::slo::WindowSignals;
use crate::telemetry::{fnum, obj, u};
use serde::Value;

/// Score differences below this are treated as equal when attributing a
/// divergence to the charged-load view.
const SCORE_EPSILON: f64 = 1e-9;

/// How many per-request divergence rows the report keeps verbatim.
const MAX_DIVERGENCE_ROWS: usize = 32;

/// How many parse warnings the report keeps verbatim.
const MAX_WARNINGS: usize = 16;

/// The largest cluster a `meta` line may claim for [`analyze`] to
/// rebuild it. Replay composes p-sized schedulers and load monitors
/// from the meta line before any `tick` can confirm `p`, so an
/// unchecked claim is an allocation of the log's choosing. 2²⁰ nodes is
/// a hundred times the largest cluster the experiments and the scale
/// harness run.
pub const MAX_REPLAY_NODES: usize = 1 << 20;

/// The pipeline stage a divergent placement is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StageKind {
    /// Region selection disagreed (only reachable when at least one of
    /// the compared compositions carries a region stage).
    Region,
    /// Entry selection disagreed.
    Entry,
    /// The admission verdict (`masters_ok`) or reservation state
    /// (θ̂/θ2*) disagreed.
    Admission,
    /// The candidate sets differ as sets.
    Candidates,
    /// Same candidates, but the charged-load view scored them
    /// differently (by more than 1e-9).
    Charge,
    /// Same candidates and scores, different choice.
    Scorer,
}

impl StageKind {
    /// Stable lowercase name used in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            StageKind::Region => "region",
            StageKind::Entry => "entry",
            StageKind::Admission => "admission",
            StageKind::Candidates => "candidates",
            StageKind::Charge => "charge",
            StageKind::Scorer => "scorer",
        }
    }
}

/// One divergent placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivergenceRow {
    /// Decision sequence number (1-based, within the run).
    pub seq: u64,
    /// Driver request id.
    pub req: u64,
    /// Node the recorded run chose.
    pub factual: usize,
    /// Node the replayed composition chose (`None`: it found no live
    /// candidate and would have dropped the request).
    pub counterfactual: Option<usize>,
    /// First stage that disagreed, in pipeline order.
    pub stage: StageKind,
}

/// The first record where *any* replayed field disagreed (even when the
/// chosen node still coincided).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Disagreement {
    /// Decision sequence number.
    pub seq: u64,
    /// Driver request id.
    pub req: u64,
    /// First stage that disagreed.
    pub stage: StageKind,
}

/// Options for [`analyze`].
#[derive(Debug, Clone, Default)]
pub struct ReplayOptions {
    /// Replay under this registry spec instead of the recorded
    /// composition (the counterfactual). `None` replays the recorded
    /// composition itself, which must be a fixed point.
    pub spec: Option<StageSpec>,
    /// Which run (log segment, one per `meta` line) to analyze in an
    /// appended multi-run log. Defaults to the first.
    pub run: usize,
}

/// Why a log could not be read, replayed or checked.
#[derive(Debug)]
pub enum ReplayError {
    /// The log could not be read (a missing file, bytes that are not
    /// UTF-8).
    Read(io::Error),
    /// A line did not parse.
    Line {
        /// The line's 1-based number.
        line: usize,
        /// Why it did not parse.
        error: ParseLineError,
    },
    /// The log holds no event to check (`slo-check`).
    Empty,
    /// The log holds no event, so there is no recorded scheduler
    /// identity to rebuild (`analyze`).
    NoMeta,
    /// The log's first event is not a `meta` line, so the events before
    /// the first `meta` belong to no run.
    NotMetaFirst,
    /// A `meta` line records more masters than nodes.
    Masters {
        /// The master count, at least 1.
        m: usize,
        /// The node count, at least 1.
        p: usize,
    },
    /// The requested run index exceeds the number of `meta` segments.
    NoSuchRun {
        /// The run index requested.
        requested: usize,
        /// How many runs the log contains.
        available: usize,
    },
    /// The recorded policy name does not parse.
    Policy(String),
    /// The replay composition could not be built.
    Compose(ComposeError),
    /// An event contradicts the run's meta line: a tick samples another
    /// node count, or an event names a node outside the cluster.
    Inconsistent(String),
    /// A `meta` line field holds a value replay cannot build a cluster
    /// from: more than [`MAX_REPLAY_NODES`] nodes, or a configuration
    /// the simulator rejects.
    Meta {
        /// The field's name in the meta line.
        field: &'static str,
        /// What is wrong with its value.
        reason: String,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Read(e) => write!(f, "{e}"),
            ReplayError::Line { line, error } => write!(f, "line {line}: {error}"),
            ReplayError::Empty => f.write_str("log is empty"),
            ReplayError::NotMetaFirst => f.write_str("log does not start with a meta event"),
            ReplayError::Masters { m, p } => {
                write!(f, "meta line has m = {m} masters for p = {p}")
            }
            ReplayError::NoMeta => write!(
                f,
                "log has no meta line, so it lacks the scheduler identity \
                 needed for replay (re-record with --trace-decisions)"
            ),
            ReplayError::NoSuchRun {
                requested,
                available,
            } => write!(
                f,
                "run {requested} requested but log has {available} run(s)"
            ),
            ReplayError::Policy(p) => write!(f, "recorded policy {p:?} does not parse"),
            ReplayError::Compose(e) => write!(f, "cannot build replay composition: {e}"),
            ReplayError::Inconsistent(msg) => write!(f, "log contradicts its meta line: {msg}"),
            ReplayError::Meta { field, reason } => write!(f, "meta field \"{field}\": {reason}"),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<ComposeError> for ReplayError {
    fn from(e: ComposeError) -> Self {
        ReplayError::Compose(e)
    }
}

/// The replay analysis of one log segment; serialise with
/// [`AnalysisReport::to_json`]. Fully deterministic: analysing the same
/// log twice yields byte-identical JSON.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnalysisReport {
    /// Trace schema version the analyzer speaks.
    pub schema_version: u64,
    /// Substrate that recorded the log (`"sim"` or `"live"`).
    pub substrate: String,
    /// Recorded policy slug.
    pub policy: String,
    /// Cluster size.
    pub p: usize,
    /// Resolved master count of the recorded run.
    pub m: usize,
    /// Recorded dispatch seed.
    pub seed: u64,
    /// Which run (segment) of the log was analyzed.
    pub run: usize,
    /// Total runs (segments) in the log.
    pub runs: usize,
    /// The recorded composition, as a registry spec string.
    pub baseline_spec: String,
    /// The composition that was replayed (equals `baseline_spec` for a
    /// self-replay).
    pub replay_spec: String,
    /// Placement decisions replayed.
    pub decisions: u64,
    /// Decisions whose chosen node differed (or that the replay would
    /// have dropped).
    pub divergent: u64,
    /// `divergent / decisions` (0 when the log has no decisions).
    pub divergence_rate: f64,
    /// First record where any stage output disagreed, if any.
    pub first_disagreement: Option<Disagreement>,
    /// Count of divergent placements attributed to each stage, keyed by
    /// [`StageKind::as_str`].
    pub stage_attribution: BTreeMap<&'static str, u64>,
    /// Drop events recorded in the log.
    pub drops_recorded: u64,
    /// Requests the replayed composition dropped (failed redrives plus
    /// bookkeeping drops it inherits).
    pub drops_replayed: u64,
    /// Recorded decisions flagged as post-failure restarts.
    pub restarts_recorded: u64,
    /// Completion events recorded in the log.
    pub completions: u64,
    /// Recorded drops that the replayed composition *could* place
    /// (counterfactual rescues).
    pub rescued: u64,
    /// Recorded placements the replayed composition could not place.
    pub counterfactual_dropped: u64,
    /// Mean response/demand stretch measured from the recorded
    /// completions (0 when the log carries no usable demands).
    pub recorded_stretch: f64,
    /// Processor-sharing model stretch of the factual placements.
    pub model_stretch_factual: f64,
    /// Processor-sharing model stretch of the counterfactual
    /// placements.
    pub model_stretch_counterfactual: f64,
    /// `model_stretch_counterfactual - model_stretch_factual`.
    pub model_stretch_delta: f64,
    /// Coefficient of variation of per-node assigned work, factual.
    pub node_busy_cv_factual: f64,
    /// Coefficient of variation of per-node assigned work,
    /// counterfactual.
    pub node_busy_cv_counterfactual: f64,
    /// `node_busy_cv_counterfactual - node_busy_cv_factual`.
    pub node_busy_cv_delta: f64,
    /// Up to 32 divergent placements, in order.
    pub divergences: Vec<DivergenceRow>,
    /// Whether `divergences` was truncated.
    pub divergences_truncated: bool,
    /// Up to 16 parse warnings from the log.
    pub parse_warnings: Vec<String>,
    /// Total parse warnings (may exceed `parse_warnings.len()`).
    pub parse_warning_count: u64,
    /// Events with an unknown tag that were skipped.
    pub skipped_unknown_events: u64,
}

impl AnalysisReport {
    /// Serialise as a JSON object with a stable field order; identical
    /// reports render byte-identically.
    pub fn to_value(&self) -> Value {
        let text = |s: &str| Value::Str(s.to_string());
        let first = match &self.first_disagreement {
            None => Value::Null,
            Some(d) => obj(vec![
                ("seq", u(d.seq)),
                ("req", u(d.req)),
                ("stage", text(d.stage.as_str())),
            ]),
        };
        // The `region` key only appears when a region stage was in play
        // (a 6-part spec on either side); regionless reports keep the
        // historical 5-key attribution object byte-for-byte.
        let region_stage = self.baseline_spec.matches('/').count() == 5
            || self.replay_spec.matches('/').count() == 5;
        let mut stages = vec![
            StageKind::Entry,
            StageKind::Admission,
            StageKind::Candidates,
            StageKind::Charge,
            StageKind::Scorer,
        ];
        if region_stage {
            stages.insert(0, StageKind::Region);
        }
        let count = |s: StageKind| self.stage_attribution.get(s.as_str()).copied();
        let attribution = obj(stages
            .into_iter()
            .map(|s| (s.as_str(), u(count(s).unwrap_or(0))))
            .collect());
        let rows = self.divergences.iter().map(|r| {
            obj(vec![
                ("seq", u(r.seq)),
                ("req", u(r.req)),
                ("stage", text(r.stage.as_str())),
                ("factual", u(r.factual as u64)),
                (
                    "counterfactual",
                    r.counterfactual.map_or(Value::Null, |n| u(n as u64)),
                ),
            ])
        });
        let warnings = self.parse_warnings.iter().map(|w| text(w));
        obj(vec![
            ("schema_version", u(self.schema_version)),
            ("substrate", text(&self.substrate)),
            ("policy", text(&self.policy)),
            ("p", u(self.p as u64)),
            ("m", u(self.m as u64)),
            ("seed", u(self.seed)),
            ("run", u(self.run as u64)),
            ("runs", u(self.runs as u64)),
            ("baseline_spec", text(&self.baseline_spec)),
            ("replay_spec", text(&self.replay_spec)),
            ("decisions", u(self.decisions)),
            ("divergent", u(self.divergent)),
            ("divergence_rate", fnum(self.divergence_rate)),
            ("first_disagreement", first),
            ("stage_attribution", attribution),
            ("drops_recorded", u(self.drops_recorded)),
            ("drops_replayed", u(self.drops_replayed)),
            ("restarts_recorded", u(self.restarts_recorded)),
            ("completions", u(self.completions)),
            ("rescued", u(self.rescued)),
            ("counterfactual_dropped", u(self.counterfactual_dropped)),
            ("recorded_stretch", fnum(self.recorded_stretch)),
            ("model_stretch_factual", fnum(self.model_stretch_factual)),
            (
                "model_stretch_counterfactual",
                fnum(self.model_stretch_counterfactual),
            ),
            ("model_stretch_delta", fnum(self.model_stretch_delta)),
            ("node_busy_cv_factual", fnum(self.node_busy_cv_factual)),
            (
                "node_busy_cv_counterfactual",
                fnum(self.node_busy_cv_counterfactual),
            ),
            ("node_busy_cv_delta", fnum(self.node_busy_cv_delta)),
            ("divergences", Value::Array(rows.collect())),
            (
                "divergences_truncated",
                Value::Bool(self.divergences_truncated),
            ),
            ("parse_warnings", Value::Array(warnings.collect())),
            ("parse_warning_count", u(self.parse_warning_count)),
            ("skipped_unknown_events", u(self.skipped_unknown_events)),
        ])
    }

    /// Pretty-printed JSON with a trailing newline.
    pub fn to_json(&self) -> String {
        let mut s = self.to_value().to_json_pretty();
        s.push('\n');
        s
    }
}

/// The one demand rule of the log readers: a request's demand is the
/// `demand_us` its latest decision recorded, floored at 1 µs as the
/// drivers' stretch accounting floors it. A recorded 0 is what the run
/// itself served and measured, so it stays (as 1 µs) rather than being
/// replaced by the declared `expected_us`.
fn recorded_demand_us(d: &DecisionRecord) -> u64 {
    d.demand_us.max(1)
}

/// The state of one recorded run that [`LogReplay`] rebuilds from the
/// log as it walks the run's events.
#[derive(Debug)]
pub struct RecordedRun {
    /// The run's position in the log, from 0.
    pub index: usize,
    /// The run's `meta` line.
    pub meta: RunMeta,
    /// The recorded run's reservation controller: built from the meta
    /// priors and fed the recorded arrivals, placements, responses and
    /// ρ in log order, the call sequence the run made.
    pub controller: ReservationController,
    /// The recorded run's per-window fold.
    fold: WindowFold,
    /// [`recorded_demand_us`] of each placed request that has not
    /// completed yet.
    demand_us: HashMap<u64, u64>,
}

impl RecordedRun {
    fn new(index: usize, meta: RunMeta) -> Result<Self, ReplayError> {
        let (m, p) = (meta.m.max(1), meta.p.max(1));
        if m > p {
            return Err(ReplayError::Masters { m, p });
        }
        Ok(RecordedRun {
            index,
            controller: ReservationController::new(m, p, meta.a0, meta.r0, true),
            meta,
            fold: WindowFold::new(),
            demand_us: HashMap::new(),
        })
    }

    /// Fold one event of the run into its state; returns the completed
    /// request's demand for a `complete` and the closed window for a
    /// `tick`.
    fn fold(
        &mut self,
        event: &TraceEvent,
    ) -> Result<(Option<u64>, Option<WindowSignals>), ReplayError> {
        let p = self.meta.p;
        match event {
            TraceEvent::Decision(d) => {
                self.controller.note_arrival(d.dynamic);
                if d.dynamic {
                    self.controller.note_placement(d.on_master);
                }
                self.demand_us.insert(d.req, recorded_demand_us(d));
            }
            TraceEvent::Drop(_) => self.fold.note_drop(),
            TraceEvent::Complete {
                req,
                dynamic,
                response_us,
                ..
            } => {
                let response = SimDuration::from_micros(*response_us);
                self.controller.note_response(*dynamic, response);
                let demand = self.demand_us.remove(req);
                if let Some(demand) = demand {
                    self.fold.record(response, SimDuration::from_micros(demand));
                }
                return Ok((demand, None));
            }
            TraceEvent::Tick { at_us, rho, nodes } => {
                if nodes.len() != p {
                    return Err(ReplayError::Inconsistent(format!(
                        "tick at {at_us} us samples {} nodes, meta says p = {p}",
                        nodes.len()
                    )));
                }
                self.controller.update(*rho);
                let window = self.fold.close(*at_us, self.controller.clamp_events());
                return Ok((None, Some(window)));
            }
            TraceEvent::NodeDown { node } | TraceEvent::NodeUp { node } if *node >= p => {
                return Err(ReplayError::Inconsistent(format!(
                    "node {node} is outside p = {p}"
                )));
            }
            _ => {}
        }
        Ok((None, None))
    }
}

/// One event of a log, after [`LogReplay`] folded it into its run.
#[derive(Debug)]
pub struct Step<'a> {
    /// The event.
    pub event: TraceEvent,
    /// Its run's recorded state, this event included.
    pub run: &'a RecordedRun,
    /// For a `complete`: the request's demand in µs under the one demand
    /// rule (its latest decision's `demand_us`, floored at 1), `None`
    /// when no decision of the run placed it.
    pub demand_us: Option<u64>,
    /// For a `tick`: the window it closed.
    pub window: Option<WindowSignals>,
}

/// The one decision-log walker: `msweb analyze` and `msweb slo-check`
/// both read a log through it, one event at a time.
///
/// It takes lines from [`read_log`](super::trace::read_log) or the
/// events of a [`TraceLog`](super::TraceLog) already in memory, such as
/// the baseline log the Pareto sweep records; it splits them into runs at
/// each `meta` line, and keeps per run the [`RecordedRun`] state: the
/// meta, the recorded reservation controller, the window fold and the
/// demand of each request in flight, dropped when the request completes.
/// Memory therefore follows the requests in flight, not the log length.
///
/// It rejects a log that does not start with a `meta` line, a `meta`
/// with more masters than nodes, a `tick` that samples another node
/// count than its `meta` and a liveness event for a node outside the
/// cluster, and keeps the first 16 parse warnings plus their count.
#[derive(Debug)]
pub struct LogReplay<I> {
    lines: I,
    run: Option<RecordedRun>,
    runs: usize,
    warnings: Vec<String>,
    warning_count: u64,
}

impl<I: Iterator<Item = Result<LogLine, ReplayError>>> LogReplay<I> {
    /// A walker over `lines`.
    pub fn new(lines: impl IntoIterator<IntoIter = I>) -> Self {
        LogReplay {
            lines: lines.into_iter(),
            run: None,
            runs: 0,
            warnings: Vec::new(),
            warning_count: 0,
        }
    }

    /// Read and fold the next event; `None` at the end of the log.
    pub fn step(&mut self) -> Result<Option<Step<'_>>, ReplayError> {
        let Some(line) = self.lines.next() else {
            return Ok(None);
        };
        let LogLine { event, warnings } = line?;
        self.warning_count += warnings.len() as u64;
        let room = MAX_WARNINGS.saturating_sub(self.warnings.len());
        self.warnings.extend(warnings.into_iter().take(room));
        if let TraceEvent::Meta(meta) = &event {
            self.run = Some(RecordedRun::new(self.runs, meta.clone())?);
            self.runs += 1;
        }
        let run = self.run.as_mut().ok_or(ReplayError::NotMetaFirst)?;
        let (demand_us, window) = run.fold(&event)?;
        Ok(Some(Step {
            event,
            run,
            demand_us,
            window,
        }))
    }

    /// Runs (`meta` lines) read so far.
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// The first 16 parse warnings read so far, and how many there were.
    pub fn warnings(&self) -> (&[String], u64) {
        (&self.warnings, self.warning_count)
    }
}

/// Compare a recorded decision `f` against its replayed counterpart `c`
/// and return the first stage that disagreed, in pipeline order.
/// `factual` carries the scores the recorded composition gave `f`'s
/// candidates (its lockstep replay, or `c` itself in a self-replay).
fn first_divergent_stage(
    f: &DecisionRecord,
    factual: &DecisionRecord,
    c: &DecisionRecord,
) -> Option<StageKind> {
    if f.region != c.region {
        return Some(StageKind::Region);
    }
    if f.entry != c.entry {
        return Some(StageKind::Entry);
    }
    if f.masters_ok != c.masters_ok || f.theta_hat != c.theta_hat || f.theta2_star != c.theta2_star
    {
        return Some(StageKind::Admission);
    }
    if f.candidates.sorted() != c.candidates.sorted() {
        return Some(StageKind::Candidates);
    }
    let c_scores: BTreeMap<usize, f64> = scored(c).collect();
    for (node, fsc) in scored(factual) {
        if let Some(csc) = c_scores.get(&node) {
            if (fsc - csc).abs() > SCORE_EPSILON {
                return Some(StageKind::Charge);
            }
        }
    }
    if f.chosen != c.chosen {
        return Some(StageKind::Scorer);
    }
    None
}

/// A replayed record's candidates paired with their scores.
fn scored(r: &DecisionRecord) -> impl Iterator<Item = (usize, f64)> + '_ {
    let nodes = match &r.candidates {
        Candidates::List(nodes) => nodes.as_slice(),
        Candidates::Range { .. } => &[],
    };
    nodes.iter().copied().zip(r.scores.iter().copied())
}

/// Per-node processor-sharing stretch model: every request placed on a
/// node shares that node's (speed-scaled) capacity equally while
/// active. `placements` is `(node, arrival µs, true demand µs)` per
/// request; `speeds` optionally scales per-node capacity. Returns the
/// mean response/demand stretch over all placements with a non-zero
/// demand, or 0 when there are none.
///
/// [`analyze`] runs the factual and counterfactual placements through
/// this same model, so the *difference* isolates the placement
/// decisions from the model's simplifications (no memory, no disk
/// phases, no transfers). Experiments use it for placement lists
/// produced outside a decision log (e.g. the `unknown-sizes` sweep).
pub fn model_stretch(placements: &[(usize, u64, u64)], p: usize, speeds: Option<&[f64]>) -> f64 {
    // Per node: (arrival s, service s on this node, raw demand s).
    let mut per_node: Vec<Vec<(f64, f64, f64)>> = vec![Vec::new(); p];
    for &(node, at_us, demand_us) in placements {
        if node >= p || demand_us == 0 {
            continue;
        }
        let speed = speeds.map_or(1.0, |s| s[node]).max(1e-9);
        let demand = demand_us as f64 / 1e6;
        per_node[node].push((at_us as f64 / 1e6, demand / speed, demand));
    }
    let mut sum = 0.0;
    let mut count = 0u64;
    for jobs in &mut per_node {
        // Log order is time order within a run, but sort defensively
        // (stable, so equal-time jobs keep log order). total_cmp: a
        // degenerate log with NaN times must yield NaN stretch, not a
        // panic.
        jobs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let queue: Vec<(f64, f64)> = jobs.iter().map(|&(at, service, _)| (at, service)).collect();
        for (i, response) in simulate_ps(&queue).into_iter().enumerate() {
            // Stretch against the *raw* demand, like the recorded
            // stretch: a faster node genuinely lowers it.
            sum += response / jobs[i].2;
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// Egalitarian processor sharing on one node: jobs arrive at fixed
/// times, each active job receives `1/n` of capacity. Returns each
/// job's response time (completion - arrival), aligned with `jobs`.
fn simulate_ps(jobs: &[(f64, f64)]) -> Vec<f64> {
    let mut responses = vec![0.0; jobs.len()];
    let mut active: Vec<(usize, f64)> = Vec::new();
    let mut t = 0.0f64;
    let mut next = 0usize;
    loop {
        let arrival = jobs.get(next).map(|j| j.0);
        while !active.is_empty() {
            let n = active.len() as f64;
            let min_rem = active.iter().map(|a| a.1).fold(f64::INFINITY, f64::min);
            let finish_at = t + min_rem * n;
            if let Some(at) = arrival {
                if at < finish_at {
                    let dt = (at - t).max(0.0);
                    for a in &mut active {
                        a.1 -= dt / n;
                    }
                    t = at;
                    break;
                }
            }
            for a in &mut active {
                a.1 -= min_rem;
            }
            t = finish_at;
            active.retain(|&(idx, rem)| {
                if rem <= 1e-12 {
                    responses[idx] = t - jobs[idx].0;
                    false
                } else {
                    true
                }
            });
        }
        match arrival {
            Some(at) => {
                if active.is_empty() && t < at {
                    t = at;
                }
                active.push((next, jobs[next].1.max(1e-12)));
                next += 1;
            }
            None => {
                if active.is_empty() {
                    break;
                }
            }
        }
    }
    responses
}

/// Add `demand_us` of work, scaled by the node's speed, to `busy[node]`;
/// a node outside the cluster is skipped.
fn charge(busy: &mut [f64], speeds: Option<&[f64]>, node: usize, demand_us: u64) {
    if let Some(b) = busy.get_mut(node) {
        *b += demand_us as f64 / speeds.map_or(1.0, |s| s[node]).max(1e-9);
    }
}

/// Note a divergent placement (`cf` is `None` when the replay dropped
/// it) in the stage attribution and the first rows.
fn note_divergence(
    report: &mut AnalysisReport,
    f: &DecisionRecord,
    cf: Option<usize>,
    stage: StageKind,
) {
    report.divergent += 1;
    *report.stage_attribution.entry(stage.as_str()).or_insert(0) += 1;
    if report.divergences.len() < MAX_DIVERGENCE_ROWS {
        report.divergences.push(DivergenceRow {
            seq: f.seq,
            req: f.req,
            factual: f.chosen,
            counterfactual: cf,
            stage,
        });
    } else {
        report.divergences_truncated = true;
    }
}

/// The inputs of one recorded call to the scheduler: a decision, or a
/// drop the run re-drives.
struct Call {
    req: u64,
    at_us: u64,
    demand_us: u64,
    origin: usize,
    dynamic: bool,
    know: ReqKnowledge,
    restart: bool,
}

impl Call {
    /// Replay re-declares exactly what the recorded run declared
    /// (`w`/`expected_us` are the declaration; the truth lives in
    /// `demand_us`).
    fn decision(f: &DecisionRecord) -> Self {
        Call {
            req: f.req,
            at_us: f.at_us,
            demand_us: f.demand_us,
            origin: f.origin,
            dynamic: f.dynamic,
            know: ReqKnowledge::new(f.w, SimDuration::from_micros(f.expected_us)),
            restart: f.restart,
        }
    }

    fn drop(d: &DropRecord) -> Self {
        Call {
            req: d.req,
            at_us: d.at_us,
            demand_us: 0,
            origin: d.origin,
            dynamic: d.dynamic,
            know: ReqKnowledge::new(d.w, SimDuration::from_micros(d.expected_us)),
            restart: d.restart,
        }
    }
}

/// One composition re-driven over a run's events: its scheduler, its
/// load monitor, and the observer its placement records land in.
struct Redrive {
    scheduler: DynScheduler,
    monitor: LoadMonitor,
    records: Rc<RefCell<CollectingObserver>>,
}

impl Redrive {
    fn new(cfg: &ClusterConfig, spec: &StageSpec, meta: &RunMeta) -> Result<Self, ReplayError> {
        let mut scheduler = SchedulerRegistry::builtin().compose(cfg, spec, meta.a0, meta.r0)?;
        let records = Rc::new(RefCell::new(CollectingObserver::default()));
        scheduler.set_observer(Some(Box::new(records.clone())));
        Ok(Redrive {
            scheduler,
            monitor: LoadMonitor::new(meta.p, cfg.monitor_period(), SimTime::ZERO),
            records,
        })
    }

    /// Make the recorded call; the placement's record (with scores),
    /// or `None` when the composition found no live node.
    fn place(&mut self, call: &Call) -> Option<DecisionRecord> {
        let s = &mut self.scheduler;
        s.note_request(
            call.req,
            SimTime(call.at_us),
            SimDuration::from_micros(call.demand_us),
        );
        s.note_origin(call.origin);
        let placed = if call.restart {
            s.replace_after_failure(call.dynamic, call.know, &mut self.monitor)
        } else {
            s.place(call.dynamic, call.know, &mut self.monitor)
        };
        placed.ok()?;
        let record = self.records.borrow_mut().records.pop();
        Some(record.expect("the observer records every placement"))
    }

    /// A completion: the request leaves `node` (when it is known), and
    /// the controller is fed the response. A node the replay holds no
    /// request on is skipped, as the saturating count would skip it: a
    /// log whose meta line was edited can route a completion there.
    fn complete(&mut self, node: Option<usize>, dynamic: bool, response_us: u64) {
        if let Some(node) = node.filter(|&n| self.scheduler.in_flight(n) > 0) {
            self.scheduler.note_completion(node);
        }
        self.scheduler
            .reservation_mut()
            .note_response(dynamic, SimDuration::from_micros(response_us));
    }

    fn tick(&mut self, at_us: u64, rho: f64, nodes: &[NodeSample]) {
        let snaps: Vec<_> = nodes.iter().map(|n| n.to_snapshot(at_us)).collect();
        self.monitor.tick(SimTime(at_us), &snaps);
        self.scheduler.reservation_mut().update(rho);
        // Liveness events the scheduler emitted are not needed.
        self.records.borrow_mut().events.clear();
    }

    fn set_dead(&mut self, node: usize, dead: bool) {
        self.scheduler.set_dead(node, dead);
    }
}

/// Rebuild, from the run's meta line, the `opts.spec` counterfactual
/// (or the recorded composition itself) and, under a counterfactual,
/// the recorded composition to run in lockstep with it, with the
/// report the replay fills in.
fn replay_setup(
    meta: &RunMeta,
    opts: &ReplayOptions,
) -> Result<(Redrive, Option<Redrive>, AnalysisReport), ReplayError> {
    let policy: PolicyKind = meta
        .policy
        .parse()
        .map_err(|_| ReplayError::Policy(meta.policy.clone()))?;
    if meta.p > MAX_REPLAY_NODES {
        return Err(ReplayError::Meta {
            field: "p",
            reason: format!(
                "{} nodes exceeds the replay limit of {MAX_REPLAY_NODES}",
                meta.p
            ),
        });
    }
    let mut cfg = ClusterConfig::simulation(meta.p, policy)
        .with_masters(meta.m.max(1))
        .with_master_reserve(meta.master_reserve)
        .with_dns_skew(meta.dns_skew)
        .with_monitor_period(SimDuration::from_micros(meta.monitor_period_us))
        .with_remote_latency(SimDuration::from_micros(meta.remote_latency_us))
        .with_seed(meta.seed)
        .with_redirect_rtt(SimDuration::from_micros(meta.redirect_rtt_us));
    if let Some(speeds) = &meta.speeds {
        cfg = cfg.with_speeds(speeds.clone());
    }
    if let Some(regions) = &meta.regions {
        cfg = cfg.with_regions(regions.clone());
    }
    // Check the claims before the stage factories size anything by them.
    cfg.validate().map_err(meta_field_error)?;
    // The recorded composition: the explicit spec when one was logged,
    // otherwise the policy's built-in stage table.
    let baseline_spec = match &meta.spec {
        Some(s) => StageSpec::parse(s)?,
        None => StageSpec::for_policy(policy),
    };
    let replay_spec = opts.spec.as_ref().unwrap_or(&baseline_spec);
    let replay = Redrive::new(&cfg, replay_spec, meta)?;
    let factual = match opts.spec {
        Some(_) => Some(Redrive::new(&cfg, &baseline_spec, meta)?),
        None => None,
    };
    let report = AnalysisReport {
        schema_version: TRACE_SCHEMA_VERSION,
        substrate: meta.substrate.clone(),
        policy: meta.policy.clone(),
        p: meta.p,
        m: meta.m,
        seed: meta.seed,
        run: opts.run,
        baseline_spec: baseline_spec.render(),
        replay_spec: replay_spec.render(),
        ..AnalysisReport::default()
    };
    Ok((replay, factual, report))
}

/// The meta-line field a configuration error comes from.
fn meta_field_error(e: ConfigError) -> ReplayError {
    let field = match e {
        ConfigError::NoNodes => "p",
        ConfigError::BadMasterCount { .. } | ConfigError::NoSlave => "m",
        ConfigError::MasterReserveOutOfRange(_) => "master_reserve",
        ConfigError::SpeedCountMismatch { .. } | ConfigError::NonPositiveSpeed(_) => "speeds",
        ConfigError::DnsSkewOutOfRange(_) => "dns_skew",
        ConfigError::ZeroMonitorPeriod => "monitor_period_us",
        ConfigError::Region(_) => "regions",
        // The OS parameters are the simulator's defaults, not the log's,
        // and validation checks no arrival rate.
        ConfigError::Os(_) | ConfigError::RateTooLow { .. } => {
            return ReplayError::Compose(ComposeError::Invalid(e))
        }
    };
    ReplayError::Meta {
        field,
        reason: e.to_string(),
    }
}

/// Replay one run of a log and produce the analysis; see the
/// [module docs](self).
///
/// `lines` is any event source [`LogReplay`] walks. The walk reads to
/// the end of the log even past the requested run, so `runs` counts
/// every run and a bad line anywhere is an error.
pub fn analyze<I>(lines: I, opts: &ReplayOptions) -> Result<AnalysisReport, ReplayError>
where
    I: IntoIterator<Item = Result<LogLine, ReplayError>>,
{
    let mut walk = LogReplay::new(lines);
    let meta = loop {
        if let Some(step) = walk.step()? {
            if step.run.index == opts.run {
                break step.run.meta.clone();
            }
            continue;
        }
        let runs = walk.runs();
        return Err(if runs == 0 {
            ReplayError::NoMeta
        } else {
            ReplayError::NoSuchRun {
                requested: opts.run,
                available: runs,
            }
        });
    };
    let (mut replay, mut factual, mut report) = match replay_setup(&meta, opts) {
        Ok(built) => built,
        Err(e) => {
            // A bad line later in the log is reported first.
            while walk.step()?.is_some() {}
            return Err(e);
        }
    };

    // Counterfactual node per request in flight, for completion routing.
    let mut cf_node: HashMap<u64, usize> = HashMap::new();
    // (node, at_us, demand_us) placement lists for the models.
    let mut factual_placements: Vec<(usize, u64, u64)> = Vec::new();
    let mut cf_placements: Vec<(usize, u64, u64)> = Vec::new();
    let mut factual_busy = vec![0.0f64; meta.p];
    let mut cf_busy = vec![0.0f64; meta.p];
    let speeds = meta.speeds.as_deref();
    // (response/demand) accumulation from recorded completions.
    let mut stretch_sum = 0.0f64;
    let mut stretch_n = 0u64;

    while let Some(step) = walk.step()? {
        if step.run.index != opts.run {
            continue;
        }
        match &step.event {
            TraceEvent::Decision(f) => {
                report.decisions += 1;
                if f.restart {
                    report.restarts_recorded += 1;
                }
                let demand = recorded_demand_us(f);
                let call = Call::decision(f);
                // The recorded composition's own record of this call,
                // for the scores the log does not carry.
                let scores = factual.as_mut().map(|b| b.place(&call));
                let placed = replay.place(&call);
                charge(&mut factual_busy, speeds, f.chosen, demand);
                factual_placements.push((f.chosen, f.at_us, demand));
                let Some(c) = placed else {
                    // The counterfactual composition found no live node
                    // where the recorded run placed one.
                    report.counterfactual_dropped += 1;
                    report.drops_replayed += 1;
                    let stage = StageKind::Candidates;
                    report.first_disagreement.get_or_insert(Disagreement {
                        seq: f.seq,
                        req: f.req,
                        stage,
                    });
                    note_divergence(&mut report, f, None, stage);
                    continue;
                };
                cf_node.insert(f.req, c.chosen);
                charge(&mut cf_busy, speeds, c.chosen, demand);
                cf_placements.push((c.chosen, f.at_us, demand));
                let unscored = DecisionRecord::default();
                let factual_scores = match &scores {
                    None => &c,
                    Some(b) => b.as_ref().unwrap_or(&unscored),
                };
                let stage = first_divergent_stage(f, factual_scores, &c);
                if let Some(stage) = stage {
                    report.first_disagreement.get_or_insert(Disagreement {
                        seq: f.seq,
                        req: f.req,
                        stage,
                    });
                }
                if f.chosen != c.chosen {
                    let stage = stage.unwrap_or(StageKind::Scorer);
                    note_divergence(&mut report, f, Some(c.chosen), stage);
                }
            }
            TraceEvent::Complete {
                req,
                node,
                dynamic,
                response_us,
            } => {
                report.completions += 1;
                replay.complete(cf_node.remove(req), *dynamic, *response_us);
                if let Some(b) = &mut factual {
                    b.complete(Some(*node), *dynamic, *response_us);
                }
                if let Some(demand) = step.demand_us {
                    stretch_sum += *response_us as f64 / demand as f64;
                    stretch_n += 1;
                }
            }
            TraceEvent::Tick { at_us, rho, nodes } => {
                for r in std::iter::once(&mut replay).chain(&mut factual) {
                    r.tick(*at_us, *rho, nodes);
                }
            }
            TraceEvent::NodeDown { node } | TraceEvent::NodeUp { node } => {
                let dead = matches!(step.event, TraceEvent::NodeDown { .. });
                for r in std::iter::once(&mut replay).chain(&mut factual) {
                    r.set_dead(*node, dead);
                }
            }
            // Bookkeeping drop that never reached the scheduler; the
            // replay inherits it as-is.
            TraceEvent::Drop(d) if !d.redrive => {
                report.drops_recorded += 1;
                report.drops_replayed += 1;
            }
            TraceEvent::Drop(d) => {
                report.drops_recorded += 1;
                // The recorded run invoked the scheduler (consuming RNG
                // draws) before dropping; re-drive to stay in lockstep.
                // A different composition may even manage to place the
                // request.
                let call = Call::drop(d);
                if let Some(b) = &mut factual {
                    b.place(&call);
                }
                let Some(c) = replay.place(&call) else {
                    report.drops_replayed += 1;
                    continue;
                };
                report.rescued += 1;
                cf_node.insert(d.req, c.chosen);
                charge(&mut cf_busy, speeds, c.chosen, d.expected_us);
                cf_placements.push((c.chosen, d.at_us, d.expected_us));
            }
            // SLO alerts are derived data (re-computable from the
            // surrounding events by `msweb slo-check`): they mutate no
            // scheduler state and replay skips them without touching
            // the report, so logs with and without rules attached
            // analyze byte-identically. The run's one meta line came
            // before this loop.
            TraceEvent::Alert { .. } | TraceEvent::Meta(_) => {}
            TraceEvent::Unknown { .. } => report.skipped_unknown_events += 1,
        }
    }

    (report.parse_warnings, report.parse_warning_count) = {
        let (warnings, count) = walk.warnings();
        (warnings.to_vec(), count)
    };
    report.runs = walk.runs();
    report.divergence_rate = if report.decisions == 0 {
        0.0
    } else {
        report.divergent as f64 / report.decisions as f64
    };
    report.recorded_stretch = if stretch_n == 0 {
        0.0
    } else {
        stretch_sum / stretch_n as f64
    };
    report.model_stretch_factual = model_stretch(&factual_placements, meta.p, speeds);
    report.model_stretch_counterfactual = model_stretch(&cf_placements, meta.p, speeds);
    report.model_stretch_delta = report.model_stretch_counterfactual - report.model_stretch_factual;
    report.node_busy_cv_factual = cv(&factual_busy);
    report.node_busy_cv_counterfactual = cv(&cf_busy);
    report.node_busy_cv_delta = report.node_busy_cv_counterfactual - report.node_busy_cv_factual;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{NodeSample, TraceLog};

    /// A two-node M/S run: one request recorded with `demand_us` 0 and
    /// one with 1000 µs, both completed, then one monitor tick.
    fn zero_demand_log() -> TraceLog {
        let decision = |req: u64, demand_us: u64| {
            TraceEvent::Decision(DecisionRecord {
                seq: req + 1,
                req,
                demand_us,
                w: 0.5,
                expected_us: 5_000,
                on_master: true,
                masters_ok: true,
                ..DecisionRecord::default()
            })
        };
        let complete = |req: u64, response_us: u64| TraceEvent::Complete {
            req,
            node: 0,
            dynamic: false,
            response_us,
        };
        let idle = NodeSample {
            cpu_busy_us: 0,
            disk_busy_us: 0,
            mem_free_ratio: 1.0,
            ready_len: 0,
            disk_queue_len: 0,
            processes: 0,
        };
        let events = vec![
            TraceEvent::Meta(RunMeta {
                substrate: "sim".into(),
                p: 2,
                m: 1,
                policy: "ms".into(),
                spec: None,
                seed: 1,
                a0: 0.3,
                r0: 0.02,
                master_reserve: 0.5,
                dns_skew: 0.0,
                monitor_period_us: 500_000,
                remote_latency_us: 1_000,
                redirect_rtt_us: 80_000,
                speeds: None,
                regions: None,
            }),
            decision(0, 0),
            decision(1, 1_000),
            complete(0, 500),
            complete(1, 2_000),
            TraceEvent::Tick {
                at_us: 500_000,
                rho: 0.1,
                nodes: vec![idle; 2],
            },
        ];
        TraceLog {
            events,
            warnings: Vec::new(),
        }
    }

    /// The one demand rule: a recorded `demand_us` of 0 is the demand the
    /// run served and measured, so both readers divide by the drivers'
    /// 1 µs floor, as the run's own window stretch did, rather than by the
    /// declared `expected_us`: (500/1 + 2000/1000) / 2 = 251.
    #[test]
    fn zero_demand_is_one_microsecond_in_both_readers() {
        let log = zero_demand_log();
        let mut fold = WindowFold::new();
        fold.record(SimDuration::from_micros(500), SimDuration::ZERO);
        fold.record(
            SimDuration::from_micros(2_000),
            SimDuration::from_micros(1_000),
        );
        let driver = fold.close(500_000, 0).stretch.unwrap();
        assert!((driver - 251.0).abs() < 1e-9, "{driver}");

        let mut walk = LogReplay::new(&log);
        let mut windows = Vec::new();
        while let Some(step) = walk.step().unwrap() {
            windows.extend(step.window);
        }
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].stretch, Some(driver));

        let report = analyze(&log, &ReplayOptions::default()).unwrap();
        assert_eq!(report.completions, 2);
        assert!(
            (report.recorded_stretch - 251.0).abs() < 1e-9,
            "{}",
            report.recorded_stretch
        );
    }

    #[test]
    fn ps_model_single_job_has_unit_stretch() {
        let s = model_stretch(&[(0, 0, 1_000_000)], 2, None);
        assert!((s - 1.0).abs() < 1e-9, "{s}");
    }

    #[test]
    fn ps_model_contention_raises_stretch() {
        // Two simultaneous 1s jobs on one node: each takes 2s.
        let together = model_stretch(&[(0, 0, 1_000_000), (0, 0, 1_000_000)], 2, None);
        assert!((together - 2.0).abs() < 1e-9, "{together}");
        // Spread over two nodes: no contention.
        let spread = model_stretch(&[(0, 0, 1_000_000), (1, 0, 1_000_000)], 2, None);
        assert!((spread - 1.0).abs() < 1e-9, "{spread}");
    }

    #[test]
    fn ps_model_staggered_overlap() {
        // Job A (2s) at t=0, job B (1s) at t=1. A runs alone for 1s,
        // leaving 1s; from t=1 both have 1s left at half rate each, so
        // both finish at t=3 (responses 3 and 2).
        let jobs = vec![(0.0, 2.0), (1.0, 1.0)];
        let resp = simulate_ps(&jobs);
        assert!((resp[0] - 3.0).abs() < 1e-9, "{resp:?}");
        assert!((resp[1] - 2.0).abs() < 1e-9, "{resp:?}");
    }

    #[test]
    fn busy_cv_balanced_is_zero() {
        assert_eq!(cv(&[2.0, 2.0, 2.0]), 0.0);
        assert!(cv(&[1.0, 3.0]) > 0.4);
        assert_eq!(cv(&[]), 0.0);
    }

    #[test]
    fn speeds_scale_model_service_times() {
        // Same demand on a 2x node halves the service time.
        let slow = model_stretch(&[(0, 0, 1_000_000), (0, 0, 1_000_000)], 1, None);
        let fast = model_stretch(&[(0, 0, 1_000_000), (0, 0, 1_000_000)], 1, Some(&[2.0]));
        // Stretch is response/demand with demand unscaled, so the fast
        // node halves the ratio.
        assert!((slow - 2.0).abs() < 1e-9);
        assert!((fast - 1.0).abs() < 1e-9);
    }
}
