//! Counterfactual decision-log replay and stage-level attribution.
//!
//! A schema-v2 decision log (see [`super::trace`]) records every
//! scheduler-state mutation of a run: the placement decisions with
//! their inputs, the load-monitor ticks with the raw per-node counters,
//! request completions, node failures and drops. That makes the log a
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

use std::collections::{BTreeMap, BTreeSet};

use msweb_simcore::{SimDuration, SimTime};

use super::registry::{SchedulerRegistry, StageSpec};
use super::trace::{DecisionRecord, TraceEvent, TraceLog, TRACE_SCHEMA_VERSION};
use super::{CollectingObserver, ComposeError, ReqKnowledge, RunMeta};
use crate::config::{ClusterConfig, PolicyKind};
use serde::Value;

/// Score differences below this are treated as equal when attributing a
/// divergence to the charged-load view.
const SCORE_EPSILON: f64 = 1e-9;

/// How many per-request divergence rows the report keeps verbatim.
const MAX_DIVERGENCE_ROWS: usize = 32;

/// How many parse warnings the report keeps verbatim.
const MAX_WARNINGS: usize = 16;

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

/// Why a log could not be replayed.
#[derive(Debug)]
pub enum ReplayError {
    /// The log contains no `meta` line: there is no recorded scheduler
    /// identity to rebuild.
    NoMeta,
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
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
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
#[derive(Debug, Clone, PartialEq)]
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
        let obj = |fields: Vec<(&str, Value)>| {
            Value::Object(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        };
        let first = match &self.first_disagreement {
            None => Value::Null,
            Some(d) => obj(vec![
                ("seq", Value::UInt(d.seq)),
                ("req", Value::UInt(d.req)),
                ("stage", Value::Str(d.stage.as_str().to_string())),
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
        let attribution = obj(stages
            .into_iter()
            .map(|s| {
                (
                    s.as_str(),
                    Value::UInt(self.stage_attribution.get(s.as_str()).copied().unwrap_or(0)),
                )
            })
            .collect());
        let rows = Value::Array(
            self.divergences
                .iter()
                .map(|r| {
                    obj(vec![
                        ("seq", Value::UInt(r.seq)),
                        ("req", Value::UInt(r.req)),
                        ("stage", Value::Str(r.stage.as_str().to_string())),
                        ("factual", Value::UInt(r.factual as u64)),
                        (
                            "counterfactual",
                            match r.counterfactual {
                                Some(n) => Value::UInt(n as u64),
                                None => Value::Null,
                            },
                        ),
                    ])
                })
                .collect(),
        );
        obj(vec![
            ("schema_version", Value::UInt(self.schema_version)),
            ("substrate", Value::Str(self.substrate.clone())),
            ("policy", Value::Str(self.policy.clone())),
            ("p", Value::UInt(self.p as u64)),
            ("m", Value::UInt(self.m as u64)),
            ("seed", Value::UInt(self.seed)),
            ("run", Value::UInt(self.run as u64)),
            ("runs", Value::UInt(self.runs as u64)),
            ("baseline_spec", Value::Str(self.baseline_spec.clone())),
            ("replay_spec", Value::Str(self.replay_spec.clone())),
            ("decisions", Value::UInt(self.decisions)),
            ("divergent", Value::UInt(self.divergent)),
            ("divergence_rate", Value::Float(self.divergence_rate)),
            ("first_disagreement", first),
            ("stage_attribution", attribution),
            ("drops_recorded", Value::UInt(self.drops_recorded)),
            ("drops_replayed", Value::UInt(self.drops_replayed)),
            ("restarts_recorded", Value::UInt(self.restarts_recorded)),
            ("completions", Value::UInt(self.completions)),
            ("rescued", Value::UInt(self.rescued)),
            (
                "counterfactual_dropped",
                Value::UInt(self.counterfactual_dropped),
            ),
            ("recorded_stretch", Value::Float(self.recorded_stretch)),
            (
                "model_stretch_factual",
                Value::Float(self.model_stretch_factual),
            ),
            (
                "model_stretch_counterfactual",
                Value::Float(self.model_stretch_counterfactual),
            ),
            (
                "model_stretch_delta",
                Value::Float(self.model_stretch_delta),
            ),
            (
                "node_busy_cv_factual",
                Value::Float(self.node_busy_cv_factual),
            ),
            (
                "node_busy_cv_counterfactual",
                Value::Float(self.node_busy_cv_counterfactual),
            ),
            ("node_busy_cv_delta", Value::Float(self.node_busy_cv_delta)),
            ("divergences", rows),
            (
                "divergences_truncated",
                Value::Bool(self.divergences_truncated),
            ),
            (
                "parse_warnings",
                Value::Array(
                    self.parse_warnings
                        .iter()
                        .map(|w| Value::Str(w.clone()))
                        .collect(),
                ),
            ),
            ("parse_warning_count", Value::UInt(self.parse_warning_count)),
            (
                "skipped_unknown_events",
                Value::UInt(self.skipped_unknown_events),
            ),
        ])
    }

    /// Pretty-printed JSON with a trailing newline.
    pub fn to_json(&self) -> String {
        let mut s = self.to_value().to_json_pretty();
        s.push('\n');
        s
    }
}

/// Split a log into runs: one segment per `meta` event, each spanning
/// to the next `meta`. Events before the first `meta` are unreachable
/// by replay and not part of any segment.
pub fn segments(events: &[TraceEvent]) -> Vec<&[TraceEvent]> {
    let starts: Vec<usize> = events
        .iter()
        .enumerate()
        .filter_map(|(i, e)| matches!(e, TraceEvent::Meta(_)).then_some(i))
        .collect();
    starts
        .iter()
        .enumerate()
        .map(|(k, &s)| {
            let end = starts.get(k + 1).copied().unwrap_or(events.len());
            &events[s..end]
        })
        .collect()
}

/// Rebuild the recorded run's `ClusterConfig` from its meta line.
fn config_from_meta(meta: &RunMeta) -> Result<(ClusterConfig, PolicyKind), ReplayError> {
    let policy: PolicyKind = meta
        .policy
        .parse()
        .map_err(|_| ReplayError::Policy(meta.policy.clone()))?;
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
    Ok((cfg, policy))
}

/// Compare a recorded decision against its replayed counterpart and
/// return the first stage that disagreed, in pipeline order.
fn first_divergent_stage(f: &DecisionRecord, c: &DecisionRecord) -> Option<StageKind> {
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
    let fs: BTreeSet<usize> = f.candidates.iter().copied().collect();
    let cs: BTreeSet<usize> = c.candidates.iter().copied().collect();
    if fs != cs {
        return Some(StageKind::Candidates);
    }
    let f_scores: BTreeMap<usize, f64> = f
        .candidates
        .iter()
        .copied()
        .zip(f.scores.iter().copied())
        .collect();
    let c_scores: BTreeMap<usize, f64> = c
        .candidates
        .iter()
        .copied()
        .zip(c.scores.iter().copied())
        .collect();
    for (node, fsc) in &f_scores {
        if let Some(csc) = c_scores.get(node) {
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

/// Per-node processor-sharing stretch model: every request placed on a
/// node shares that node's (speed-scaled) capacity equally while
/// active. Returns the mean response/demand stretch over all placements
/// with a known demand, or 0 when there are none.
///
/// Both the factual and counterfactual placements run through this same
/// model, so the *difference* isolates the placement decisions from the
/// model's simplifications (no memory, no disk phases, no transfers).
fn ps_model_stretch(placements: &[(usize, u64, u64)], p: usize, speeds: Option<&[f64]>) -> f64 {
    model_stretch(placements, p, speeds)
}

/// Public entry to the replay analyzer's processor-sharing stretch
/// model, for experiments that compare placement lists produced outside
/// a decision log (e.g. the `unknown-sizes` sweep). `placements` is
/// `(node, arrival µs, true demand µs)` per request; `speeds` optionally
/// scales per-node capacity. See [`AnalysisReport::model_stretch_factual`]
/// for the modelling caveats.
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

/// Population coefficient of variation (σ/μ) of per-node busy work; 0
/// when the mean is 0.
fn busy_cv(busy: &[f64]) -> f64 {
    if busy.is_empty() {
        return 0.0;
    }
    let mean = busy.iter().sum::<f64>() / busy.len() as f64;
    if mean <= 0.0 {
        return 0.0;
    }
    let var = busy.iter().map(|b| (b - mean).powi(2)).sum::<f64>() / busy.len() as f64;
    var.sqrt() / mean
}

/// Replay one run of `log` and produce the analysis; see the
/// [module docs](self).
pub fn analyze(log: &TraceLog, opts: &ReplayOptions) -> Result<AnalysisReport, ReplayError> {
    let segs = segments(&log.events);
    if segs.is_empty() {
        return Err(ReplayError::NoMeta);
    }
    if opts.run >= segs.len() {
        return Err(ReplayError::NoSuchRun {
            requested: opts.run,
            available: segs.len(),
        });
    }
    let segment = segs[opts.run];
    let TraceEvent::Meta(meta) = &segment[0] else {
        unreachable!("segments start at meta events");
    };
    let (cfg, policy) = config_from_meta(meta)?;

    // The recorded composition: the explicit spec when one was logged,
    // otherwise the policy's built-in stage table.
    let baseline_spec = match &meta.spec {
        Some(s) => StageSpec::parse(s)?,
        None => StageSpec::for_policy(policy),
    };
    let replay_spec = opts.spec.clone().unwrap_or_else(|| baseline_spec.clone());

    let registry = SchedulerRegistry::builtin();
    let mut scheduler = registry.compose(&cfg, &replay_spec, meta.a0, meta.r0)?;
    let collector = std::rc::Rc::new(std::cell::RefCell::new(CollectingObserver::default()));
    scheduler.set_observer(Some(Box::new(collector.clone())));
    let mut monitor =
        crate::loadinfo::LoadMonitor::new(meta.p, cfg.monitor_period(), SimTime::ZERO);

    let mut report = AnalysisReport {
        schema_version: TRACE_SCHEMA_VERSION,
        substrate: meta.substrate.clone(),
        policy: meta.policy.clone(),
        p: meta.p,
        m: meta.m,
        seed: meta.seed,
        run: opts.run,
        runs: segs.len(),
        baseline_spec: baseline_spec.render(),
        replay_spec: replay_spec.render(),
        decisions: 0,
        divergent: 0,
        divergence_rate: 0.0,
        first_disagreement: None,
        stage_attribution: BTreeMap::new(),
        drops_recorded: 0,
        drops_replayed: 0,
        restarts_recorded: 0,
        completions: 0,
        rescued: 0,
        counterfactual_dropped: 0,
        recorded_stretch: 0.0,
        model_stretch_factual: 0.0,
        model_stretch_counterfactual: 0.0,
        model_stretch_delta: 0.0,
        node_busy_cv_factual: 0.0,
        node_busy_cv_counterfactual: 0.0,
        node_busy_cv_delta: 0.0,
        divergences: Vec::new(),
        divergences_truncated: false,
        parse_warnings: log.warnings.iter().take(MAX_WARNINGS).cloned().collect(),
        parse_warning_count: log.warnings.len() as u64,
        skipped_unknown_events: 0,
    };

    // Counterfactual node per request id, for completion routing.
    let mut cf_node: BTreeMap<u64, usize> = BTreeMap::new();
    // (node, at_us, demand_us) placement lists for the models.
    let mut factual_placements: Vec<(usize, u64, u64)> = Vec::new();
    let mut cf_placements: Vec<(usize, u64, u64)> = Vec::new();
    let mut factual_busy = vec![0.0f64; meta.p];
    let mut cf_busy = vec![0.0f64; meta.p];
    let speeds = meta.speeds.as_deref();
    // (response/demand) accumulation from recorded completions.
    let mut demand_by_req: BTreeMap<u64, u64> = BTreeMap::new();
    let mut stretch_sum = 0.0f64;
    let mut stretch_n = 0u64;

    for event in &segment[1..] {
        match event {
            TraceEvent::Meta(_) => unreachable!("segment contains one meta"),
            TraceEvent::Decision(f) => {
                report.decisions += 1;
                if f.restart {
                    report.restarts_recorded += 1;
                }
                let effective_demand = if f.demand_us > 0 {
                    f.demand_us
                } else {
                    f.expected_us
                };
                demand_by_req.insert(f.req, effective_demand);
                scheduler.note_request(
                    f.req,
                    SimTime(f.at_us),
                    SimDuration::from_micros(f.demand_us),
                );
                scheduler.note_origin(f.origin);
                // Replay re-declares exactly what the recorded run
                // declared (`w`/`expected_us` are the declaration; the
                // truth lives in `demand_us` via `note_request`).
                let know = ReqKnowledge::exact(f.w, SimDuration::from_micros(f.expected_us));
                let placed = if f.restart {
                    scheduler.replace_after_failure(f.dynamic, know, &mut monitor)
                } else {
                    scheduler.place(f.dynamic, know, &mut monitor)
                };
                if f.chosen < meta.p {
                    let speed = speeds.map_or(1.0, |s| s[f.chosen]).max(1e-9);
                    factual_busy[f.chosen] += effective_demand as f64 / speed;
                }
                factual_placements.push((f.chosen, f.at_us, effective_demand));
                match placed {
                    Ok(_) => {
                        let c = collector
                            .borrow_mut()
                            .records
                            .pop()
                            .expect("observer records every placement");
                        cf_node.insert(f.req, c.chosen);
                        if c.chosen < meta.p {
                            let speed = speeds.map_or(1.0, |s| s[c.chosen]).max(1e-9);
                            cf_busy[c.chosen] += effective_demand as f64 / speed;
                        }
                        cf_placements.push((c.chosen, f.at_us, effective_demand));
                        let stage = first_divergent_stage(f, &c);
                        if let Some(stage) = stage {
                            if report.first_disagreement.is_none() {
                                report.first_disagreement = Some(Disagreement {
                                    seq: f.seq,
                                    req: f.req,
                                    stage,
                                });
                            }
                        }
                        if f.chosen != c.chosen {
                            report.divergent += 1;
                            let stage = stage.unwrap_or(StageKind::Scorer);
                            *report.stage_attribution.entry(stage.as_str()).or_insert(0) += 1;
                            if report.divergences.len() < MAX_DIVERGENCE_ROWS {
                                report.divergences.push(DivergenceRow {
                                    seq: f.seq,
                                    req: f.req,
                                    factual: f.chosen,
                                    counterfactual: Some(c.chosen),
                                    stage,
                                });
                            } else {
                                report.divergences_truncated = true;
                            }
                        }
                    }
                    Err(_) => {
                        // The counterfactual composition found no live
                        // node where the recorded run placed one.
                        report.divergent += 1;
                        report.counterfactual_dropped += 1;
                        report.drops_replayed += 1;
                        let stage = StageKind::Candidates;
                        *report.stage_attribution.entry(stage.as_str()).or_insert(0) += 1;
                        if report.first_disagreement.is_none() {
                            report.first_disagreement = Some(Disagreement {
                                seq: f.seq,
                                req: f.req,
                                stage,
                            });
                        }
                        if report.divergences.len() < MAX_DIVERGENCE_ROWS {
                            report.divergences.push(DivergenceRow {
                                seq: f.seq,
                                req: f.req,
                                factual: f.chosen,
                                counterfactual: None,
                                stage,
                            });
                        } else {
                            report.divergences_truncated = true;
                        }
                    }
                }
            }
            TraceEvent::Complete {
                req,
                dynamic,
                response_us,
                ..
            } => {
                report.completions += 1;
                if let Some(&node) = cf_node.get(req) {
                    scheduler.note_completion(node);
                    cf_node.remove(req);
                }
                scheduler
                    .reservation_mut()
                    .note_response(*dynamic, SimDuration::from_micros(*response_us));
                if let Some(&demand) = demand_by_req.get(req) {
                    if demand > 0 {
                        stretch_sum += *response_us as f64 / demand as f64;
                        stretch_n += 1;
                    }
                }
            }
            TraceEvent::Tick { at_us, rho, nodes } => {
                if nodes.len() != meta.p {
                    return Err(ReplayError::Inconsistent(format!(
                        "tick at {at_us} us samples {} nodes, meta says p = {}",
                        nodes.len(),
                        meta.p
                    )));
                }
                let snaps: Vec<_> = nodes.iter().map(|n| n.to_snapshot(*at_us)).collect();
                monitor.tick(SimTime(*at_us), &snaps);
                scheduler.reservation_mut().update(*rho);
            }
            TraceEvent::NodeDown { node } | TraceEvent::NodeUp { node } if *node >= meta.p => {
                return Err(ReplayError::Inconsistent(format!(
                    "node {node} is outside p = {}",
                    meta.p
                )));
            }
            TraceEvent::NodeDown { node } => scheduler.set_dead(*node, true),
            TraceEvent::NodeUp { node } => scheduler.set_dead(*node, false),
            TraceEvent::Drop(d) => {
                report.drops_recorded += 1;
                if d.redrive {
                    // The recorded run invoked the scheduler (consuming
                    // RNG draws) before dropping; re-drive to stay in
                    // lockstep. A different composition may even manage
                    // to place the request.
                    scheduler.note_request(d.req, SimTime(d.at_us), SimDuration::ZERO);
                    scheduler.note_origin(d.origin);
                    let know = ReqKnowledge::exact(d.w, SimDuration::from_micros(d.expected_us));
                    let placed = if d.restart {
                        scheduler.replace_after_failure(d.dynamic, know, &mut monitor)
                    } else {
                        scheduler.place(d.dynamic, know, &mut monitor)
                    };
                    match placed {
                        Ok(_) => {
                            let c = collector
                                .borrow_mut()
                                .records
                                .pop()
                                .expect("observer records every placement");
                            report.rescued += 1;
                            cf_node.insert(d.req, c.chosen);
                            if c.chosen < meta.p {
                                let speed = speeds.map_or(1.0, |s| s[c.chosen]).max(1e-9);
                                cf_busy[c.chosen] += d.expected_us as f64 / speed;
                            }
                            cf_placements.push((c.chosen, d.at_us, d.expected_us));
                        }
                        Err(_) => report.drops_replayed += 1,
                    }
                } else {
                    // Bookkeeping drop that never reached the
                    // scheduler; the replay inherits it as-is.
                    report.drops_replayed += 1;
                }
            }
            // SLO alerts are derived data (re-computable from the
            // surrounding events by `msweb slo-check`): they mutate no
            // scheduler state and replay skips them without touching
            // the report, so logs with and without rules attached
            // analyze byte-identically.
            TraceEvent::Alert { .. } => {}
            TraceEvent::Unknown { .. } => report.skipped_unknown_events += 1,
        }
    }

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
    report.model_stretch_factual = ps_model_stretch(&factual_placements, meta.p, speeds);
    report.model_stretch_counterfactual = ps_model_stretch(&cf_placements, meta.p, speeds);
    report.model_stretch_delta = report.model_stretch_counterfactual - report.model_stretch_factual;
    report.node_busy_cv_factual = busy_cv(&factual_busy);
    report.node_busy_cv_counterfactual = busy_cv(&cf_busy);
    report.node_busy_cv_delta = report.node_busy_cv_counterfactual - report.node_busy_cv_factual;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ps_model_single_job_has_unit_stretch() {
        let s = ps_model_stretch(&[(0, 0, 1_000_000)], 2, None);
        assert!((s - 1.0).abs() < 1e-9, "{s}");
    }

    #[test]
    fn ps_model_contention_raises_stretch() {
        // Two simultaneous 1s jobs on one node: each takes 2s.
        let together = ps_model_stretch(&[(0, 0, 1_000_000), (0, 0, 1_000_000)], 2, None);
        assert!((together - 2.0).abs() < 1e-9, "{together}");
        // Spread over two nodes: no contention.
        let spread = ps_model_stretch(&[(0, 0, 1_000_000), (1, 0, 1_000_000)], 2, None);
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
        assert_eq!(busy_cv(&[2.0, 2.0, 2.0]), 0.0);
        assert!(busy_cv(&[1.0, 3.0]) > 0.4);
        assert_eq!(busy_cv(&[]), 0.0);
    }

    #[test]
    fn speeds_scale_model_service_times() {
        // Same demand on a 2x node halves the service time.
        let slow = ps_model_stretch(&[(0, 0, 1_000_000), (0, 0, 1_000_000)], 1, None);
        let fast = ps_model_stretch(&[(0, 0, 1_000_000), (0, 0, 1_000_000)], 1, Some(&[2.0]));
        // Stretch is response/demand with demand unscaled, so the fast
        // node halves the ratio.
        assert!((slow - 2.0).abs() < 1e-9);
        assert!((fast - 1.0).abs() < 1e-9);
    }
}
