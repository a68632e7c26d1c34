//! Stage-space Pareto sweep: search every registry-composable stage
//! combination and report the multi-objective frontier.
//!
//! The paper evaluates a handful of hand-picked policies; the
//! [`SchedulerRegistry`] can compose every `entry × admission ×
//! candidates × scorer × charge` combination from string specs. This
//! module enumerates that grid (a [`StageGrid`] with a pruning
//! predicate for nonsensical pairs), fans it out over the
//! [`Sweep`] engine under common random numbers, scores
//! each cell on three minimised objectives — **model stretch** (Eq. 5
//! placement quality replayed over the decision log), **node-busy CV**
//! (balance) and **drop rate** — and extracts the 3-D Pareto front with
//! a deterministic dominance pass.
//!
//! Determinism, spelled out (DESIGN.md §13 carries the argument):
//!
//! * every cell replays the *same* trace under the *same* seed
//!   (common random numbers) through the deterministic simulator;
//! * grid enumeration walks sorted stage names (the registry is
//!   `BTreeMap`-keyed), rows are slug-sorted, duplicate objective
//!   vectors keep the lexicographically smallest slug, and all float
//!   comparisons use [`f64::total_cmp`];
//! * the report serialises through the deterministic vendored `serde`
//!   writer, so two runs of the same configuration are byte-identical
//!   (`msweb experiments --pareto --test` runs the grid twice and
//!   diffs the JSON).
//!
//! Degenerate pipelines (all-drop runs, zero completions, NaN
//! metrics) are first-class: they classify as [`CellStatus::Degenerate`]
//! rows, excluded from the dominance pass, instead of panicking the
//! sweep.
//!
//! Each frontier point is finally re-driven through
//! [`analyze`] against an in-memory decision
//! log of the RSRC master/slave baseline, so the report names *which
//! pipeline stage* a winner first diverges at — not just that it wins.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use msweb_cluster::{
    analyze, ClusterConfig, ClusterSim, CollectingObserver, DecisionObserver, DecisionRecord,
    PolicyKind, ReplayOptions, Schedule, SchedulerRegistry, StageSpec, TraceEvent, TraceLog,
};
use msweb_workload::{ucb, DemandModel, Trace};
use serde::Serialize;

use crate::experiments::ExpConfig;
use crate::report::{f, Table};
use crate::sweep::Sweep;

/// The fixed workload every cell replays (common random numbers): the
/// UCB trace at λ = 2000/s on p = 32 nodes, 1/r = 40 — the same cell
/// the unknown-sizes sweep uses, so frontier numbers are comparable
/// across experiments.
const P: usize = 32;
const MASTERS: usize = 8;
const INV_R: f64 = 40.0;
const LAMBDA: f64 = 2000.0;

/// A pruning verdict: `None` keeps the spec, `Some(reason)` skips it.
pub type PrunePredicate = fn(&StageSpec) -> Option<&'static str>;

/// The default pruning rules. Each removes compositions that cannot
/// add information to the search, never ones that are merely unusual —
/// hybrids are the point of the sweep:
///
/// 1. **Dense-scan duplicates** — `min-rsrc`/`min-rsrc-reserve`
///    produce byte-identical placements to `rsrc-indexed`/
///    `rsrc-indexed-reserve` by construction (pinned by the decision
///    index fixtures), so the dense twins are pure duplicates.
/// 2. **Dead scorer** — with `entry-only` candidates there is exactly
///    one candidate, so every scorer picks the same node; the scorer
///    axis is pinned to `rsrc-indexed` and the rest pruned.
/// 3. **Reserve without reservation** — the `*-reserve` scorers
///    discount master capacity to keep headroom for the reservation
///    admission's redirected traffic; without a reservation stage
///    (`none`/`attained`) they model a protection that does not exist.
pub fn default_prune(spec: &StageSpec) -> Option<&'static str> {
    if spec.scorer == "min-rsrc" || spec.scorer == "min-rsrc-reserve" {
        return Some("dense scan duplicates the indexed scorer byte-for-byte");
    }
    if spec.candidates == "entry-only" && spec.scorer != "rsrc-indexed" {
        return Some("a single-candidate set makes the scorer irrelevant");
    }
    if spec.scorer.ends_with("-reserve") && !spec.admission.starts_with("reservation") {
        return Some("reserve-aware scorer without a reservation admission stage");
    }
    None
}

/// One axis per pipeline stage; the cross product (minus pruning and
/// filtering) is the searched composition space.
#[derive(Debug, Clone)]
pub struct StageGrid {
    label: String,
    entries: Vec<String>,
    admissions: Vec<String>,
    candidates: Vec<String>,
    scorers: Vec<String>,
    charges: Vec<String>,
    filter: Option<String>,
    prune: PrunePredicate,
}

/// What [`StageGrid::enumerate`] produced, with the bookkeeping the
/// report records.
#[derive(Debug, Clone)]
pub struct GridEnumeration {
    /// The specs to run, in sorted-axis enumeration order.
    pub specs: Vec<StageSpec>,
    /// Raw cross-product size before pruning/filtering.
    pub enumerated: usize,
    /// Cells removed by the pruning predicate.
    pub pruned: usize,
    /// Cells removed by the `--grid` substring filter.
    pub filtered: usize,
}

impl StageGrid {
    /// The full grid over every stage the registry knows, with one
    /// bounded instance per parameterised scorer family (`rsrc-p2:2`)
    /// so the grid stays finite. Add more instances with
    /// [`StageGrid::add_scorer`].
    pub fn full(reg: &SchedulerRegistry) -> Self {
        let mut scorers = reg.scorer_names();
        for family in reg.scorer_family_names() {
            if family == "rsrc-p2" {
                scorers.push("rsrc-p2:2".to_string());
            }
        }
        scorers.sort();
        StageGrid {
            label: "full".to_string(),
            entries: reg.entry_names(),
            admissions: reg.admission_names(),
            candidates: reg.candidate_names(),
            scorers,
            charges: reg.charge_names(),
            filter: None,
            prune: default_prune,
        }
    }

    /// The bounded CI smoke grid: every entry and candidate stage, the
    /// two admission extremes (`reservation`, `none`), four
    /// representative scorers and one charge stage — 48 cells after
    /// pruning, small enough to run twice per CI job for the
    /// byte-determinism check.
    pub fn smoke() -> Self {
        let s = |names: &[&str]| names.iter().map(|n| n.to_string()).collect();
        StageGrid {
            label: "smoke".to_string(),
            entries: s(&["least-connections", "rotation", "rotation-masters"]),
            admissions: s(&["none", "reservation"]),
            candidates: s(&["entry-only", "level-split", "pinned-slaves"]),
            scorers: s(&["gittins", "random", "rsrc-indexed", "rsrc-indexed-reserve"]),
            charges: s(&["split-demand"]),
            filter: None,
            prune: default_prune,
        }
    }

    /// Keep only cells whose rendered slug contains `filter` (the
    /// `--grid <filter>` CLI knob).
    pub fn with_filter(mut self, filter: impl Into<String>) -> Self {
        let filter = filter.into();
        if !filter.is_empty() {
            self.filter = Some(filter);
        }
        self
    }

    /// Replace the pruning predicate ([`default_prune`] by default).
    pub fn with_prune(mut self, prune: PrunePredicate) -> Self {
        self.prune = prune;
        self
    }

    /// Add an explicit scorer name (e.g. another family instance such
    /// as `rsrc-p2:4`).
    pub fn add_scorer(mut self, name: impl Into<String>) -> Self {
        self.scorers.push(name.into());
        self.scorers.sort();
        self.scorers.dedup();
        self
    }

    /// The grid's display label (`full`, `smoke`, plus the filter).
    pub fn label(&self) -> String {
        match &self.filter {
            Some(f) => format!("{} (filter: {f})", self.label),
            None => self.label.clone(),
        }
    }

    /// Walk the cross product in sorted-axis order, applying the
    /// pruning predicate and the slug filter. Deterministic: axis
    /// vectors are sorted and the walk order is fixed.
    pub fn enumerate(&self) -> GridEnumeration {
        let mut out = GridEnumeration {
            specs: Vec::new(),
            enumerated: 0,
            pruned: 0,
            filtered: 0,
        };
        for entry in &self.entries {
            for admission in &self.admissions {
                for candidates in &self.candidates {
                    for scorer in &self.scorers {
                        for charge in &self.charges {
                            out.enumerated += 1;
                            let spec = StageSpec {
                                region: None,
                                entry: entry.clone(),
                                admission: admission.clone(),
                                candidates: candidates.clone(),
                                scorer: scorer.clone(),
                                charge: charge.clone(),
                            };
                            if (self.prune)(&spec).is_some() {
                                out.pruned += 1;
                                continue;
                            }
                            if let Some(f) = &self.filter {
                                if !spec.render().contains(f.as_str()) {
                                    out.filtered += 1;
                                    continue;
                                }
                            }
                            out.specs.push(spec);
                        }
                    }
                }
            }
        }
        out
    }
}

/// Whether a cell entered the dominance pass.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum CellStatus {
    /// Finite objectives; eligible for the front.
    Scored,
    /// Excluded from the front; the payload names why. Degenerate
    /// metrics serialise as `null` (NaN has no JSON literal).
    Degenerate(String),
}

/// One grid cell's measured outcome.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ParetoRow {
    /// Rendered stage spec (the slug).
    pub spec: String,
    /// End-to-end mean stretch (informational; not an objective).
    pub stretch: f64,
    /// Objective 1: Eq. 5 model stretch over the cell's placements.
    pub model_stretch: f64,
    /// Objective 2: coefficient of variation of per-node busy time.
    pub node_busy_cv: f64,
    /// Objective 3: `dropped / (completed + dropped)`.
    pub drop_rate: f64,
    /// Requests completed.
    pub completed: u64,
    /// Requests dropped.
    pub dropped: u64,
    /// Scored, or degenerate with a reason.
    pub status: CellStatus,
}

/// A frontier point, with its first-divergent-stage attribution
/// against the RSRC baseline log.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FrontierRow {
    /// Rendered stage spec.
    pub spec: String,
    /// Objective 1 (minimised).
    pub model_stretch: f64,
    /// Objective 2 (minimised).
    pub node_busy_cv: f64,
    /// Objective 3 (minimised).
    pub drop_rate: f64,
    /// True when the spec is not one of the paper's built-in policy
    /// compositions — a hybrid the paper never evaluated.
    pub hybrid: bool,
    /// Fraction of baseline decisions this spec re-drives differently.
    pub divergence_rate: f64,
    /// First pipeline stage whose output disagrees with the recorded
    /// baseline decision stream (`None`: the spec is a fixed point of
    /// the baseline log — in particular the baseline itself).
    pub first_divergent_stage: Option<String>,
    /// Decision sequence number of the first disagreement.
    pub first_divergence_seq: Option<u64>,
    /// Driver request id of the first disagreement.
    pub first_divergence_req: Option<u64>,
    /// Replay-model stretch delta vs the baseline (negative: better).
    pub model_stretch_delta: f64,
    /// Replay-model node-busy-CV delta vs the baseline.
    pub node_busy_cv_delta: f64,
}

/// The complete sweep result: every cell row plus the extracted front.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ParetoReport {
    /// Requests per replay.
    pub requests: usize,
    /// Root seed (every cell sees it verbatim — common random numbers).
    pub seed: u64,
    /// Cluster size.
    pub p: usize,
    /// Master count.
    pub masters: usize,
    /// Replay arrival rate, requests/second.
    pub lambda: f64,
    /// The RSRC baseline spec frontier points are attributed against.
    pub baseline: String,
    /// Grid label (`full`/`smoke` plus any filter).
    pub grid: String,
    /// Raw cross-product size.
    pub enumerated: usize,
    /// Cells the pruning predicate removed.
    pub pruned: usize,
    /// Cells the `--grid` filter removed.
    pub filtered: usize,
    /// Cells actually run.
    pub cells: usize,
    /// Cells that classified as degenerate.
    pub degenerate_cells: usize,
    /// Every cell, slug-sorted.
    pub rows: Vec<ParetoRow>,
    /// The Pareto front, sorted by model stretch then slug.
    pub front: Vec<FrontierRow>,
}

/// Shared-handle observer building an in-memory event log.
/// [`CollectingObserver`] stores decisions and other events in
/// separate vectors, losing the interleaving `analyze` needs (meta
/// first, then decisions/ticks/completions in order) — this one keeps
/// a single stream.
#[derive(Clone, Default)]
struct EventLog(Rc<RefCell<Vec<TraceEvent>>>);

impl DecisionObserver for EventLog {
    fn observe(&mut self, record: &DecisionRecord) {
        self.0
            .borrow_mut()
            .push(TraceEvent::Decision(record.clone()));
    }
    fn event(&mut self, event: &TraceEvent) {
        self.0.borrow_mut().push(event.clone());
    }
}

/// The RSRC master/slave baseline every frontier point is attributed
/// against.
pub fn baseline_spec() -> StageSpec {
    StageSpec::for_policy(PolicyKind::MasterSlave)
}

/// Rendered specs of the paper's built-in policies (the 8 `PolicyKind`
/// variants; several share one composition). A frontier spec outside
/// this set is a hybrid the paper never evaluated.
pub fn builtin_policy_slugs() -> BTreeSet<String> {
    [
        PolicyKind::Flat,
        PolicyKind::MsPrime,
        PolicyKind::MsAllMasters,
        PolicyKind::Switch,
        PolicyKind::MsNoReservation,
        PolicyKind::MasterSlave,
        PolicyKind::MsNoSampling,
        PolicyKind::Redirect,
    ]
    .into_iter()
    .map(|p| StageSpec::for_policy(p).render())
    .collect()
}

/// Run one cell: compose the spec, replay the shared trace, and score
/// the three objectives. Never panics: compositions that fail to
/// build, complete nothing, or produce non-finite metrics come back as
/// [`CellStatus::Degenerate`] rows.
fn score_cell(trace: &Trace, a0: f64, r0: f64, spec: &StageSpec, seed: u64) -> ParetoRow {
    let slug = spec.render();
    let degenerate = |reason: String| ParetoRow {
        spec: slug.clone(),
        stretch: f64::NAN,
        model_stretch: f64::NAN,
        node_busy_cv: f64::NAN,
        drop_rate: f64::NAN,
        completed: 0,
        dropped: 0,
        status: CellStatus::Degenerate(reason),
    };
    let cfg = ClusterConfig::simulation(P, PolicyKind::MasterSlave)
        .with_masters(MASTERS)
        .with_seed(seed);
    let mut scheduler = match SchedulerRegistry::builtin().compose(&cfg, spec, a0, r0) {
        Ok(s) => s,
        Err(e) => return degenerate(format!("compose failed: {e}")),
    };
    let observer: Rc<RefCell<CollectingObserver>> = Rc::default();
    scheduler.set_observer(Some(Box::new(Rc::clone(&observer))));
    let mut sim = ClusterSim::with_scheduler(cfg, scheduler)
        .with_priors(a0, r0)
        .with_spec_label(slug.clone());
    let summary = sim.run(trace);

    let placements: Vec<(usize, u64, u64)> = observer
        .borrow()
        .records
        .iter()
        .map(|r| (r.chosen, r.at_us, r.demand_us))
        .collect();
    let model_stretch = msweb_cluster::sched::model_stretch(&placements, P, None);
    let attempted = summary.completed + summary.dropped;
    let drop_rate = if attempted == 0 {
        f64::NAN
    } else {
        summary.dropped as f64 / attempted as f64
    };
    let status = if summary.completed == 0 {
        CellStatus::Degenerate("zero completions".to_string())
    } else if !model_stretch.is_finite()
        || !summary.node_busy_cv.is_finite()
        || !summary.stretch.is_finite()
        || !drop_rate.is_finite()
    {
        CellStatus::Degenerate("non-finite metrics".to_string())
    } else {
        CellStatus::Scored
    };
    ParetoRow {
        spec: slug,
        stretch: summary.stretch,
        model_stretch,
        node_busy_cv: summary.node_busy_cv,
        drop_rate,
        completed: summary.completed,
        dropped: summary.dropped,
        status,
    }
}

/// Record the baseline replay into an in-memory event log (one `meta`
/// segment, replayable by [`analyze`]).
fn record_baseline(trace: &Trace, a0: f64, r0: f64, seed: u64) -> TraceLog {
    let spec = baseline_spec();
    let cfg = ClusterConfig::simulation(P, PolicyKind::MasterSlave)
        .with_masters(MASTERS)
        .with_seed(seed);
    let mut scheduler = SchedulerRegistry::builtin()
        .compose(&cfg, &spec, a0, r0)
        .expect("the RSRC baseline composes");
    let log = EventLog::default();
    scheduler.set_observer(Some(Box::new(log.clone())));
    let mut sim = ClusterSim::with_scheduler(cfg, scheduler)
        .with_priors(a0, r0)
        .with_spec_label(spec.render());
    sim.run(trace);
    TraceLog {
        events: log.0.take(),
        warnings: Vec::new(),
    }
}

/// `true` when `a` Pareto-dominates `b` under minimisation: no worse
/// on every objective, strictly better on at least one. Total order
/// via [`f64::total_cmp`], so NaN could never panic here even though
/// degenerate rows are filtered before this point.
fn dominates(a: &ParetoRow, b: &ParetoRow) -> bool {
    use std::cmp::Ordering::Greater;
    let pairs = [
        (a.model_stretch, b.model_stretch),
        (a.node_busy_cv, b.node_busy_cv),
        (a.drop_rate, b.drop_rate),
    ];
    if pairs.iter().any(|(x, y)| x.total_cmp(y) == Greater) {
        return false;
    }
    pairs.iter().any(|(x, y)| x.total_cmp(y).is_lt())
}

/// The deterministic dominance pass over slug-sorted scored rows:
/// exact-duplicate objective vectors keep the lexicographically
/// smallest slug (the tie-break), then every non-dominated survivor is
/// on the front.
fn pareto_front(rows: &[ParetoRow]) -> Vec<ParetoRow> {
    let mut seen = BTreeSet::new();
    let scored: Vec<&ParetoRow> = rows
        .iter()
        .filter(|r| r.status == CellStatus::Scored)
        .filter(|r| {
            seen.insert((
                r.model_stretch.to_bits(),
                r.node_busy_cv.to_bits(),
                r.drop_rate.to_bits(),
            ))
        })
        .collect();
    scored
        .iter()
        .filter(|a| !scored.iter().any(|b| dominates(b, a)))
        .map(|r| (*r).clone())
        .collect()
}

/// Attribute one frontier point against the baseline log: replay the
/// spec over the recorded decision stream and name the first pipeline
/// stage that disagrees.
fn attribute(log: &TraceLog, row: &ParetoRow, builtin: &BTreeSet<String>) -> FrontierRow {
    let spec = StageSpec::parse(&row.spec).expect("frontier slugs are rendered specs");
    let opts = ReplayOptions {
        spec: Some(spec),
        run: 0,
    };
    let rep = analyze(log, &opts).expect("the in-memory baseline log replays");
    FrontierRow {
        spec: row.spec.clone(),
        model_stretch: row.model_stretch,
        node_busy_cv: row.node_busy_cv,
        drop_rate: row.drop_rate,
        hybrid: !builtin.contains(&row.spec),
        divergence_rate: rep.divergence_rate,
        first_divergent_stage: rep
            .first_disagreement
            .as_ref()
            .map(|d| d.stage.as_str().to_string()),
        first_divergence_seq: rep.first_disagreement.as_ref().map(|d| d.seq),
        first_divergence_req: rep.first_disagreement.as_ref().map(|d| d.req),
        model_stretch_delta: rep.model_stretch_delta,
        node_busy_cv_delta: rep.node_busy_cv_delta,
    }
}

/// Run the sweep: enumerate `grid`, replay every cell under common
/// random numbers, extract the front, and attribute each frontier
/// point against the RSRC baseline.
pub fn pareto(exp: &ExpConfig, grid: &StageGrid) -> ParetoReport {
    let a0 = ucb().arrival_ratio_a();
    let r0 = 1.0 / INV_R;
    let trace = ucb()
        .generate(exp.requests, &DemandModel::simulation(INV_R), exp.seed)
        .scaled_to_rate(LAMBDA);
    pareto_on_trace(exp, grid, &trace, a0, r0)
}

/// [`pareto`] over an explicit trace (exposed for the degenerate-grid
/// tests, which drive an empty trace through the full machinery).
fn pareto_on_trace(
    exp: &ExpConfig,
    grid: &StageGrid,
    trace: &Trace,
    a0: f64,
    r0: f64,
) -> ParetoReport {
    let en = grid.enumerate();
    let log = record_baseline(trace, a0, r0, exp.seed);
    let mut rows = Sweep::new(en.specs, exp.seed)
        .common_seed()
        .parallelism(exp.jobs)
        .run(|spec, seed| score_cell(trace, a0, r0, spec, seed));
    rows.sort_by(|a, b| a.spec.cmp(&b.spec));
    let degenerate_cells = rows
        .iter()
        .filter(|r| r.status != CellStatus::Scored)
        .count();
    let builtin = builtin_policy_slugs();
    let mut front: Vec<FrontierRow> = pareto_front(&rows)
        .iter()
        .map(|row| attribute(&log, row, &builtin))
        .collect();
    front.sort_by(|a, b| {
        a.model_stretch
            .total_cmp(&b.model_stretch)
            .then_with(|| a.spec.cmp(&b.spec))
    });
    ParetoReport {
        requests: exp.requests,
        seed: exp.seed,
        p: P,
        masters: MASTERS,
        lambda: LAMBDA,
        baseline: baseline_spec().render(),
        grid: grid.label(),
        enumerated: en.enumerated,
        pruned: en.pruned,
        filtered: en.filtered,
        cells: rows.len(),
        degenerate_cells,
        rows,
        front,
    }
}

impl ParetoReport {
    /// Serialise as pretty-printed JSON (byte-deterministic for a
    /// fixed configuration; ends with a newline).
    pub fn to_json(&self) -> String {
        serde::to_json_string_pretty(self) + "\n"
    }

    /// Render the human-readable frontier table the CLI prints.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== PARETO: stage-space sweep ({} grid) ==\n\
             UCB x {} requests at λ={}/s, p={}, m={}, seed {} (common random numbers)\n\
             {} cells enumerated, {} pruned, {} filtered -> {} run ({} degenerate)\n\
             baseline: {}\n",
            self.grid,
            self.requests,
            self.lambda,
            self.p,
            self.masters,
            self.seed,
            self.enumerated,
            self.pruned,
            self.filtered,
            self.cells,
            self.degenerate_cells,
            self.baseline,
        );
        let mut t = Table::new(vec![
            "spec",
            "model stretch",
            "busy CV",
            "drop%",
            "hybrid",
            "div%",
            "first divergent stage",
        ]);
        for row in &self.front {
            t.row(vec![
                row.spec.clone(),
                f(row.model_stretch, 4),
                f(row.node_busy_cv, 3),
                f(row.drop_rate * 100.0, 2),
                if row.hybrid { "yes" } else { "" }.to_string(),
                f(row.divergence_rate * 100.0, 1),
                match &row.first_divergent_stage {
                    Some(stage) => {
                        format!("{} (seq {})", stage, row.first_divergence_seq.unwrap_or(0))
                    }
                    None => "- (fixed point of the baseline)".to_string(),
                },
            ]);
        }
        out.push_str(&t.render());
        let hybrids = self.front.iter().filter(|r| r.hybrid).count();
        let _ = writeln!(
            out,
            "front: {} points, {} hybrid (not among the paper's built-in policies)",
            self.front.len(),
            hybrids
        );
        for row in self.rows.iter().filter(|r| r.status != CellStatus::Scored) {
            if let CellStatus::Degenerate(reason) = &row.status {
                let _ = writeln!(out, "degenerate: {}  ({reason})", row.spec);
            }
        }
        out
    }
}

/// The `--test` gate: the front must be non-empty, contain at least
/// one hybrid, and carry first-divergent-stage attribution on every
/// point (a missing attribution is only legal for a fixed point of the
/// baseline log, i.e. zero divergence).
pub fn pareto_check(report: &ParetoReport) -> Result<(), String> {
    if report.front.is_empty() {
        return Err(format!(
            "empty Pareto front ({} cells run, {} degenerate)",
            report.cells, report.degenerate_cells
        ));
    }
    if !report.front.iter().any(|r| r.hybrid) {
        return Err("no hybrid composition on the front".to_string());
    }
    for row in &report.front {
        if row.first_divergent_stage.is_none() && row.divergence_rate != 0.0 {
            return Err(format!(
                "{}: diverges ({:.2}%) but carries no stage attribution",
                row.spec,
                row.divergence_rate * 100.0
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExpConfig {
        ExpConfig {
            requests: 600,
            live_requests: 0,
            seed: 42,
            jobs: 1,
        }
    }

    #[test]
    fn grid_slugs_round_trip_through_parse() {
        for grid in [
            StageGrid::full(&SchedulerRegistry::builtin()),
            StageGrid::smoke(),
        ] {
            let en = grid.enumerate();
            assert!(!en.specs.is_empty());
            for spec in &en.specs {
                let slug = spec.render();
                assert_eq!(
                    &StageSpec::parse(&slug).unwrap(),
                    spec,
                    "slug <-> spec fixed point broken for {slug}"
                );
            }
        }
    }

    #[test]
    fn full_grid_shape_and_pruning() {
        let grid = StageGrid::full(&SchedulerRegistry::builtin());
        let en = grid.enumerate();
        // 3 entries x 4 admissions x 3 candidates x 10 scorers x 2 charges.
        assert_eq!(en.enumerated, 720);
        assert_eq!(en.enumerated - en.pruned, en.specs.len());
        assert_eq!(en.filtered, 0);
        // The baseline must be a grid point.
        assert!(en.specs.contains(&baseline_spec()));
        // Pruned families are really gone.
        for spec in &en.specs {
            assert!(default_prune(spec).is_none());
        }
        // Filtering is a pure subset.
        let filtered = StageGrid::full(&SchedulerRegistry::builtin())
            .with_filter("gittins")
            .enumerate();
        assert!(!filtered.specs.is_empty());
        assert!(filtered.specs.len() < en.specs.len());
        assert!(filtered.specs.iter().all(|s| s.scorer == "gittins"));
    }

    #[test]
    fn dominance_pass_is_deterministic_and_excludes_degenerates() {
        let row = |slug: &str, ms: f64, cv: f64, dr: f64, status: CellStatus| ParetoRow {
            spec: slug.to_string(),
            stretch: ms,
            model_stretch: ms,
            node_busy_cv: cv,
            drop_rate: dr,
            completed: 10,
            dropped: 0,
            status,
        };
        let rows = vec![
            row("a", 1.0, 0.5, 0.0, CellStatus::Scored),
            // Dominated by "a" on stretch.
            row("b", 2.0, 0.5, 0.0, CellStatus::Scored),
            // Trades stretch for balance: on the front.
            row("c", 1.5, 0.2, 0.0, CellStatus::Scored),
            // Duplicate vector of "a": slug tie-break keeps "a".
            row("d", 1.0, 0.5, 0.0, CellStatus::Scored),
            // NaN objectives never reach the pass.
            row(
                "e",
                f64::NAN,
                f64::NAN,
                f64::NAN,
                CellStatus::Degenerate("zero completions".into()),
            ),
        ];
        let front = pareto_front(&rows);
        let slugs: Vec<&str> = front.iter().map(|r| r.spec.as_str()).collect();
        assert_eq!(slugs, ["a", "c"]);
    }

    #[test]
    fn degenerate_grid_completes_without_panicking() {
        // An empty trace drives every composition to zero completions —
        // the whole grid is degenerate, the front is empty, nothing
        // panics, and the report still serialises to valid JSON.
        let empty = ucb().generate(0, &DemandModel::simulation(INV_R), 7);
        let grid = StageGrid::smoke().with_filter("reservation/level-split");
        let report = pareto_on_trace(
            &quick(),
            &grid,
            &empty,
            ucb().arrival_ratio_a(),
            1.0 / INV_R,
        );
        assert!(report.cells > 0);
        assert_eq!(report.degenerate_cells, report.cells);
        assert!(report.front.is_empty());
        assert!(report
            .rows
            .iter()
            .all(|r| r.status == CellStatus::Degenerate("zero completions".to_string())));
        // NaN metrics serialise as null, keeping the JSON valid.
        assert!(report.to_json().contains("null"));
        assert!(pareto_check(&report).is_err());
    }

    #[test]
    fn unknown_stages_degrade_gracefully() {
        let spec =
            StageSpec::parse("warp-drive/none/entry-only/rsrc-indexed/split-demand").unwrap();
        let trace = ucb().generate(50, &DemandModel::simulation(INV_R), 3);
        let row = score_cell(&trace, 0.4, 1.0 / INV_R, &spec, 3);
        match row.status {
            CellStatus::Degenerate(reason) => {
                assert!(reason.contains("compose failed"), "{reason}")
            }
            other => panic!("expected degenerate, got {other:?}"),
        }
    }

    #[test]
    fn smoke_sweep_has_attributed_hybrid_front_and_is_deterministic() {
        let exp = quick();
        let grid = StageGrid::smoke();
        let report = pareto(&exp, &grid);
        pareto_check(&report).unwrap();
        // The baseline replay is a fixed point of its own log, so any
        // frontier point that diverges must name a stage.
        for row in &report.front {
            if row.spec == report.baseline {
                assert_eq!(row.divergence_rate, 0.0, "baseline must self-replay");
                assert!(row.first_divergent_stage.is_none());
            } else {
                assert!(
                    row.first_divergent_stage.is_some() || row.divergence_rate == 0.0,
                    "{}: missing attribution",
                    row.spec
                );
            }
        }
        // Byte-determinism: an identical second run serialises
        // identically (the CI smoke runs the same check end to end).
        let again = pareto(&exp, &grid);
        assert_eq!(report.to_json(), again.to_json());
    }
}
