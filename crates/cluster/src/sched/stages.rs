//! Concrete pipeline stages.
//!
//! Each paper policy is a composition of the stages below: the
//! [registry](super::registry) builds them by name, and
//! [`StageSpec::for_policy`](super::StageSpec::for_policy) names the
//! stages of each [`PolicyKind`](crate::config::PolicyKind). Under a
//! fixed seed every stage makes the same RNG draws in the same order,
//! which is what keeps the golden `RunSummary` fixtures byte-identical.

use super::index::{RsrcIndex, INDEX_MIN_CANDIDATES};
use super::{
    Admission, CandidateDecision, CandidateSet, ChargeBack, EntrySelector, PlacementError,
    ReqKnowledge, Scorer, StageCtx,
};
use crate::config::ClusterConfig;
use crate::loadinfo::LoadMonitor;
use crate::reservation::ReservationController;
use crate::telemetry::ScorerPaths;
use msweb_simcore::rng::SimRng;
use msweb_simcore::time::SimDuration;
use std::cell::{Cell, RefCell};

/// Draws an index in `[0, n)` with DNS-cache skew: weight of slot i is
/// `(1 − skew)^i` (geometric concentration on the low-numbered,
/// longest-cached addresses). skew = 0 degenerates to uniform.
///
/// The inverse CDF's run constants, `ln(1 − skew)` and the truncated
/// mass `1 − (1 − skew)ⁿ`, are computed once per skew and scope size,
/// so a draw makes no libm call at skew 0 and one, `ln(1 − u)`, above
/// it. The arithmetic, and so every draw, is the closed form's.
#[derive(Debug, Clone)]
struct SkewedIndex {
    skew: f64,
    /// `ln(1 − skew)`.
    ln_q: f64,
    /// The scope size `total` holds the mass of; 0 before the first
    /// skewed draw.
    n: usize,
    /// `1 − (1 − skew)ⁿ`.
    total: f64,
}

impl SkewedIndex {
    fn new(skew: f64) -> Self {
        SkewedIndex {
            skew,
            ln_q: (1.0 - skew).ln(),
            n: 0,
            total: 0.0,
        }
    }

    #[inline]
    fn draw(&mut self, rng: &mut SimRng, n: usize) -> usize {
        debug_assert!(n > 0);
        if self.skew <= 0.0 {
            return rng.gen_index(n);
        }
        if n != self.n {
            self.rescope(n);
        }
        let u = rng.next_f64() * self.total;
        // `as usize` truncates toward zero and saturates, which is
        // `floor` for every value the quotient can take.
        let idx = ((1.0 - u).ln() / self.ln_q) as usize;
        idx.min(n - 1)
    }

    /// Recompute the truncated mass for scope size `n`. Out of line, so
    /// the `powi` cannot be hoisted above the skew test into every draw.
    #[cold]
    #[inline(never)]
    fn rescope(&mut self, n: usize) {
        self.n = n;
        self.total = 1.0 - (1.0 - self.skew).powi(n as i32);
    }
}

/// Which slice of the cluster a [`RotationEntry`] rotates over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RotationScope {
    /// All `p` nodes (Flat, M/S-1, M/S′, Switch-less front ends).
    All,
    /// The master level `0..m` (the M/S family's DNS view).
    Masters,
}

/// DNS-rotation entry selection with optional cache skew: a skewed
/// random pick over the scope, retried up to 8 times past dead nodes,
/// then a dense scan over the live set (whole cluster as last resort).
#[derive(Debug, Clone)]
pub struct RotationEntry {
    scope: RotationScope,
    skewed: SkewedIndex,
}

impl RotationEntry {
    /// Rotate over every node.
    pub fn over_all(skew: f64) -> Self {
        RotationEntry {
            scope: RotationScope::All,
            skewed: SkewedIndex::new(skew),
        }
    }

    /// Rotate over the master level. Falls back to the whole cluster
    /// when the composition resolves zero masters.
    pub fn over_masters(skew: f64) -> Self {
        RotationEntry {
            scope: RotationScope::Masters,
            skewed: SkewedIndex::new(skew),
        }
    }
}

impl EntrySelector for RotationEntry {
    fn select_entry(&mut self, ctx: &mut StageCtx<'_>) -> Result<usize, PlacementError> {
        let p = ctx.nodes();
        let hi = match self.scope {
            RotationScope::All => p,
            RotationScope::Masters if ctx.masters == 0 => p,
            RotationScope::Masters => ctx.masters,
        };
        for _ in 0..8 {
            let n = self.skewed.draw(ctx.rng, hi);
            if !ctx.dead[n] {
                return Ok(n);
            }
        }
        // Dense fallback.
        let live: Vec<usize> = (0..hi).filter(|&n| !ctx.dead[n]).collect();
        if live.is_empty() {
            let any: Vec<usize> = (0..p).filter(|&n| !ctx.dead[n]).collect();
            if any.is_empty() {
                return Err(PlacementError::NoLiveNodes);
            }
            Ok(*ctx.rng.choose(&any))
        } else {
            Ok(*ctx.rng.choose(&live))
        }
    }
}

/// LB-switch entry selection: fewest open connections over all live
/// nodes, scanning from a random start so ties break randomly — the
/// switch sees connection counts in real time.
#[derive(Debug, Clone, Default)]
pub struct LeastConnectionsEntry;

impl EntrySelector for LeastConnectionsEntry {
    fn select_entry(&mut self, ctx: &mut StageCtx<'_>) -> Result<usize, PlacementError> {
        let p = ctx.nodes();
        let mut best = usize::MAX;
        let mut best_count = u32::MAX;
        let start = ctx.rng.gen_index(p);
        for off in 0..p {
            let n = (start + off) % p;
            if !ctx.dead[n] && ctx.in_flight[n] < best_count {
                best = n;
                best_count = ctx.in_flight[n];
            }
        }
        if best == usize::MAX {
            return Err(PlacementError::NoLiveNodes);
        }
        Ok(best)
    }
}

/// Reservation-controller admission (§4.2): masters receive dynamic
/// requests only while the observed master share stays under θ2*.
/// With `enforce = false` the controller still measures (and the stage
/// still records placements) but never blocks — the M/S-nr ablation.
#[derive(Debug, Clone)]
pub struct ReservationAdmission {
    /// Whether the θ2* cap actually blocks master placements.
    pub enforce: bool,
}

impl Admission for ReservationAdmission {
    fn enforces_reservation(&self) -> bool {
        self.enforce
    }
    fn master_eligible(&self, ctx: &StageCtx<'_>, _know: ReqKnowledge) -> bool {
        // With m = p there is no slave level to protect.
        ctx.masters == ctx.nodes() || ctx.reservation.master_eligible()
    }
    fn note_placement(&self, reservation: &mut ReservationController, on_master: bool) {
        reservation.note_placement(on_master);
    }
}

/// No admission control: masters always eligible, placements not
/// recorded (Flat, M/S′, Switch).
#[derive(Debug, Clone, Default)]
pub struct NoAdmission;

impl Admission for NoAdmission {
    fn enforces_reservation(&self) -> bool {
        false
    }
    fn master_eligible(&self, _ctx: &StageCtx<'_>, _know: ReqKnowledge) -> bool {
        true
    }
    fn note_placement(&self, _reservation: &mut ReservationController, _on_master: bool) {}
}

/// Attained-service-aware admission: masters take dynamic requests only
/// while their per-node attained backlog (service already sunk into
/// in-flight work) stays at or below the slave level's. A size-oblivious
/// stand-in for the reservation controller — it needs no demand
/// declarations at all, only the [`AttainedService`](super::AttainedService)
/// feed, so it composes honestly with `Hidden` demands.
#[derive(Debug, Clone, Default)]
pub struct AttainedAdmission;

impl Admission for AttainedAdmission {
    fn enforces_reservation(&self) -> bool {
        false
    }
    fn reads_attained(&self) -> bool {
        true
    }
    fn master_eligible(&self, ctx: &StageCtx<'_>, _know: ReqKnowledge) -> bool {
        let p = ctx.nodes();
        let m = ctx.masters;
        if m == 0 || m >= p {
            return true;
        }
        let books = ctx.books();
        let level_mean = |lo: usize, hi: usize| {
            let sum: u64 = (lo..hi).map(|n| books.total(n).as_micros()).sum();
            sum as f64 / (hi - lo) as f64
        };
        level_mean(0, m) <= level_mean(m, p)
    }
    fn note_placement(&self, _reservation: &mut ReservationController, _on_master: bool) {}
}

/// Level-split candidate formation for the M/S family: statics stay on
/// their entry node; dynamics consider all live slaves, plus the live
/// masters when admission allows, falling back to any live node when
/// the preferred set is empty.
#[derive(Debug, Clone, Default)]
pub struct LevelCandidates;

impl CandidateSet for LevelCandidates {
    fn collect(
        &self,
        ctx: &StageCtx<'_>,
        dynamic: bool,
        masters_ok: bool,
        out: &mut Vec<usize>,
    ) -> CandidateDecision {
        if !dynamic {
            // Static requests are never re-scheduled: "it only takes a
            // very small amount of time to process".
            return CandidateDecision::Stay;
        }
        let p = ctx.nodes();
        let m = ctx.masters;
        push_live(ctx, m, p, out);
        if masters_ok {
            push_live(ctx, 0, m, out);
        }
        if out.is_empty() {
            push_live(ctx, 0, p, out);
        }
        CandidateDecision::Remote
    }
    fn live_range(
        &self,
        ctx: &StageCtx<'_>,
        dynamic: bool,
        masters_ok: bool,
    ) -> Option<(usize, usize)> {
        if !dynamic {
            return None;
        }
        let p = ctx.nodes();
        let m = ctx.masters.min(p);
        Some(if masters_ok || ctx.live_count(m, p) == 0 {
            (0, p)
        } else {
            (m, p)
        })
    }
}

/// Append the live nodes of `[lo, hi)` to `out`: a straight range copy
/// when [`StageCtx::all_live`] says the range holds no dead node, a
/// per-node filter otherwise.
fn push_live(ctx: &StageCtx<'_>, lo: usize, hi: usize, out: &mut Vec<usize>) {
    if ctx.all_live(lo, hi) {
        out.extend(lo..hi);
    } else {
        out.extend((lo..hi).filter(|&n| !ctx.dead[n]));
    }
}

/// Fixed pin set for dynamic requests (M/S′: the would-be slave
/// nodes), with the usual liveness fallback. Pinned placements never
/// count as master placements.
#[derive(Debug, Clone)]
pub struct PinnedCandidates {
    nodes: Vec<usize>,
    /// `[lo, hi)` when `nodes` is exactly that ascending run, so
    /// collection can take the [`push_live`] range copy and the set
    /// can be declared as a [`CandidateSet::live_range`].
    range: Option<(usize, usize)>,
}

impl PinnedCandidates {
    /// Pin dynamics to an explicit node list.
    pub fn new(nodes: Vec<usize>) -> Self {
        let range = match (nodes.first(), nodes.last()) {
            (Some(&lo), Some(&hi)) if nodes.iter().copied().eq(lo..=hi) => Some((lo, hi + 1)),
            _ => None,
        };
        PinnedCandidates { nodes, range }
    }

    /// Pin dynamics to the would-be slave set of `config` (the last
    /// `p − m` nodes; all nodes when `m = p`).
    pub fn slaves(config: &ClusterConfig) -> Self {
        let p = config.p();
        let m = config.resolve_masters();
        PinnedCandidates::new(if m < p {
            (m..p).collect()
        } else {
            (0..p).collect()
        })
    }
}

impl CandidateSet for PinnedCandidates {
    fn collect(
        &self,
        ctx: &StageCtx<'_>,
        dynamic: bool,
        _masters_ok: bool,
        out: &mut Vec<usize>,
    ) -> CandidateDecision {
        if !dynamic {
            return CandidateDecision::Stay;
        }
        match self.range {
            Some((lo, hi)) => push_live(ctx, lo, hi, out),
            None => out.extend(self.nodes.iter().copied().filter(|&n| !ctx.dead[n])),
        }
        if out.is_empty() {
            push_live(ctx, 0, ctx.nodes(), out);
        }
        CandidateDecision::Remote
    }
    fn live_range(
        &self,
        ctx: &StageCtx<'_>,
        dynamic: bool,
        _masters_ok: bool,
    ) -> Option<(usize, usize)> {
        if !dynamic {
            return None;
        }
        let (lo, hi) = self.range?;
        Some(if ctx.live_count(lo, hi) > 0 {
            (lo, hi)
        } else {
            (0, ctx.nodes())
        })
    }
    fn attributes_masters(&self) -> bool {
        false
    }
}

/// Every request runs where it entered (Flat dynamics, the LB switch).
#[derive(Debug, Clone, Default)]
pub struct EntryOnly;

impl CandidateSet for EntryOnly {
    fn collect(
        &self,
        _ctx: &StageCtx<'_>,
        _dynamic: bool,
        _masters_ok: bool,
        _out: &mut Vec<usize>,
    ) -> CandidateDecision {
        CandidateDecision::Stay
    }
}

/// Minimum-RSRC scoring (Eq. 5) with a per-node capacity reserve held
/// back on masters; ties are broken uniformly (one RNG draw over the
/// tied nodes, shared with every argmin scorer).
///
/// Comes in two flavours with identical placements and RNG draws:
///
/// * [`MinRsrcScorer::dense`] — the reference O(p) scan;
/// * [`MinRsrcScorer::indexed`] — backed by an incrementally
///   maintained [`RsrcIndex`], answering the same argmin in O(log p).
///   The index recognises the candidate sets the built-in stages
///   produce (*all* live nodes, or the live slave level `[m, p)` —
///   checked via live counts) and falls back to the dense scan for
///   anything else, for candidate sets smaller than
///   [`INDEX_MIN_CANDIDATES`], and for effective weights beyond the
///   index's [`MAX_WEIGHT_TREES`](super::index::MAX_WEIGHT_TREES).
///
/// Both flavours also answer [`Scorer::choose_range`], the list-free
/// form of the same query, on every range whose live set `choose`
/// would recognise; they decline any other range, so a list-path and a
/// range-path pipeline agree on nodes, draws and path counts.
#[derive(Debug, Clone)]
pub struct MinRsrcScorer {
    /// CPU fraction withheld from master nodes (0 disables the
    /// reserve, reproducing the plain RSRC rule).
    pub master_reserve: f64,
    /// Lazily synced decision index; `None` = always scan densely.
    /// Interior mutability keeps `Scorer::choose`'s `&self` contract.
    index: Option<RefCell<RsrcIndex>>,
    /// Which path answered each `choose` call. Maintained
    /// unconditionally (a `Cell` add on a branch already taken), read
    /// back through [`Scorer::path_counts`].
    paths: PathCells,
}

/// Interior-mutable path counters (the `&self` `choose` contract again).
#[derive(Debug, Clone, Default)]
struct PathCells {
    indexed: Cell<u64>,
    dense_unindexed: Cell<u64>,
    dense_small: Cell<u64>,
    dense_no_range: Cell<u64>,
    dense_w_overflow: Cell<u64>,
}

impl PathCells {
    fn snapshot(&self) -> ScorerPaths {
        ScorerPaths {
            indexed: self.indexed.get(),
            dense_unindexed: self.dense_unindexed.get(),
            dense_small: self.dense_small.get(),
            dense_degenerate: 0,
            dense_no_range: self.dense_no_range.get(),
            dense_w_overflow: self.dense_w_overflow.get(),
        }
    }
}

fn bump(cell: &Cell<u64>) {
    cell.set(cell.get() + 1);
}

/// How [`MinRsrcScorer`] answers a query, decided from the live count
/// of its candidate set alone.
enum Route<'a> {
    /// Dense scan, counted on this path counter.
    Dense(&'a Cell<u64>),
    /// The index, over the live nodes of this range.
    Index(usize, usize),
    /// Dense scan of a set the index cannot name, counted as
    /// `dense_no_range`; the range path declines it instead.
    NoRange,
}

impl MinRsrcScorer {
    /// Dense-scan scorer (the reference implementation).
    pub fn dense(master_reserve: f64) -> Self {
        MinRsrcScorer {
            master_reserve,
            index: None,
            paths: PathCells::default(),
        }
    }

    /// Index-backed scorer; placements are byte-identical to
    /// [`MinRsrcScorer::dense`].
    pub fn indexed(master_reserve: f64) -> Self {
        MinRsrcScorer {
            master_reserve,
            index: Some(RefCell::new(RsrcIndex::new(master_reserve))),
            paths: PathCells::default(),
        }
    }

    /// Whether this scorer carries a decision index.
    pub fn is_indexed(&self) -> bool {
        self.index.is_some()
    }

    fn dense_choose(
        &self,
        ctx: &mut StageCtx<'_>,
        candidates: impl Iterator<Item = usize> + Clone,
        know: ReqKnowledge,
    ) -> Option<usize> {
        argmin_uniform(ctx, candidates, |ctx, n| self.score(ctx, n, know))
    }

    /// Route a query over `live` candidates. The structural check: the
    /// built-in candidate stages produce either every live node or the
    /// live slave level, and matching live counts identify which (a
    /// proper subset of equal size cannot exist — candidate sets never
    /// contain dead nodes).
    fn route(&self, ctx: &StageCtx<'_>, live: usize) -> Route<'_> {
        if self.index.is_none() {
            return Route::Dense(&self.paths.dense_unindexed);
        }
        if live < INDEX_MIN_CANDIDATES {
            return Route::Dense(&self.paths.dense_small);
        }
        let p = ctx.nodes();
        let m = ctx.masters.min(p);
        let [masters_dead, slaves_dead] = ctx.dead_levels;
        if live == p - masters_dead - slaves_dead {
            Route::Index(0, p)
        } else if m > 0 && live == p - m - slaves_dead {
            Route::Index(m, p)
        } else {
            Route::NoRange
        }
    }

    /// The index's answer over the live nodes of `[lo, hi)`, or `None`
    /// (counted) when the request's weight is past the tree cap.
    fn index_choose(
        &self,
        ctx: &mut StageCtx<'_>,
        lo: usize,
        hi: usize,
        know: ReqKnowledge,
    ) -> Option<Option<usize>> {
        let mut index = self.index.as_ref()?.borrow_mut();
        index.sync(ctx, lo);
        let Some(tree) = index.tree_for(ctx.rsrc.effective_w(know.w), ctx) else {
            bump(&self.paths.dense_w_overflow);
            return None;
        };
        bump(&self.paths.indexed);
        Some(index.choose_in_range(tree, lo, hi, ctx.rng))
    }
}

impl Scorer for MinRsrcScorer {
    fn choose(
        &self,
        ctx: &mut StageCtx<'_>,
        candidates: &[usize],
        know: ReqKnowledge,
    ) -> Option<usize> {
        let (lo, hi) = match self.route(ctx, candidates.len()) {
            Route::Index(lo, hi) => (lo, hi),
            Route::Dense(path) => {
                bump(path);
                return self.dense_choose(ctx, candidates.iter().copied(), know);
            }
            Route::NoRange => {
                // A custom candidate stage produced some other shape;
                // the index cannot answer for it, so score densely.
                bump(&self.paths.dense_no_range);
                return self.dense_choose(ctx, candidates.iter().copied(), know);
            }
        };
        debug_assert!(
            candidates
                .iter()
                .all(|&c| (lo..hi).contains(&c) && !ctx.dead[c]),
            "candidate set size matched range [{lo}, {hi}) but members differ; \
             custom candidate stages must produce whole-cluster or slave-level \
             live sets for indexed scoring"
        );
        self.index_choose(ctx, lo, hi, know)
            .unwrap_or_else(|| self.dense_choose(ctx, candidates.iter().copied(), know))
    }
    fn choose_range(
        &self,
        ctx: &mut StageCtx<'_>,
        lo: usize,
        hi: usize,
        know: ReqKnowledge,
    ) -> Option<Option<usize>> {
        let dead = ctx.dead;
        let live = (lo..hi).filter(move |&n| !dead[n]);
        match self.route(ctx, ctx.live_count(lo, hi)) {
            Route::Dense(path) => {
                bump(path);
                Some(self.dense_choose(ctx, live, know))
            }
            // `[lo, hi)` holds exactly the live set `choose` would
            // name (every live node, or the live slaves when the range
            // starts at a slave), so the index answers over it.
            Route::Index(l, _) if lo >= l => Some(
                self.index_choose(ctx, lo, hi, know)
                    .unwrap_or_else(|| self.dense_choose(ctx, live, know)),
            ),
            Route::Index(..) | Route::NoRange => None,
        }
    }
    fn score(&self, ctx: &StageCtx<'_>, node: usize, know: ReqKnowledge) -> f64 {
        let reserve = if node < ctx.masters {
            self.master_reserve
        } else {
            0.0
        };
        ctx.rsrc
            .cost_reserved(node, &ctx.loads[node], know.w, reserve)
    }
    fn path_counts(&self) -> Option<ScorerPaths> {
        Some(self.paths.snapshot())
    }
}

/// Power-of-k-choices over the reserved RSRC cost: sample `k`
/// candidates uniformly *with replacement* (always exactly `k` RNG
/// draws, keeping the decision sequence independent of the candidate
/// count) and keep the cheapest — the classic Azar et al. trade-off as
/// a pipeline stage. O(k) load inspections per decision regardless of
/// cluster size, at a modest placement-quality cost; the approximate
/// alternative to [`MinRsrcScorer::indexed`].
#[derive(Debug, Clone)]
pub struct PowerOfKScorer {
    /// Number of uniform samples per decision (`k ≥ 1`).
    pub k: usize,
    /// CPU fraction withheld from master nodes, as in
    /// [`MinRsrcScorer`].
    pub master_reserve: f64,
}

impl PowerOfKScorer {
    /// Sample-`k` scorer with a master reserve.
    pub fn new(k: usize, master_reserve: f64) -> Self {
        assert!(k >= 1, "power-of-k needs k >= 1");
        PowerOfKScorer { k, master_reserve }
    }
}

impl Scorer for PowerOfKScorer {
    fn choose(
        &self,
        ctx: &mut StageCtx<'_>,
        candidates: &[usize],
        know: ReqKnowledge,
    ) -> Option<usize> {
        if candidates.is_empty() {
            return None;
        }
        let m = ctx.masters;
        let mut best: Option<(usize, f64)> = None;
        for _ in 0..self.k {
            let n = candidates[ctx.rng.gen_index(candidates.len())];
            let reserve = if n < m { self.master_reserve } else { 0.0 };
            let c = ctx.rsrc.cost_reserved(n, &ctx.loads[n], know.w, reserve);
            match best {
                Some((_, bc)) if bc <= c => {}
                _ => best = Some((n, c)),
            }
        }
        best.map(|(n, _)| n)
    }
    fn score(&self, ctx: &StageCtx<'_>, node: usize, know: ReqKnowledge) -> f64 {
        let reserve = if node < ctx.masters {
            self.master_reserve
        } else {
            0.0
        };
        ctx.rsrc
            .cost_reserved(node, &ctx.loads[node], know.w, reserve)
    }
}

/// Fewest-open-connections scoring over the candidate set; ties are
/// broken uniformly, as in [`MinRsrcScorer`].
#[derive(Debug, Clone, Default)]
pub struct LeastConnectionsScorer;

impl Scorer for LeastConnectionsScorer {
    fn choose(
        &self,
        ctx: &mut StageCtx<'_>,
        candidates: &[usize],
        know: ReqKnowledge,
    ) -> Option<usize> {
        argmin_uniform(ctx, candidates.iter().copied(), |ctx, n| {
            self.score(ctx, n, know)
        })
    }
    fn score(&self, ctx: &StageCtx<'_>, node: usize, _know: ReqKnowledge) -> f64 {
        ctx.in_flight[node] as f64
    }
}

/// Uniform-random scoring: one RNG draw over the candidate set.
#[derive(Debug, Clone, Default)]
pub struct RandomScorer;

impl Scorer for RandomScorer {
    fn choose(
        &self,
        ctx: &mut StageCtx<'_>,
        candidates: &[usize],
        _know: ReqKnowledge,
    ) -> Option<usize> {
        if candidates.is_empty() {
            return None;
        }
        Some(candidates[ctx.rng.gen_index(candidates.len())])
    }
}

/// Floor on per-job expected remaining work, keeping SERPT scores
/// strictly positive even when attained service has overtaken the
/// declared expectation.
const SERPT_FLOOR_US: u64 = 1;

/// Gittins-style scoring under a heavy-tailed (Pareto-like) demand
/// prior: a job that has already attained `a` has posterior mean
/// remaining work growing with `a`, so a node's penalty is
/// `Σ_j (expected + attained_j)` over its in-flight jobs — the node
/// whose backlog is *least likely to clear soon* scores worst. Uses the
/// declared `expected` only as a population prior (identical for every
/// candidate under `Hidden`), never per-request truth.
///
/// See PAPERS.md: "Optimal Multiserver Scheduling with Unknown Job
/// Sizes in Heavy Traffic" (Scully, Grosof, Harchol-Balter) for why
/// attained-service indices are the right primitive when sampling fails.
#[derive(Debug, Clone, Default)]
pub struct GittinsScorer;

impl Scorer for GittinsScorer {
    fn reads_attained(&self) -> bool {
        true
    }
    fn choose(
        &self,
        ctx: &mut StageCtx<'_>,
        candidates: &[usize],
        know: ReqKnowledge,
    ) -> Option<usize> {
        argmin_uniform(ctx, candidates.iter().copied(), |ctx, n| {
            self.score(ctx, n, know)
        })
    }
    fn score(&self, ctx: &StageCtx<'_>, node: usize, know: ReqKnowledge) -> f64 {
        let prior = know.expected.as_micros();
        ctx.books()
            .per_job(node)
            .map(|a| (prior + a.as_micros()) as f64)
            .sum()
    }
}

/// Shortest-expected-remaining-processing-time scoring: a node's
/// penalty is `Σ_j max(expected − attained_j, floor)` — the work the
/// population prior says is still owed to its in-flight jobs. The
/// light-tail counterpart of [`GittinsScorer`] (under exponential-ish
/// demands, service already attained mostly *reduces* what remains).
#[derive(Debug, Clone, Default)]
pub struct SerptScorer;

impl Scorer for SerptScorer {
    fn reads_attained(&self) -> bool {
        true
    }
    fn choose(
        &self,
        ctx: &mut StageCtx<'_>,
        candidates: &[usize],
        know: ReqKnowledge,
    ) -> Option<usize> {
        argmin_uniform(ctx, candidates.iter().copied(), |ctx, n| {
            self.score(ctx, n, know)
        })
    }
    fn score(&self, ctx: &StageCtx<'_>, node: usize, know: ReqKnowledge) -> f64 {
        let prior = know.expected.as_micros();
        ctx.books()
            .per_job(node)
            .map(|a| prior.saturating_sub(a.as_micros()).max(SERPT_FLOOR_US) as f64)
            .sum()
    }
}

/// Least-attained-service scoring: a node's penalty is the raw attained
/// service of its in-flight jobs, `Σ_j attained_j`. Fully
/// size-oblivious — it ignores the declaration entirely, so its
/// placements are invariant under every demand-visibility regime.
#[derive(Debug, Clone, Default)]
pub struct LasScorer;

impl Scorer for LasScorer {
    fn reads_attained(&self) -> bool {
        true
    }
    fn choose(
        &self,
        ctx: &mut StageCtx<'_>,
        candidates: &[usize],
        know: ReqKnowledge,
    ) -> Option<usize> {
        argmin_uniform(ctx, candidates.iter().copied(), |ctx, n| {
            self.score(ctx, n, know)
        })
    }
    fn score(&self, ctx: &StageCtx<'_>, node: usize, _know: ReqKnowledge) -> f64 {
        ctx.books().total(node).as_micros() as f64
    }
}

/// The tie rule every argmin scorer shares: the minimum of `cost` over
/// `candidates`, and on an exact tie the `k`-th tied node in ascending
/// node id, with `k` from a single `gen_index(ties)` draw taken only
/// when `ties > 1`. Uniform over the minimisers, hence distributionally
/// identical to shuffling the candidates and keeping the first minimum,
/// at one draw per tied decision instead of one per candidate. It is
/// also the rule [`RsrcIndex::choose_in_range`] implements, so dense
/// and indexed RSRC scoring agree node for node and draw for draw, and
/// the answer does not depend on the order `candidates` yields nodes
/// in. `None` for an empty candidate set.
fn argmin_uniform(
    ctx: &mut StageCtx<'_>,
    candidates: impl Iterator<Item = usize> + Clone,
    cost: impl Fn(&StageCtx<'_>, usize) -> f64,
) -> Option<usize> {
    let mut best = f64::INFINITY;
    let mut first = None;
    let mut ties = 0usize;
    for n in candidates.clone() {
        let c = cost(ctx, n);
        if first.is_none() || c < best {
            (best, first, ties) = (c, Some(n), 1);
        } else if c == best {
            ties += 1;
        }
    }
    if ties <= 1 {
        return first;
    }
    let k = ctx.rng.gen_index(ties);
    let mut tied: Vec<usize> = candidates.filter(|&n| cost(ctx, n) == best).collect();
    Some(*tied.select_nth_unstable(k).1)
}

/// Debit the expected demand split into CPU and disk shares by the
/// request's effective CPU weight `w`.
#[derive(Debug, Clone, Default)]
pub struct SplitDemandCharge;

impl ChargeBack for SplitDemandCharge {
    fn debit(&self, monitor: &mut LoadMonitor, node: usize, know: ReqKnowledge) {
        let cpu = know.expected.mul_f64(know.w);
        let disk = know.expected.saturating_sub(cpu);
        monitor.charge(node, cpu, disk);
    }
}

/// Debit only the CPU share (the LB switch cannot see disk demand).
#[derive(Debug, Clone, Default)]
pub struct CpuOnlyCharge;

impl ChargeBack for CpuOnlyCharge {
    fn debit(&self, monitor: &mut LoadMonitor, node: usize, know: ReqKnowledge) {
        monitor.charge(node, know.expected.mul_f64(know.w), SimDuration::ZERO);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadinfo::NodeLoad;
    use crate::rsrc::RsrcPredictor;

    /// The skewed draw as it read before its run constants were hoisted
    /// out: every constant recomputed per draw, then `floor`.
    fn closed_form(rng: &mut SimRng, skew: f64, n: usize) -> usize {
        let q = 1.0 - skew;
        let total = 1.0 - q.powi(n as i32);
        let u = rng.next_f64() * total;
        let idx = ((1.0 - u).ln() / q.ln()).floor() as usize;
        idx.min(n - 1)
    }

    /// At `dns_skew` 0.5, rotation entries over two scope sizes — the
    /// whole cluster and a master level whose size changes mid-run —
    /// pick the entry the closed form picks, draw for draw, from one
    /// shared RNG stream.
    #[test]
    fn skewed_rotation_matches_the_closed_form() {
        const P: usize = 16;
        const SKEW: f64 = 0.5;
        let dead = [false; P];
        let in_flight = [0u32; P];
        let loads = [NodeLoad::default(); P];
        let rsrc = RsrcPredictor::homogeneous(P, true);
        let reservation = ReservationController::new(4, P, 0.25, 0.025, true);
        let mut all = RotationEntry::over_all(SKEW);
        let mut masters = RotationEntry::over_masters(SKEW);
        let mut rng = SimRng::seed_from_u64(7);
        let mut reference = rng.clone();
        let mut seen = [0u32; P];
        for i in 0..4_000 {
            let m = if i % 500 < 250 { 4 } else { 7 };
            let mut ctx = StageCtx {
                rng: &mut rng,
                dead: &dead,
                dead_levels: [0, 0],
                in_flight: &in_flight,
                masters: m,
                rsrc: &rsrc,
                reservation: &reservation,
                loads: &loads,
                monitor_id: 0,
                load_epoch: 0,
                charge_log: &[],
                liveness_epoch: 0,
                attained: None,
            };
            let (stage, hi) = if i % 3 == 0 {
                (&mut all, P)
            } else {
                (&mut masters, m)
            };
            let got = stage.select_entry(&mut ctx).unwrap();
            assert_eq!(got, closed_form(&mut reference, SKEW, hi), "draw {i}");
            seen[got] += 1;
        }
        // The draws are skewed and reach past the smaller master level.
        assert!(seen[0] > 4 * seen[3], "{seen:?}");
        assert!(seen[4..].iter().any(|&c| c > 0), "{seen:?}");
    }
}
