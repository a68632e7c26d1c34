//! Incrementally maintained decision index over [`LoadMonitor`] state.
//!
//! The dense RSRC scan rescores every candidate per placement: O(p) per
//! decision. This module answers the same query — the node of minimum
//! reserved RSRC cost (Eq. 5) in a node range, ties broken uniformly —
//! in O(log p), and makes exactly the placement *and* the RNG draw the
//! dense scan makes.
//!
//! # How it works
//!
//! [`CostKey`] (see [`crate::rsrc`]) splits a node's reserved RSRC cost
//! into the two denominators of Eq. 5, so `cost(w)` is one cheap
//! evaluation per node and weight. A request's *effective* weight `w`
//! takes only a handful of values per workload (one per CGI class; a
//! single 0.5 for hidden demands and the no-sampling ablation), so the
//! index keeps one exact min-tree per distinct `w` in use, up to
//! [`MAX_WEIGHT_TREES`]. Each tree is a complete binary tree over the
//! nodes (padded to a power of two) whose every entry holds the minimum
//! cost over the live leaves below it and the number of leaves
//! attaining that minimum. Costs are computed with [`CostKey::eval`],
//! bit-identical to the dense scan, and compared exactly.
//!
//! A query covers `[lo, hi)` with its O(log p) canonical subtrees, sums
//! the tie counts of those holding the range minimum, draws `k` uniform
//! in `[0, ties)` (one `gen_index` draw, only when `ties > 1`) and
//! descends to the `k`-th minimiser in ascending node id. That is the
//! rule the dense scorers apply too (see `argmin_uniform` in
//! [`stages`](super::stages)), and it is distributionally identical to
//! shuffling the candidates and keeping the first minimum.
//!
//! A weight beyond the tree cap (only the `Noisy` visibility produces
//! many distinct weights) is not indexed; the scorer answers it with the
//! dense scan and counts it.
//!
//! # Keeping the mirror fresh
//!
//! The index never subscribes to anything; it *reconciles* lazily at
//! query time from the change log the monitor publishes (see
//! [`LoadMonitor`]): a new monitor id or epoch, a changed master count
//! or a liveness change rebuilds every tree in O(p); fresh entries in
//! the charge log re-key just the charged nodes, one leaf-to-root path
//! per tree, in O(log p) each. The climb stops at the first ancestor
//! whose summary comes out unchanged, which on a p = 10k run is short
//! of the root for most charges. Ticks are O(p) events already (the
//! monitor rewrites every ratio), so the rebuild does not change their
//! complexity class.
//!
//! Reconciliation only re-keys the leaves the query can read. Static
//! requests charge their master entry node, so most charges land on
//! the master level `[0, m)`, while most dynamic queries cover only the
//! slave level `[m, p)`, whose canonical subtrees hold no master leaf.
//! A sync for a query starting at `lo ≥ m` therefore only flags charged
//! masters stale, and the next sync with `lo < m` walks the charge log
//! back to the last such flush and re-keys each flagged master once, in
//! every tree. A leaf's key is a pure function of its node's current
//! load, so one late re-key equals any number of timely ones; a tree
//! that [`RsrcIndex::tree_for`] builds from deferred keys meanwhile is
//! fixed by the same flush.
//!
//! [`LoadMonitor`]: crate::loadinfo::LoadMonitor

use super::StageCtx;
use crate::rsrc::CostKey;
use msweb_simcore::rng::SimRng;

/// Candidate-set sizes below this use the dense scan even when an index
/// is available: the reconciliation checks and tree bookkeeping cost
/// more than rescoring a handful of nodes.
pub const INDEX_MIN_CANDIDATES: usize = 16;

/// Most distinct effective weights the index keeps a tree for. Trees
/// are assigned first come, first served and kept for the index's
/// lifetime; queries at any further weight fall back to the dense scan.
pub const MAX_WEIGHT_TREES: usize = 4;

/// Per-tree-node summary: the minimum cost over the live leaves below
/// and how many of them attain it.
#[derive(Debug, Clone, Copy)]
struct MinCount {
    min: f64,
    ties: u32,
}

/// Summary of an empty subtree (dead nodes, power-of-two padding).
const EMPTY: MinCount = MinCount {
    min: f64::INFINITY,
    ties: 0,
};

fn merge(a: MinCount, b: MinCount) -> MinCount {
    if a.min < b.min {
        a
    } else if b.min < a.min {
        b
    } else {
        MinCount {
            min: a.min,
            ties: a.ties + b.ties,
        }
    }
}

fn leaf(key: CostKey, w: f64, dead: bool) -> MinCount {
    if dead {
        EMPTY
    } else {
        MinCount {
            min: key.eval(w),
            ties: 1,
        }
    }
}

/// One exact min-tree: costs at effective weight `w`.
#[derive(Debug, Clone)]
struct WeightTree {
    w: f64,
    /// 1-indexed complete binary tree; `nodes[base + i]` is node `i`.
    nodes: Vec<MinCount>,
}

impl WeightTree {
    /// Lay the tree out over `keys` and liveness `dead`: O(p).
    fn fill(&mut self, base: usize, keys: &[CostKey], dead: &[bool]) {
        self.nodes.clear();
        self.nodes.resize(2 * base, EMPTY);
        for (i, (&key, &dead)) in keys.iter().zip(dead).enumerate() {
            self.nodes[base + i] = leaf(key, self.w, dead);
        }
        for t in (1..base).rev() {
            self.nodes[t] = merge(self.nodes[2 * t], self.nodes[2 * t + 1]);
        }
    }

    /// Replace leaf slot `t` and sift up toward the root: O(log p).
    /// Every ancestor is the merge of its children, so the climb stops
    /// at the first slot whose summary comes out unchanged (bit for
    /// bit): nothing above it can change either.
    fn set(&mut self, mut t: usize, mut value: MinCount) {
        loop {
            let slot = &mut self.nodes[t];
            if slot.min.to_bits() == value.min.to_bits() && slot.ties == value.ties {
                return;
            }
            *slot = value;
            if t == 1 {
                return;
            }
            t /= 2;
            value = merge(self.nodes[2 * t], self.nodes[2 * t + 1]);
        }
    }
}

/// The decision index; see the [module docs](self).
///
/// One instance mirrors one monitor's view for one scorer
/// configuration (a fixed master reserve). It sizes itself on first
/// [`RsrcIndex::sync`] and tracks cluster size, monitor identity and
/// master count thereafter, so a single instance embedded in a scorer
/// survives being handed a different monitor mid-flight (it just
/// rebuilds).
#[derive(Debug, Clone)]
pub struct RsrcIndex {
    /// CPU fraction withheld from masters when computing keys.
    master_reserve: f64,
    /// Per-node decomposed cost keys (kept for dead nodes too, so a
    /// new tree needs no monitor access); its length is the cluster
    /// size the trees are built for.
    keys: Vec<CostKey>,
    /// One min-tree per distinct effective weight seen so far.
    trees: Vec<WeightTree>,
    /// Monitor identity the mirror was built from.
    seen_monitor: u64,
    /// Monitor epoch the mirror was built at.
    seen_epoch: u64,
    /// Charge-log prefix already folded into the mirror, deferred
    /// masters included.
    seen_charges: usize,
    /// Charge-log position of the last sync that read the master level:
    /// every master charged since is flagged in `master_stale`.
    masters_seen: usize,
    /// `master_stale[i]`: master `i` was charged since `masters_seen`
    /// and not yet re-keyed. One flag per master, so its length is the
    /// master count the keys were computed with.
    master_stale: Vec<bool>,
    /// Scheduler liveness epoch the mirror was built at.
    seen_liveness: u64,
}

impl RsrcIndex {
    /// Empty index for a scorer holding back `master_reserve` on
    /// masters; sizes itself on first [`RsrcIndex::sync`].
    pub fn new(master_reserve: f64) -> Self {
        RsrcIndex {
            master_reserve,
            keys: Vec::new(),
            trees: Vec::new(),
            seen_monitor: u64::MAX,
            seen_epoch: u64::MAX,
            seen_charges: 0,
            masters_seen: 0,
            master_stale: Vec::new(),
            seen_liveness: u64::MAX,
        }
    }

    /// Cluster size the trees are built for.
    fn p(&self) -> usize {
        self.keys.len()
    }

    /// First leaf slot: `tree.nodes[base + i]` is node `i`'s leaf.
    fn base(&self) -> usize {
        self.p().next_power_of_two()
    }

    /// Master count the keys were computed with.
    fn m(&self) -> usize {
        self.master_stale.len()
    }

    fn reserve_for(&self, node: usize) -> f64 {
        if node < self.m() {
            self.master_reserve
        } else {
            0.0
        }
    }

    /// Reconcile the mirror with the monitor state in `ctx` for a query
    /// over a range starting at node `lo`: rebuild on any wholesale
    /// change (different monitor, new epoch, changed cluster shape or
    /// liveness), re-key just the freshly charged nodes otherwise. When
    /// `lo` is at or past the master level, charged masters are only
    /// flagged, and re-keyed by the next sync with `lo` below it (see
    /// the [module docs](self)).
    pub fn sync(&mut self, ctx: &StageCtx<'_>, lo: usize) {
        let p = ctx.nodes();
        let stale = self.p() != p
            || self.m() != ctx.masters
            || self.seen_monitor != ctx.monitor_id
            || self.seen_epoch != ctx.load_epoch
            || self.seen_liveness != ctx.liveness_epoch
            || self.seen_charges > ctx.charge_log.len();
        if stale {
            self.rebuild(ctx);
            return;
        }
        for &node in &ctx.charge_log[self.seen_charges..] {
            let i = node as usize;
            if i < self.m() {
                self.master_stale[i] = true;
            } else {
                self.refresh_node(i, ctx);
            }
        }
        self.seen_charges = ctx.charge_log.len();
        if lo < self.m() {
            for &node in &ctx.charge_log[self.masters_seen..] {
                let i = node as usize;
                if i < self.m() && std::mem::take(&mut self.master_stale[i]) {
                    self.refresh_node(i, ctx);
                }
            }
            self.masters_seen = self.seen_charges;
        }
    }

    /// Rebuild keys and every tree from scratch: O(p) per tree.
    fn rebuild(&mut self, ctx: &StageCtx<'_>) {
        let p = ctx.nodes();
        self.master_stale.clear();
        self.master_stale.resize(ctx.masters, false);
        // Re-keyed in place, so a rebuild allocates nothing once the
        // keys have grown to p.
        let mut keys = std::mem::take(&mut self.keys);
        keys.clear();
        keys.extend((0..p).map(|i| ctx.rsrc.key(i, &ctx.loads[i], self.reserve_for(i))));
        self.keys = keys;
        let base = self.base();
        for tree in &mut self.trees {
            tree.fill(base, &self.keys, ctx.dead);
        }
        self.seen_monitor = ctx.monitor_id;
        self.seen_epoch = ctx.load_epoch;
        self.seen_liveness = ctx.liveness_epoch;
        self.seen_charges = ctx.charge_log.len();
        self.masters_seen = self.seen_charges;
    }

    /// Re-key one node and sift its leaf-to-root path in every tree:
    /// O(log p) per tree.
    fn refresh_node(&mut self, i: usize, ctx: &StageCtx<'_>) {
        if i >= self.p() {
            return;
        }
        self.keys[i] = ctx.rsrc.key(i, &ctx.loads[i], self.reserve_for(i));
        let base = self.base();
        for tree in &mut self.trees {
            tree.set(base + i, leaf(self.keys[i], tree.w, ctx.dead[i]));
        }
    }

    /// The tree for effective weight `w` (matched bit for bit), built
    /// on first use while fewer than [`MAX_WEIGHT_TREES`] exist. `None`
    /// means `w` is beyond the cap and must be scored densely. Call
    /// after [`RsrcIndex::sync`] with the same `ctx`.
    pub fn tree_for(&mut self, w: f64, ctx: &StageCtx<'_>) -> Option<usize> {
        if let Some(t) = self.trees.iter().position(|t| t.w.to_bits() == w.to_bits()) {
            return Some(t);
        }
        if self.trees.len() == MAX_WEIGHT_TREES {
            return None;
        }
        let mut tree = WeightTree {
            w,
            nodes: Vec::new(),
        };
        tree.fill(self.base(), &self.keys, ctx.dead);
        self.trees.push(tree);
        Some(self.trees.len() - 1)
    }

    /// The node of minimum cost among live nodes in `[lo, hi)` under
    /// tree `tree` (from [`RsrcIndex::tree_for`]). On a tie it returns
    /// the `k`-th minimiser in ascending node id, `k` drawn by one
    /// `rng.gen_index(ties)` taken only when `ties > 1`. Returns `None`
    /// when the range holds no live node. O(log p).
    pub fn choose_in_range(
        &self,
        tree: usize,
        lo: usize,
        hi: usize,
        rng: &mut SimRng,
    ) -> Option<usize> {
        let nodes = &self.trees[tree].nodes;
        // Canonical cover of [lo, hi): left-side subtrees arrive in
        // ascending order, right-side ones in descending order, and all
        // of the former lie left of all of the latter.
        let (mut left, mut right) = (
            [0usize; usize::BITS as usize],
            [0usize; usize::BITS as usize],
        );
        let (mut nl, mut nr) = (0, 0);
        let base = self.base();
        let (mut l, mut r) = (lo + base, hi + base);
        while l < r {
            if l & 1 == 1 {
                left[nl] = l;
                nl += 1;
                l += 1;
            }
            if r & 1 == 1 {
                r -= 1;
                right[nr] = r;
                nr += 1;
            }
            l >>= 1;
            r >>= 1;
        }
        let cover = || left[..nl].iter().chain(right[..nr].iter().rev());
        let total = cover().fold(EMPTY, |acc, &t| merge(acc, nodes[t]));
        if total.ties == 0 {
            return None;
        }
        let mut k = if total.ties > 1 {
            rng.gen_index(total.ties as usize) as u32
        } else {
            0
        };
        for &t in cover() {
            let n = nodes[t];
            if n.min != total.min {
                continue;
            }
            if k >= n.ties {
                k -= n.ties;
                continue;
            }
            let mut t = t;
            while t < base {
                let a = nodes[2 * t];
                if a.min == total.min {
                    if k < a.ties {
                        t *= 2;
                        continue;
                    }
                    k -= a.ties;
                }
                t = 2 * t + 1;
            }
            return Some(t - base);
        }
        unreachable!("tie counts of the cover disagree with its merged summary")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadinfo::LoadMonitor;
    use crate::reservation::ReservationController;
    use crate::rsrc::RsrcPredictor;
    use msweb_ossim::LoadSnapshot;
    use msweb_simcore::{SimDuration, SimTime};

    fn same(a: MinCount, b: MinCount) -> bool {
        a.min.to_bits() == b.min.to_bits() && a.ties == b.ties
    }

    /// First and one-past-last leaf index below tree slot `t`.
    fn leaves_below(base: usize, t: usize) -> (usize, usize) {
        let (mut lo, mut hi) = (t, t + 1);
        while lo < base {
            (lo, hi) = (2 * lo, 2 * hi);
        }
        (lo - base, hi - base)
    }

    /// Random charge sequences, each folded in through the early-exit
    /// climb of [`WeightTree::set`] by syncs that alternate at random
    /// between slave-level queries (`lo = m`, masters deferred) and
    /// whole-cluster ones (`lo = 0`), leave every tree exact where the
    /// query can read: each internal slot is always the merge of its
    /// children, bit for bit; after a slave-level sync every slave leaf
    /// and every slot whose subtree lies in `[m, p)` is fresh; after a
    /// whole-cluster sync every leaf and slot is. The second and third
    /// trees are built while a charged master is deferred.
    #[test]
    fn charges_keep_every_internal_slot_the_merge_of_its_children() {
        for (seed, p, loaded) in [(1, 1, false), (2, 7, true), (3, 64, false), (4, 300, true)] {
            let mut rng = SimRng::seed_from_u64(seed);
            let m = p / 4;
            let t0 = SimTime::from_millis(500);
            let mut monitor = LoadMonitor::new(p, SimDuration::from_millis(500), SimTime::ZERO);
            if loaded {
                let snaps: Vec<LoadSnapshot> = (0..p)
                    .map(|_| LoadSnapshot {
                        at: t0,
                        cpu_busy: SimDuration::from_micros(rng.gen_range(450_000)),
                        disk_busy: SimDuration::from_micros(rng.gen_range(450_000)),
                        mem_free_ratio: 1.0,
                        ready_len: 0,
                        disk_queue_len: 0,
                        processes: 0,
                    })
                    .collect();
                monitor.tick(t0, &snaps);
            }
            let rsrc = RsrcPredictor::homogeneous(p, true);
            let reservation = ReservationController::new(m.max(1), p, 0.25, 0.025, true);
            let dead: Vec<bool> = (0..p).map(|i| i % 5 == 3).collect();
            let dead_levels = [
                dead[..m].iter().filter(|&&d| d).count(),
                dead[m..].iter().filter(|&&d| d).count(),
            ];
            let in_flight = vec![0; p];
            let weights = [0.1, 0.5, 0.9];
            let mut index = RsrcIndex::new(0.2);
            for step in 0..60 {
                for _ in 0..rng.gen_index(6) {
                    // A handful of distinct charge sizes, so charged
                    // nodes often tie with each other again.
                    let k = 1 + rng.gen_range(3);
                    let (cpu, disk) = (500 * k, 250 * k);
                    monitor.charge(
                        rng.gen_index(p),
                        SimDuration::from_micros(cpu),
                        SimDuration::from_micros(disk),
                    );
                }
                // Steps 20 and 40 add a tree after charging a master
                // under a slave-level sync.
                let adds_tree = m > 0 && (step == 20 || step == 40);
                if adds_tree {
                    let cpu = SimDuration::from_micros(700);
                    monitor.charge(rng.gen_index(m), cpu, cpu);
                }
                let lo = if adds_tree || rng.gen_index(2) == 0 {
                    m
                } else {
                    0
                };
                let mut draws = SimRng::seed_from_u64(0);
                let ctx = StageCtx {
                    rng: &mut draws,
                    dead: &dead,
                    dead_levels,
                    in_flight: &in_flight,
                    masters: m,
                    rsrc: &rsrc,
                    reservation: &reservation,
                    loads: monitor.all(),
                    monitor_id: monitor.id(),
                    load_epoch: monitor.epoch(),
                    charge_log: monitor.charges(),
                    liveness_epoch: 0,
                    attained: None,
                };
                index.sync(&ctx, lo);
                if adds_tree {
                    assert!(
                        index.master_stale.contains(&true),
                        "p={p} step {step}: no master deferred"
                    );
                }
                let built = 1 + step / 20;
                for &w in &weights[..built] {
                    index.tree_for(w, &ctx).expect("under the tree cap");
                }
                let fresh_keys: Vec<CostKey> = (0..p)
                    .map(|i| rsrc.key(i, &monitor.all()[i], index.reserve_for(i)))
                    .collect();
                for tree in &index.trees {
                    let mut fresh = WeightTree {
                        w: tree.w,
                        nodes: Vec::new(),
                    };
                    fresh.fill(index.base(), &fresh_keys, &dead);
                    for t in 1..2 * index.base() {
                        if t < index.base() {
                            let want = merge(tree.nodes[2 * t], tree.nodes[2 * t + 1]);
                            assert!(same(tree.nodes[t], want), "p={p} slot {t} vs children");
                        }
                        if leaves_below(index.base(), t).0 >= lo {
                            assert!(
                                same(tree.nodes[t], fresh.nodes[t]),
                                "p={p} step {step} lo={lo} slot {t} is stale"
                            );
                        }
                    }
                }
            }
        }
    }
}
