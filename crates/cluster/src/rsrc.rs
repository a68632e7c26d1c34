//! The RSRC cost predictor — the paper's Equation 5.
//!
//! ```text
//! RSRC = w / CPUIdleRatio + (1 − w) / DiskAvailRatio
//! ```
//!
//! `w` is the request class's average CPU cost share, obtained by
//! off-line sampling on an unloaded system; "if a value for w cannot be
//! obtained, we assume w = 0.5". For heterogeneous clusters the relative
//! node speed divides the CPU term (our previous-work extension the paper
//! points to \[36\]).

use crate::loadinfo::{NodeLoad, MIN_RATIO};

/// One node's RSRC cost, decomposed into the two clamped denominators of
/// Eq. 5 with the capacity reserve and node speed folded in.
///
/// The decomposition makes the cost *linear in the request weight*:
/// `cost(w) = w / cpu_denom + (1 − w) / disk_denom`. That is what lets
/// the decision index ([`crate::sched::index`]) re-key a single node in
/// O(log p) after a charge-back without rescoring the whole cluster.
///
/// [`CostKey::eval`] performs the same floating-point operations in the
/// same order as [`RsrcPredictor::cost_reserved`], so evaluating a
/// stored key is bit-identical to a dense rescore — the property the
/// golden-seed fixtures rely on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostKey {
    /// Denominator of the CPU term: `(cpu_idle · keep).max(MIN_RATIO) · speed`.
    pub cpu_denom: f64,
    /// Denominator of the disk term: `(disk_avail · keep).max(MIN_RATIO)`.
    pub disk_denom: f64,
}

impl CostKey {
    /// Eq. 5 at effective CPU weight `w` (already clamped by
    /// [`RsrcPredictor::effective_w`]). Bit-identical to
    /// [`RsrcPredictor::cost_reserved`] for the same node and load.
    #[inline]
    pub fn eval(&self, w: f64) -> f64 {
        w / self.cpu_denom + (1.0 - w) / self.disk_denom
    }
}

/// The RSRC predictor.
#[derive(Debug, Clone)]
pub struct RsrcPredictor {
    /// When false (the M/S-ns ablation), every request is costed with
    /// `w = 0.5` regardless of its sampled class weight.
    pub use_sampling: bool,
    /// Per-node CPU speed factors (1.0 = baseline).
    speeds: Vec<f64>,
}

impl RsrcPredictor {
    /// Homogeneous predictor for `p` nodes.
    pub fn homogeneous(p: usize, use_sampling: bool) -> Self {
        RsrcPredictor {
            use_sampling,
            speeds: vec![1.0; p],
        }
    }

    /// Heterogeneous predictor with explicit speed factors.
    pub fn with_speeds(speeds: Vec<f64>, use_sampling: bool) -> Self {
        assert!(!speeds.is_empty());
        assert!(speeds.iter().all(|&s| s > 0.0 && s.is_finite()));
        RsrcPredictor {
            use_sampling,
            speeds,
        }
    }

    /// The effective CPU weight used for a request whose sampled weight
    /// is `sampled_w`.
    pub fn effective_w(&self, sampled_w: f64) -> f64 {
        if self.use_sampling {
            sampled_w.clamp(0.0, 1.0)
        } else {
            0.5
        }
    }

    /// Relative server-site response cost of running a request with CPU
    /// weight `sampled_w` on node `node` given its last load report.
    pub fn cost(&self, node: usize, load: &NodeLoad, sampled_w: f64) -> f64 {
        self.cost_reserved(node, load, sampled_w, 0.0)
    }

    /// Like [`RsrcPredictor::cost`] but with a capacity `reserve`
    /// withheld from the node first — the paper's "reserve a certain
    /// amount of CPU and I/O for static content processing on each master
    /// node" (§4). The reserve scales the node's available capacity
    /// multiplicatively (`idle × (1 − reserve)`), so a reserved node's
    /// cost is a w-independent multiple of its unreserved cost: the
    /// master-overflow decision does not depend on the request's CPU
    /// weight, only on relative node load — `w` keeps its intended role
    /// of matching requests to nodes whose CPU/disk mix suits them.
    pub fn cost_reserved(&self, node: usize, load: &NodeLoad, sampled_w: f64, reserve: f64) -> f64 {
        self.key(node, load, reserve)
            .eval(self.effective_w(sampled_w))
    }

    /// The decomposed cost key of `node` under `reserve` — the
    /// weight-independent part of [`RsrcPredictor::cost_reserved`]. The
    /// decision index stores these so a charge to one node re-keys one
    /// leaf instead of rescoring the cluster.
    pub fn key(&self, node: usize, load: &NodeLoad, reserve: f64) -> CostKey {
        let keep = (1.0 - reserve).max(MIN_RATIO);
        let cpu_idle = (load.cpu_idle_ratio * keep).max(MIN_RATIO);
        let disk_avail = (load.disk_avail_ratio * keep).max(MIN_RATIO);
        CostKey {
            cpu_denom: cpu_idle * self.speeds[node],
            disk_denom: disk_avail,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(cpu_idle: f64, disk_avail: f64) -> NodeLoad {
        NodeLoad {
            cpu_idle_ratio: cpu_idle,
            disk_avail_ratio: disk_avail,
            mem_free_ratio: 1.0,
            processes: 0,
        }
    }

    #[test]
    fn formula_matches_equation5() {
        let p = RsrcPredictor::homogeneous(1, true);
        let l = load(0.5, 0.25);
        // w=0.9: 0.9/0.5 + 0.1/0.25 = 1.8 + 0.4 = 2.2.
        assert!((p.cost(0, &l, 0.9) - 2.2).abs() < 1e-12);
        // w=0.1: 0.1/0.5 + 0.9/0.25 = 0.2 + 3.6 = 3.8.
        assert!((p.cost(0, &l, 0.1) - 3.8).abs() < 1e-12);
    }

    #[test]
    fn idle_node_costs_one() {
        let p = RsrcPredictor::homogeneous(1, true);
        assert!((p.cost(0, &load(1.0, 1.0), 0.7) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn no_sampling_forces_half() {
        let p = RsrcPredictor::homogeneous(1, false);
        assert_eq!(p.effective_w(0.9), 0.5);
        let l = load(0.5, 0.25);
        // 0.5/0.5 + 0.5/0.25 = 3.
        assert!((p.cost(0, &l, 0.9) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_picks_the_right_node_for_io_work() {
        // Node 0: CPU idle, disk saturated. Node 1: CPU busy, disk free.
        let loads = [load(0.9, 0.1), load(0.2, 0.9)];
        let cheaper = |p: &RsrcPredictor, w: f64| {
            if p.cost(0, &loads[0], w) < p.cost(1, &loads[1], w) {
                0
            } else {
                1
            }
        };
        let p = RsrcPredictor::homogeneous(2, true);
        // An I/O-heavy request (w=0.1) must go to node 1.
        assert_eq!(cheaper(&p, 0.1), 1);
        // A CPU-heavy request (w=0.95) must go to node 0.
        assert_eq!(cheaper(&p, 0.95), 0);
        // Without sampling (w=0.5) both requests get the same answer —
        // the mechanism behind the M/S-ns gap.
        let ns = RsrcPredictor::homogeneous(2, false);
        assert_eq!(cheaper(&ns, 0.1), cheaper(&ns, 0.95));
    }

    #[test]
    fn speed_factor_discounts_cpu_term() {
        let p = RsrcPredictor::with_speeds(vec![1.0, 2.0], true);
        let l = load(0.5, 1.0);
        let slow = p.cost(0, &l, 1.0);
        let fast = p.cost(1, &l, 1.0);
        assert!((slow - 2.0).abs() < 1e-12);
        assert!((fast - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reserve_scales_capacity() {
        let p = RsrcPredictor::homogeneous(1, true);
        let l = load(0.8, 0.4);
        let free = p.cost(0, &l, 0.7);
        let half = p.cost_reserved(0, &l, 0.7, 0.5);
        // Multiplicative reserve: exactly double the cost at 50% reserve.
        assert!((half - 2.0 * free).abs() < 1e-9);
        // And the ratio is the same for any w (threshold w-independence).
        let free_io = p.cost(0, &l, 0.1);
        let half_io = p.cost_reserved(0, &l, 0.1, 0.5);
        assert!((half_io / free_io - half / free).abs() < 1e-9);
    }

    #[test]
    fn key_eval_is_bit_identical_to_cost_reserved() {
        // The decision index evaluates stored keys instead of calling
        // cost_reserved; the two must agree to the last bit or indexed
        // and dense placements could diverge on near-ties.
        let p = RsrcPredictor::with_speeds(vec![1.0, 1.7, 0.3], true);
        for (node, (ci, da)) in [(0.73, 0.21), (0.011, 0.99), (1.0, 1.0)].iter().enumerate() {
            let l = load(*ci, *da);
            for reserve in [0.0, 0.2, 0.97] {
                for w in [0.0, 0.1, 0.5, 0.9, 1.0] {
                    let dense = p.cost_reserved(node, &l, w, reserve);
                    let keyed = p.key(node, &l, reserve).eval(p.effective_w(w));
                    assert_eq!(dense.to_bits(), keyed.to_bits());
                }
            }
        }
    }

    #[test]
    fn zero_ratios_are_clamped() {
        let p = RsrcPredictor::homogeneous(1, true);
        let l = load(0.0, 0.0);
        let c = p.cost(0, &l, 0.5);
        assert!(c.is_finite());
        assert!((c - 1.0 / MIN_RATIO).abs() < 1e-9);
    }
}
