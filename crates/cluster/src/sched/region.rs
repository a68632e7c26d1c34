//! Multi-region front tier: the [`RegionTopology`] (per-region node
//! ranges, client→region latency matrix, per-region cost/carbon series)
//! and the [`RegionSelector`] stage that runs *before*
//! [`EntrySelector`](super::EntrySelector).
//!
//! The paper's entry tier picks a master inside one cluster; this
//! module generalises it to "pick a region, then a master", modelled on
//! CASPER-style geo-schedulers (request rates × capacities × latencies
//! × carbon intensities). A region owns a contiguous slice of the
//! master level `0..m` *and* of the slave level `m..p`, so the existing
//! five-stage pipeline runs unchanged inside the selected region: the
//! scheduler presents it a *masked* liveness view in which every node
//! outside the region is dead, and the rotation entry, level-split
//! candidates and RSRC scorer all behave exactly as in a single-region
//! cluster of that slice.
//!
//! Determinism: both built-in selectors ([`NearestRegion`],
//! [`GreedyRegion`]) are pure functions of the topology, the request's
//! origin and the scheduler's own liveness/in-flight state — they draw
//! nothing from the decision RNG, so adding a region stage perturbs no
//! existing RNG stream and regionless runs stay byte-identical.

use super::ParseLineError;
use serde::Value;

/// Static description of a multi-region cluster: how the `p` nodes are
/// split into regions, what a client in region `i` pays to reach region
/// `j`, and an optional per-region cost/carbon-intensity time series.
///
/// Regions partition *both* levels: region `r` owns the master slice
/// `master_range(r)` of `0..m` and the slave slice `slave_range(r)` of
/// `m..p`. Master indices stay global (`node < m` ⇔ master) so every
/// existing stage and attribution rule is unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionTopology {
    /// Per-region `[start, end)` master slices partitioning `0..m`.
    master_ranges: Vec<(usize, usize)>,
    /// Per-region `[start, end)` slave slices partitioning `m..p`.
    slave_ranges: Vec<(usize, usize)>,
    /// `latency_us[i][j]`: one-way latency a request originating in
    /// region `i` pays to be served in region `j`, microseconds.
    latency_us: Vec<Vec<u64>>,
    /// Per-region cost/carbon-intensity phase series (`cost[r][phase]`);
    /// empty = unit cost everywhere.
    cost: Vec<Vec<f64>>,
    /// Length of one cost phase, microseconds (`at / period % len`
    /// selects the phase). Ignored when `cost` is empty.
    cost_period_us: u64,
    /// In-flight capacity of one node for the region guard; a region
    /// with `node_count * node_capacity` requests in flight is full.
    node_capacity: u32,
}

/// Same-region service latency used by [`RegionTopology::even`],
/// microseconds.
pub const LOCAL_LATENCY_US: u64 = 2_000;
/// Base cross-region latency used by [`RegionTopology::even`],
/// microseconds; each extra ring hop adds the same again.
pub const HOP_LATENCY_US: u64 = 20_000;

impl RegionTopology {
    /// Split a `p`-node cluster with `m` masters into `k` regions of
    /// near-equal size (region `r` gets the `r`-th contiguous chunk of
    /// both levels), with a ring-distance default latency matrix:
    /// serving in-region costs [`LOCAL_LATENCY_US`], each ring hop adds
    /// [`HOP_LATENCY_US`]. Refine with the `with_*` builders.
    pub fn even(p: usize, m: usize, k: usize) -> Self {
        assert!(k >= 1, "need at least one region");
        let m = m.min(p);
        let master_ranges: Vec<(usize, usize)> =
            (0..k).map(|r| (r * m / k, (r + 1) * m / k)).collect();
        let slave_ranges: Vec<(usize, usize)> = (0..k)
            .map(|r| (m + r * (p - m) / k, m + (r + 1) * (p - m) / k))
            .collect();
        let latency_us = (0..k)
            .map(|i| {
                (0..k)
                    .map(|j| {
                        let d = i.abs_diff(j).min(k - i.abs_diff(j));
                        if d == 0 {
                            LOCAL_LATENCY_US
                        } else {
                            HOP_LATENCY_US * d as u64
                        }
                    })
                    .collect()
            })
            .collect();
        RegionTopology {
            master_ranges,
            slave_ranges,
            latency_us,
            cost: Vec::new(),
            cost_period_us: 0,
            node_capacity: 64,
        }
    }

    /// Replace the latency matrix (`k × k`, microseconds).
    pub fn with_latency(mut self, latency_us: Vec<Vec<u64>>) -> Self {
        self.latency_us = latency_us;
        self
    }

    /// Install a per-region cost/carbon phase series: `cost[r]` is the
    /// series for region `r` and `period_us` the phase length.
    pub fn with_cost(mut self, cost: Vec<Vec<f64>>, period_us: u64) -> Self {
        self.cost = cost;
        self.cost_period_us = period_us;
        self
    }

    /// Set the per-node in-flight capacity used by the region guard.
    pub fn with_node_capacity(mut self, capacity: u32) -> Self {
        self.node_capacity = capacity;
        self
    }

    /// Number of regions `k`.
    pub fn regions(&self) -> usize {
        self.master_ranges.len()
    }

    /// Region `r`'s master slice `[start, end)` of `0..m`.
    pub fn master_range(&self, r: usize) -> (usize, usize) {
        self.master_ranges[r]
    }

    /// Region `r`'s slave slice `[start, end)` of `m..p`.
    pub fn slave_range(&self, r: usize) -> (usize, usize) {
        self.slave_ranges[r]
    }

    /// Which region owns `node` (panics when `node` is outside `0..p`,
    /// which validation makes impossible for in-range nodes).
    pub fn region_of(&self, node: usize) -> usize {
        for (r, &(ms, me)) in self.master_ranges.iter().enumerate() {
            if (ms..me).contains(&node) {
                return r;
            }
        }
        for (r, &(ss, se)) in self.slave_ranges.iter().enumerate() {
            if (ss..se).contains(&node) {
                return r;
            }
        }
        panic!("node {node} is outside every region");
    }

    /// Whether region `r` owns `node`.
    pub fn contains(&self, r: usize, node: usize) -> bool {
        let (ms, me) = self.master_ranges[r];
        let (ss, se) = self.slave_ranges[r];
        (ms..me).contains(&node) || (ss..se).contains(&node)
    }

    /// Nodes owned by region `r` (masters + slaves).
    pub fn node_count(&self, r: usize) -> usize {
        let (ms, me) = self.master_ranges[r];
        let (ss, se) = self.slave_ranges[r];
        (me - ms) + (se - ss)
    }

    /// In-flight capacity of region `r` for the region guard.
    pub fn capacity(&self, r: usize) -> u64 {
        self.node_count(r) as u64 * self.node_capacity as u64
    }

    /// Per-node in-flight capacity the guard multiplies by.
    pub fn node_capacity(&self) -> u32 {
        self.node_capacity
    }

    /// Requests currently in flight in region `r`, from the scheduler's
    /// per-node counters.
    pub fn region_in_flight(&self, r: usize, in_flight: &[u32]) -> u64 {
        let (ms, me) = self.master_ranges[r];
        let (ss, se) = self.slave_ranges[r];
        in_flight[ms..me]
            .iter()
            .chain(in_flight[ss..se].iter())
            .map(|&c| c as u64)
            .sum()
    }

    /// Latency a request originating in region `origin` pays to be
    /// served in region `r`, microseconds. Origins beyond `k` wrap
    /// (`origin % k`), so a workload tagged for more regions than the
    /// topology has stays well-defined.
    pub fn latency_us(&self, origin: usize, r: usize) -> u64 {
        self.latency_us[origin % self.regions()][r]
    }

    /// Cost/carbon intensity of region `r` at substrate time `at_us`
    /// (unit cost when no series is installed).
    pub fn cost_at(&self, r: usize, at_us: u64) -> f64 {
        if self.cost.is_empty() {
            return 1.0;
        }
        let series = &self.cost[r];
        if series.is_empty() {
            return 1.0;
        }
        series[((at_us / self.cost_period_us.max(1)) as usize) % series.len()]
    }

    /// Whether region `r` has at least one live master (`m > 0`), or at
    /// least one live node at all (`m == 0`, level-free policies).
    pub fn has_live_master(&self, r: usize, dead: &[bool], m: usize) -> bool {
        if m == 0 {
            return self.has_live_node(r, dead);
        }
        let (ms, me) = self.master_ranges[r];
        (ms..me).any(|n| !dead[n])
    }

    /// Whether region `r` has any live node.
    pub fn has_live_node(&self, r: usize, dead: &[bool]) -> bool {
        let (ms, me) = self.master_ranges[r];
        let (ss, se) = self.slave_ranges[r];
        (ms..me).chain(ss..se).any(|n| !dead[n])
    }

    /// Whether region `r` may receive a request right now: masters
    /// alive (the request must be able to enter) and in-flight below
    /// capacity (the guard the capacity proptest pins down).
    pub fn eligible(&self, r: usize, view: &RegionView<'_>) -> bool {
        self.has_live_master(r, view.dead, view.masters)
            && self.region_in_flight(r, view.in_flight) < self.capacity(r)
    }

    /// Check the topology against a cluster shape: ranges must
    /// partition both `0..m` and `m..p`, every region must own at least
    /// one master when `m > 0` and at least one node overall, and the
    /// latency/cost tables must match the region count.
    pub fn validate(&self, p: usize, m: usize) -> Result<(), String> {
        let k = self.master_ranges.len();
        if k == 0 {
            return Err("topology has no regions".to_string());
        }
        if self.slave_ranges.len() != k {
            return Err(format!(
                "{} slave ranges for {k} regions",
                self.slave_ranges.len()
            ));
        }
        let check_partition =
            |ranges: &[(usize, usize)], lo: usize, hi: usize, what: &str| -> Result<(), String> {
                let mut at = lo;
                for (i, &(s, e)) in ranges.iter().enumerate() {
                    if s != at || e < s || e > hi {
                        return Err(format!(
                            "region {i} {what} range [{s},{e}) does not partition [{lo},{hi})"
                        ));
                    }
                    at = e;
                }
                if at != hi {
                    return Err(format!("{what} ranges cover [{lo},{at}), want [{lo},{hi})"));
                }
                Ok(())
            };
        check_partition(&self.master_ranges, 0, m, "master")?;
        check_partition(&self.slave_ranges, m, p, "slave")?;
        for r in 0..k {
            if m > 0 && self.master_ranges[r].0 == self.master_ranges[r].1 {
                return Err(format!("region {r} owns no master (m = {m})"));
            }
            if self.node_count(r) == 0 {
                return Err(format!("region {r} owns no nodes"));
            }
        }
        if self.latency_us.len() != k || self.latency_us.iter().any(|row| row.len() != k) {
            return Err(format!("latency matrix is not {k}x{k}"));
        }
        if !self.cost.is_empty() {
            if self.cost.len() != k {
                return Err(format!("{} cost series for {k} regions", self.cost.len()));
            }
            if self.cost_period_us == 0 && self.cost.iter().any(|s| !s.is_empty()) {
                return Err("cost series installed with a zero phase period".to_string());
            }
            if let Some(bad) = self
                .cost
                .iter()
                .flatten()
                .find(|c| !(c.is_finite() && **c > 0.0))
            {
                return Err(format!("cost intensity {bad} is not positive and finite"));
            }
        }
        if self.node_capacity == 0 {
            return Err("node capacity must be at least 1".to_string());
        }
        Ok(())
    }

    /// Encode as a JSON value for the decision log's meta line.
    pub fn to_value(&self) -> Value {
        let ranges = |v: &[(usize, usize)]| {
            Value::Array(
                v.iter()
                    .map(|&(s, e)| Value::Array(vec![Value::UInt(s as u64), Value::UInt(e as u64)]))
                    .collect(),
            )
        };
        Value::Object(vec![
            ("masters".to_string(), ranges(&self.master_ranges)),
            ("slaves".to_string(), ranges(&self.slave_ranges)),
            (
                "latency_us".to_string(),
                Value::Array(
                    self.latency_us
                        .iter()
                        .map(|row| Value::Array(row.iter().map(|&l| Value::UInt(l)).collect()))
                        .collect(),
                ),
            ),
            (
                "cost".to_string(),
                Value::Array(
                    self.cost
                        .iter()
                        .map(|row| Value::Array(row.iter().map(|&c| Value::Float(c)).collect()))
                        .collect(),
                ),
            ),
            (
                "cost_period_us".to_string(),
                Value::UInt(self.cost_period_us),
            ),
            (
                "node_capacity".to_string(),
                Value::UInt(self.node_capacity as u64),
            ),
        ])
    }

    /// Decode a value written by [`RegionTopology::to_value`]; a missing
    /// or mistyped field is a [`ParseLineError::Invalid`] naming it.
    pub fn from_value(v: &Value) -> Result<Self, ParseLineError> {
        let get = |key: &str| -> Result<&Value, String> {
            v.get(key)
                .ok_or_else(|| format!("regions object missing field {key:?}"))
        };
        let ranges = |key: &str| -> Result<Vec<(usize, usize)>, String> {
            get(key)?
                .as_array()
                .ok_or_else(|| format!("regions field {key:?} is not an array"))?
                .iter()
                .map(|pair| {
                    let cols = pair
                        .as_array()
                        .filter(|c| c.len() == 2)
                        .ok_or_else(|| format!("regions {key} range is not a 2-element array"))?;
                    let s = cols[0]
                        .as_u64()
                        .ok_or_else(|| format!("regions {key} range start not an integer"))?;
                    let e = cols[1]
                        .as_u64()
                        .ok_or_else(|| format!("regions {key} range end not an integer"))?;
                    Ok((s as usize, e as usize))
                })
                .collect()
        };
        let latency_us = get("latency_us")?
            .as_array()
            .ok_or_else(|| "regions field \"latency_us\" is not an array".to_string())?
            .iter()
            .map(|row| {
                row.as_array()
                    .ok_or_else(|| "latency row is not an array".to_string())?
                    .iter()
                    .map(|c| {
                        c.as_u64()
                            .ok_or_else(|| "latency entry not an integer".to_string())
                    })
                    .collect::<Result<Vec<u64>, String>>()
            })
            .collect::<Result<Vec<_>, String>>()?;
        let cost = get("cost")?
            .as_array()
            .ok_or_else(|| "regions field \"cost\" is not an array".to_string())?
            .iter()
            .map(|row| {
                row.as_array()
                    .ok_or_else(|| "cost row is not an array".to_string())?
                    .iter()
                    .map(|c| {
                        c.as_f64()
                            .ok_or_else(|| "cost entry not a number".to_string())
                    })
                    .collect::<Result<Vec<f64>, String>>()
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RegionTopology {
            master_ranges: ranges("masters")?,
            slave_ranges: ranges("slaves")?,
            latency_us,
            cost,
            cost_period_us: get("cost_period_us")?
                .as_u64()
                .ok_or_else(|| "regions field \"cost_period_us\" not an integer".to_string())?,
            node_capacity: get("node_capacity")?
                .as_u64()
                .and_then(|c| u32::try_from(c).ok())
                .ok_or_else(|| "regions field \"node_capacity\" not a u32".to_string())?,
        })
    }
}

/// Read-only scheduler state handed to a [`RegionSelector`]: the
/// *unmasked* liveness and in-flight views plus the decision time.
/// Deliberately smaller than [`StageCtx`](super::StageCtx) — region
/// selection happens before the masked per-region view exists, and
/// giving it no RNG handle keeps regionless runs byte-identical.
pub struct RegionView<'a> {
    /// Per-node liveness flags (`true` = dead), full cluster.
    pub dead: &'a [bool],
    /// Per-node in-flight counts, full cluster.
    pub in_flight: &'a [u32],
    /// Number of masters `m` (0 for level-free compositions).
    pub masters: usize,
    /// Decision time in microseconds of substrate time (0 when the
    /// driver did not annotate the request).
    pub at_us: u64,
}

/// Stage 0: pick the region a request is served in, given its tagged
/// origin region. Runs before [`EntrySelector`](super::EntrySelector);
/// the five classic stages then operate on the chosen region's slice.
///
/// Returning `None` means no region can take the request (every region
/// is dead or at capacity); the scheduler reports
/// [`PlacementError::NoLiveNodes`](super::PlacementError) and the
/// driver drops the request — the capacity guard is never overrun.
pub trait RegionSelector {
    /// Choose the serving region for a request originating in `origin`.
    fn select(
        &mut self,
        origin: usize,
        topo: &RegionTopology,
        view: &RegionView<'_>,
    ) -> Option<usize>;
}

impl RegionSelector for Box<dyn RegionSelector> {
    fn select(
        &mut self,
        origin: usize,
        topo: &RegionTopology,
        view: &RegionView<'_>,
    ) -> Option<usize> {
        (**self).select(origin, topo, view)
    }
}

/// `region-nearest`: latency argmin over eligible regions (live
/// masters, below the capacity guard), ties to the lowest region index.
#[derive(Debug, Clone, Copy, Default)]
pub struct NearestRegion;

impl RegionSelector for NearestRegion {
    fn select(
        &mut self,
        origin: usize,
        topo: &RegionTopology,
        view: &RegionView<'_>,
    ) -> Option<usize> {
        (0..topo.regions())
            .filter(|&r| topo.eligible(r, view))
            .min_by_key(|&r| (topo.latency_us(origin, r), r))
    }
}

/// `region-greedy`: CASPER-style score over latency × remaining
/// capacity × cost intensity. Each eligible region is scored
/// `latency_us · cost_at(r, t) / headroom(r)` where `headroom` is the
/// remaining capacity fraction; the argmin wins, ties to the lowest
/// region index. Under a flash crowd the headroom term moves traffic
/// off the saturating home region *before* the hard capacity guard
/// trips, which is exactly where it beats [`NearestRegion`] on
/// latency-weighted stretch.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyRegion;

impl RegionSelector for GreedyRegion {
    fn select(
        &mut self,
        origin: usize,
        topo: &RegionTopology,
        view: &RegionView<'_>,
    ) -> Option<usize> {
        let mut best: Option<(f64, usize)> = None;
        for r in 0..topo.regions() {
            if !topo.eligible(r, view) {
                continue;
            }
            let cap = topo.capacity(r) as f64;
            let headroom = (1.0 - topo.region_in_flight(r, view.in_flight) as f64 / cap).max(1e-6);
            let score =
                topo.latency_us(origin, r).max(1) as f64 * topo.cost_at(r, view.at_us) / headroom;
            if best.is_none_or(|(b, _)| score < b) {
                best = Some((score, r));
            }
        }
        best.map(|(_, r)| r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view<'a>(dead: &'a [bool], in_flight: &'a [u32], m: usize) -> RegionView<'a> {
        RegionView {
            dead,
            in_flight,
            masters: m,
            at_us: 0,
        }
    }

    #[test]
    fn even_topology_partitions_both_levels() {
        let t = RegionTopology::even(32, 6, 3);
        assert!(t.validate(32, 6).is_ok());
        assert_eq!(t.regions(), 3);
        let masters: usize = (0..3)
            .map(|r| {
                let (s, e) = t.master_range(r);
                e - s
            })
            .sum();
        assert_eq!(masters, 6);
        let total: usize = (0..3).map(|r| t.node_count(r)).sum();
        assert_eq!(total, 32);
        for node in 0..32 {
            let r = t.region_of(node);
            assert!(t.contains(r, node), "node {node} region {r}");
        }
        // Ring latency: self is cheapest, symmetric.
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(t.latency_us(i, j), t.latency_us(j, i));
                if i != j {
                    assert!(t.latency_us(i, j) > t.latency_us(i, i));
                }
            }
        }
        // Origins beyond k wrap deterministically.
        assert_eq!(t.latency_us(4, 0), t.latency_us(1, 0));
    }

    #[test]
    fn validation_rejects_broken_topologies() {
        let good = RegionTopology::even(16, 4, 2);
        assert!(good.validate(16, 4).is_ok());
        // Wrong cluster shape.
        assert!(good.validate(16, 5).is_err());
        assert!(good.validate(17, 4).is_err());
        // More regions than masters: some region owns no master.
        let t = RegionTopology::even(16, 2, 4);
        let err = t.validate(16, 2).unwrap_err();
        assert!(err.contains("no master"), "{err}");
        // Latency matrix of the wrong shape.
        let t = RegionTopology::even(16, 4, 2).with_latency(vec![vec![1, 2, 3]]);
        assert!(t.validate(16, 4).is_err());
        // Cost series with a zero period.
        let t = RegionTopology::even(16, 4, 2).with_cost(vec![vec![1.0], vec![2.0]], 0);
        assert!(t.validate(16, 4).is_err());
        // Non-positive cost intensity.
        let t = RegionTopology::even(16, 4, 2).with_cost(vec![vec![1.0], vec![-2.0]], 1_000);
        assert!(t.validate(16, 4).is_err());
        // Zero capacity.
        let t = RegionTopology::even(16, 4, 2).with_node_capacity(0);
        assert!(t.validate(16, 4).is_err());
    }

    #[test]
    fn topology_value_round_trips() {
        let t = RegionTopology::even(32, 6, 3)
            .with_cost(
                vec![vec![1.0, 2.0], vec![2.0, 1.0], vec![1.5, 1.5]],
                60_000_000,
            )
            .with_node_capacity(48);
        let v = t.to_value();
        let back = RegionTopology::from_value(&v).expect("decode own encoding");
        assert_eq!(back, t);
        // And through actual JSON text.
        let text = v.to_json();
        let reparsed = Value::parse(&text).expect("parse own JSON");
        assert_eq!(RegionTopology::from_value(&reparsed).unwrap(), t);
    }

    #[test]
    fn a_node_capacity_past_u32_is_a_decode_error() {
        let text = RegionTopology::even(4, 2, 2)
            .to_value()
            .to_json()
            .replace("\"node_capacity\":64", "\"node_capacity\":4294967360");
        let v = Value::parse(&text).expect("still valid JSON");
        let err = RegionTopology::from_value(&v).expect_err("2^32 + 64 does not fit");
        assert!(err.to_string().contains("node_capacity"), "{err}");
    }

    #[test]
    fn nearest_picks_home_until_guarded() {
        let t = RegionTopology::even(12, 3, 3).with_node_capacity(2);
        let dead = vec![false; 12];
        let mut idle = vec![0u32; 12];
        let mut sel = NearestRegion;
        assert_eq!(sel.select(1, &t, &view(&dead, &idle, 3)), Some(1));
        // Saturate region 1 (master 1 + slaves 6..9 ⇒ capacity 8).
        idle[1] = 2;
        idle[6..9].fill(2);
        let got = sel.select(1, &t, &view(&dead, &idle, 3)).unwrap();
        assert_ne!(got, 1, "full region must be skipped");
    }

    #[test]
    fn nearest_requires_a_live_master() {
        let t = RegionTopology::even(12, 3, 3);
        let mut dead = vec![false; 12];
        dead[1] = true; // region 1's only master
        let idle = vec![0u32; 12];
        let mut sel = NearestRegion;
        let got = sel.select(1, &t, &view(&dead, &idle, 3)).unwrap();
        assert_ne!(got, 1, "masterless region must be skipped");
        // All masters dead: nothing is eligible.
        dead[0..3].fill(true);
        assert_eq!(sel.select(0, &t, &view(&dead, &idle, 3)), None);
    }

    #[test]
    fn greedy_shifts_off_a_loaded_home_region() {
        let t = RegionTopology::even(12, 3, 3).with_node_capacity(8);
        let dead = vec![false; 12];
        let mut load = vec![0u32; 12];
        let mut greedy = GreedyRegion;
        let mut nearest = NearestRegion;
        // Lightly loaded: both pick the home region.
        assert_eq!(greedy.select(0, &t, &view(&dead, &load, 3)), Some(0));
        assert_eq!(nearest.select(0, &t, &view(&dead, &load, 3)), Some(0));
        // Pile load on region 0 (30 of capacity 32 — still below the
        // hard guard): nearest keeps going home, greedy leaves before
        // the guard trips.
        load[0] = 6;
        load[3..6].fill(8);
        assert_eq!(nearest.select(0, &t, &view(&dead, &load, 3)), Some(0));
        let g = greedy.select(0, &t, &view(&dead, &load, 3)).unwrap();
        assert_ne!(g, 0, "greedy must leave the saturating region");
    }

    #[test]
    fn greedy_weighs_cost_intensity() {
        // Two symmetric regions at equal latency cost from origin 0
        // except via cost intensity.
        let t = RegionTopology::even(8, 2, 2)
            .with_latency(vec![vec![1_000, 1_000], vec![1_000, 1_000]])
            .with_cost(vec![vec![3.0], vec![1.0]], 1_000_000);
        let dead = vec![false; 8];
        let load = vec![0u32; 8];
        let mut greedy = GreedyRegion;
        assert_eq!(greedy.select(0, &t, &view(&dead, &load, 2)), Some(1));
    }
}
