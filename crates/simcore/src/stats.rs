//! Online statistics used by every metrics collector in the workspace.
//!
//! [`OnlineStats`] is a Welford accumulator (numerically stable mean and
//! variance in one pass). [`Quantiles`] gives exact percentiles of
//! durations from one count per distinct microsecond, so its memory is
//! bounded by the spread of the values rather than by how many there
//! are, and it has none of the bias of streaming sketches.
//! [`TimeWeighted`] integrates a step function over time, which is how
//! node utilisation and queue lengths are averaged.

use std::collections::HashMap;

use crate::hist::LogHistogram;
use crate::time::{SimDuration, SimTime};

/// Single-pass mean/variance/min/max accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (+inf when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (-inf when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merge another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Durations shorter than this many microseconds (about 65 ms) are
/// counted in a dense array; longer ones in a hashed map.
const DENSE_US: usize = 1 << 16;
/// The dense array is allocated one page of this many counts (4 KiB) at
/// a time, on the first observation that lands in it, so a run pays only
/// for the part of the range its durations occupy.
const PAGE: usize = 1 << 10;

/// Exact quantiles of durations, from one count per distinct whole
/// microsecond.
///
/// Every duration is a whole number of microseconds, so counting each
/// distinct value answers every order statistic exactly: memory is
/// bounded by the number of distinct values, not by the number of
/// observations. Durations below 2^16 µs (about 65 ms) are counted in a
/// paged dense `u32` array; the tail goes to a hashed map. A dense slot
/// that would overflow spills its further counts into the map.
#[derive(Debug, Clone, Default)]
pub struct Quantiles {
    /// `DENSE_US / PAGE` pages once anything is counted; a page stays
    /// empty until a duration lands in it.
    pages: Vec<Vec<u32>>,
    tail: HashMap<u64, u64>,
    count: u64,
    spilled: bool,
}

impl Quantiles {
    /// An empty collector.
    pub fn new() -> Self {
        Quantiles::default()
    }

    /// Record one observation.
    #[inline]
    pub fn push(&mut self, d: SimDuration) {
        let us = d.as_micros();
        self.count += 1;
        if us < DENSE_US as u64 {
            let us = us as usize;
            if self.pages.is_empty() {
                self.pages.resize_with(DENSE_US / PAGE, Vec::new);
            }
            let page = &mut self.pages[us / PAGE];
            if page.is_empty() {
                *page = vec![0; PAGE];
            }
            let slot = &mut page[us % PAGE];
            if *slot < u32::MAX {
                *slot += 1;
                return;
            }
            self.spilled = true;
        }
        *self.tail.entry(us).or_insert(0) += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The q-quantile (0 ≤ q ≤ 1) in seconds, interpolating linearly
    /// between the two order statistics around rank `q · (count − 1)`.
    /// Returns 0 when empty so report code needn't special-case.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return 0.0;
        }
        let pos = q * (self.count - 1) as f64;
        let lo = pos.floor() as u64;
        let hi = pos.ceil() as u64;
        let (a, b) = self.order_stats(lo, hi);
        let (a, b) = (a.as_secs_f64(), b.as_secs_f64());
        if lo == hi {
            a
        } else {
            let frac = pos - lo as f64;
            a * (1.0 - frac) + b * frac
        }
    }

    /// Median shorthand.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The observations as a [`LogHistogram`] of microseconds, built with
    /// one `record_n` per distinct value. The counts are exact, so its
    /// count, sum, min, max and buckets equal those of a histogram fed
    /// every observation one at a time.
    pub fn histogram(&self) -> LogHistogram {
        let mut h = LogHistogram::new();
        for (us, c) in self.runs() {
            h.record_n(us, c);
        }
        h
    }

    /// The observations of 0-based ranks `lo ≤ hi` in ascending order.
    fn order_stats(&self, lo: u64, hi: u64) -> (SimDuration, SimDuration) {
        let mut below = 0;
        let mut at_lo = None;
        for (us, c) in self.runs() {
            below += c;
            if below > lo {
                let v = SimDuration::from_micros(us);
                let a = *at_lo.get_or_insert(v);
                if below > hi {
                    return (a, v);
                }
            }
        }
        unreachable!("rank {hi} of {} observations", self.count)
    }

    /// Every distinct value with its count, in ascending value order.
    fn runs(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut tail: Vec<(u64, u64)> = self
            .tail
            .iter()
            .filter(|&(&us, _)| us >= DENSE_US as u64)
            .map(|(&us, &c)| (us, c))
            .collect();
        tail.sort_unstable();
        let spill = move |us: u64| {
            if self.spilled {
                self.tail.get(&us).copied().unwrap_or(0)
            } else {
                0
            }
        };
        let dense = self.pages.iter().enumerate().flat_map(|(i, page)| {
            let base = (i * PAGE) as u64;
            page.iter().zip(base..).map(|(&c, us)| (us, c as u64))
        });
        dense
            .map(move |(us, c)| (us, c + spill(us)))
            .filter(|&(_, c)| c > 0)
            .chain(tail)
    }
}

/// Integrates a piecewise-constant signal over simulated time, yielding its
/// time-weighted average — e.g. mean queue length or mean utilisation.
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    last_t: SimTime,
    last_v: f64,
    integral: f64,
    started: Option<SimTime>,
}

impl TimeWeighted {
    /// Start integrating at `t0` with initial value `v0`.
    pub fn new(t0: SimTime, v0: f64) -> Self {
        TimeWeighted {
            last_t: t0,
            last_v: v0,
            integral: 0.0,
            started: Some(t0),
        }
    }

    /// Record that the signal changed to `v` at time `t` (t must not go
    /// backwards; equal timestamps are fine and contribute zero width).
    pub fn update(&mut self, t: SimTime, v: f64) {
        debug_assert!(t >= self.last_t, "time went backwards in TimeWeighted");
        let dt = t.since(self.last_t).as_secs_f64();
        self.integral += self.last_v * dt;
        self.last_t = t;
        self.last_v = v;
    }

    /// The time-weighted mean over `[t0, t]`, closing the current segment
    /// at `t` without mutating state.
    pub fn mean_until(&self, t: SimTime) -> f64 {
        let t0 = self.started.expect("TimeWeighted not started");
        let span = t.since(t0).as_secs_f64();
        if span <= 0.0 {
            return self.last_v;
        }
        let closing = self.last_v * t.since(self.last_t).as_secs_f64();
        (self.integral + closing) / span
    }

    /// Current value of the signal.
    pub fn value(&self) -> f64 {
        self.last_v
    }
}

/// A ratio-of-sums accumulator for the paper's *stretch factor*:
/// `(1/n) * Σ (response_i / demand_i)`.
///
/// The stretch factor is the paper's primary metric (Section 2): the mean,
/// over requests, of response time divided by service demand. A stretch of
/// 1.0 means no queueing delay at all.
#[derive(Debug, Clone, Default)]
pub struct StretchAccumulator {
    stats: OnlineStats,
}

impl StretchAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one completed request.
    ///
    /// `response` is the server-site response time (arrival to completion),
    /// `demand` the contention-free service demand. Zero demands are
    /// clamped to one microsecond to keep the ratio finite; the workload
    /// generators never emit zero demands, so the clamp is purely defensive.
    pub fn record(&mut self, response: SimDuration, demand: SimDuration) {
        let d = demand.as_secs_f64().max(1e-6);
        self.stats.push(response.as_secs_f64() / d);
    }

    /// Mean stretch factor (0 when no requests recorded).
    pub fn stretch(&self) -> f64 {
        self.stats.mean()
    }

    /// Number of requests recorded.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Max observed per-request stretch.
    pub fn max(&self) -> f64 {
        if self.stats.count() == 0 {
            0.0
        } else {
            self.stats.max()
        }
    }

    /// Merge another accumulator (e.g. per-class partials).
    pub fn merge(&mut self, other: &StretchAccumulator) {
        self.stats.merge(&other.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = (a.count(), a.mean(), a.variance());
        a.merge(&OnlineStats::new());
        assert_eq!(before, (a.count(), a.mean(), a.variance()));
    }

    fn us(x: u64) -> SimDuration {
        SimDuration::from_micros(x)
    }

    #[test]
    fn quantiles_exact() {
        let mut q = Quantiles::new();
        for x in [1, 2, 3, 4, 5] {
            q.push(SimDuration::from_secs(x));
        }
        assert_eq!(q.median(), 3.0);
        assert_eq!(q.quantile(0.0), 1.0);
        assert_eq!(q.quantile(1.0), 5.0);
        assert_eq!(q.quantile(0.25), 2.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let mut q = Quantiles::new();
        q.push(SimDuration::ZERO);
        q.push(SimDuration::from_secs(10));
        assert!((q.quantile(0.5) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_answer_between_pushes() {
        let mut q = Quantiles::new();
        q.push(us(5));
        assert_eq!(q.median(), 5e-6);
        q.push(us(1));
        q.push(us(9));
        assert_eq!(q.median(), 5e-6);
    }

    #[test]
    fn quantiles_merge_the_dense_array_and_the_tail_in_order() {
        let mut q = Quantiles::new();
        let tail = DENSE_US as u64;
        for x in [tail + 7, 3, tail, tail - 1, 0] {
            q.push(us(x));
        }
        assert_eq!(q.quantile(0.0), 0.0);
        assert_eq!(q.quantile(0.25), us(3).as_secs_f64());
        assert_eq!(q.median(), us(tail - 1).as_secs_f64());
        assert_eq!(q.quantile(0.75), us(tail).as_secs_f64());
        assert_eq!(q.quantile(1.0), us(tail + 7).as_secs_f64());
    }

    #[test]
    fn quantile_state_is_bounded_by_distinct_values() {
        // One million observations over k distinct values, half of them
        // past the dense cutoff: at most one dense page per distinct value
        // and one tail entry per distinct tail value.
        let k = 200u64;
        let value = |i: u64| (i % k) * 1_000 + 17;
        let mut q = Quantiles::new();
        for i in 0..1_000_000 {
            q.push(us(value(i)));
        }
        let tail_values = (0..k).filter(|&i| value(i) >= DENSE_US as u64).count();
        assert!(tail_values > 0 && (tail_values as u64) < k);
        assert_eq!(q.count(), 1_000_000);
        let pages = q.pages.iter().filter(|p| !p.is_empty()).count();
        assert!(pages <= k as usize);
        assert_eq!(q.tail.len(), tail_values);
        assert!(q.tail.capacity() <= 4 * tail_values);
        assert_eq!(q.quantile(1.0), us(value(k - 1)).as_secs_f64());
    }

    #[test]
    fn a_saturated_dense_slot_spills_into_the_tail() {
        let mut q = Quantiles::new();
        q.push(us(4));
        q.push(us(9));
        // Stand in for u32::MAX - 1 earlier observations of 4 µs.
        q.pages[0][4] = u32::MAX;
        q.count += u64::from(u32::MAX) - 1;
        q.push(us(4));
        q.push(us(4));
        q.push(us(2));
        assert!(q.spilled);
        assert_eq!(q.tail.get(&4), Some(&2));
        assert_eq!(q.count(), u64::from(u32::MAX) + 4);
        assert_eq!(q.quantile(0.0), us(2).as_secs_f64());
        assert_eq!(q.quantile(1.0), us(9).as_secs_f64());
        // Rank count − 2 is the last 4 µs observation, spilled ones
        // included; a walk that dropped the spill would land on 9 µs.
        let (a, b) = q.order_stats(q.count() - 2, q.count() - 2);
        assert_eq!((a, b), (us(4), us(4)));
    }

    #[test]
    fn the_histogram_counts_a_spilled_dense_slot_once_in_full() {
        let mut q = Quantiles::new();
        q.push(us(9));
        // Stand in for u32::MAX earlier observations of 4 µs.
        q.pages[0][4] = u32::MAX;
        q.count += u64::from(u32::MAX);
        q.push(us(4));
        q.push(us(4));
        assert!(q.spilled);
        let h = q.histogram();
        assert_eq!(h.count(), q.count());
        assert_eq!(h.count(), u64::from(u32::MAX) + 3);
        assert_eq!(h.sum(), 4 * (u64::from(u32::MAX) + 2) + 9);
        assert_eq!((h.min(), h.max()), (4, 9));
        let bucket = |v: u64| LogHistogram::bucket_index(v);
        assert_eq!(
            h.nonzero_buckets()
                .iter()
                .map(|&(i, _, _, c)| (i, c))
                .collect::<Vec<_>>(),
            [(bucket(4), u64::from(u32::MAX) + 2), (bucket(9), 1)]
        );
    }

    #[test]
    fn time_weighted_mean() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        tw.update(SimTime::from_secs(1), 1.0); // 0 for 1s
        tw.update(SimTime::from_secs(3), 0.0); // 1 for 2s
        let mean = tw.mean_until(SimTime::from_secs(4)); // 0 for 1s
        assert!((mean - 0.5).abs() < 1e-12, "mean {mean}");
    }

    #[test]
    fn time_weighted_zero_span() {
        let tw = TimeWeighted::new(SimTime::from_secs(1), 7.0);
        assert_eq!(tw.mean_until(SimTime::from_secs(1)), 7.0);
    }

    #[test]
    fn stretch_factor_definition() {
        let mut s = StretchAccumulator::new();
        // response 2x demand and response 4x demand -> stretch 3.
        s.record(SimDuration::from_millis(20), SimDuration::from_millis(10));
        s.record(SimDuration::from_millis(40), SimDuration::from_millis(10));
        assert!((s.stretch() - 3.0).abs() < 1e-9);
        assert_eq!(s.count(), 2);
        assert!((s.max() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn stretch_merge() {
        let mut a = StretchAccumulator::new();
        let mut b = StretchAccumulator::new();
        a.record(SimDuration::from_millis(10), SimDuration::from_millis(10));
        b.record(SimDuration::from_millis(30), SimDuration::from_millis(10));
        a.merge(&b);
        assert!((a.stretch() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn stretch_clamps_zero_demand() {
        let mut s = StretchAccumulator::new();
        s.record(SimDuration::from_millis(1), SimDuration::ZERO);
        assert!(s.stretch().is_finite());
    }
}
