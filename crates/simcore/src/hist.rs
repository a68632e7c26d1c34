//! Log-bucketed (HDR-style) histograms over `u64` observations.
//!
//! [`LogHistogram`] trades exactness for a fixed, tiny footprint: values
//! are binned into log-linear buckets — exact below 16, then eight
//! sub-buckets per power of two — so any recorded value is reported
//! within ~12.5% relative error while `record` stays a handful of
//! integer instructions (a `leading_zeros`, two shifts, one array add).
//! That makes it cheap enough for scheduler hot paths, and its size does
//! not depend on the spread of the values, unlike
//! [`Quantiles`](crate::stats::Quantiles), which is exact and keeps one
//! count per distinct microsecond.
//!
//! Histograms are *mergeable* (bucket-wise addition), so per-worker
//! histograms produced by the parallel sweep engine fold into one
//! cluster-wide view, and *reconstructible* from their sparse bucket
//! encoding ([`LogHistogram::from_sparse`]), which is how telemetry
//! snapshots round-trip through JSON.

/// Sub-bucket resolution: 2^3 = 8 buckets per octave (~12.5% width).
const SUB_BITS: u32 = 3;
/// Buckets per octave.
const SUB: usize = 1 << SUB_BITS;
/// Values below this are binned exactly (one bucket per value).
const LINEAR_LIMIT: u64 = (2 * SUB) as u64;
/// First octave exponent handled log-linearly.
const FIRST_EXP: u32 = SUB_BITS + 1;
/// Total bucket count: 16 exact + 8 per octave for exponents 4..=63.
const BUCKETS: usize = LINEAR_LIMIT as usize + (64 - FIRST_EXP as usize) * SUB;

/// A fixed-size log-bucketed histogram of `u64` observations.
///
/// ```
/// use msweb_simcore::hist::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for v in [3, 3, 100, 2_000, 2_100] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.quantile(0.0), 3);
/// // ~12.5% relative error at the top end:
/// let p100 = h.quantile(1.0);
/// assert!((2_100..2_400).contains(&p100), "{p100}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index a value falls into.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        if v < LINEAR_LIMIT {
            v as usize
        } else {
            let e = 63 - v.leading_zeros();
            let sub = ((v >> (e - SUB_BITS)) as usize) & (SUB - 1);
            LINEAR_LIMIT as usize + (e - FIRST_EXP) as usize * SUB + sub
        }
    }

    /// The inclusive `[low, high]` value range of bucket `index`.
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        assert!(index < BUCKETS, "bucket index out of range");
        let low = |i: usize| -> u64 {
            if i < LINEAR_LIMIT as usize {
                i as u64
            } else {
                let j = i - LINEAR_LIMIT as usize;
                let e = FIRST_EXP + (j / SUB) as u32;
                let sub = (j % SUB) as u64;
                (SUB as u64 + sub) << (e - SUB_BITS)
            }
        };
        let lo = low(index);
        let hi = if index + 1 < BUCKETS {
            low(index + 1) - 1
        } else {
            u64::MAX
        };
        (lo, hi)
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` identical observations.
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[Self::bucket_index(v)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` ∈ [0, 1]: the upper bound of the bucket
    /// holding the ⌈q·n⌉-th observation, clamped to the recorded
    /// min/max so exact extremes survive bucketing. Returns 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (_, hi) = Self::bucket_bounds(i);
                return hi.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merge another histogram into this one (bucket-wise).
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The occupied buckets as `(index, low, high, count)`, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64, u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = Self::bucket_bounds(i);
                (i, lo, hi, c)
            })
            .collect()
    }

    /// Rebuild a histogram from its sparse encoding: `(index, count)`
    /// pairs plus the exact `sum`/`min`/`max` that bucketing loses.
    /// Out-of-range indices are ignored. Inverse of
    /// [`nonzero_buckets`](Self::nonzero_buckets) for the bucket
    /// contents.
    pub fn from_sparse(buckets: &[(usize, u64)], sum: u64, min: u64, max: u64) -> LogHistogram {
        let mut h = LogHistogram::new();
        for &(i, c) in buckets {
            if i < BUCKETS {
                h.counts[i] += c;
                h.count += c;
            }
        }
        if h.count > 0 {
            h.sum = sum;
            h.min = min;
            h.max = max;
        }
        h
    }

    /// What was recorded since `baseline` — a strictly earlier copy of
    /// this cumulative histogram. Because recording only ever adds,
    /// per-bucket subtraction is exact; the delta carries buckets,
    /// count and sum only (a window's min/max are *not* recoverable by
    /// subtraction, so [`HistDelta`] deliberately has no such fields).
    ///
    /// Debug builds assert the monotonicity precondition; release
    /// builds saturate instead of wrapping.
    pub fn delta_since(&self, baseline: &LogHistogram) -> HistDelta {
        debug_assert!(
            self.count >= baseline.count,
            "delta_since baseline is newer than self"
        );
        let mut buckets = Vec::new();
        for (i, (&now, &then)) in self.counts.iter().zip(&baseline.counts).enumerate() {
            debug_assert!(now >= then, "bucket {i} shrank between snapshots");
            let d = now.saturating_sub(then);
            if d > 0 {
                buckets.push((i, d));
            }
        }
        HistDelta {
            buckets,
            count: self.count.saturating_sub(baseline.count),
            sum: self.sum.saturating_sub(baseline.sum),
        }
    }
}

/// The observations a cumulative [`LogHistogram`] gained between two
/// snapshots: sparse `(bucket index, count)` pairs plus total count and
/// sum. Deltas are mergeable (bucket-wise addition), so a run's
/// per-window deltas re-merge exactly to the end-of-run histogram's
/// bucket contents, count, and sum.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistDelta {
    /// Occupied buckets as ascending `(index, count)` pairs.
    pub buckets: Vec<(usize, u64)>,
    /// Observations gained.
    pub count: u64,
    /// Sum gained (saturating, like [`LogHistogram::record_n`]).
    pub sum: u64,
}

impl HistDelta {
    /// An empty delta.
    pub fn new() -> Self {
        HistDelta::default()
    }

    /// True when nothing was recorded in the window.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Merge another delta into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &HistDelta) {
        if other.count == 0 {
            return;
        }
        let mut merged: Vec<(usize, u64)> =
            Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        while let (Some(&&(ia, ca)), Some(&&(ib, cb))) = (a.peek(), b.peek()) {
            match ia.cmp(&ib) {
                std::cmp::Ordering::Less => {
                    merged.push((ia, ca));
                    a.next();
                }
                std::cmp::Ordering::Greater => {
                    merged.push((ib, cb));
                    b.next();
                }
                std::cmp::Ordering::Equal => {
                    merged.push((ia, ca + cb));
                    a.next();
                    b.next();
                }
            }
        }
        merged.extend(a.copied());
        merged.extend(b.copied());
        self.buckets = merged;
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// The delta's buckets, count and sum as a histogram (min/max are
    /// lost to windowing and read as the bucketed extremes' bounds).
    pub fn to_histogram(&self) -> LogHistogram {
        let (min, max) = match (self.buckets.first(), self.buckets.last()) {
            (Some(&(lo, _)), Some(&(hi, _))) => (
                LogHistogram::bucket_bounds(lo).0,
                LogHistogram::bucket_bounds(hi).1,
            ),
            _ => (0, 0),
        };
        LogHistogram::from_sparse(&self.buckets, self.sum, min, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..LINEAR_LIMIT {
            let (lo, hi) = LogHistogram::bucket_bounds(LogHistogram::bucket_index(v));
            assert_eq!((lo, hi), (v, v));
        }
    }

    #[test]
    fn bounds_partition_the_u64_line() {
        // Buckets tile [0, u64::MAX] with no gaps or overlaps.
        let mut expected_low = 0u64;
        for i in 0..BUCKETS {
            let (lo, hi) = LogHistogram::bucket_bounds(i);
            assert_eq!(lo, expected_low, "gap before bucket {i}");
            assert!(hi >= lo, "inverted bucket {i}");
            if i + 1 < BUCKETS {
                expected_low = hi + 1;
            } else {
                assert_eq!(hi, u64::MAX);
            }
        }
    }

    #[test]
    fn every_value_lands_in_its_bucket() {
        let probes = [
            0u64,
            1,
            7,
            15,
            16,
            17,
            31,
            32,
            100,
            1_000,
            65_535,
            65_536,
            1 << 40,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &probes {
            let i = LogHistogram::bucket_index(v);
            let (lo, hi) = LogHistogram::bucket_bounds(i);
            assert!(lo <= v && v <= hi, "v={v} not in bucket {i} [{lo},{hi}]");
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for &v in &[16u64, 100, 999, 12_345, 1 << 30, (1 << 50) + 12_321] {
            let (lo, hi) = LogHistogram::bucket_bounds(LogHistogram::bucket_index(v));
            let width = (hi - lo) as f64;
            assert!(width / v as f64 <= 0.125, "v={v} width={width}");
        }
    }

    #[test]
    fn quantiles_track_recorded_values() {
        let mut h = LogHistogram::new();
        for v in 1..=1_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1_000);
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 1_000);
        let p50 = h.quantile(0.5);
        assert!((500..=563).contains(&p50), "p50={p50}");
        let p99 = h.quantile(0.99);
        assert!((990..=1_000).contains(&p99), "p99={p99}");
    }

    #[test]
    fn merge_equals_sequential_record() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut all = LogHistogram::new();
        for v in [1u64, 50, 50, 7_000, 123_456] {
            a.record(v);
            all.record(v);
        }
        for v in [2u64, 50, 9_999_999] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn sparse_round_trip() {
        let mut h = LogHistogram::new();
        for v in [0u64, 3, 17, 900, 900, 1 << 33] {
            h.record(v);
        }
        let sparse = h.nonzero_buckets();
        let pairs: Vec<(usize, u64)> = sparse.iter().map(|&(i, _, _, c)| (i, c)).collect();
        let back = LogHistogram::from_sparse(&pairs, h.sum(), h.min(), h.max());
        assert_eq!(back, h);
    }

    #[test]
    fn window_deltas_remerge_to_the_cumulative_histogram() {
        let mut h = LogHistogram::new();
        let mut baseline = h.clone();
        let mut total = HistDelta::new();
        // Three "monitor windows" of recording, deltas taken at each
        // boundary, must re-merge to exactly the cumulative contents.
        for window in [&[1u64, 50, 50][..], &[][..], &[7_000, 50, 123_456, 2][..]] {
            for &v in window {
                h.record(v);
            }
            let d = h.delta_since(&baseline);
            assert_eq!(d.count, window.len() as u64);
            assert_eq!(d.sum, window.iter().sum::<u64>());
            total.merge(&d);
            baseline = h.clone();
        }
        assert_eq!(total.count, h.count());
        assert_eq!(total.sum, h.sum());
        let pairs: Vec<(usize, u64)> = h
            .nonzero_buckets()
            .iter()
            .map(|&(i, _, _, c)| (i, c))
            .collect();
        assert_eq!(total.buckets, pairs);
        let back = total.to_histogram();
        assert_eq!(back.count(), h.count());
        assert_eq!(back.sum(), h.sum());
        assert_eq!(back.nonzero_buckets(), h.nonzero_buckets());
    }

    #[test]
    fn empty_delta_is_inert() {
        let h = LogHistogram::new();
        let d = h.delta_since(&h);
        assert!(d.is_empty());
        assert!(d.buckets.is_empty());
        let mut acc = HistDelta::new();
        acc.merge(&d);
        assert!(acc.is_empty());
        assert_eq!(d.to_histogram(), LogHistogram::new());
    }

    #[test]
    fn empty_histogram_is_inert() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.nonzero_buckets().is_empty());
    }
}
