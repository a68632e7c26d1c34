//! Property-based tests for the simulation core.

use msweb_simcore::{
    split_seed, Dist, Distribution, EventTree, LogHistogram, OnlineStats, Quantiles, SimDuration,
    SimRng, SimTime, StretchAccumulator,
};
use proptest::prelude::*;

proptest! {
    /// After any interleaving of set / re-key / remove / pop operations,
    /// the tree agrees with a brute-force scan of the live entries: the
    /// same minimum (ties on time broken by key) and the same length —
    /// and popping drains it in sorted `(time, key)` order. Key counts
    /// reach about 3,000, mostly not powers of four, so the tree has up
    /// to 6 levels and padding leaves; entries at `SimTime::MAX` must
    /// still come before every absent key.
    #[test]
    fn event_tree_matches_brute_force_minimum(
        keys in 1usize..3_000,
        small in any::<bool>(),
        ops in prop::collection::vec((0usize..3_000, 0u64..64), 1..300),
    ) {
        // Half the cases use few keys, so every key sees many ops.
        let keys = if small { keys % 40 + 1 } else { keys };
        let mut h = EventTree::new(keys);
        let mut model: Vec<Option<SimTime>> = vec![None; keys];
        let live_min = |model: &[Option<SimTime>]| {
            model
                .iter()
                .enumerate()
                .filter_map(|(k, t)| t.map(|t| (t, k)))
                .min()
        };
        for &(k, op) in &ops {
            // Few distinct times make ties common.
            let k = k % keys;
            if op < 58 {
                model[k] = match op {
                    0..=39 => Some(SimTime::from_micros(op)),
                    40..=49 => Some(SimTime::MAX),
                    _ => None,
                };
                h.set(k, model[k]);
            } else {
                let min = live_min(&model);
                prop_assert_eq!(h.pop(), min);
                if let Some((_, k)) = min {
                    model[k] = None;
                }
            }
            prop_assert_eq!(h.peek(), live_min(&model));
            prop_assert_eq!(h.len(), model.iter().flatten().count());
            prop_assert_eq!(h.is_empty(), model.iter().all(Option::is_none));
        }
        prop_assert_eq!(h.len(), model.iter().flatten().count());
        let mut expect: Vec<(SimTime, usize)> = model
            .iter()
            .enumerate()
            .filter_map(|(k, t)| t.map(|t| (t, k)))
            .collect();
        expect.sort_unstable();
        let drained: Vec<_> = std::iter::from_fn(|| h.pop()).collect();
        prop_assert_eq!(drained, expect);
        prop_assert!(h.is_empty());
    }

    /// Splittable RNG streams seeded identically are identical; the
    /// uniform [0,1) output always stays in range.
    #[test]
    fn rng_unit_interval(seed in any::<u64>()) {
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..100 {
            let x = rng.next_f64();
            prop_assert!((0.0..1.0).contains(&x));
        }
    }

    /// gen_range never exceeds its bound.
    #[test]
    fn rng_gen_range_in_bounds(seed in any::<u64>(), bound in 1u64..10_000) {
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(rng.gen_range(bound) < bound);
        }
    }

    /// Distribution samples are non-negative for all supported families.
    #[test]
    fn distributions_nonnegative(seed in any::<u64>(), mean in 0.001f64..1000.0) {
        let mut rng = SimRng::seed_from_u64(seed);
        let d = Dist::exp_mean(mean);
        for _ in 0..50 {
            prop_assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    /// Welford mean equals the naive mean to floating tolerance.
    #[test]
    fn welford_matches_naive(xs in prop::collection::vec(-1e6f64..1e6, 1..500)) {
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        let naive = xs.iter().sum::<f64>() / xs.len() as f64;
        prop_assert!((s.mean() - naive).abs() < 1e-6 * (1.0 + naive.abs()));
    }

    /// Merging partitions is equivalent to a single pass.
    #[test]
    fn welford_merge_associative(
        xs in prop::collection::vec(-1e3f64..1e3, 2..200),
        split in 1usize..100,
    ) {
        let k = split.min(xs.len() - 1);
        let mut whole = OnlineStats::new();
        for &x in &xs { whole.push(x); }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..k] { a.push(x); }
        for &x in &xs[k..] { b.push(x); }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-7);
        prop_assert!((a.variance() - whole.variance()).abs() < 1e-5);
    }

    /// Quantiles are monotone in q and bounded by min/max. (Ported from
    /// `f64` samples to the microsecond durations the collector takes.)
    #[test]
    fn quantiles_monotone(xs in prop::collection::vec(0u64..2_000_000, 1..300)) {
        let mut q = Quantiles::new();
        for &x in &xs { q.push(SimDuration::from_micros(x)); }
        let lo = q.quantile(0.0);
        let med = q.quantile(0.5);
        let hi = q.quantile(1.0);
        prop_assert!(lo <= med && med <= hi);
        let min = xs.iter().min().map(|&x| SimDuration::from_micros(x));
        let max = xs.iter().max().map(|&x| SimDuration::from_micros(x));
        prop_assert_eq!(lo, min.unwrap().as_secs_f64());
        prop_assert_eq!(hi, max.unwrap().as_secs_f64());
    }

    /// The counting collector answers every quantile bit-identically to
    /// sorting the samples (as seconds) and interpolating between the two
    /// order statistics around rank `q · (n − 1)`. A few distinct values
    /// drawn on both sides of the dense/tail cutoff (2^16 µs) are
    /// repeated many times, so runs of equal values straddle the ranks.
    #[test]
    fn quantiles_match_sort_and_interpolate(
        pool in prop::collection::vec((0u8..3, 0u64..3_000_000), 1..12),
        picks in prop::collection::vec(0usize..12, 1..400),
        qs in prop::collection::vec(0.0f64..=1.0, 0..8),
    ) {
        // Each pool value lies just below 64 µs, within six of the
        // cutoff on either side, or anywhere up to three seconds.
        let pool: Vec<u64> = pool
            .iter()
            .map(|&(side, x)| match side {
                0 => x % 64,
                1 => 65_530 + x % 12,
                _ => x,
            })
            .collect();
        let xs: Vec<u64> = picks.iter().map(|&i| pool[i % pool.len()]).collect();
        let mut q = Quantiles::new();
        for &x in &xs { q.push(SimDuration::from_micros(x)); }
        let mut sorted: Vec<f64> =
            xs.iter().map(|&x| SimDuration::from_micros(x).as_secs_f64()).collect();
        sorted.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        let reference = |q: f64| {
            let pos = q * (sorted.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            if lo == hi {
                sorted[lo]
            } else {
                let frac = pos - lo as f64;
                sorted[lo] * (1.0 - frac) + sorted[hi] * frac
            }
        };
        prop_assert_eq!(q.count(), xs.len() as u64);
        for p in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0].into_iter().chain(qs) {
            prop_assert_eq!(q.quantile(p).to_bits(), reference(p).to_bits(), "q = {}", p);
        }
    }

    /// The histogram a collector derives equals one fed every
    /// observation by `record`: the same count, sum, min, max and
    /// occupied buckets. Values repeat, sit on both sides of the 2^16 µs
    /// dense cutoff, and reach far into the tail.
    #[test]
    fn quantiles_histogram_matches_recording_each_observation(
        pool in prop::collection::vec((0u8..4, 0u64..3_000_000), 1..12),
        picks in prop::collection::vec(0usize..12, 0..400),
    ) {
        // Each pool value lies just below 64 µs, within six of the
        // cutoff on either side, anywhere up to three seconds, or up to
        // three thousand seconds.
        let pool: Vec<u64> = pool
            .iter()
            .map(|&(side, x)| match side {
                0 => x % 64,
                1 => 65_530 + x % 12,
                2 => x,
                _ => x * 1_000,
            })
            .collect();
        let mut q = Quantiles::new();
        let mut fed = LogHistogram::new();
        for &i in &picks {
            let x = pool[i % pool.len()];
            q.push(SimDuration::from_micros(x));
            fed.record(x);
        }
        let derived = q.histogram();
        prop_assert_eq!(derived.count(), fed.count());
        prop_assert_eq!(derived.sum(), fed.sum());
        prop_assert_eq!(derived.min(), fed.min());
        prop_assert_eq!(derived.max(), fed.max());
        prop_assert_eq!(derived.nonzero_buckets(), fed.nonzero_buckets());
        prop_assert_eq!(derived, fed);
    }

    /// Stretch is always >= 1 when responses are at least demands, and the
    /// accumulator is order-insensitive.
    #[test]
    fn stretch_at_least_one(
        pairs in prop::collection::vec((1u64..1_000_000, 0u64..1_000_000), 1..200)
    ) {
        let mut s = StretchAccumulator::new();
        for &(demand, extra) in &pairs {
            s.record(
                SimDuration::from_micros(demand + extra),
                SimDuration::from_micros(demand),
            );
        }
        prop_assert!(s.stretch() >= 1.0 - 1e-9);
        prop_assert_eq!(s.count(), pairs.len() as u64);
    }

    /// Sweep seeds for distinct cell indices never collide: the parallel
    /// sweep executor relies on this to give every cell an independent
    /// stream no matter how cells are distributed over workers.
    #[test]
    fn split_seeds_never_collide(
        root in any::<u64>(),
        i in 0u64..1_000_000,
        j in 0u64..1_000_000,
    ) {
        if i != j {
            prop_assert!(
                split_seed(root, i) != split_seed(root, j),
                "split_seed({root}, {i}) == split_seed({root}, {j})"
            );
        }
        // And the mapping is reproducible.
        prop_assert_eq!(split_seed(root, i), split_seed(root, i));
    }

    /// Streams seeded from adjacent sweep indices decorrelate immediately.
    #[test]
    fn split_seed_streams_diverge(root in any::<u64>(), i in 0u64..10_000) {
        let mut a = SimRng::seed_from_u64(split_seed(root, i));
        let mut b = SimRng::seed_from_u64(split_seed(root, i + 1));
        let same = (0..64).filter(|_| a.next_f64() == b.next_f64()).count();
        prop_assert!(same <= 1, "adjacent cell streams agreed on {same}/64 draws");
    }
}
