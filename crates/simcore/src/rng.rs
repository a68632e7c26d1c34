//! Deterministic, splittable random number generation.
//!
//! Every stochastic component in the workspace draws from a [`SimRng`],
//! a locally implemented xoshiro256++ generator. Two properties matter:
//!
//! * **Determinism** — the same seed reproduces the same trace, schedule
//!   and metrics bit-for-bit, which the integration tests rely on.
//! * **Splittability** — independent components (arrival process, per-node
//!   service draws, paging behaviour) each get their own stream derived
//!   from the master seed, so adding a consumer in one component does not
//!   perturb the draws seen by another.
//!
//! The generator also implements [`rand::RngCore`] so the `rand`
//! distribution machinery can be used where convenient.

use rand::RngCore;

/// SplitMix64, used to expand seeds. This is the standard seeding
/// procedure recommended for the xoshiro family.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive the seed for the `index`-th member of a family of independent
/// streams rooted at `root`.
///
/// This is the stateless counterpart of [`SimRng::split`], used when a
/// sweep needs one seed per cell *before* any cell runs (so the mapping
/// cannot depend on execution order). For a fixed `root` the mapping is
/// injective in `index`: `index` enters through multiplication by an odd
/// constant plus an addition (both bijections on `u64`), and the
/// splitmix64 finaliser is itself a bijection, so distinct indices can
/// never produce the same seed. A property test in
/// `tests/proptests.rs` pins this down.
#[inline]
pub fn split_seed(root: u64, index: u64) -> u64 {
    let mut state = root.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    splitmix64(&mut state)
}

/// xoshiro256++ pseudo-random generator. Equality compares the full
/// generator state, so two equal generators draw identical streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // All-zero state is the one invalid state; splitmix64 cannot emit
        // four zeros in a row, but guard anyway.
        if s == [0; 4] {
            SimRng { s: [1, 2, 3, 4] }
        } else {
            SimRng { s }
        }
    }

    /// Derive an independent child stream. The child is seeded from a draw
    /// of this generator mixed with a stream label, so `split(0)` and
    /// `split(1)` differ even when called back-to-back.
    pub fn split(&mut self, label: u64) -> SimRng {
        let base = self.next_u64();
        SimRng::seed_from_u64(base ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    #[inline]
    fn next(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform double in [0, 1).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high-quality bits -> [0,1) with full double precision.
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform double in (0, 1]; useful for `ln()` draws where 0 is invalid.
    #[inline]
    pub fn next_f64_open(&mut self) -> f64 {
        1.0 - self.next_f64()
    }

    /// Uniform integer in `[0, bound)` using Lemire's unbiased method.
    #[inline]
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        // Widening-multiply rejection sampling.
        let mut x = self.next();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform usize index in `[0, bound)`.
    #[inline]
    pub fn gen_index(&mut self, bound: usize) -> usize {
        self.gen_range(bound as u64) as usize
    }

    /// Bernoulli draw with probability `p` of `true`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.next_f64() < p
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "choose on empty slice");
        &xs[self.gen_index(xs.len())]
    }
}

impl RngCore for SimRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_streams_are_independent_of_parent_consumption() {
        // The child stream state depends only on draws made before the split.
        let mut parent1 = SimRng::seed_from_u64(7);
        let mut child1 = parent1.split(0);
        let mut parent2 = SimRng::seed_from_u64(7);
        let mut child2 = parent2.split(0);
        // Consuming the parents differently must not affect the children.
        parent1.next_u64();
        for _ in 0..10 {
            parent2.next_u64();
        }
        for _ in 0..100 {
            assert_eq!(child1.next_u64(), child2.next_u64());
        }
    }

    #[test]
    fn split_labels_differ() {
        let mut parent = SimRng::seed_from_u64(7);
        let mut snapshot = parent.clone();
        let mut a = parent.split(0);
        let mut b = snapshot.split(1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same <= 1, "labelled splits produced {same}/64 collisions");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            let y = rng.next_f64_open();
            assert!(y > 0.0 && y <= 1.0);
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut rng = SimRng::seed_from_u64(4);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn gen_range_bounds_and_coverage() {
        let mut rng = SimRng::seed_from_u64(5);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = rng.gen_range(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn gen_bool_frequency() {
        let mut rng = SimRng::seed_from_u64(6);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.gen_bool(0.3)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.3).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn fill_bytes_covers_remainder() {
        let mut rng = SimRng::seed_from_u64(9);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
