//! Random distributions used by the workload and OS models.
//!
//! The set mirrors what the paper's simulator needs: exponential
//! inter-arrival and service draws (the queueing-theory regime of Section
//! 3), bounded-Pareto file/service sizes (the heavy-tailed regime observed
//! in real Web traces), log-normal bodies, and empirical distributions
//! resampled from measured histograms.

use crate::rng::SimRng;

/// A sampleable distribution over non-negative doubles.
pub trait Distribution {
    /// Draw one value.
    fn sample(&self, rng: &mut SimRng) -> f64;

    /// The analytic mean of the distribution, used for calibration checks.
    fn mean(&self) -> f64;
}

/// Degenerate distribution: always `value`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constant(pub f64);

impl Distribution for Constant {
    #[inline]
    fn sample(&self, _rng: &mut SimRng) -> f64 {
        self.0
    }
    fn mean(&self) -> f64 {
        self.0
    }
}

/// Continuous uniform on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Construct; requires `lo <= hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "uniform bounds inverted: [{lo}, {hi})");
        Uniform { lo, hi }
    }
}

impl Distribution for Uniform {
    #[inline]
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.lo + (self.hi - self.lo) * rng.next_f64()
    }
    fn mean(&self) -> f64 {
        (self.lo + self.hi) / 2.0
    }
}

/// Exponential distribution with the given rate (mean = 1/rate).
///
/// This is the distribution assumed by the Section 3 queueing analysis for
/// both arrival intervals and service demands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// From a rate (events per unit time). Must be positive and finite.
    pub fn from_rate(rate: f64) -> Self {
        assert!(
            rate > 0.0 && rate.is_finite(),
            "bad exponential rate {rate}"
        );
        Exponential { rate }
    }

    /// From a mean. Must be positive and finite.
    pub fn from_mean(mean: f64) -> Self {
        assert!(
            mean > 0.0 && mean.is_finite(),
            "bad exponential mean {mean}"
        );
        Exponential { rate: 1.0 / mean }
    }
}

impl Distribution for Exponential {
    #[inline]
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Inverse CDF on an open (0,1] draw so ln() never sees zero.
        -rng.next_f64_open().ln() / self.rate
    }
    fn mean(&self) -> f64 {
        1.0 / self.rate
    }
}

/// Bounded Pareto on `[lo, hi]` with shape `alpha`.
///
/// Web object sizes are famously heavy-tailed; the bounded Pareto is the
/// standard model (cf. the task-assignment literature the paper cites for
/// size-based scheduling). Bounding keeps sample moments finite so the
/// simulated load matches the configured utilisation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    lo: f64,
    hi: f64,
    alpha: f64,
}

impl BoundedPareto {
    /// Construct; requires `0 < lo < hi` and `alpha > 0`.
    pub fn new(lo: f64, hi: f64, alpha: f64) -> Self {
        assert!(lo > 0.0 && hi > lo, "bad pareto bounds [{lo}, {hi}]");
        assert!(alpha > 0.0, "bad pareto shape {alpha}");
        BoundedPareto { lo, hi, alpha }
    }
}

impl Distribution for BoundedPareto {
    #[inline]
    fn sample(&self, rng: &mut SimRng) -> f64 {
        let u = rng.next_f64();
        let la = self.lo.powf(self.alpha);
        let ha = self.hi.powf(self.alpha);
        // Inverse CDF of the bounded Pareto.
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / self.alpha)
    }

    fn mean(&self) -> f64 {
        let a = self.alpha;
        let (l, h) = (self.lo, self.hi);
        if (a - 1.0).abs() < 1e-12 {
            // alpha = 1 limit: mean = ln(h/l) * l*h/(h-l)
            (h.ln() - l.ln()) * l * h / (h - l)
        } else {
            (l.powf(a) / (1.0 - (l / h).powf(a)))
                * (a / (a - 1.0))
                * (1.0 / l.powf(a - 1.0) - 1.0 / h.powf(a - 1.0))
        }
    }
}

/// Exponential shifted by a constant floor: `floor + Exp(mean - floor)`.
///
/// Service-time model for real requests: every request pays a fixed
/// minimum cost (parsing, syscalls, connection handling) before the
/// variable part. Crucially this bounds the demand away from zero, which
/// keeps the *stretch* metric (response/demand) integrable — a pure
/// exponential puts mass at demands near zero where any fixed queueing
/// delay produces unbounded stretch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShiftedExponential {
    floor: f64,
    exp: Exponential,
}

impl ShiftedExponential {
    /// Total mean `mean`, of which `floor_frac` (in (0,1)) is the
    /// deterministic floor.
    pub fn from_mean(mean: f64, floor_frac: f64) -> Self {
        assert!(mean > 0.0 && mean.is_finite(), "bad mean {mean}");
        assert!(
            (0.0..1.0).contains(&floor_frac),
            "bad floor fraction {floor_frac}"
        );
        ShiftedExponential {
            floor: mean * floor_frac,
            exp: Exponential::from_mean(mean * (1.0 - floor_frac)),
        }
    }

    /// The deterministic floor.
    pub fn floor(&self) -> f64 {
        self.floor
    }
}

impl Distribution for ShiftedExponential {
    #[inline]
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.floor + self.exp.sample(rng)
    }
    fn mean(&self) -> f64 {
        self.floor + self.exp.mean()
    }
}

/// Log-normal distribution parameterised by the mean and sigma of the
/// underlying normal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// From the parameters of the underlying normal.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "negative sigma {sigma}");
        LogNormal { mu, sigma }
    }

    /// Fit so the log-normal itself has the given mean and coefficient of
    /// variation (std/mean). A zero mean gives the limit as the mean
    /// falls to zero: every sample is 0.
    pub fn from_mean_cv(mean: f64, cv: f64) -> Self {
        assert!(mean >= 0.0 && cv >= 0.0, "mean {mean}, cv {cv}");
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        LogNormal {
            mu,
            sigma: sigma2.sqrt(),
        }
    }

    #[inline]
    fn standard_normal(rng: &mut SimRng) -> f64 {
        // Box–Muller; one draw discarded for simplicity.
        let u1 = rng.next_f64_open();
        let u2 = rng.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

impl Distribution for LogNormal {
    #[inline]
    fn sample(&self, rng: &mut SimRng) -> f64 {
        (self.mu + self.sigma * Self::standard_normal(rng)).exp()
    }
    fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }
}

/// An empirical distribution that resamples uniformly from observed values,
/// optionally weighted.
#[derive(Debug, Clone)]
pub struct Empirical {
    values: Vec<f64>,
    cumulative: Vec<f64>,
    mean: f64,
}

impl Empirical {
    /// From raw observations (equal weight).
    pub fn from_values(values: Vec<f64>) -> Self {
        assert!(!values.is_empty(), "empirical distribution needs data");
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let cumulative = (1..=values.len()).map(|i| i as f64 / n).collect();
        Empirical {
            values,
            cumulative,
            mean,
        }
    }

    /// From `(value, weight)` pairs; weights need not be normalised.
    pub fn from_weighted(pairs: &[(f64, f64)]) -> Self {
        assert!(!pairs.is_empty(), "empirical distribution needs data");
        let total: f64 = pairs.iter().map(|&(_, w)| w).sum();
        assert!(total > 0.0, "weights sum to zero");
        let mut acc = 0.0;
        let mut values = Vec::with_capacity(pairs.len());
        let mut cumulative = Vec::with_capacity(pairs.len());
        let mut mean = 0.0;
        for &(v, w) in pairs {
            assert!(w >= 0.0, "negative weight");
            acc += w / total;
            values.push(v);
            cumulative.push(acc);
            mean += v * w / total;
        }
        // Guard against float drift so the last bucket always catches.
        *cumulative.last_mut().expect("non-empty") = 1.0;
        Empirical {
            values,
            cumulative,
            mean,
        }
    }
}

impl Distribution for Empirical {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        let u = rng.next_f64();
        let idx = self
            .cumulative
            .partition_point(|&c| c <= u)
            .min(self.values.len() - 1);
        self.values[idx]
    }
    fn mean(&self) -> f64 {
        self.mean
    }
}

/// Type-erased distribution handle for configuration structs.
#[derive(Debug, Clone)]
pub enum Dist {
    /// Always the same value.
    Constant(Constant),
    /// Uniform over an interval.
    Uniform(Uniform),
    /// Exponential (memoryless).
    Exponential(Exponential),
    /// Heavy-tailed bounded Pareto.
    BoundedPareto(BoundedPareto),
    /// Floor + exponential.
    ShiftedExponential(ShiftedExponential),
    /// Log-normal.
    LogNormal(LogNormal),
    /// Resampled empirical data.
    Empirical(Empirical),
}

impl Distribution for Dist {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        match self {
            Dist::Constant(d) => d.sample(rng),
            Dist::Uniform(d) => d.sample(rng),
            Dist::Exponential(d) => d.sample(rng),
            Dist::BoundedPareto(d) => d.sample(rng),
            Dist::ShiftedExponential(d) => d.sample(rng),
            Dist::LogNormal(d) => d.sample(rng),
            Dist::Empirical(d) => d.sample(rng),
        }
    }
    fn mean(&self) -> f64 {
        match self {
            Dist::Constant(d) => d.mean(),
            Dist::Uniform(d) => d.mean(),
            Dist::Exponential(d) => d.mean(),
            Dist::BoundedPareto(d) => d.mean(),
            Dist::ShiftedExponential(d) => d.mean(),
            Dist::LogNormal(d) => d.mean(),
            Dist::Empirical(d) => d.mean(),
        }
    }
}

impl Dist {
    /// Shorthand for an exponential with the given mean.
    pub fn exp_mean(mean: f64) -> Dist {
        Dist::Exponential(Exponential::from_mean(mean))
    }

    /// Shorthand for a constant.
    pub fn constant(v: f64) -> Dist {
        Dist::Constant(Constant(v))
    }

    /// Shorthand for a floored exponential with the given total mean.
    pub fn shifted_exp(mean: f64, floor_frac: f64) -> Dist {
        Dist::ShiftedExponential(ShiftedExponential::from_mean(mean, floor_frac))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mean<D: Distribution>(d: &D, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_is_constant() {
        let d = Constant(3.5);
        let mut rng = SimRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 3.5);
        }
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Exponential::from_mean(0.25);
        let m = sample_mean(&d, 200_000, 1);
        assert!((m - 0.25).abs() / 0.25 < 0.02, "mean {m}");
        assert_eq!(Exponential::from_rate(4.0).mean(), 0.25);
    }

    #[test]
    fn exponential_is_positive() {
        let d = Exponential::from_rate(1000.0);
        let mut rng = SimRng::seed_from_u64(2);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn uniform_bounds() {
        let d = Uniform::new(2.0, 5.0);
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((2.0..5.0).contains(&x));
        }
        let m = sample_mean(&d, 100_000, 4);
        assert!((m - 3.5).abs() < 0.02);
    }

    #[test]
    fn bounded_pareto_support_and_mean() {
        let d = BoundedPareto::new(1.0, 1000.0, 1.2);
        let mut rng = SimRng::seed_from_u64(5);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((1.0..=1000.0).contains(&x), "out of support: {x}");
        }
        let analytic = d.mean();
        let empirical = sample_mean(&d, 500_000, 6);
        assert!(
            (empirical - analytic).abs() / analytic < 0.05,
            "analytic {analytic} vs empirical {empirical}"
        );
    }

    #[test]
    fn bounded_pareto_alpha_one() {
        let d = BoundedPareto::new(1.0, 100.0, 1.0);
        let analytic = d.mean();
        let empirical = sample_mean(&d, 500_000, 7);
        assert!(
            (empirical - analytic).abs() / analytic < 0.05,
            "analytic {analytic} vs empirical {empirical}"
        );
    }

    #[test]
    fn shifted_exponential_floor_and_mean() {
        let d = ShiftedExponential::from_mean(10.0, 0.3);
        assert!((d.mean() - 10.0).abs() < 1e-12);
        assert!((d.floor() - 3.0).abs() < 1e-12);
        let mut rng = SimRng::seed_from_u64(21);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 3.0);
        }
        let m = sample_mean(&d, 200_000, 22);
        assert!((m - 10.0).abs() / 10.0 < 0.02, "mean {m}");
    }

    #[test]
    fn lognormal_fit_mean_cv() {
        let d = LogNormal::from_mean_cv(10.0, 2.0);
        assert!((d.mean() - 10.0).abs() < 1e-9);
        let empirical = sample_mean(&d, 500_000, 8);
        assert!((empirical - 10.0).abs() / 10.0 < 0.05, "mean {empirical}");
    }

    #[test]
    fn lognormal_zero_mean_samples_zero() {
        let d = LogNormal::from_mean_cv(0.0, 1.5);
        assert_eq!(d.mean(), 0.0);
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..1_000 {
            assert_eq!(d.sample(&mut rng), 0.0);
        }
    }

    #[test]
    fn empirical_resamples_support() {
        let d = Empirical::from_values(vec![1.0, 2.0, 4.0]);
        let mut rng = SimRng::seed_from_u64(9);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            let x = d.sample(&mut rng);
            if x == 1.0 {
                counts[0] += 1;
            } else if x == 2.0 {
                counts[1] += 1;
            } else if x == 4.0 {
                counts[2] += 1;
            } else {
                panic!("unexpected sample {x}");
            }
        }
        for c in counts {
            assert!((c as f64 / 30_000.0 - 1.0 / 3.0).abs() < 0.02);
        }
        assert!((d.mean() - 7.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empirical_weighted() {
        let d = Empirical::from_weighted(&[(1.0, 9.0), (100.0, 1.0)]);
        assert!((d.mean() - 10.9).abs() < 1e-9);
        let mut rng = SimRng::seed_from_u64(10);
        let big = (0..100_000).filter(|_| d.sample(&mut rng) == 100.0).count();
        let freq = big as f64 / 100_000.0;
        assert!((freq - 0.1).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn dist_enum_dispatch() {
        let d = Dist::exp_mean(2.0);
        assert!((d.mean() - 2.0).abs() < 1e-12);
        let c = Dist::constant(5.0);
        assert_eq!(c.mean(), 5.0);
    }
}
