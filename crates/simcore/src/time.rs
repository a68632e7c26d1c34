//! Simulation time.
//!
//! All simulation clocks in this workspace use an integer microsecond
//! resolution. Integer time makes event ordering exact and reproducible:
//! there is no floating-point drift when many small service quanta are
//! accumulated, which matters because the OS model charges overheads as
//! small as a 50 µs context switch against a clock that may advance for
//! hours of simulated traffic.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// `x.round() as u64`, bit for bit, without a libm call on the values a
/// simulation converts. Baseline x86-64 has no SSE4.1 `roundsd`, so
/// `f64::round` compiles to a function call on every conversion. On
/// `0 ≤ x < 9·10¹⁸` the truncation `t` fits an `i64` and `x − t` is
/// computed exactly (Sterbenz: `t ≤ x < 2t` once `t ≥ 1`), so comparing
/// the fraction with one half rounds halves away from zero as `round`
/// does. Negative, NaN, infinite and larger inputs keep `round`.
#[inline]
fn round_u64(x: f64) -> u64 {
    if (0.0..9.0e18).contains(&x) {
        let t = x as i64;
        (t + i64::from(x - t as f64 >= 0.5)) as u64
    } else {
        x.round() as u64
    }
}

/// A point in simulated time, measured in microseconds from simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

/// A span of simulated time, measured in microseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest microsecond.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "SimTime cannot be negative: {s}");
        SimTime(round_u64(s * 1e6))
    }

    /// This instant expressed in microseconds.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This instant expressed in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration since an earlier instant. Saturates at zero rather than
    /// panicking, because callers routinely compute `now - arrival` with
    /// values recorded through different code paths.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration.
    #[inline]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest microsecond.
    /// Sub-microsecond positive durations round up to one microsecond so that
    /// non-zero work always advances the clock.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "SimDuration cannot be negative: {s}");
        let us = s * 1e6;
        if us > 0.0 && us < 1.0 {
            SimDuration(1)
        } else {
            SimDuration(round_u64(us))
        }
    }

    /// This duration in microseconds.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This duration in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This duration in fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// True if this duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The smaller of two durations.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// The larger of two durations.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Multiply by an integer scale.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }

    /// Scale by a non-negative float, rounding to the nearest microsecond.
    #[inline]
    pub fn mul_f64(self, k: f64) -> SimDuration {
        debug_assert!(k >= 0.0);
        SimDuration(round_u64(self.0 as f64 * k))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_units_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2_000));
        assert_eq!(SimTime::from_millis(3), SimTime::from_micros(3_000));
        assert_eq!(SimDuration::from_secs(1).as_micros(), 1_000_000);
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimTime::from_secs_f64(0.0000015).as_micros(), 2);
        assert_eq!(SimDuration::from_secs_f64(0.001).as_micros(), 1000);
    }

    #[test]
    fn tiny_positive_duration_rounds_up_to_one_microsecond() {
        assert_eq!(SimDuration::from_secs_f64(1e-9).as_micros(), 1);
        assert_eq!(SimDuration::from_secs_f64(0.0).as_micros(), 0);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(1) + SimDuration::from_millis(500);
        assert_eq!(t.as_micros(), 1_500_000);
        assert_eq!((t - SimTime::from_secs(1)).as_micros(), 500_000);
        // Saturating: earlier.since(later) is zero, not a panic.
        assert_eq!(SimTime::from_secs(1).since(t), SimDuration::ZERO);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d.mul(3).as_micros(), 30_000);
        assert_eq!(d.mul_f64(0.5).as_micros(), 5_000);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_micros(7)), "7us");
        assert_eq!(format!("{}", SimDuration::from_millis(7)), "7.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(7)), "7.000s");
    }

    /// The float expression [`round_u64`] replaces.
    fn float_round(x: f64) -> u64 {
        x.round() as u64
    }

    #[test]
    fn integer_round_matches_float_round_at_the_edges() {
        let two52 = 4_503_599_627_370_496.0_f64;
        let edges = [
            0.0,
            -0.0,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            999_999.5,
            two52 - 0.5,
            two52 + 0.5,
            two52 + 1.0,
            2.0 * two52,
            2.0 * two52 + 2.0,
            8.999_999_999_999_999e18,
            9.0e18,
            2f64.powi(63),
            2f64.powi(64),
            1e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.4,
            -0.5,
            -1.5,
            -2.5,
            -1e18,
            f64::MIN,
        ];
        for x in edges {
            for y in [x, x.next_down(), x.next_up()] {
                assert_eq!(
                    round_u64(y),
                    float_round(y),
                    "x = {y:e} ({:#x})",
                    y.to_bits()
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(20_000))]

        /// Every bit pattern: NaNs, infinities, negatives, subnormals
        /// and huge values (mostly outside the integer path).
        #[test]
        fn integer_round_matches_float_round_on_any_bits(bits in proptest::any::<u64>()) {
            let x = f64::from_bits(bits);
            proptest::prop_assert_eq!(round_u64(x), float_round(x), "bits {:#x}", bits);
        }

        /// Nonnegative values whose exponent puts them in or just past
        /// the integer path, `[0, 2⁶³)`, with any mantissa.
        #[test]
        fn integer_round_matches_float_round_in_range(
            exp in 0u64..1023 + 64,
            mantissa in proptest::any::<u64>(),
        ) {
            let x = f64::from_bits((exp << 52) | (mantissa & ((1 << 52) - 1)));
            proptest::prop_assert_eq!(round_u64(x), float_round(x), "x = {:e}", x);
        }
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimDuration::from_millis(1) < SimDuration::from_millis(2));
        assert_eq!(
            SimDuration::from_millis(1).max(SimDuration::from_millis(2)),
            SimDuration::from_millis(2)
        );
    }
}
