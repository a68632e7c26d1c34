//! The model-to-wall clock, precise waiting and calibration for the live
//! emulation.
//!
//! The original validation ran on a six-node Sun Ultra-1 cluster where
//! CGI scripts genuinely burned CPU. Inside a container (often with a
//! single core) concurrent busy-spin loops would contend with each other
//! and corrupt every measurement, so the emulation *waits* instead of
//! burning cycles: each node worker runs its OS model in model time and
//! lets each event happen at its [`ModelClock`] wall instant — which is
//! what produces genuine queueing, blocking, and load-imbalance behaviour
//! in real time — so any number of emulated nodes coexist on any number
//! of host cores. [`wait_until`] is `sleep(d − ε)` plus a short
//! spin-trim.

use std::time::{Duration, Instant};

use msweb_simcore::{SimDuration, SimTime};

/// How much of the tail of each wait is spun rather than slept, to absorb
/// sleep overshoot. Kept short so spinning never meaningfully contends.
const SPIN_TRIM: Duration = Duration::from_micros(200);

/// Wait until `deadline` with sub-millisecond precision.
pub fn wait_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let remaining = deadline - now;
        if remaining > SPIN_TRIM {
            std::thread::sleep(remaining - SPIN_TRIM);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Wait for a duration (see [`wait_until`]).
pub fn wait_for(d: Duration) {
    wait_until(Instant::now() + d);
}

/// The map between a live run's unscaled model time and the wall clock:
/// model time `t` happens at wall instant `t0 + time_scale·t`.
#[derive(Debug, Clone, Copy)]
pub struct ModelClock {
    t0: Instant,
    time_scale: f64,
}

impl ModelClock {
    /// Model time zero at wall instant `t0`; `time_scale` wall seconds
    /// per model second (must be positive and finite).
    pub fn new(t0: Instant, time_scale: f64) -> Self {
        assert!(
            time_scale > 0.0 && time_scale.is_finite(),
            "bad time scale {time_scale}"
        );
        ModelClock { t0, time_scale }
    }

    /// The wall instant of model time zero.
    pub fn t0(&self) -> Instant {
        self.t0
    }

    /// A model duration in wall time.
    pub fn scale(&self, d: SimDuration) -> Duration {
        Duration::from_nanos((d.as_micros() as f64 * 1000.0 * self.time_scale) as u64)
    }

    /// The wall instant model time `t` maps to.
    pub fn wall(&self, t: SimTime) -> Instant {
        self.t0 + self.scale(t - SimTime::ZERO)
    }

    /// The model time at wall instant `at`, rounded down to the model's
    /// microsecond resolution (zero before `t0`).
    pub fn model(&self, at: Instant) -> SimTime {
        let wall_ns = at.saturating_duration_since(self.t0).as_nanos() as f64;
        SimTime((wall_ns / (1000.0 * self.time_scale)) as u64)
    }
}

/// Measured timing quality of the host.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Mean absolute error of a 2 ms precise wait.
    pub wait_error: Duration,
    /// Mean overshoot of a bare 1 ms `thread::sleep`.
    pub sleep_overshoot: Duration,
}

/// Measure how precisely this host can wait. Used by tests to skip
/// assertions on hopelessly noisy machines and recorded in experiment
/// reports.
pub fn calibrate() -> Calibration {
    let trials = 20;

    let mut wait_err = Duration::ZERO;
    for _ in 0..trials {
        let target = Duration::from_millis(2);
        let t0 = Instant::now();
        wait_for(target);
        let got = t0.elapsed();
        wait_err += got.abs_diff(target);
    }

    let mut overshoot = Duration::ZERO;
    for _ in 0..trials {
        let target = Duration::from_millis(1);
        let t0 = Instant::now();
        std::thread::sleep(target);
        let got = t0.elapsed();
        overshoot += got.saturating_sub(target);
    }

    Calibration {
        wait_error: wait_err / trials,
        sleep_overshoot: overshoot / trials,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_for_is_at_least_the_duration() {
        let t0 = Instant::now();
        wait_for(Duration::from_millis(5));
        assert!(t0.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn wait_until_past_deadline_returns_immediately() {
        let t0 = Instant::now();
        wait_until(t0); // already passed
        assert!(t0.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn model_clock_round_trips() {
        let t0 = Instant::now();
        let clock = ModelClock::new(t0, 0.25);
        let t = SimTime::from_millis(40);
        assert_eq!(clock.wall(t), t0 + Duration::from_millis(10));
        assert_eq!(clock.model(clock.wall(t)), t);
        assert_eq!(clock.model(t0 - Duration::from_millis(1)), SimTime::ZERO);
    }

    #[test]
    fn calibration_reports_something() {
        let c = calibrate();
        // Precise waits should beat bare sleeps on any functioning host.
        assert!(c.wait_error <= c.sleep_overshoot + Duration::from_micros(500));
    }
}
