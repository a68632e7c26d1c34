//! Run metrics: the stretch factor (the paper's primary metric) broken
//! out per class and placement level, plus response-time distributions,
//! and the per-monitor-window fold every window signal derives from.

use msweb_simcore::{Quantiles, SimDuration, StretchAccumulator};
use serde::Serialize;

use crate::telemetry::slo::WindowSignals;

/// Where a completed dynamic request ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// On a master node.
    Master,
    /// On a slave node.
    Slave,
}

/// Accumulates per-run performance numbers.
#[derive(Debug, Default)]
pub struct Metrics {
    overall: StretchAccumulator,
    stat: StretchAccumulator,
    dynamic: StretchAccumulator,
    dynamic_master: StretchAccumulator,
    dynamic_slave: StretchAccumulator,
    resp_static: Quantiles,
    resp_dynamic: Quantiles,
    dropped: u64,
    restarted: u64,
    dyn_on_master: u64,
    cache_hits: u64,
    node_busy: Vec<f64>,
}

/// A finished run's summary (serialisable for the experiment reports).
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct RunSummary {
    /// Completed request count.
    pub completed: u64,
    /// Mean stretch factor over all requests (the paper's metric).
    pub stretch: f64,
    /// Stretch of static requests only.
    pub stretch_static: f64,
    /// Stretch of dynamic requests only.
    pub stretch_dynamic: f64,
    /// Stretch of dynamic requests that ran on masters.
    pub stretch_dynamic_master: f64,
    /// Stretch of dynamic requests that ran on slaves.
    pub stretch_dynamic_slave: f64,
    /// Median static response time, seconds.
    pub median_static_response_s: f64,
    /// Median dynamic response time, seconds.
    pub median_dynamic_response_s: f64,
    /// 99th-percentile static response time, seconds.
    pub p99_static_response_s: f64,
    /// Requests lost to failures (never completed).
    pub dropped: u64,
    /// Requests restarted after a node failure.
    pub restarted: u64,
    /// Completed static requests.
    pub completed_static: u64,
    /// Completed dynamic requests.
    pub completed_dynamic: u64,
    /// Dynamic completions that ran on a master.
    pub dynamic_on_master: u64,
    /// Dynamic requests served from the content cache (Swala extension).
    pub cache_hits: u64,
    /// Coefficient of variation of per-node busy time (0 = perfectly
    /// balanced). Note that master/slave designs are *intentionally*
    /// imbalanced across levels; compare like with like.
    pub node_busy_cv: f64,
    /// Peak-to-mean ratio of per-node busy time.
    pub node_busy_peak_to_mean: f64,
}

impl Metrics {
    /// Fresh, empty metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Record one completed request.
    ///
    /// `response` is arrival-at-cluster to completion; `demand` the
    /// contention-free service demand; `level` is `Some` for dynamic
    /// requests (where they ran) and `None` for static ones.
    pub fn record(&mut self, response: SimDuration, demand: SimDuration, level: Option<Level>) {
        self.overall.record(response, demand);
        match level {
            None => {
                self.stat.record(response, demand);
                self.resp_static.push(response);
            }
            Some(l) => {
                self.dynamic.record(response, demand);
                self.resp_dynamic.push(response);
                match l {
                    Level::Master => {
                        self.dyn_on_master += 1;
                        self.dynamic_master.record(response, demand);
                    }
                    Level::Slave => self.dynamic_slave.record(response, demand),
                }
            }
        }
    }

    /// Note a request lost to a failure.
    pub fn note_dropped(&mut self) {
        self.dropped += 1;
    }

    /// Note a request restarted after a failure.
    pub fn note_restarted(&mut self) {
        self.restarted += 1;
    }

    /// Note a dynamic request served from the content cache.
    pub fn note_cache_hit(&mut self) {
        self.cache_hits += 1;
    }

    /// Response times of the completed static (`dynamic = false`) or
    /// dynamic requests.
    pub(crate) fn responses(&self, dynamic: bool) -> &Quantiles {
        if dynamic {
            &self.resp_dynamic
        } else {
            &self.resp_static
        }
    }

    /// Record the end-of-run per-node busy times (CPU + disk seconds),
    /// for the load-imbalance diagnostics.
    pub fn set_node_busy(&mut self, busy: Vec<f64>) {
        self.node_busy = busy;
    }

    /// Finalise into a serialisable summary.
    pub fn summary(&self) -> RunSummary {
        RunSummary {
            completed: self.overall.count(),
            stretch: self.overall.stretch(),
            stretch_static: self.stat.stretch(),
            stretch_dynamic: self.dynamic.stretch(),
            stretch_dynamic_master: self.dynamic_master.stretch(),
            stretch_dynamic_slave: self.dynamic_slave.stretch(),
            median_static_response_s: self.resp_static.median(),
            median_dynamic_response_s: self.resp_dynamic.median(),
            p99_static_response_s: self.resp_static.quantile(0.99),
            dropped: self.dropped,
            restarted: self.restarted,
            completed_static: self.stat.count(),
            completed_dynamic: self.dynamic.count(),
            dynamic_on_master: self.dyn_on_master,
            cache_hits: self.cache_hits,
            node_busy_cv: cv(&self.node_busy),
            node_busy_peak_to_mean: peak_to_mean(&self.node_busy),
        }
    }
}

/// The per-monitor-window fold. A driver feeds it each completion and
/// drop as it happens and closes it at every monitor tick; the log
/// walker (`sched::replay::LogReplay`, which `slo-check` reads through)
/// feeds it the same events read back from a decision log. Both
/// therefore derive the window signals (the series' window stretch and
/// drops, the SLO engine's inputs) with this one piece of code.
#[derive(Debug, Default)]
pub(crate) struct WindowFold {
    window: StretchAccumulator,
    drops: u64,
    prev_clamps: u64,
    stretch_series: Vec<f64>,
}

impl WindowFold {
    /// A fold at the start of a run.
    pub fn new() -> Self {
        WindowFold::default()
    }

    /// Record one completion: `response` from arrival to completion,
    /// `demand` the contention-free service demand.
    #[inline]
    pub fn record(&mut self, response: SimDuration, demand: SimDuration) {
        self.window.record(response, demand);
    }

    /// Record one request lost to a failure or a dead cluster.
    pub fn note_drop(&mut self) {
        self.drops += 1;
    }

    /// Close the window ending at `at_us`, given the reservation
    /// controller's cumulative clamp count, and start the next one.
    ///
    /// A window that completed nothing has no stretch: an empty
    /// accumulator's mean is `0/0 = NaN`, and one NaN would poison every
    /// later consumer of [`WindowFold::stretch_series`] (head/tail
    /// convergence averages, the experiment CSVs, telemetry JSON, where
    /// NaN is not even representable). Such windows are skipped, not
    /// carried forward, so the series records *measured* windows only;
    /// the signals' `None` carries the same skip to the series recorder
    /// and the SLO engine.
    pub fn close(&mut self, at_us: u64, clamp_events: u64) -> WindowSignals {
        let completed = self.window.count();
        let stretch = (completed > 0).then(|| self.window.stretch());
        if let Some(s) = stretch {
            self.stretch_series.push(s);
        }
        let signals = WindowSignals {
            at_us,
            stretch,
            completed,
            drops: self.drops,
            clamped: clamp_events > self.prev_clamps,
        };
        self.window = StretchAccumulator::new();
        self.drops = 0;
        self.prev_clamps = clamp_events;
        signals
    }

    /// Mean stretch of every measured window closed so far.
    pub fn stretch_series(&self) -> &[f64] {
        &self.stretch_series
    }
}

/// Coefficient of variation (std/mean); 0 for empty or zero-mean data.
pub(crate) fn cv(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    if mean <= 0.0 {
        return 0.0;
    }
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
    var.sqrt() / mean
}

/// Peak-to-mean ratio; 1 for empty or zero-mean data.
fn peak_to_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    if mean <= 0.0 {
        return 1.0;
    }
    xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max) / mean
}

impl RunSummary {
    /// The paper's improvement metric:
    /// `(other.stretch / self.stretch − 1) × 100 %` — how much better
    /// `self` is than `other`.
    ///
    /// Returns 0.0 when either stretch is non-positive or non-finite
    /// (e.g. a baseline run that completed nothing): a ratio against a
    /// zero or NaN baseline is meaningless, and 0 % ("no measured
    /// improvement") is the answer that keeps downstream tables sane.
    pub fn improvement_over_pct(&self, other: &RunSummary) -> f64 {
        let measurable = |s: f64| s.is_finite() && s > 0.0;
        if !measurable(self.stretch) || !measurable(other.stretch) {
            return 0.0;
        }
        (other.stretch / self.stretch - 1.0) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    #[test]
    fn empty_windows_never_reach_the_series() {
        let mut f = WindowFold::new();
        // Zero-request windows before, between and after real ones must
        // be skipped, never pushed as 0/0 = NaN entries.
        assert_eq!(f.close(1, 0).stretch, None);
        f.record(ms(20), ms(10));
        assert_eq!(f.close(2, 0).stretch, Some(2.0));
        f.close(3, 0);
        f.close(4, 0);
        f.record(ms(30), ms(10));
        f.close(5, 0);
        assert_eq!(f.stretch_series(), [2.0, 3.0]);
    }

    #[test]
    fn improvement_over_degenerate_baseline_is_zero() {
        let mut a = Metrics::new();
        a.record(ms(20), ms(10), None);
        let good = a.summary();
        assert!(good.improvement_over_pct(&good).abs() < 1e-12);
        // A run that completed nothing has stretch 0; both directions
        // of the comparison must degrade to "no measured improvement".
        let empty = Metrics::new().summary();
        assert_eq!(good.improvement_over_pct(&empty), 0.0);
        assert_eq!(empty.improvement_over_pct(&good), 0.0);
        let mut broken = good.clone();
        broken.stretch = f64::NAN;
        assert_eq!(good.improvement_over_pct(&broken), 0.0);
        assert_eq!(broken.improvement_over_pct(&good), 0.0);
    }

    #[test]
    fn class_breakout() {
        let mut m = Metrics::new();
        m.record(ms(20), ms(10), None); // static, stretch 2
        m.record(ms(40), ms(10), Some(Level::Master)); // dyn master, 4
        m.record(ms(60), ms(10), Some(Level::Slave)); // dyn slave, 6
        let s = m.summary();
        assert_eq!(s.completed, 3);
        assert!((s.stretch - 4.0).abs() < 1e-9);
        assert!((s.stretch_static - 2.0).abs() < 1e-9);
        assert!((s.stretch_dynamic - 5.0).abs() < 1e-9);
        assert!((s.stretch_dynamic_master - 4.0).abs() < 1e-9);
        assert!((s.stretch_dynamic_slave - 6.0).abs() < 1e-9);
        assert!((s.median_static_response_s - 0.020).abs() < 1e-9);
    }

    #[test]
    fn improvement_metric() {
        let mut a = Metrics::new();
        a.record(ms(10), ms(10), None);
        let mut b = Metrics::new();
        b.record(ms(15), ms(10), None);
        let sa = a.summary();
        let sb = b.summary();
        assert!((sa.improvement_over_pct(&sb) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn drop_and_restart_counters() {
        let mut m = Metrics::new();
        m.note_dropped();
        m.note_dropped();
        m.note_restarted();
        let s = m.summary();
        assert_eq!(s.dropped, 2);
        assert_eq!(s.restarted, 1);
    }

    #[test]
    fn empty_summary_is_zeroes() {
        let s = Metrics::new().summary();
        assert_eq!(s.completed, 0);
        assert_eq!(s.stretch, 0.0);
        assert_eq!(s.node_busy_cv, 0.0);
        assert_eq!(s.node_busy_peak_to_mean, 1.0);
    }

    #[test]
    fn imbalance_diagnostics() {
        let mut m = Metrics::new();
        m.set_node_busy(vec![1.0, 1.0, 1.0, 1.0]);
        let s = m.summary();
        assert!(s.node_busy_cv.abs() < 1e-12, "balanced load has CV 0");
        assert!((s.node_busy_peak_to_mean - 1.0).abs() < 1e-12);

        let mut m = Metrics::new();
        m.set_node_busy(vec![3.0, 1.0, 0.0, 0.0]);
        let s = m.summary();
        assert!(
            s.node_busy_cv > 1.0,
            "skewed load has high CV: {}",
            s.node_busy_cv
        );
        assert!((s.node_busy_peak_to_mean - 3.0).abs() < 1e-12);
    }
}
