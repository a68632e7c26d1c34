//! Periodically updated load information (the `rstat()` substitute).
//!
//! "In selecting the best node for dynamic content processing, we use
//! periodically-updated I/O and CPU load information" (§4). The monitor
//! samples every node's cumulative busy counters on a fixed period and
//! differences successive samples into windowed CPU-idle and
//! disk-available ratios. Between ticks the dispatcher sees *stale*
//! values — exactly the staleness a real rstat-based collector has, and
//! the subject of one of the ablation benches.

use std::sync::atomic::{AtomicU64, Ordering};

use msweb_ossim::LoadSnapshot;
use msweb_simcore::{SimDuration, SimTime};

/// Ratios are clamped here so the RSRC division never explodes.
pub const MIN_RATIO: f64 = 0.01;

/// Process-wide allocator for [`LoadMonitor`] instance ids. Ids only
/// need to be unique, never dense or ordered, so a relaxed counter is
/// enough.
static MONITOR_IDS: AtomicU64 = AtomicU64::new(1);

fn next_monitor_id() -> u64 {
    MONITOR_IDS.fetch_add(1, Ordering::Relaxed)
}

/// One node's view as of the last monitor tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeLoad {
    /// Fraction of CPU time idle over the last window, in [MIN_RATIO, 1].
    pub cpu_idle_ratio: f64,
    /// Fraction of disk bandwidth available over the last window.
    pub disk_avail_ratio: f64,
    /// Fraction of memory free at the tick.
    pub mem_free_ratio: f64,
    /// Live processes at the tick.
    pub processes: usize,
}

impl Default for NodeLoad {
    fn default() -> Self {
        NodeLoad {
            cpu_idle_ratio: 1.0,
            disk_avail_ratio: 1.0,
            mem_free_ratio: 1.0,
            processes: 0,
        }
    }
}

/// The cluster-wide load monitor.
///
/// Besides the windowed ratios themselves, the monitor publishes a
/// *change log* consumers can use to mirror its state incrementally
/// (the decision index in [`crate::sched::index`] does):
///
/// * [`LoadMonitor::epoch`] — bumped whenever the whole view is
///   replaced (a tick). A consumer seeing a new epoch must rebuild.
/// * [`LoadMonitor::charges`] — node indices debited by
///   [`LoadMonitor::charge`] since the last tick, in order. A consumer
///   that already saw a prefix of the log only re-reads the suffix.
/// * [`LoadMonitor::id`] — process-unique instance id, so a consumer
///   handed a *different* monitor (or a clone) at the same epoch does
///   not mistake it for the one it indexed.
#[derive(Debug)]
pub struct LoadMonitor {
    period: SimDuration,
    last_tick: SimTime,
    /// Width of the window the current ratios were measured over.
    /// Equals `period` when ticks arrive on schedule; differs when a
    /// tick is late or early (live emulation).
    last_window: SimDuration,
    /// Bumped on every view replacement (tick, or charge-log overflow).
    epoch: u64,
    /// Process-unique instance id; fresh for every `new` and `clone`.
    id: u64,
    /// Nodes charged since the last tick, in charge order.
    charge_log: Vec<u32>,
    prev: Vec<LoadSnapshot>,
    current: Vec<NodeLoad>,
}

impl Clone for LoadMonitor {
    fn clone(&self) -> Self {
        LoadMonitor {
            period: self.period,
            last_tick: self.last_tick,
            last_window: self.last_window,
            epoch: self.epoch,
            // A clone diverges from the original the moment either is
            // mutated, so it must not share the original's identity —
            // consumers keyed on (id, epoch) would read stale state.
            id: next_monitor_id(),
            charge_log: self.charge_log.clone(),
            prev: self.prev.clone(),
            current: self.current.clone(),
        }
    }
}

impl LoadMonitor {
    /// Create for `p` nodes with the given sampling period. Initial view:
    /// everything idle.
    pub fn new(p: usize, period: SimDuration, t0: SimTime) -> Self {
        assert!(!period.is_zero(), "monitor period must be positive");
        LoadMonitor {
            period,
            last_tick: t0,
            last_window: period,
            epoch: 0,
            id: next_monitor_id(),
            charge_log: Vec::new(),
            prev: vec![
                LoadSnapshot {
                    at: t0,
                    cpu_busy: SimDuration::ZERO,
                    disk_busy: SimDuration::ZERO,
                    mem_free_ratio: 1.0,
                    ready_len: 0,
                    disk_queue_len: 0,
                    processes: 0,
                };
                p
            ],
            current: vec![NodeLoad::default(); p],
        }
    }

    /// When the next tick is due.
    pub fn next_tick(&self) -> SimTime {
        self.last_tick + self.period
    }

    /// The sampling period.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// Ingest fresh snapshots at tick time `now` (one per node, in node
    /// order) and recompute the windowed ratios.
    ///
    /// A tick with a zero-width window (duplicate or out-of-order
    /// timestamp, which live emulation can produce) is a no-op: there is
    /// no interval to difference over, and overwriting `prev` would
    /// silently drop the busy time accrued since the last real tick from
    /// the next window's difference.
    pub fn tick(&mut self, now: SimTime, snapshots: &[LoadSnapshot]) {
        assert_eq!(snapshots.len(), self.prev.len(), "node count changed");
        let window = now.since(self.last_tick);
        if window.is_zero() {
            return;
        }
        let window_s = window.as_secs_f64();
        // The view is rewritten in place: one per node, every tick.
        for ((load, snap), prev) in self.current.iter_mut().zip(snapshots).zip(&self.prev) {
            let cpu_busy = snap.cpu_busy.saturating_sub(prev.cpu_busy).as_secs_f64() / window_s;
            let disk_busy = snap.disk_busy.saturating_sub(prev.disk_busy).as_secs_f64() / window_s;
            *load = NodeLoad {
                cpu_idle_ratio: (1.0 - cpu_busy).clamp(MIN_RATIO, 1.0),
                disk_avail_ratio: (1.0 - disk_busy).clamp(MIN_RATIO, 1.0),
                mem_free_ratio: snap.mem_free_ratio,
                processes: snap.processes,
            };
        }
        self.prev.copy_from_slice(snapshots);
        self.last_tick = now;
        self.last_window = window;
        self.epoch += 1;
        self.charge_log.clear();
    }

    /// Charge an expected placement against the stale view of node `i`.
    ///
    /// Pure periodic sampling causes a *herd effect*: every dynamic
    /// request in a window lands on whichever node looked idlest at the
    /// last tick, saturating it. The paper's load managers live on the
    /// masters and know what they dispatched, so the dispatcher debits
    /// each placement's expected CPU/disk demand (class means from
    /// off-line sampling) from its local copy until the next tick
    /// refreshes the truth.
    ///
    /// The debit is taken against the *actual* width of the window the
    /// current ratios were measured over (see [`LoadMonitor::tick`]),
    /// not the nominal period: when a tick arrives late the ratios
    /// describe a wider interval, and dividing by the nominal period
    /// would overstate every placement's share of it (and conversely
    /// for an early tick).
    pub fn charge(&mut self, i: usize, cpu: SimDuration, disk: SimDuration) {
        let window = self.last_window.as_secs_f64();
        let n = &mut self.current[i];
        n.cpu_idle_ratio = (n.cpu_idle_ratio - cpu.as_secs_f64() / window).clamp(MIN_RATIO, 1.0);
        n.disk_avail_ratio =
            (n.disk_avail_ratio - disk.as_secs_f64() / window).clamp(MIN_RATIO, 1.0);
        if self.charge_log.len() >= self.charge_log_cap() {
            // Unbounded monitor windows (a driver that stops ticking)
            // must not grow the log forever. Fold the log into a fresh
            // epoch instead: incremental consumers rebuild once.
            self.charge_log.clear();
            self.epoch += 1;
        }
        self.charge_log.push(i as u32);
    }

    fn charge_log_cap(&self) -> usize {
        (8 * self.current.len()).max(64)
    }

    /// The (stale) view of node `i`.
    pub fn node(&self, i: usize) -> &NodeLoad {
        &self.current[i]
    }

    /// All node views.
    pub fn all(&self) -> &[NodeLoad] {
        &self.current
    }

    /// Process-unique instance id (fresh for every `new` and `clone`).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// View-replacement counter; see the type-level docs.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Nodes debited by [`LoadMonitor::charge`] since the last tick, in
    /// charge order. Valid only for the current [`LoadMonitor::epoch`].
    pub fn charges(&self) -> &[u32] {
        &self.charge_log
    }

    /// Width of the window the current ratios were measured over.
    pub fn last_window(&self) -> SimDuration {
        self.last_window
    }

    /// Mean utilisation across the cluster for the current window:
    /// per-node CPU busy fraction plus disk busy fraction, averaged over
    /// nodes. This is the ρ estimate both substrates feed the
    /// reservation controller on every monitor tick.
    pub fn mean_utilisation(&self) -> f64 {
        let busy: f64 = self
            .current
            .iter()
            .map(|l| (1.0 - l.cpu_idle_ratio) + (1.0 - l.disk_avail_ratio))
            .sum();
        busy / self.current.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(at: SimTime, cpu_ms: u64, disk_ms: u64) -> LoadSnapshot {
        LoadSnapshot {
            at,
            cpu_busy: SimDuration::from_millis(cpu_ms),
            disk_busy: SimDuration::from_millis(disk_ms),
            mem_free_ratio: 0.8,
            ready_len: 1,
            disk_queue_len: 0,
            processes: 1,
        }
    }

    #[test]
    fn initial_view_is_idle() {
        let m = LoadMonitor::new(3, SimDuration::from_millis(500), SimTime::ZERO);
        for i in 0..3 {
            assert_eq!(m.node(i).cpu_idle_ratio, 1.0);
            assert_eq!(m.node(i).disk_avail_ratio, 1.0);
        }
        assert_eq!(m.next_tick(), SimTime::from_millis(500));
    }

    #[test]
    fn windowed_ratios() {
        let mut m = LoadMonitor::new(1, SimDuration::from_millis(500), SimTime::ZERO);
        // 200ms CPU busy and 100ms disk busy over a 500ms window.
        m.tick(
            SimTime::from_millis(500),
            &[snap(SimTime::from_millis(500), 200, 100)],
        );
        let n = m.node(0);
        assert!((n.cpu_idle_ratio - 0.6).abs() < 1e-9);
        assert!((n.disk_avail_ratio - 0.8).abs() < 1e-9);
        assert_eq!(n.processes, 1);

        // Second window: another 50ms CPU (cumulative 250), disk idle.
        m.tick(
            SimTime::from_secs(1),
            &[snap(SimTime::from_secs(1), 250, 100)],
        );
        let n = m.node(0);
        assert!((n.cpu_idle_ratio - 0.9).abs() < 1e-9);
        assert!((n.disk_avail_ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fully_busy_clamps_at_min_ratio() {
        let mut m = LoadMonitor::new(1, SimDuration::from_millis(100), SimTime::ZERO);
        m.tick(
            SimTime::from_millis(100),
            &[snap(SimTime::from_millis(100), 100, 100)],
        );
        assert_eq!(m.node(0).cpu_idle_ratio, MIN_RATIO);
        assert_eq!(m.node(0).disk_avail_ratio, MIN_RATIO);
    }

    #[test]
    fn next_tick_advances() {
        let mut m = LoadMonitor::new(1, SimDuration::from_millis(100), SimTime::ZERO);
        m.tick(
            SimTime::from_millis(100),
            &[snap(SimTime::from_millis(100), 0, 0)],
        );
        assert_eq!(m.next_tick(), SimTime::from_millis(200));
    }

    #[test]
    #[should_panic(expected = "node count changed")]
    fn node_count_mismatch_panics() {
        let mut m = LoadMonitor::new(2, SimDuration::from_millis(100), SimTime::ZERO);
        m.tick(
            SimTime::from_millis(100),
            &[snap(SimTime::from_millis(100), 0, 0)],
        );
    }

    #[test]
    fn zero_width_tick_does_not_drop_accrued_busy_time() {
        let mut m = LoadMonitor::new(1, SimDuration::from_millis(500), SimTime::ZERO);
        m.tick(
            SimTime::from_millis(500),
            &[snap(SimTime::from_millis(500), 100, 0)],
        );
        let view = *m.node(0);

        // Duplicate timestamp with counters that have since advanced.
        // Before the fix this overwrote `prev` with cpu_busy=150ms, so
        // 50ms of accrued busy time vanished from the next difference.
        m.tick(
            SimTime::from_millis(500),
            &[snap(SimTime::from_millis(500), 150, 0)],
        );
        assert_eq!(*m.node(0), view, "zero-width tick must not change the view");
        assert_eq!(m.next_tick(), SimTime::from_millis(1000));

        // Next real tick: 350 − 100 = 250ms busy over 500ms → idle 0.5.
        // The buggy version differenced against 150 → idle 0.6.
        m.tick(
            SimTime::from_millis(1000),
            &[snap(SimTime::from_millis(1000), 350, 0)],
        );
        assert!((m.node(0).cpu_idle_ratio - 0.5).abs() < 1e-9);
    }

    #[test]
    fn late_tick_charge_debits_against_actual_window() {
        let mut m = LoadMonitor::new(1, SimDuration::from_millis(500), SimTime::ZERO);
        // Tick arrives 250ms late: the ratios describe a 750ms window.
        m.tick(
            SimTime::from_millis(750),
            &[snap(SimTime::from_millis(750), 0, 0)],
        );
        assert_eq!(m.last_window(), SimDuration::from_millis(750));
        // A 75ms CPU debit is 10% of the actual window, not 15% of the
        // nominal period.
        m.charge(0, SimDuration::from_millis(75), SimDuration::ZERO);
        assert!((m.node(0).cpu_idle_ratio - 0.9).abs() < 1e-9);
    }

    #[test]
    fn change_log_tracks_ticks_charges_and_identity() {
        let mut m = LoadMonitor::new(2, SimDuration::from_millis(500), SimTime::ZERO);
        let e0 = m.epoch();
        m.charge(1, SimDuration::from_millis(5), SimDuration::ZERO);
        m.charge(0, SimDuration::from_millis(5), SimDuration::ZERO);
        assert_eq!(m.charges(), &[1, 0]);
        assert_eq!(m.epoch(), e0);

        // A tick replaces the view: new epoch, empty log.
        m.tick(
            SimTime::from_millis(500),
            &[
                snap(SimTime::from_millis(500), 0, 0),
                snap(SimTime::from_millis(500), 0, 0),
            ],
        );
        assert_eq!(m.epoch(), e0 + 1);
        assert!(m.charges().is_empty());

        // Log overflow folds into a fresh epoch rather than growing
        // without bound (cap for 2 nodes is the 64-entry floor).
        for _ in 0..=64 {
            m.charge(0, SimDuration::from_micros(1), SimDuration::ZERO);
        }
        assert_eq!(m.epoch(), e0 + 2);
        assert_eq!(m.charges(), &[0]);

        // Clones get their own identity.
        assert_ne!(m.clone().id(), m.id());
    }

    #[test]
    fn mean_utilisation_averages_busy_fractions() {
        let mut m = LoadMonitor::new(2, SimDuration::from_millis(500), SimTime::ZERO);
        assert!((m.mean_utilisation() - 0.0).abs() < 1e-12);
        m.tick(
            SimTime::from_millis(500),
            &[
                snap(SimTime::from_millis(500), 250, 0), // busy 0.5 + 0.0
                snap(SimTime::from_millis(500), 0, 250), // busy 0.0 + 0.5
            ],
        );
        assert!((m.mean_utilisation() - 0.5).abs() < 1e-9);
    }
}
