//! Round-robin disk scheduler.
//!
//! "The I/O queue also maintains a set of I/O processes and is scheduled
//! using round-robin." (§5.1). Service is round-robin at page granularity:
//! the disk serves one page (a fixed [`OsParams::page_io`] interval) for
//! the process at the head of the ring, then rotates it to the tail if it
//! still has pages outstanding in its current burst.
//!
//! [`OsParams::page_io`]: crate::config::OsParams::page_io

use std::collections::VecDeque;

use msweb_simcore::{SimDuration, SimTime};

use crate::process::Pid;

/// The per-node disk: a ring of processes with outstanding page I/O.
#[derive(Debug, Clone)]
pub struct Disk {
    /// Time to serve one page.
    page_io: SimDuration,
    /// Processes waiting for disk service: (pid, pages left in burst).
    ring: VecDeque<(Pid, u32)>,
    /// The operation in flight: (pid, completion time). The pid is *not*
    /// in `ring` while being served.
    current: Option<(Pid, SimTime)>,
    /// Cumulative busy time, for DiskAvailRatio sampling.
    busy_accum: SimDuration,
}

/// What happened when a page completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskEvent {
    /// A page finished but the process still has pages left in this burst.
    PageDone(Pid),
    /// The process's current I/O burst is fully served.
    BurstDone(Pid),
}

impl Disk {
    /// A new idle disk.
    pub fn new(page_io: SimDuration) -> Self {
        assert!(!page_io.is_zero(), "page I/O time must be positive");
        Disk {
            page_io,
            ring: VecDeque::new(),
            current: None,
            busy_accum: SimDuration::ZERO,
        }
    }

    /// Adopt an empty pooled ring as the queue's storage (the node turned
    /// busy).
    pub(crate) fn install_ring(&mut self, ring: VecDeque<(Pid, u32)>) {
        debug_assert!(ring.is_empty(), "pooled disk ring not empty");
        self.ring = ring;
    }

    /// Give the empty ring's storage back (the node went idle), keeping
    /// none. A wasted page of an aborted burst may still be in flight;
    /// it is not in the ring.
    pub(crate) fn take_ring(&mut self) -> VecDeque<(Pid, u32)> {
        debug_assert!(self.ring.is_empty(), "idle node with queued disk I/O");
        std::mem::take(&mut self.ring)
    }

    /// Capacity of the ring's storage.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Submit an I/O burst of `pages` pages for `pid`, starting service
    /// immediately if the disk is idle.
    pub fn submit(&mut self, pid: Pid, pages: u32, now: SimTime) {
        debug_assert!(pages > 0, "zero-page burst");
        self.ring.push_back((pid, pages));
        self.maybe_start(now);
    }

    /// Completion time of the operation in flight, if any.
    #[inline]
    pub fn next_event(&self) -> Option<SimTime> {
        self.current.map(|(_, t)| t)
    }

    /// Handle the completion due at `now`. Panics if called when nothing
    /// completes at `now` (driver bug).
    pub fn complete(&mut self, now: SimTime) -> DiskEvent {
        let (pid, end) = self
            .current
            .take()
            .expect("disk completion with no op in flight");
        debug_assert_eq!(end, now, "disk completion at wrong time");
        self.busy_accum += self.page_io;

        // The served process is the ring head (service never rotates until
        // its page completes, so late arrivals queue *behind* it and get
        // their turn next).
        let head = self
            .ring
            .front_mut()
            .expect("served process missing from ring");
        debug_assert_eq!(head.0, pid, "ring head changed during service");
        head.1 -= 1;
        let event = if head.1 == 0 {
            self.ring.pop_front();
            DiskEvent::BurstDone(pid)
        } else {
            // Round-robin at page granularity: rotate to the back.
            let entry = self.ring.pop_front().expect("head vanished");
            self.ring.push_back(entry);
            DiskEvent::PageDone(pid)
        };
        self.maybe_start(now);
        event
    }

    /// Start serving the head of the ring if idle.
    fn maybe_start(&mut self, now: SimTime) {
        if self.current.is_some() {
            return;
        }
        if let Some(&(pid, _)) = self.ring.front() {
            self.current = Some((pid, now + self.page_io));
        }
    }

    /// Abort all queued and in-flight I/O for `pid` (failure injection).
    /// Returns true if anything was removed. An in-flight page completes
    /// wasted (the disk stays busy until its scheduled end) — matching a
    /// real controller that cannot recall a command — but the burst is
    /// forgotten.
    pub fn abort(&mut self, pid: Pid) -> bool {
        let before = self.ring.len();
        self.ring.retain(|(p, _)| *p != pid);
        let mut removed = before != self.ring.len();
        if let Some((cur, end)) = self.current {
            if cur == pid {
                // Let the disk finish the page but deliver it to nobody.
                self.current = Some((Pid(u64::MAX), end));
                removed = true;
            }
        }
        removed
    }

    /// Number of processes with outstanding I/O (including the one being
    /// served).
    pub fn queue_len(&self) -> usize {
        self.ring.len()
    }

    /// Total pages outstanding.
    pub fn pending_pages(&self) -> u32 {
        self.ring.iter().map(|&(_, c)| c).sum()
    }

    /// True when neither serving nor queueing anything.
    pub fn is_idle(&self) -> bool {
        self.current.is_none() && self.ring.is_empty()
    }

    /// Cumulative busy time (completed operations only).
    pub fn busy_accum(&self) -> SimDuration {
        self.busy_accum
    }

    /// Handle a completion for an aborted op: the sentinel pid. Returns
    /// `None` for sentinel completions, `Some(event)` otherwise.
    pub fn complete_or_discard(&mut self, now: SimTime) -> Option<DiskEvent> {
        if let Some((pid, _)) = self.current {
            if pid == Pid(u64::MAX) {
                self.current = None;
                self.busy_accum += self.page_io;
                self.maybe_start(now);
                return None;
            }
        }
        Some(self.complete(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    #[test]
    fn single_burst_serves_page_by_page() {
        let mut d = Disk::new(ms(2));
        d.submit(Pid(1), 3, SimTime::ZERO);
        assert_eq!(d.next_event(), Some(SimTime::from_millis(2)));
        assert_eq!(
            d.complete(SimTime::from_millis(2)),
            DiskEvent::PageDone(Pid(1))
        );
        assert_eq!(
            d.complete(SimTime::from_millis(4)),
            DiskEvent::PageDone(Pid(1))
        );
        assert_eq!(
            d.complete(SimTime::from_millis(6)),
            DiskEvent::BurstDone(Pid(1))
        );
        assert!(d.is_idle());
        assert_eq!(d.busy_accum(), ms(6));
    }

    #[test]
    fn round_robin_interleaves_processes() {
        let mut d = Disk::new(ms(2));
        d.submit(Pid(1), 2, SimTime::ZERO);
        d.submit(Pid(2), 2, SimTime::ZERO);
        // Service order should alternate: 1, 2, 1, 2.
        let mut order = vec![];
        let mut t = SimTime::ZERO;
        while let Some(next) = d.next_event() {
            t = next;
            match d.complete(t) {
                DiskEvent::PageDone(p) | DiskEvent::BurstDone(p) => order.push(p.0),
            }
        }
        assert_eq!(order, vec![1, 2, 1, 2]);
        assert_eq!(t, SimTime::from_millis(8));
    }

    #[test]
    fn late_arrival_joins_rotation() {
        let mut d = Disk::new(ms(2));
        d.submit(Pid(1), 3, SimTime::ZERO);
        d.complete(SimTime::from_millis(2)); // page 1 of pid 1
        d.submit(Pid(2), 1, SimTime::from_millis(2));
        let mut order = vec![];
        while let Some(next) = d.next_event() {
            match d.complete(next) {
                DiskEvent::PageDone(p) | DiskEvent::BurstDone(p) => order.push(p.0),
            }
        }
        // pid 2 arrived while pid 1's second page was in flight; round
        // robin gives pid 2 the next page, then pid 1 finishes.
        assert_eq!(order, vec![1, 2, 1]);
    }

    #[test]
    fn queue_accounting() {
        let mut d = Disk::new(ms(2));
        d.submit(Pid(1), 5, SimTime::ZERO);
        d.submit(Pid(2), 3, SimTime::ZERO);
        assert_eq!(d.queue_len(), 2);
        assert_eq!(d.pending_pages(), 8);
        assert!(!d.is_idle());
    }

    #[test]
    fn abort_removes_queued_work() {
        let mut d = Disk::new(ms(2));
        d.submit(Pid(1), 5, SimTime::ZERO);
        d.submit(Pid(2), 3, SimTime::ZERO);
        assert!(d.abort(Pid(2)));
        assert!(!d.abort(Pid(2)));
        // Only pid 1 events remain.
        let mut count = 0;
        while let Some(next) = d.next_event() {
            if let Some(DiskEvent::PageDone(p) | DiskEvent::BurstDone(p)) =
                d.complete_or_discard(next)
            {
                assert_eq!(p, Pid(1));
                count += 1;
            }
        }
        assert_eq!(count, 5);
    }

    #[test]
    fn abort_in_flight_discards_completion() {
        let mut d = Disk::new(ms(2));
        d.submit(Pid(1), 1, SimTime::ZERO);
        assert!(d.abort(Pid(1)));
        // The page still completes (disk busy) but yields no event.
        let t = d.next_event().unwrap();
        assert_eq!(d.complete_or_discard(t), None);
        assert!(d.is_idle());
    }
}
