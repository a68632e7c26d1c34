//! Simulated processes: demand specifications and burst scripts.
//!
//! The paper's simulator models "each request job ... as a sequence of CPU
//! bursts and I/O bursts, submitted to the CPU queue and I/O queue". A
//! [`DemandSpec`] describes a request's contention-free resource needs
//! (total service demand, CPU/I-O split `w`, memory footprint); it is
//! compiled into a [`BurstScript`] — the alternating CPU/I-O sequence the
//! node executes, generated lazily from a few counters so a process
//! carries no heap allocation.

use msweb_simcore::{SimDuration, SimTime};

use crate::config::OsParams;

/// Process identifier, unique within one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u64);

/// What a request needs from the OS, measured on an unloaded node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemandSpec {
    /// Total contention-free service demand (CPU + I/O time).
    pub service: SimDuration,
    /// Fraction of the demand that is CPU work (`w` in the paper's
    /// Equation 5); the rest is disk I/O.
    pub cpu_fraction: f64,
    /// Working-set size in pages. Memory pressure converts deficit pages
    /// into extra paging I/O.
    pub memory_pages: u32,
    /// Whether this is a CGI/dynamic request: charges `fork()` overhead
    /// and is eligible for remote placement.
    pub is_cgi: bool,
}

impl DemandSpec {
    /// A static file-fetch request: `service` split per `cpu_fraction`,
    /// footprint just the file pages, no fork.
    pub fn static_fetch(service: SimDuration, cpu_fraction: f64, file_pages: u32) -> Self {
        DemandSpec {
            service,
            cpu_fraction,
            memory_pages: file_pages,
            is_cgi: false,
        }
    }

    /// A CGI/dynamic request.
    pub fn cgi(service: SimDuration, cpu_fraction: f64, memory_pages: u32) -> Self {
        DemandSpec {
            service,
            cpu_fraction,
            memory_pages,
            is_cgi: true,
        }
    }

    /// CPU portion of the demand (excluding fork overhead).
    pub fn cpu_time(&self) -> SimDuration {
        self.service.mul_f64(self.cpu_fraction.clamp(0.0, 1.0))
    }

    /// I/O portion of the demand.
    pub fn io_time(&self) -> SimDuration {
        self.service.saturating_sub(self.cpu_time())
    }
}

/// One step of a process's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Burst {
    /// Compute for this long.
    Cpu(SimDuration),
    /// Read/write this many pages from disk.
    Io {
        /// Number of 8 KB pages to transfer.
        pages: u32,
    },
}

/// The alternating burst sequence for one process, generated on demand.
///
/// Layout: an optional fork CPU burst (CGI only), then the I/O pages
/// split into groups of at most one quantum's worth, each group preceded
/// by an equal share of the CPU time (the last group takes whatever the
/// integer division left over) — the paper's "sequence of CPU bursts and
/// I/O bursts". Zero-length CPU shares are skipped. A script with no I/O
/// is a single CPU burst.
#[derive(Debug, Clone, Copy, Default)]
pub struct BurstScript {
    /// Fork charge not yet issued (zero once issued, or for non-CGI).
    fork: SimDuration,
    /// CPU share of every I/O group but the last.
    cpu_slice: SimDuration,
    /// CPU time not yet issued.
    cpu_left: SimDuration,
    /// I/O pages not yet issued.
    pages_left: u32,
    /// Largest I/O group, in pages.
    group_pages: u32,
    /// True when the current group's CPU share has been issued (or
    /// skipped) and its I/O comes next.
    io_next: bool,
}

impl BurstScript {
    /// Compile a demand spec into a script.
    ///
    /// `extra_fault_pages` (from memory pressure) are appended to the I/O
    /// page budget before it is split into groups.
    pub fn compile(spec: &DemandSpec, params: &OsParams, extra_fault_pages: u32) -> Self {
        let fork = if spec.is_cgi {
            params.fork_overhead
        } else {
            SimDuration::ZERO
        };
        // Whole pages of I/O; the sub-page remainder is folded back into
        // CPU time so the total executed demand equals the specification
        // exactly (otherwise small requests would under-execute and the
        // measured stretch could dip below 1).
        let io_time = spec.io_time();
        let whole_pages = (io_time.as_micros() / params.page_io.as_micros()) as u32;
        let remainder = io_time.saturating_sub(params.page_io.mul(whole_pages as u64));
        let cpu_total = spec.cpu_time() + remainder;
        let io_pages = whole_pages + extra_fault_pages;
        // Groups no larger than one quantum's worth of pages, so CPU and
        // I/O genuinely interleave; CPU first in each group (a request
        // must parse before it can read).
        let group_pages = (params.quantum.as_micros() / params.page_io.as_micros()).max(1) as u32;
        let groups = io_pages.div_ceil(group_pages).max(1);
        BurstScript {
            fork,
            cpu_slice: SimDuration::from_micros(cpu_total.as_micros() / groups as u64),
            cpu_left: cpu_total,
            pages_left: io_pages,
            group_pages,
            io_next: false,
        }
    }

    /// Next burst, removing it from the script.
    pub fn pop(&mut self) -> Option<Burst> {
        if !self.fork.is_zero() {
            return Some(Burst::Cpu(std::mem::take(&mut self.fork)));
        }
        if self.pages_left == 0 {
            // No I/O (left): at most the one CPU burst remains.
            return (!self.cpu_left.is_zero())
                .then(|| Burst::Cpu(std::mem::take(&mut self.cpu_left)));
        }
        if !self.io_next {
            self.io_next = true;
            // The last group (its pages fit in one group) takes all the
            // CPU that is left.
            let cpu = if self.pages_left <= self.group_pages {
                self.cpu_left
            } else {
                self.cpu_slice
            };
            if !cpu.is_zero() {
                self.cpu_left -= cpu;
                return Some(Burst::Cpu(cpu));
            }
        }
        self.io_next = false;
        let pages = self.pages_left.min(self.group_pages);
        self.pages_left -= pages;
        Some(Burst::Io { pages })
    }

    /// Total CPU time across remaining bursts.
    pub fn total_cpu(&self) -> SimDuration {
        self.fork + self.cpu_left
    }

    /// Total I/O pages across remaining bursts.
    pub fn total_io_pages(&self) -> u32 {
        self.pages_left
    }
}

/// Scheduling state of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// Waiting in a CPU ready queue.
    Ready,
    /// Currently holding the CPU.
    Running,
    /// Waiting for or performing disk I/O.
    BlockedIo,
    /// Finished all bursts.
    Done,
}

/// A live process on a simulated node.
#[derive(Debug, Clone)]
pub struct Process {
    /// Node-local identifier.
    pub pid: Pid,
    /// Remaining execution script.
    pub script: BurstScript,
    /// Remaining time in the current CPU burst (valid in Ready/Running
    /// when the current step is CPU work).
    pub cpu_remaining: SimDuration,
    /// Remaining pages in the current I/O burst (valid in BlockedIo).
    pub io_pages_remaining: u32,
    /// Scheduling state.
    pub state: ProcState,
    /// 4.3BSD-style CPU usage estimate, in quantum units; decayed
    /// periodically, drives the priority level.
    pub estcpu: f64,
    /// Pages of physical memory held.
    pub resident_pages: u32,
    /// When the process was submitted to the node.
    pub arrived: SimTime,
    /// Opaque tag the cluster layer uses to map completions back to
    /// requests.
    pub tag: u64,
}

impl Process {
    /// Create a process from a compiled script, loading the first burst.
    pub fn new(pid: Pid, mut script: BurstScript, arrived: SimTime, tag: u64) -> Self {
        let (cpu_remaining, io_pages_remaining, state) = match script.pop() {
            Some(Burst::Cpu(d)) => (d, 0, ProcState::Ready),
            Some(Burst::Io { pages }) => (SimDuration::ZERO, pages, ProcState::BlockedIo),
            None => (SimDuration::ZERO, 0, ProcState::Done),
        };
        Process {
            pid,
            script,
            cpu_remaining,
            io_pages_remaining,
            state,
            estcpu: 0.0,
            resident_pages: 0,
            arrived,
            tag,
        }
    }

    /// Advance to the next burst after finishing the current one.
    /// Returns the new state.
    pub fn advance_burst(&mut self) -> ProcState {
        debug_assert!(self.cpu_remaining.is_zero() && self.io_pages_remaining == 0);
        match self.script.pop() {
            Some(Burst::Cpu(d)) => {
                self.cpu_remaining = d;
                self.state = ProcState::Ready;
            }
            Some(Burst::Io { pages }) => {
                self.io_pages_remaining = pages;
                self.state = ProcState::BlockedIo;
            }
            None => {
                self.state = ProcState::Done;
            }
        }
        self.state
    }

    /// Priority level for the MLFQ given the configured level count:
    /// higher `estcpu` ⇒ numerically larger level ⇒ lower priority.
    /// This is the shape of 4.3BSD's `p_usrpri = PUSER + p_estcpu/4 + ...`
    /// folded onto `levels` run queues.
    pub fn priority_level(&self, levels: u8) -> u8 {
        let lvl = (self.estcpu / 2.0).floor();
        (lvl as u8).min(levels - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> OsParams {
        OsParams::default()
    }

    #[test]
    fn demand_split() {
        let d = DemandSpec::cgi(SimDuration::from_millis(100), 0.9, 10);
        assert_eq!(d.cpu_time(), SimDuration::from_millis(90));
        assert_eq!(d.io_time(), SimDuration::from_millis(10));
    }

    #[test]
    fn pure_cpu_script() {
        let d = DemandSpec::static_fetch(SimDuration::from_millis(10), 1.0, 1);
        let mut s = BurstScript::compile(&d, &params(), 0);
        assert_eq!(s.total_cpu(), SimDuration::from_millis(10));
        assert_eq!(s.total_io_pages(), 0);
        assert_eq!(s.pop(), Some(Burst::Cpu(SimDuration::from_millis(10))));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn pure_io_script() {
        let d = DemandSpec::static_fetch(SimDuration::from_millis(10), 0.0, 5);
        let s = BurstScript::compile(&d, &params(), 0);
        assert_eq!(s.total_cpu(), SimDuration::ZERO);
        // 10ms of I/O at 2ms/page = 5 pages.
        assert_eq!(s.total_io_pages(), 5);
    }

    #[test]
    fn compile_conserves_total_demand() {
        // Sub-page I/O remainders must reappear as CPU time.
        for (ms_total, w) in [(1u64, 0.5), (7, 0.3), (33, 0.8), (100, 0.05)] {
            let d = DemandSpec::static_fetch(SimDuration::from_millis(ms_total), w, 1);
            let s = BurstScript::compile(&d, &params(), 0);
            let executed =
                s.total_cpu() + SimDuration::from_millis(2).mul(s.total_io_pages() as u64);
            let total = SimDuration::from_millis(ms_total);
            let drift = executed.as_micros().abs_diff(total.as_micros());
            assert!(drift <= 2, "demand {total} executed {executed}");
        }
    }

    #[test]
    fn script_conserves_demand() {
        let d = DemandSpec::static_fetch(SimDuration::from_millis(40), 0.5, 4);
        let s = BurstScript::compile(&d, &params(), 0);
        assert_eq!(s.total_cpu(), SimDuration::from_millis(20));
        // 20ms I/O = 10 pages.
        assert_eq!(s.total_io_pages(), 10);
    }

    #[test]
    fn cgi_charges_fork() {
        let d = DemandSpec::cgi(SimDuration::from_millis(40), 0.5, 4);
        let s = BurstScript::compile(&d, &params(), 0);
        // fork (3ms) + cpu 20ms split across groups.
        assert_eq!(
            s.total_cpu(),
            SimDuration::from_millis(23),
            "fork overhead must be added"
        );
        assert_eq!(s.total_io_pages(), 10);
    }

    #[test]
    fn fault_pages_appended() {
        let d = DemandSpec::static_fetch(SimDuration::from_millis(10), 1.0, 1);
        let s = BurstScript::compile(&d, &params(), 7);
        assert_eq!(s.total_io_pages(), 7);
        assert_eq!(s.total_cpu(), SimDuration::from_millis(10));
    }

    #[test]
    fn bursts_alternate() {
        let d = DemandSpec::cgi(SimDuration::from_millis(200), 0.5, 10);
        let mut s = BurstScript::compile(&d, &params(), 0);
        // No two consecutive bursts of the same kind after the fork burst
        // (the compiler may emit fork-CPU then group-CPU back to back only
        // if the group CPU slice is zero, which it is not here).
        let mut kinds = vec![];
        while let Some(b) = s.pop() {
            kinds.push(matches!(b, Burst::Cpu(_)));
        }
        // At least one I/O in between.
        assert!(kinds.iter().any(|&k| !k));
        // Ends with I/O (CPU first within each group).
        assert!(!kinds.last().unwrap());
    }

    #[test]
    fn io_groups_bounded_by_quantum_worth() {
        let d = DemandSpec::static_fetch(SimDuration::from_millis(100), 0.0, 1);
        let mut s = BurstScript::compile(&d, &params(), 0);
        // quantum 10ms / page 2ms = max 5 pages per group.
        while let Some(b) = s.pop() {
            if let Burst::Io { pages } = b {
                assert!(pages <= 5, "group of {pages} pages too large");
            }
        }
    }

    #[test]
    fn process_initial_state_from_script() {
        let d = DemandSpec::cgi(SimDuration::from_millis(10), 1.0, 1);
        let s = BurstScript::compile(&d, &params(), 0);
        let p = Process::new(Pid(1), s, SimTime::ZERO, 7);
        assert_eq!(p.state, ProcState::Ready);
        assert_eq!(p.cpu_remaining, SimDuration::from_millis(3)); // fork burst
        assert_eq!(p.tag, 7);
    }

    #[test]
    fn process_empty_script_is_done() {
        let p = Process::new(Pid(1), BurstScript::default(), SimTime::ZERO, 0);
        assert_eq!(p.state, ProcState::Done);
    }

    #[test]
    fn advance_burst_walks_script() {
        let d = DemandSpec::static_fetch(SimDuration::from_millis(4), 0.5, 1);
        let s = BurstScript::compile(&d, &params(), 0);
        let mut p = Process::new(Pid(1), s, SimTime::ZERO, 0);
        assert_eq!(p.state, ProcState::Ready);
        p.cpu_remaining = SimDuration::ZERO;
        assert_eq!(p.advance_burst(), ProcState::BlockedIo);
        assert_eq!(p.io_pages_remaining, 1);
        p.io_pages_remaining = 0;
        assert_eq!(p.advance_burst(), ProcState::Done);
    }

    #[test]
    fn priority_level_monotone_in_estcpu() {
        let d = DemandSpec::static_fetch(SimDuration::from_millis(1), 1.0, 1);
        let s = BurstScript::compile(&d, &params(), 0);
        let mut p = Process::new(Pid(1), s, SimTime::ZERO, 0);
        let mut last = 0;
        for e in 0..200 {
            p.estcpu = e as f64;
            let lvl = p.priority_level(32);
            assert!(lvl >= last);
            assert!(lvl <= 31);
            last = lvl;
        }
        assert_eq!(last, 31, "estcpu saturation should reach the bottom queue");
    }
}
