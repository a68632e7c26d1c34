//! A simulated server node: CPU (MLFQ), disk (round-robin), memory
//! (demand paging) coordinated into one discrete-event state machine.
//!
//! The node exposes the interface the cluster driver needs:
//!
//! * [`Node::submit`] — admit a request's process at the current time;
//! * [`Node::next_event`] — when the node next changes state on its own,
//!   an inlined integer min the driver reads once per `advance`;
//! * [`Node::advance`] — process exactly one internal event (CPU slice
//!   end, disk page completion, or priority-decay tick);
//! * [`NodeScratch::drain_completed`] — collect finished requests;
//! * [`Node::load`] — the rstat-style counters the scheduler samples.
//!
//! The driver interleaves node events with request arrivals in global
//! timestamp order; the node only requires that the times it sees never
//! decrease.
//!
//! A cluster runs thousands of nodes, and at any moment most of them are
//! idle: in the UCB workload at p = 10⁴ a request finds 0.06 live
//! processes on its node on average. So a node owns heap memory only
//! while it is busy. Its processes live in one pid-ordered `Vec`
//! (binary-searched), each carrying its memory grant and a lazily
//! generated burst script; the ready queue is one short level-ordered
//! list and the disk one ring. When the last process leaves, the node
//! hands those three emptied buffers to the caller's [`NodeScratch`],
//! and the next node to receive work takes back the most recently freed
//! set. A fleet therefore holds as many buffer sets as it ever had busy
//! nodes at once, and a request lands in memory an earlier request has
//! just warmed. Every node mutation takes the scratch, which also
//! collects the completions.

use std::collections::VecDeque;
use std::sync::Arc;

use msweb_simcore::{SimDuration, SimTime};

use crate::config::OsParams;
use crate::disk::{Disk, DiskEvent};
use crate::memory::MemoryManager;
use crate::mlfq::ReadyQueues;
use crate::process::{BurstScript, DemandSpec, Pid, ProcState, Process};

/// A finished request, as reported by the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The tag supplied at `submit` (the cluster's request id).
    pub tag: u64,
    /// When the process was admitted to this node.
    pub arrived: SimTime,
    /// When its last burst finished.
    pub finished: SimTime,
}

/// Cumulative load counters, sampled by the cluster's load monitor. All
/// counters are monotone; the monitor differences successive samples to
/// get windowed CPU-idle and disk-available ratios.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSnapshot {
    /// When the snapshot was taken.
    pub at: SimTime,
    /// Cumulative CPU busy time (slices + context switches).
    pub cpu_busy: SimDuration,
    /// Cumulative disk busy time (completed page operations).
    pub disk_busy: SimDuration,
    /// Fraction of physical memory currently free.
    pub mem_free_ratio: f64,
    /// Ready-queue length right now.
    pub ready_len: usize,
    /// Disk-queue length right now (processes).
    pub disk_queue_len: usize,
    /// Live processes on the node.
    pub processes: usize,
}

/// The heap buffers of one busy node, handed back empty when it goes
/// idle: its process table, ready list and disk ring.
#[derive(Debug, Default)]
struct Buffers {
    procs: Vec<Process>,
    ready: Vec<(u8, Pid)>,
    ring: VecDeque<(Pid, u32)>,
}

/// Scratch space shared by the nodes one caller drives: a pool of the
/// buffers idle nodes gave back, and the completions of every node
/// mutation since the caller last drained them.
///
/// Pass the same scratch to every `submit`, `advance` and `kill` of a
/// node: the buffers it lends to a node come back to it when that node
/// goes idle. One scratch can serve any number of nodes on one thread.
#[derive(Debug, Default)]
pub struct NodeScratch {
    /// Emptied buffer sets, the most recently freed on top.
    spares: Vec<Buffers>,
    completed: Vec<Completion>,
    /// Buffer sets busy nodes hold right now.
    lent: usize,
    /// The most buffer sets busy nodes ever held at once.
    peak_lent: usize,
}

impl NodeScratch {
    /// Take the completions recorded since the last drain, in the order
    /// they happened.
    pub fn drain_completed(&mut self) -> std::vec::Drain<'_, Completion> {
        self.completed.drain(..)
    }

    /// Buffer sets lent out now: the number of busy nodes.
    pub fn lent(&self) -> usize {
        self.lent
    }

    /// The most buffer sets ever lent out at once: the peak number of
    /// busy nodes. The pool never holds more sets than this.
    pub fn peak_lent(&self) -> usize {
        self.peak_lent
    }

    /// Emptied buffer sets waiting for a node to turn busy.
    pub fn spares(&self) -> usize {
        self.spares.len()
    }

    /// The most recently freed buffer set, or a fresh empty one.
    fn lend(&mut self) -> Buffers {
        self.lent += 1;
        self.peak_lent = self.peak_lent.max(self.lent);
        self.spares.pop().unwrap_or_default()
    }

    fn reclaim(&mut self, buffers: Buffers) {
        debug_assert!(
            self.lent > 0,
            "buffers returned to a scratch that did not lend them"
        );
        self.lent = self.lent.saturating_sub(1);
        self.spares.push(buffers);
    }
}

/// The slice currently holding the CPU.
#[derive(Debug, Clone, Copy)]
struct Running {
    pid: Pid,
    level: u8,
    /// When the slice (including any context-switch overhead) began.
    started: SimTime,
    /// When the context-switch overhead ends and useful work begins.
    ctx_until: SimTime,
    /// When the slice will end if not preempted.
    slice_end: SimTime,
    /// CPU progress the process makes if the slice runs to `slice_end`.
    planned_progress: SimDuration,
}

/// One simulated server node.
#[derive(Debug)]
pub struct Node {
    /// Diagnostic identifier (the cluster's node index).
    pub id: usize,
    /// Shared by the whole fleet.
    params: Arc<OsParams>,
    /// Relative CPU speed; CPU bursts take `duration / speed` wall time.
    speed: f64,
    now: SimTime,
    /// Live processes in ascending pid order (pids are issued in
    /// admission order and removal preserves order). This, the ready
    /// list and the disk ring hold a pooled buffer set exactly while
    /// the node has live processes.
    procs: Vec<Process>,
    ready: ReadyQueues,
    running: Option<Running>,
    /// Last process to hold the CPU, for context-switch charging.
    last_run: Option<Pid>,
    disk: Disk,
    memory: MemoryManager,
    next_decay: Option<SimTime>,
    next_pid: u64,
    cpu_busy: SimDuration,
    ctx_switches: u64,
    submitted: u64,
    finished: u64,
    fault_pages: u64,
}

impl Node {
    /// A new idle node with the given parameters. An idle node owns no
    /// heap buffer; a fleet passes one shared `Arc<OsParams>`.
    pub fn new(id: usize, params: impl Into<Arc<OsParams>>) -> Self {
        let params = params.into();
        params
            .validate()
            .map_err(|e| e.to_string())
            .expect("invalid OS parameters");
        let levels = params.priority_levels;
        let memory = MemoryManager::new(params.memory_pages);
        let disk = Disk::new(params.page_io);
        Node {
            id,
            params,
            speed: 1.0,
            now: SimTime::ZERO,
            procs: Vec::new(),
            ready: ReadyQueues::new(levels),
            running: None,
            last_run: None,
            disk,
            memory,
            next_decay: None,
            next_pid: 0,
            cpu_busy: SimDuration::ZERO,
            ctx_switches: 0,
            submitted: 0,
            finished: 0,
            fault_pages: 0,
        }
    }

    /// A node whose CPU runs `speed`× the baseline (heterogeneous
    /// clusters; the paper's Section 6 extension).
    pub fn with_speed(id: usize, params: impl Into<Arc<OsParams>>, speed: f64) -> Self {
        assert!(speed > 0.0 && speed.is_finite(), "bad node speed {speed}");
        let mut n = Node::new(id, params);
        n.speed = speed;
        n
    }

    /// This node's CPU speed factor.
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// The node's current local time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The OS parameters in force.
    pub fn params(&self) -> &OsParams {
        &self.params
    }

    /// Admit a request at time `now`. Returns the process id. An idle
    /// node first takes a buffer set from `scratch`; a process with no
    /// work completes at once, into `scratch`.
    pub fn submit(
        &mut self,
        spec: &DemandSpec,
        now: SimTime,
        tag: u64,
        scratch: &mut NodeScratch,
    ) -> Pid {
        debug_assert!(now >= self.now, "node time went backwards on submit");
        self.now = now;
        self.submitted += 1;
        let pid = Pid(self.next_pid);
        self.next_pid += 1;

        let alloc = self.memory.allocate(spec.memory_pages);
        // A fitting allocation (the common case) faults nothing extra;
        // skipping the float round there changes no result.
        let extra_faults = if alloc.deficit == 0 {
            0
        } else {
            (alloc.deficit as f64 * self.params.fault_pages_per_deficit_page).round() as u32
        };
        self.fault_pages += u64::from(extra_faults);
        let script = BurstScript::compile(spec, &self.params, extra_faults);
        let mut proc = Process::new(pid, script, now, tag);
        proc.resident_pages = alloc.resident;
        let (state, level, pages) = (
            proc.state,
            proc.priority_level(self.ready.levels()),
            proc.io_pages_remaining,
        );
        if self.procs.is_empty() {
            let buffers = scratch.lend();
            self.procs = buffers.procs;
            self.ready.install_buffer(buffers.ready);
            self.disk.install_ring(buffers.ring);
        }
        self.procs.push(proc);

        if self.next_decay.is_none() {
            self.next_decay = Some(now + self.params.priority_update_period);
        }

        match state {
            ProcState::Ready => self.make_ready(pid, level, scratch),
            ProcState::BlockedIo => self.disk.submit(pid, pages, now),
            ProcState::Done => self.finish(pid, scratch),
            ProcState::Running => unreachable!("fresh process cannot be running"),
        }
        self.dispatch(now);
        pid
    }

    /// The time of the node's next internal event, if any: the earliest
    /// of the running slice's end, the disk operation's end and the
    /// decay tick.
    ///
    /// Every driver step reads this, so it is two integer `min`s with
    /// absent sources at `u64::MAX`, and `Some` exactly when a source is
    /// present (so a real event at [`SimTime::MAX`] stays `Some`).
    #[inline]
    pub fn next_event(&self) -> Option<SimTime> {
        let (slice, disk, decay) = (
            self.running.map(|r| r.slice_end),
            self.disk.next_event(),
            self.next_decay,
        );
        let any = slice.is_some() | disk.is_some() | decay.is_some();
        let at = |t: Option<SimTime>| t.map_or(u64::MAX, |t| t.0);
        any.then_some(SimTime(at(slice).min(at(disk)).min(at(decay))))
    }

    /// Process exactly one internal event due at `t` (which must equal
    /// [`Node::next_event`]), recording any completion in `scratch`. The
    /// driver loops while more events share the same timestamp.
    pub fn advance(&mut self, t: SimTime, scratch: &mut NodeScratch) {
        debug_assert_eq!(
            Some(t),
            self.next_event(),
            "advance called for a time that is not the next event"
        );
        self.now = t;
        // Deterministic tie order: disk, CPU, decay.
        if self.disk.next_event() == Some(t) {
            self.handle_disk(t, scratch);
        } else if self.running.map(|r| r.slice_end) == Some(t) {
            self.handle_slice_end(t, scratch);
        } else if self.next_decay == Some(t) {
            self.handle_decay(t);
        }
    }

    /// The rstat-style load counters.
    pub fn load(&self) -> LoadSnapshot {
        LoadSnapshot {
            at: self.now,
            cpu_busy: self.cpu_busy,
            disk_busy: self.disk.busy_accum(),
            mem_free_ratio: self.memory.free_ratio(),
            ready_len: self.ready.len() + usize::from(self.running.is_some()),
            disk_queue_len: self.disk.queue_len(),
            processes: self.procs.len(),
        }
    }

    /// Number of live processes.
    pub fn live_processes(&self) -> usize {
        self.procs.len()
    }

    /// The live processes, in admission order.
    pub fn processes(&self) -> &[Process] {
        &self.procs
    }

    /// The page pool.
    pub fn memory(&self) -> &MemoryManager {
        &self.memory
    }

    /// Total context switches charged so far.
    pub fn context_switches(&self) -> u64 {
        self.ctx_switches
    }

    /// Total extra paging I/O (in pages) injected for working-set
    /// deficits — the memory-pressure signal.
    pub fn fault_pages(&self) -> u64 {
        self.fault_pages
    }

    /// Requests admitted / finished so far.
    pub fn counters(&self) -> (u64, u64) {
        (self.submitted, self.finished)
    }

    /// Kill a process (failure injection): remove it from every queue,
    /// free its memory, report nothing. Returns the request tag if the
    /// process existed.
    pub fn kill(&mut self, pid: Pid, scratch: &mut NodeScratch) -> Option<u64> {
        let proc = self.procs.remove(slot(&self.procs, pid)?);
        self.ready.remove(pid);
        self.disk.abort(pid);
        if let Some(r) = self.running {
            if r.pid == pid {
                // Account the CPU time burned so far, then drop the slice.
                let burned = self.now.max(r.started) - r.started;
                self.cpu_busy += burned;
                self.running = None;
                self.dispatch(self.now);
            }
        }
        self.memory.release(proc.resident_pages);
        if self.procs.is_empty() {
            self.went_idle(scratch);
        }
        Some(proc.tag)
    }

    /// Kill every live process (whole-node crash), oldest first, so the
    /// node's counters after a crash are a pure function of its state.
    /// Returns the lost request tags in ascending order, for the
    /// cluster's failure-recovery path.
    pub fn kill_all(&mut self, scratch: &mut NodeScratch) -> Vec<u64> {
        let mut tags = Vec::with_capacity(self.procs.len());
        while let Some(pid) = self.procs.first().map(|p| p.pid) {
            tags.extend(self.kill(pid, scratch));
        }
        tags.sort_unstable();
        tags
    }

    /// True when nothing is running, ready, or blocked.
    pub fn is_idle(&self) -> bool {
        self.procs.is_empty()
    }

    // ---- internal machinery -------------------------------------------------

    /// Queue `pid` at the back of `level`, preempting the running slice
    /// if this process has strictly higher priority (smaller level).
    fn make_ready(&mut self, pid: Pid, level: u8, scratch: &mut NodeScratch) {
        self.ready.push_back(pid, level);
        if let Some(r) = self.running {
            if level < r.level {
                self.preempt(self.now, scratch);
            }
        }
    }

    /// Stop the running slice at `t`, crediting partial progress, and
    /// requeue the process at the *front* of its level (it keeps its
    /// claim to the remainder of its quantum's worth of service). A
    /// preemption landing exactly at the slice's natural end (e.g. a
    /// same-timestamp disk completion waking a higher-priority process)
    /// completes the burst instead of requeueing an empty one.
    fn preempt(&mut self, t: SimTime, scratch: &mut NodeScratch) {
        let Some(r) = self.running.take() else {
            return;
        };
        let executed_wall = t.max(r.ctx_until) - r.ctx_until;
        let progress = executed_wall.mul_f64(self.speed).min(r.planned_progress);
        let proc = proc_mut(&mut self.procs, r.pid);
        proc.cpu_remaining -= progress;
        proc.estcpu += progress.as_secs_f64() / self.params.quantum.as_secs_f64();
        let burst_done = proc.cpu_remaining.is_zero();
        if !burst_done {
            proc.state = ProcState::Ready;
        }
        self.cpu_busy += t - r.started;
        self.last_run = Some(r.pid);
        if burst_done {
            self.next_burst(r.pid, t, scratch);
        } else {
            self.ready.push_front(r.pid, r.level);
        }
        self.dispatch(t);
    }

    /// A process's current burst is exhausted: advance its script.
    fn next_burst(&mut self, pid: Pid, t: SimTime, scratch: &mut NodeScratch) {
        let proc = proc_mut(&mut self.procs, pid);
        match proc.advance_burst() {
            ProcState::Ready => {
                let level = proc.priority_level(self.ready.levels());
                self.make_ready(pid, level, scratch);
            }
            ProcState::BlockedIo => {
                let pages = proc.io_pages_remaining;
                self.disk.submit(pid, pages, t);
            }
            ProcState::Done => self.finish(pid, scratch),
            ProcState::Running => unreachable!(),
        }
    }

    /// Give the CPU to the best ready process if the CPU is free.
    fn dispatch(&mut self, t: SimTime) {
        if self.running.is_some() {
            return;
        }
        let Some((pid, level)) = self.ready.pop_highest() else {
            return;
        };
        let proc = proc_mut(&mut self.procs, pid);
        proc.state = ProcState::Running;
        let ctx = if self.last_run == Some(pid) {
            SimDuration::ZERO
        } else {
            self.ctx_switches += 1;
            self.params.context_switch
        };
        let planned = self.params.quantum.min(proc.cpu_remaining);
        debug_assert!(!planned.is_zero(), "dispatching a process with no CPU work");
        // At unit speed the scaled product is `planned` itself (exact for
        // every duration below 2^53 µs, 285 years), so skip its `round`.
        let run_wall = if self.speed == 1.0 {
            planned
        } else {
            planned.mul_f64(1.0 / self.speed)
        }
        .max(SimDuration::from_micros(1));
        let ctx_until = t + ctx;
        self.running = Some(Running {
            pid,
            level,
            started: t,
            ctx_until,
            slice_end: ctx_until + run_wall,
            planned_progress: planned,
        });
    }

    /// A CPU slice ran to its natural end.
    fn handle_slice_end(&mut self, t: SimTime, scratch: &mut NodeScratch) {
        let r = self
            .running
            .take()
            .expect("slice end with no running process");
        self.cpu_busy += t - r.started;
        self.last_run = Some(r.pid);
        let proc = proc_mut(&mut self.procs, r.pid);
        proc.cpu_remaining -= r.planned_progress.min(proc.cpu_remaining);
        proc.estcpu += r.planned_progress.as_secs_f64() / self.params.quantum.as_secs_f64();

        if proc.cpu_remaining.is_zero() {
            // Burst finished: move to the next burst.
            self.next_burst(r.pid, t, scratch);
        } else {
            // Quantum expiry: requeue at the (possibly lower) priority.
            proc.state = ProcState::Ready;
            let level = proc.priority_level(self.ready.levels());
            self.make_ready(r.pid, level, scratch);
        }
        self.dispatch(t);
    }

    /// A disk page completed.
    fn handle_disk(&mut self, t: SimTime, scratch: &mut NodeScratch) {
        match self.disk.complete_or_discard(t) {
            None | Some(DiskEvent::PageDone(_)) => {}
            Some(DiskEvent::BurstDone(pid)) => {
                proc_mut(&mut self.procs, pid).io_pages_remaining = 0;
                self.next_burst(pid, t, scratch);
                self.dispatch(t);
            }
        }
    }

    /// Priority-update tick: decay every estcpu and re-bucket the ready
    /// queues (4.3BSD's schedcpu()).
    fn handle_decay(&mut self, t: SimTime) {
        let decay = self.params.estcpu_decay;
        for proc in &mut self.procs {
            proc.estcpu *= decay;
        }
        let levels = self.ready.levels();
        let procs = &self.procs;
        self.ready.rebucket(|pid| {
            slot(procs, pid).map_or(levels - 1, |i| procs[i].priority_level(levels))
        });
        self.next_decay = if self.procs.is_empty() {
            None
        } else {
            Some(t + self.params.priority_update_period)
        };
    }

    /// Record completion, free resources.
    fn finish(&mut self, pid: Pid, scratch: &mut NodeScratch) {
        let proc = self
            .procs
            .remove(slot(&self.procs, pid).expect("finishing unknown process"));
        self.memory.release(proc.resident_pages);
        self.finished += 1;
        scratch.completed.push(Completion {
            tag: proc.tag,
            arrived: proc.arrived,
            finished: self.now,
        });
        if self.last_run == Some(pid) {
            // The next dispatch is necessarily a switch.
            self.last_run = None;
        }
        if self.procs.is_empty() {
            self.went_idle(scratch);
        }
    }

    /// The last process left: stop the decay tick and hand the emptied
    /// buffers back to the pool. A dead process is in no queue, so the
    /// ready list and the disk ring are empty too (an aborted page still
    /// in flight is held apart from the ring).
    fn went_idle(&mut self, scratch: &mut NodeScratch) {
        self.next_decay = None;
        scratch.reclaim(Buffers {
            procs: std::mem::take(&mut self.procs),
            ready: self.ready.take_buffer(),
            ring: self.disk.take_ring(),
        });
    }
}

/// `pid`'s index in a pid-ordered process list, if it is live.
fn slot(procs: &[Process], pid: Pid) -> Option<usize> {
    procs.binary_search_by_key(&pid, |p| p.pid).ok()
}

/// The live process `pid`, which must exist.
fn proc_mut(procs: &mut [Process], pid: Pid) -> &mut Process {
    &mut procs[slot(procs, pid).expect("live process vanished")]
}

/// Run a node in isolation until it is idle (or `limit` events elapse),
/// returning every completion `scratch` holds, including those of
/// earlier submits. Test/diagnostic helper.
pub fn run_to_idle(node: &mut Node, scratch: &mut NodeScratch, limit: u64) -> Vec<Completion> {
    let mut steps = 0;
    while let Some(t) = node.next_event() {
        node.advance(t, scratch);
        steps += 1;
        assert!(steps < limit, "node did not go idle within {limit} events");
    }
    scratch.drain_completed().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use msweb_simcore::SimRng;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    fn node() -> Node {
        Node::new(0, OsParams::default())
    }

    #[test]
    #[should_panic(expected = "invalid OS parameters: \"quantum must be positive\"")]
    fn new_rejects_invalid_parameters() {
        Node::new(
            0,
            OsParams {
                quantum: SimDuration::ZERO,
                ..OsParams::default()
            },
        );
    }

    #[test]
    fn single_cpu_process_timing() {
        let mut s = NodeScratch::default();
        let mut n = node();
        // 25ms pure CPU: ctx 50us + 3 slices (10+10+5).
        let spec = DemandSpec::static_fetch(ms(25), 1.0, 0);
        n.submit(&spec, SimTime::ZERO, 1, &mut s);
        let done = run_to_idle(&mut n, &mut s, 100);
        assert_eq!(done.len(), 1);
        let c = done[0];
        assert_eq!(c.tag, 1);
        // One context switch only (same pid keeps the CPU across quanta).
        assert_eq!(n.context_switches(), 1);
        let expect = SimDuration::from_micros(25_000 + 50);
        assert_eq!(c.finished - c.arrived, expect);
        assert!(n.is_idle());
    }

    #[test]
    fn cgi_charges_fork_overhead() {
        let mut s = NodeScratch::default();
        let mut n = node();
        let spec = DemandSpec::cgi(ms(20), 1.0, 0);
        n.submit(&spec, SimTime::ZERO, 9, &mut s);
        let done = run_to_idle(&mut n, &mut s, 100);
        // 3ms fork + 20ms CPU + 50us ctx.
        assert_eq!(
            done[0].finished - done[0].arrived,
            SimDuration::from_micros(23_000 + 50)
        );
    }

    #[test]
    fn io_process_timing() {
        let mut s = NodeScratch::default();
        let mut n = node();
        // 10ms demand, all I/O -> 5 pages * 2ms.
        let spec = DemandSpec::static_fetch(ms(10), 0.0, 0);
        n.submit(&spec, SimTime::ZERO, 2, &mut s);
        let done = run_to_idle(&mut n, &mut s, 100);
        assert_eq!(done[0].finished - done[0].arrived, ms(10));
        // CPU untouched.
        assert_eq!(n.load().cpu_busy, SimDuration::ZERO);
        assert_eq!(n.load().disk_busy, ms(10));
    }

    #[test]
    fn two_cpu_processes_round_robin() {
        let mut s = NodeScratch::default();
        let mut n = node();
        let spec = DemandSpec::static_fetch(ms(30), 1.0, 0);
        n.submit(&spec, SimTime::ZERO, 1, &mut s);
        n.submit(&spec, SimTime::ZERO, 2, &mut s);
        let done = run_to_idle(&mut n, &mut s, 1000);
        assert_eq!(done.len(), 2);
        // Total CPU work = 60ms; with overheads both finish close to 60ms,
        // and the two completions are distinct (interleaved service).
        let spread = done[1].finished - done[0].finished;
        assert!(spread <= ms(11), "completions too far apart: {spread}");
        let total = done.iter().map(|c| c.finished).max().unwrap();
        assert!(total >= SimTime::from_millis(60));
        assert!(
            total <= SimTime::from_millis(62),
            "too much overhead: {total}"
        );
    }

    #[test]
    fn cpu_work_conservation() {
        let mut s = NodeScratch::default();
        let mut n = node();
        let demands = [5u64, 12, 33, 7, 28];
        for (i, &d) in demands.iter().enumerate() {
            n.submit(
                &DemandSpec::static_fetch(ms(d), 1.0, 0),
                SimTime::ZERO,
                i as u64,
                &mut s,
            );
        }
        let done = run_to_idle(&mut n, &mut s, 10_000);
        assert_eq!(done.len(), demands.len());
        let total_demand: u64 = demands.iter().sum();
        let busy = n.load().cpu_busy;
        let overhead = busy - ms(total_demand);
        // Busy = demand + context switches; each switch is 50us.
        assert_eq!(
            overhead,
            SimDuration::from_micros(n.context_switches() * 50),
            "CPU busy must equal demand plus context-switch overhead"
        );
    }

    #[test]
    fn fresh_short_job_preempts_cpu_hog() {
        let mut s = NodeScratch::default();
        let mut n = node();
        // A CPU hog that has been running long enough to sink in priority.
        n.submit(
            &DemandSpec::static_fetch(ms(500), 1.0, 0),
            SimTime::ZERO,
            1,
            &mut s,
        );
        // Let it burn 200ms (priority decays it downward).
        while let Some(t) = n.next_event() {
            if t > SimTime::from_millis(200) {
                break;
            }
            n.advance(t, &mut s);
        }
        // Now a short job arrives; it should finish long before the hog.
        let t0 = n.now();
        n.submit(&DemandSpec::static_fetch(ms(5), 1.0, 0), t0, 2, &mut s);
        let done = run_to_idle(&mut n, &mut s, 10_000);
        let short = done.iter().find(|c| c.tag == 2).unwrap();
        let hog = done.iter().find(|c| c.tag == 1).unwrap();
        assert!(short.finished < hog.finished);
        let short_resp = short.finished - short.arrived;
        assert!(
            short_resp < ms(30),
            "short job should run promptly, took {short_resp}"
        );
    }

    #[test]
    fn mixed_cpu_io_overlap() {
        let mut s = NodeScratch::default();
        let mut n = node();
        // One CPU-bound and one I/O-bound job overlap almost perfectly.
        n.submit(
            &DemandSpec::static_fetch(ms(40), 1.0, 0),
            SimTime::ZERO,
            1,
            &mut s,
        );
        n.submit(
            &DemandSpec::static_fetch(ms(40), 0.0, 0),
            SimTime::ZERO,
            2,
            &mut s,
        );
        let done = run_to_idle(&mut n, &mut s, 10_000);
        let end = done.iter().map(|c| c.finished).max().unwrap();
        // Perfect overlap would be 40ms; allow a little scheduling slack.
        assert!(
            end <= SimTime::from_millis(45),
            "CPU and disk should overlap, finished at {end}"
        );
    }

    #[test]
    fn memory_deficit_adds_paging_io() {
        let mut s = NodeScratch::default();
        let params = OsParams {
            memory_pages: 10,
            ..OsParams::default()
        };
        let mut n = Node::new(0, params);
        // First process takes all memory.
        n.submit(&DemandSpec::cgi(ms(50), 1.0, 10), SimTime::ZERO, 1, &mut s);
        // Second wants 10 pages but gets none: 10 * 2 fault pages = 20
        // pages = 40ms extra I/O.
        n.submit(&DemandSpec::cgi(ms(50), 1.0, 10), SimTime::ZERO, 2, &mut s);
        let done = run_to_idle(&mut n, &mut s, 100_000);
        let starved = done.iter().find(|c| c.tag == 2).unwrap();
        let fed = done.iter().find(|c| c.tag == 1).unwrap();
        assert!(
            starved.finished > fed.finished,
            "memory-starved process must finish later"
        );
        assert!(n.load().disk_busy >= ms(40), "paging I/O missing");
    }

    #[test]
    fn fault_page_counter_tracks_memory_pressure() {
        let mut s = NodeScratch::default();
        let params = OsParams {
            memory_pages: 10,
            ..OsParams::default()
        };
        let mut n = Node::new(0, params);
        n.submit(&DemandSpec::cgi(ms(5), 1.0, 10), SimTime::ZERO, 1, &mut s);
        assert_eq!(n.fault_pages(), 0, "first process fits");
        n.submit(&DemandSpec::cgi(ms(5), 1.0, 10), SimTime::ZERO, 2, &mut s);
        assert_eq!(n.fault_pages(), 20, "10-page deficit x 2 faults/page");
        run_to_idle(&mut n, &mut s, 10_000);
    }

    #[test]
    fn memory_released_at_completion() {
        let mut s = NodeScratch::default();
        let mut n = node();
        n.submit(&DemandSpec::cgi(ms(5), 1.0, 100), SimTime::ZERO, 1, &mut s);
        assert!(n.load().mem_free_ratio < 1.0);
        run_to_idle(&mut n, &mut s, 100);
        assert_eq!(n.load().mem_free_ratio, 1.0);
    }

    #[test]
    fn kill_releases_everything() {
        let mut s = NodeScratch::default();
        let mut n = node();
        let spec = DemandSpec::cgi(ms(100), 0.5, 50);
        let pid = n.submit(&spec, SimTime::ZERO, 77, &mut s);
        // Let it get going.
        for _ in 0..3 {
            if let Some(t) = n.next_event() {
                n.advance(t, &mut s);
            }
        }
        assert_eq!(n.kill(pid, &mut s), Some(77));
        assert_eq!(n.kill(pid, &mut s), None);
        // Remaining events (an orphaned disk page at most) drain without
        // producing completions.
        let done = run_to_idle(&mut n, &mut s, 100);
        assert!(done.is_empty());
        assert_eq!(n.load().mem_free_ratio, 1.0);
        assert!(n.is_idle());
    }

    #[test]
    fn load_snapshot_counts() {
        let mut s = NodeScratch::default();
        let mut n = node();
        n.submit(
            &DemandSpec::static_fetch(ms(50), 1.0, 0),
            SimTime::ZERO,
            1,
            &mut s,
        );
        n.submit(
            &DemandSpec::static_fetch(ms(50), 1.0, 0),
            SimTime::ZERO,
            2,
            &mut s,
        );
        n.submit(
            &DemandSpec::static_fetch(ms(50), 0.0, 0),
            SimTime::ZERO,
            3,
            &mut s,
        );
        let l = n.load();
        assert_eq!(l.processes, 3);
        assert_eq!(l.ready_len, 2); // one running + one ready
        assert_eq!(l.disk_queue_len, 1);
        assert_eq!(n.counters(), (3, 0));
    }

    #[test]
    fn decay_tick_stops_when_idle() {
        let mut s = NodeScratch::default();
        let mut n = node();
        n.submit(
            &DemandSpec::static_fetch(ms(5), 1.0, 0),
            SimTime::ZERO,
            1,
            &mut s,
        );
        run_to_idle(&mut n, &mut s, 100);
        assert_eq!(n.next_event(), None, "idle node must not tick forever");
    }

    #[test]
    fn idle_node_returns_its_buffers_to_the_pool() {
        let mut s = NodeScratch::default();
        let mut n = node();
        let held = |n: &Node| n.procs.capacity() + n.ready.capacity() + n.disk.capacity();
        assert_eq!(held(&n), 0, "a new node owns no buffer");
        // CPU and disk work side by side, so every buffer gets used.
        n.submit(
            &DemandSpec::static_fetch(ms(30), 1.0, 0),
            SimTime::ZERO,
            1,
            &mut s,
        );
        n.submit(
            &DemandSpec::static_fetch(ms(30), 0.5, 0),
            SimTime::ZERO,
            2,
            &mut s,
        );
        n.submit(
            &DemandSpec::static_fetch(ms(30), 0.0, 0),
            SimTime::ZERO,
            3,
            &mut s,
        );
        assert_eq!((s.lent(), s.spares()), (1, 0));
        assert!(n.ready.capacity() > 0 && n.disk.capacity() > 0);
        assert_eq!(run_to_idle(&mut n, &mut s, 10_000).len(), 3);
        assert_eq!(held(&n), 0, "an idle node owns no buffer");
        assert_eq!((s.lent(), s.spares(), s.peak_lent()), (0, 1, 1));
        let spare = &s.spares[0];
        assert!(spare.procs.capacity() >= 3 && spare.ready.capacity() > 0);
        assert!(spare.ring.capacity() > 0);
        assert!(spare.procs.is_empty() && spare.ready.is_empty() && spare.ring.is_empty());

        // The next busy node takes the same set back instead of a new one.
        let procs_at = spare.procs.as_ptr();
        let mut other = Node::new(1, OsParams::default());
        other.submit(
            &DemandSpec::static_fetch(ms(5), 1.0, 0),
            SimTime::ZERO,
            4,
            &mut s,
        );
        assert_eq!((s.lent(), s.spares(), s.peak_lent()), (1, 0, 1));
        assert_eq!(other.procs.as_ptr(), procs_at);

        // A crash hands the buffers back too.
        other.kill_all(&mut s);
        assert_eq!(held(&other), 0);
        assert_eq!((s.lent(), s.spares()), (0, 1));
    }

    #[test]
    fn speed_scales_cpu_time() {
        let mut s = NodeScratch::default();
        let mut fast = Node::with_speed(0, OsParams::default(), 2.0);
        let spec = DemandSpec::static_fetch(ms(20), 1.0, 0);
        fast.submit(&spec, SimTime::ZERO, 1, &mut s);
        let done = run_to_idle(&mut fast, &mut s, 100);
        // 20ms of demand at 2x speed = 10ms wall + ctx.
        assert_eq!(
            done[0].finished - done[0].arrived,
            SimDuration::from_micros(10_000 + 50)
        );
    }

    /// The next event by its definition: the earliest present source.
    fn earliest_source(n: &Node) -> Option<SimTime> {
        let slice_end = n.running.map(|r| r.slice_end);
        [slice_end, n.disk.next_event(), n.next_decay]
            .into_iter()
            .flatten()
            .min()
    }

    /// A random request: CPU-only, disk-only, a CGI that forks and
    /// needs memory, a short CPU job or a CPU hog.
    fn random_spec(rng: &mut SimRng) -> DemandSpec {
        let service = SimDuration::from_micros(1 + rng.gen_range(60_000));
        match rng.gen_range(5) {
            0 => DemandSpec::static_fetch(service, 1.0, 0),
            1 => DemandSpec::static_fetch(service, 0.0, rng.gen_range(4) as u32),
            2 => DemandSpec::cgi(service, rng.next_f64(), 1 + rng.gen_range(40) as u32),
            3 => DemandSpec::static_fetch(ms(1 + rng.gen_range(4)), 1.0, 0),
            _ => DemandSpec::static_fetch(ms(300 + rng.gen_range(300)), 1.0, 0),
        }
    }

    #[test]
    fn next_event_is_the_earliest_source_after_every_call() {
        let mut rng = SimRng::seed_from_u64(0x5eed);
        // Which source each checked read came from: slice, disk, decay.
        let mut from = [0u32; 3];
        let mut check = |n: &Node| {
            let next = n.next_event();
            assert_eq!(next, earliest_source(n));
            if let Some(t) = next {
                let sources = [
                    n.running.map(|r| r.slice_end),
                    n.disk.next_event(),
                    n.next_decay,
                ];
                from[sources.iter().position(|&s| s == Some(t)).unwrap()] += 1;
            }
        };
        let (mut faulted, mut preempted) = (false, false);
        for round in 0..48u64 {
            // Odd rounds squeeze memory, so CGI working sets fault.
            let memory_pages = if round % 2 == 0 { 8192 } else { 32 };
            let mut n = Node::new(
                0,
                OsParams {
                    memory_pages,
                    ..OsParams::default()
                },
            );
            let mut s = NodeScratch::default();
            // Each round opens with a hog that later short jobs preempt.
            n.submit(
                &DemandSpec::static_fetch(ms(900), 1.0, 0),
                SimTime::ZERO,
                0,
                &mut s,
            );
            check(&n);
            for tag in 1..240 {
                match rng.gen_range(40) {
                    0..=15 => {
                        let at = n.now() + SimDuration::from_micros(rng.gen_range(20_000));
                        while let Some(t) = n.next_event().filter(|&t| t <= at) {
                            n.advance(t, &mut s);
                            check(&n);
                        }
                        let hog = n.running.map(|r| (r.pid, r.level));
                        let spec = random_spec(&mut rng);
                        n.submit(&spec, at, tag, &mut s);
                        preempted |= hog.is_some_and(|(pid, level)| {
                            n.running.is_some_and(|r| r.pid != pid && r.level < level)
                        });
                    }
                    16..=33 => {
                        for _ in 0..rng.gen_range(12) {
                            let Some(t) = n.next_event() else { break };
                            n.advance(t, &mut s);
                            check(&n);
                        }
                    }
                    34..=38 if !n.procs.is_empty() => {
                        let pid = n.procs[rng.gen_index(n.procs.len())].pid;
                        n.kill(pid, &mut s);
                    }
                    34..=38 => {}
                    _ => {
                        n.kill_all(&mut s);
                    }
                }
                check(&n);
                s.drain_completed();
            }
            faulted |= n.fault_pages() > 0;
            run_to_idle(&mut n, &mut s, 1_000_000);
            check(&n);
        }
        assert!(faulted && preempted, "a scenario went unexercised");
        assert!(from.iter().all(|&k| k > 0), "a source never led: {from:?}");
    }

    #[test]
    fn next_event_is_some_exactly_when_a_source_is() {
        // Slice and decay states a driven node never reaches alone (a
        // live process keeps the decay tick), set by hand.
        let times = [
            None,
            Some(SimTime::ZERO),
            Some(SimTime(7)),
            Some(SimTime::MAX),
        ];
        for slice_end in times {
            for decay in times {
                let mut n = node();
                n.running = slice_end.map(|t| Running {
                    pid: Pid(0),
                    level: 0,
                    started: SimTime::ZERO,
                    ctx_until: SimTime::ZERO,
                    slice_end: t,
                    planned_progress: SimDuration::ZERO,
                });
                n.next_decay = decay;
                assert_eq!(
                    n.next_event(),
                    earliest_source(&n),
                    "{slice_end:?} {decay:?}"
                );
            }
        }
    }

    #[test]
    fn next_event_keeps_a_real_event_at_the_end_of_time() {
        let mut s = NodeScratch::default();
        // The disk page and the decay tick both land on SimTime::MAX.
        let params = OsParams {
            priority_update_period: ms(2),
            ..OsParams::default()
        };
        let mut n = Node::new(0, params);
        let at = SimTime(u64::MAX - 2_000);
        n.submit(&DemandSpec::static_fetch(ms(2), 0.0, 0), at, 1, &mut s);
        assert_eq!(n.next_event(), Some(SimTime::MAX));
        assert_eq!(n.next_event(), earliest_source(&n));
    }

    #[test]
    fn unit_speed_slices_equal_the_scaled_product() {
        // One slice of `d`, with durations past 2^32 µs.
        for us in [
            1,
            49,
            10_000,
            (1 << 32) - 1,
            1 << 32,
            (1 << 32) + 7,
            1 << 40,
            (1 << 53) - 1,
        ] {
            let d = SimDuration::from_micros(us);
            let params = OsParams {
                quantum: d,
                priority_update_period: SimDuration::from_micros(1 << 60),
                ..OsParams::default()
            };
            let mut s = NodeScratch::default();
            let mut n = Node::new(0, params);
            n.submit(
                &DemandSpec::static_fetch(d, 1.0, 0),
                SimTime::ZERO,
                1,
                &mut s,
            );
            let scaled = d.mul_f64(1.0).max(SimDuration::from_micros(1));
            let r = n.running.expect("running");
            assert_eq!(r.slice_end - r.ctx_until, scaled, "run_wall at {us} µs");
            let done = run_to_idle(&mut n, &mut s, 10);
            let ctx = OsParams::default().context_switch;
            assert_eq!(
                done[0].finished - done[0].arrived,
                ctx + scaled,
                "at {us} µs"
            );
        }
    }

    #[test]
    fn submissions_at_increasing_times() {
        let mut s = NodeScratch::default();
        // Drive the node the way the cluster does: interleave arrivals
        // with node events in timestamp order.
        let mut n = node();
        n.submit(
            &DemandSpec::static_fetch(ms(5), 1.0, 0),
            SimTime::ZERO,
            1,
            &mut s,
        );
        let first = run_to_idle(&mut n, &mut s, 100);
        assert_eq!(first.len(), 1);
        n.submit(
            &DemandSpec::static_fetch(ms(5), 1.0, 0),
            SimTime::from_millis(100),
            2,
            &mut s,
        );
        let second = run_to_idle(&mut n, &mut s, 100);
        assert_eq!(second.len(), 1);
        // Second arrival found an idle node: response = demand + ctx.
        assert_eq!(
            second[0].finished - second[0].arrived,
            SimDuration::from_micros(5_000 + 50)
        );
        assert_eq!(second[0].arrived, SimTime::from_millis(100));
    }
}
