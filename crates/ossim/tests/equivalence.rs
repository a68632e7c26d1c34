//! Equivalence tests for the node model's compact data structures: each
//! is checked against a straightforward reference implementation (the
//! lazy burst script against an eager compile into a burst list, the
//! single-list ready queue against one FIFO per level), a node driven by
//! random submit/advance/kill sequences is checked for page conservation
//! and exactly-once completion, and nodes sharing one scratch are checked
//! against the same nodes each with a scratch of its own.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use msweb_ossim::{
    Burst, BurstScript, Completion, DemandSpec, LoadSnapshot, Node, NodeScratch, OsParams, Pid,
    ReadyQueues,
};
use msweb_simcore::{SimDuration, SimTime};
use proptest::prelude::*;

/// Reference: the eager compile — the whole burst list built up front.
fn eager_compile(spec: &DemandSpec, params: &OsParams, extra_fault_pages: u32) -> Vec<Burst> {
    let mut bursts = Vec::new();
    if spec.is_cgi && !params.fork_overhead.is_zero() {
        bursts.push(Burst::Cpu(params.fork_overhead));
    }
    let io_time = spec.io_time();
    let whole_pages = (io_time.as_micros() / params.page_io.as_micros()) as u32;
    let remainder = io_time.saturating_sub(params.page_io.mul(whole_pages as u64));
    let cpu_total = spec.cpu_time() + remainder;
    let io_pages = whole_pages + extra_fault_pages;
    if io_pages == 0 {
        if !cpu_total.is_zero() {
            bursts.push(Burst::Cpu(cpu_total));
        }
    } else {
        let pages_per_group =
            (params.quantum.as_micros() / params.page_io.as_micros()).max(1) as u32;
        let groups = io_pages.div_ceil(pages_per_group).max(1);
        let cpu_slice = SimDuration::from_micros(cpu_total.as_micros() / groups as u64);
        let mut remaining_cpu = cpu_total;
        let mut remaining_pages = io_pages;
        for g in 0..groups {
            let cpu = if g + 1 == groups {
                remaining_cpu
            } else {
                cpu_slice
            };
            if !cpu.is_zero() {
                bursts.push(Burst::Cpu(cpu));
            }
            remaining_cpu -= cpu;
            let pages = remaining_pages.min(pages_per_group);
            if pages > 0 {
                bursts.push(Burst::Io { pages });
            }
            remaining_pages -= pages;
        }
    }
    bursts
}

/// Reference: one FIFO per level.
struct RefQueues(Vec<VecDeque<Pid>>);

impl RefQueues {
    fn pop_highest(&mut self) -> Option<(Pid, u8)> {
        self.0
            .iter_mut()
            .enumerate()
            .find_map(|(l, q)| q.pop_front().map(|p| (p, l as u8)))
    }

    fn highest_level(&self) -> Option<u8> {
        self.0.iter().position(|q| !q.is_empty()).map(|l| l as u8)
    }

    fn len(&self) -> usize {
        self.0.iter().map(VecDeque::len).sum()
    }

    fn rebucket(&mut self, level_of: impl Fn(Pid) -> u8) {
        let top = self.0.len() - 1;
        let all: Vec<Pid> = self.0.iter_mut().flat_map(|q| q.drain(..)).collect();
        for pid in all {
            self.0[(level_of(pid) as usize).min(top)].push_back(pid);
        }
    }

    fn remove(&mut self, pid: Pid) -> bool {
        for q in &mut self.0 {
            if let Some(i) = q.iter().position(|&p| p == pid) {
                q.remove(i);
                return true;
            }
        }
        false
    }
}

/// A ready-queue operation; push levels are taken modulo the level count.
#[derive(Debug, Clone)]
enum QueueOp {
    PushBack(u8),
    PushFront(u8),
    Pop,
    /// Re-bucket with `level = (pid * mul + add) % modulus` (the modulus
    /// may exceed the level count, exercising the clamp).
    Rebucket {
        mul: u64,
        add: u64,
        modulus: u64,
    },
    /// Remove the `n`-th pid ever pushed (possibly already gone).
    Remove(usize),
}

fn queue_op() -> impl Strategy<Value = QueueOp> {
    (0u8..11, any::<u8>(), 1u64..7, 0u64..5, 1u64..40, 0usize..64).prop_map(
        |(kind, level, mul, add, modulus, n)| match kind {
            0..=3 => QueueOp::PushBack(level),
            4 | 5 => QueueOp::PushFront(level),
            6..=8 => QueueOp::Pop,
            9 => QueueOp::Rebucket { mul, add, modulus },
            _ => QueueOp::Remove(n),
        },
    )
}

fn demand() -> impl Strategy<Value = DemandSpec> {
    (0u64..300_000, 0.0f64..=1.0, 0u32..96, any::<bool>()).prop_map(|(us, w, pages, cgi)| {
        DemandSpec {
            service: SimDuration::from_micros(us),
            cpu_fraction: w,
            memory_pages: pages,
            is_cgi: cgi,
        }
    })
}

fn os_params() -> impl Strategy<Value = OsParams> {
    (1u64..30_000, 1u64..6_000, 0u64..5_000, any::<bool>()).prop_map(
        |(quantum, page_io, fork, forks)| OsParams {
            quantum: SimDuration::from_micros(quantum),
            page_io: SimDuration::from_micros(page_io),
            fork_overhead: SimDuration::from_micros(if forks { fork } else { 0 }),
            ..OsParams::default()
        },
    )
}

#[derive(Debug, Clone)]
enum NodeOp {
    /// Submit `spec` `gap` µs after the node's clock, first processing
    /// every event due by then (as the cluster driver does).
    Submit { gap: u64, spec: DemandSpec },
    /// Process up to `n` internal events.
    Advance(u8),
    /// Kill the `i`-th live process (modulo the live count).
    Kill(usize),
    /// Whole-node crash.
    KillAll,
}

fn node_op() -> impl Strategy<Value = NodeOp> {
    (0u8..12, 0u64..20_000, demand(), any::<u8>(), any::<usize>()).prop_map(
        |(kind, gap, spec, n, i)| match kind {
            0..=5 => NodeOp::Submit { gap, spec },
            6..=9 => NodeOp::Advance(n),
            10 => NodeOp::Kill(i),
            _ => NodeOp::KillAll,
        },
    )
}

/// Apply `op` to `n` (a submit carries `tag`), returning the tags it
/// killed.
fn apply(n: &mut Node, scratch: &mut NodeScratch, op: &NodeOp, tag: u64) -> Vec<u64> {
    match *op {
        NodeOp::Submit { gap, ref spec } => {
            let at = n.now() + SimDuration::from_micros(gap);
            while let Some(t) = n.next_event().filter(|&t| t <= at) {
                n.advance(t, scratch);
            }
            n.submit(spec, at, tag, scratch);
            Vec::new()
        }
        NodeOp::Advance(k) => {
            for _ in 0..k {
                let Some(t) = n.next_event() else { break };
                n.advance(t, scratch);
            }
            Vec::new()
        }
        NodeOp::Kill(i) if !n.processes().is_empty() => {
            let pid = n.processes()[i % n.processes().len()].pid;
            vec![n.kill(pid, scratch).expect("live process")]
        }
        NodeOp::Kill(_) => Vec::new(),
        NodeOp::KillAll => n.kill_all(scratch),
    }
}

/// Run `n` until it is idle, guarding against a wedged node.
fn run_out(n: &mut Node, scratch: &mut NodeScratch) {
    for _ in 0..2_000_000 {
        let Some(t) = n.next_event() else { return };
        n.advance(t, scratch);
    }
    panic!("node did not go idle");
}

/// Every load counter, with the memory ratio as its bit pattern.
fn load_bits(l: LoadSnapshot) -> (SimTime, SimDuration, SimDuration, u64, [usize; 3]) {
    let LoadSnapshot {
        at,
        cpu_busy,
        disk_busy,
        mem_free_ratio,
        ready_len,
        disk_queue_len,
        processes,
    } = l;
    let counts = [ready_len, disk_queue_len, processes];
    (at, cpu_busy, disk_busy, mem_free_ratio.to_bits(), counts)
}

/// free + Σ resident = total.
fn pages_conserved(n: &Node) -> bool {
    let resident: u32 = n.processes().iter().map(|p| p.resident_pages).sum();
    n.memory().free_pages() + resident == n.memory().total_pages()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The lazy script yields exactly the eager compile's bursts.
    #[test]
    fn lazy_script_matches_eager_compile(
        spec in demand(),
        params in os_params(),
        (faults, any_faults) in (0u32..200, any::<bool>()),
    ) {
        let faults = if any_faults { faults } else { 0 };
        let expect = eager_compile(&spec, &params, faults);
        let mut script = BurstScript::compile(&spec, &params, faults);
        let got: Vec<Burst> = std::iter::from_fn(|| script.pop()).collect();
        prop_assert_eq!(got, expect);
        prop_assert_eq!(script.pop(), None, "an exhausted script stays exhausted");
    }

    /// The single level-ordered list behaves like one FIFO per level.
    #[test]
    fn ready_list_matches_per_level_fifos(
        levels in 1u8..33,
        ops in prop::collection::vec(queue_op(), 1..200),
    ) {
        let mut q = ReadyQueues::new(levels);
        let mut reference = RefQueues((0..levels).map(|_| VecDeque::new()).collect());
        let mut next = 0u64;
        for op in ops {
            match op {
                QueueOp::PushBack(l) => {
                    let l = l % levels;
                    q.push_back(Pid(next), l);
                    reference.0[l as usize].push_back(Pid(next));
                    next += 1;
                }
                QueueOp::PushFront(l) => {
                    let l = l % levels;
                    q.push_front(Pid(next), l);
                    reference.0[l as usize].push_front(Pid(next));
                    next += 1;
                }
                QueueOp::Pop => prop_assert_eq!(q.pop_highest(), reference.pop_highest()),
                QueueOp::Rebucket { mul, add, modulus } => {
                    let f = |p: Pid| ((p.0 * mul + add) % modulus) as u8;
                    q.rebucket(f);
                    reference.rebucket(f);
                }
                QueueOp::Remove(n) => {
                    prop_assert_eq!(q.remove(Pid(n as u64)), reference.remove(Pid(n as u64)));
                }
            }
            prop_assert_eq!(q.len(), reference.len());
            prop_assert_eq!(q.highest_level(), reference.highest_level());
        }
        let drained: Vec<_> = std::iter::from_fn(|| q.pop_highest()).collect();
        let expect: Vec<_> = std::iter::from_fn(|| reference.pop_highest()).collect();
        prop_assert_eq!(drained, expect);
        prop_assert!(q.is_empty());
    }

    /// Under random submit/advance/kill sequences a node conserves pages
    /// at every step, finishes every process that was not killed exactly
    /// once, and ends idle with its memory free.
    #[test]
    fn node_conserves_pages_and_finishes_survivors_once(
        ops in prop::collection::vec(node_op(), 1..80)
    ) {
        let params = OsParams { memory_pages: 64, ..OsParams::default() };
        let mut n = Node::new(0, params);
        let mut scratch = NodeScratch::default();
        let mut done = Vec::new();
        let mut submitted = BTreeSet::new();
        let mut killed = BTreeSet::new();
        for (tag, op) in (0u64..).zip(&ops) {
            if let NodeOp::Submit { .. } = op {
                submitted.insert(tag);
            }
            killed.extend(apply(&mut n, &mut scratch, op, tag));
            done.extend(scratch.drain_completed());
            prop_assert!(pages_conserved(&n), "pages leaked");
        }
        run_out(&mut n, &mut scratch);
        done.extend(scratch.drain_completed());
        let mut finished: Vec<u64> = done.iter().map(|c| c.tag).collect();
        finished.sort_unstable();
        let survivors: Vec<u64> = submitted.difference(&killed).copied().collect();
        prop_assert_eq!(finished, survivors);
        prop_assert!(n.is_idle());
        prop_assert!(pages_conserved(&n));
        prop_assert_eq!(n.memory().free_pages(), n.memory().total_pages());
        prop_assert_eq!(n.next_event(), None);
    }

    /// Nodes that share one scratch, driven by interleaved random
    /// submit/advance/kill operations, report the same completions and
    /// load counters, bit for bit, as each node alone with a scratch of
    /// its own; the shared pool lends exactly one buffer set per busy
    /// node and owns no set it did not lend at its peak.
    #[test]
    fn shared_scratch_matches_a_scratch_per_node(
        ops in prop::collection::vec((0usize..4, node_op()), 1..160)
    ) {
        let params = Arc::new(OsParams { memory_pages: 64, ..OsParams::default() });
        let fleet = || (0..4).map(|i| Node::new(i, Arc::clone(&params))).collect::<Vec<_>>();
        let mut shared_nodes = fleet();
        let mut shared = NodeScratch::default();
        let mut alone: Vec<(Node, NodeScratch)> =
            fleet().into_iter().map(|n| (n, NodeScratch::default())).collect();
        let drained = |s: &mut NodeScratch| s.drain_completed().collect::<Vec<Completion>>();
        for (tag, (i, op)) in (0u64..).zip(&ops) {
            let (solo, own) = &mut alone[*i];
            let node = &mut shared_nodes[*i];
            prop_assert_eq!(apply(node, &mut shared, op, tag), apply(solo, own, op, tag));
            prop_assert_eq!(drained(&mut shared), drained(own));
            prop_assert_eq!(load_bits(node.load()), load_bits(solo.load()));
            let busy = shared_nodes.iter().filter(|n| !n.is_idle()).count();
            prop_assert_eq!(shared.lent(), busy);
            prop_assert_eq!(shared.spares() + shared.lent(), shared.peak_lent());
        }
        for (node, (solo, own)) in shared_nodes.iter_mut().zip(&mut alone) {
            run_out(node, &mut shared);
            run_out(solo, own);
            prop_assert_eq!(drained(&mut shared), drained(own));
            prop_assert_eq!(load_bits(node.load()), load_bits(solo.load()));
        }
        prop_assert_eq!(shared.lent(), 0);
        prop_assert_eq!(shared.spares(), shared.peak_lent());
    }
}

#[test]
fn kill_all_is_oldest_first_and_deterministic() {
    // Two identical nodes crashed at the same moment charge the same
    // context switches: the kill order is the slot (admission) order.
    let run = || {
        let mut n = Node::new(0, OsParams::default());
        let mut scratch = NodeScratch::default();
        for i in 0..6u64 {
            let spec = DemandSpec::static_fetch(SimDuration::from_millis(30 + i), 1.0, 4);
            n.submit(&spec, SimTime::ZERO, 10 - i, &mut scratch);
        }
        for _ in 0..3 {
            let t = n.next_event().expect("busy");
            n.advance(t, &mut scratch);
        }
        let tags = n.kill_all(&mut scratch);
        (tags, n.context_switches())
    };
    let (tags, switches) = run();
    assert_eq!(tags, vec![5, 6, 7, 8, 9, 10], "lost tags come back sorted");
    for _ in 0..4 {
        assert_eq!(run(), (tags.clone(), switches));
    }
}
