//! The emulated node: a worker thread that owns one [`msweb_ossim::Node`]
//! — the simulator's own machine model — and runs it in real time.
//!
//! The node keeps unscaled model time; a [`ModelClock`] places model time
//! `t` at wall instant `t0 + time_scale·t`. The worker blocks on its
//! channel until the wall deadline of the node's next internal event. On
//! each wake it first advances every event that is due (so a late wake
//! catches up in one go and dense disk-page events cost no extra
//! wakeups), then submits the jobs that arrived at the current mapped
//! time — an arrival therefore preempts a running slice exactly as it
//! does in the simulator. Completions go back as [`Done`] stamped with the
//! wall instant the worker saw them, and after every wake the node's
//! [`Node::load`] counters are published into [`NodeStats`] for the load
//! monitor, the telemetry sampler and `top`.
//!
//! Every difference between a live run and a simulated one is therefore
//! wall-clock overhead: wake lateness, channel hops and timer noise.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use msweb_ossim::{LoadSnapshot, Node};
use msweb_simcore::{SimDuration, SimTime};

use crate::job::{Done, Job, NodeMsg};
use crate::timing::{wait_until, ModelClock};

/// What a node worker last published: its OS model's load counters, with
/// busy times in wall nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeLoadStats {
    /// Cumulative CPU busy time (slices and context switches), wall ns.
    pub cpu_busy_ns: u64,
    /// Cumulative disk busy time (completed pages), wall ns.
    pub disk_busy_ns: u64,
    /// Fraction of physical memory free.
    pub mem_free_ratio: f64,
    /// Ready-queue length, counting the running process.
    pub ready_len: usize,
    /// Processes queued at the disk.
    pub disk_queue_len: usize,
    /// Live processes (requests on the node).
    pub processes: usize,
    /// Requests finished.
    pub finished: u64,
}

impl Default for NodeLoadStats {
    fn default() -> Self {
        NodeLoadStats {
            cpu_busy_ns: 0,
            disk_busy_ns: 0,
            mem_free_ratio: 1.0,
            ready_len: 0,
            disk_queue_len: 0,
            processes: 0,
            finished: 0,
        }
    }
}

impl NodeLoadStats {
    /// CPU plus disk busy time, wall ns.
    pub fn busy_ns(&self) -> u64 {
        self.cpu_busy_ns + self.disk_busy_ns
    }

    /// The monitor's view at (wall-derived) time `at`; busy times in
    /// wall microseconds, matching the monitor's wall-clock window.
    pub fn snapshot(&self, at: SimTime) -> LoadSnapshot {
        LoadSnapshot {
            at,
            cpu_busy: SimDuration::from_micros(self.cpu_busy_ns / 1000),
            disk_busy: SimDuration::from_micros(self.disk_busy_ns / 1000),
            mem_free_ratio: self.mem_free_ratio,
            ready_len: self.ready_len,
            disk_queue_len: self.disk_queue_len,
            processes: self.processes,
        }
    }
}

/// The counters one node worker shares with the monitor. A lock, not
/// separate atomics, so every reader sees one consistent snapshot.
#[derive(Debug, Default)]
pub struct NodeStats(Mutex<NodeLoadStats>);

impl NodeStats {
    /// The latest published counters.
    pub fn read(&self) -> NodeLoadStats {
        *self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn publish(&self, node: &Node, clock: &ModelClock) {
        let load = node.load();
        let stats = NodeLoadStats {
            cpu_busy_ns: clock.scale(load.cpu_busy).as_nanos() as u64,
            disk_busy_ns: clock.scale(load.disk_busy).as_nanos() as u64,
            mem_free_ratio: load.mem_free_ratio,
            ready_len: load.ready_len,
            disk_queue_len: load.disk_queue_len,
            processes: load.processes,
            finished: node.counters().1,
        };
        *self.0.lock().unwrap_or_else(PoisonError::into_inner) = stats;
    }
}

/// The body of a node worker thread: run `node` against `clock` until
/// `Shutdown` arrives (or every sender is gone) and the node is idle.
pub fn node_worker(
    mut node: Node,
    clock: ModelClock,
    rx: Receiver<NodeMsg>,
    done_tx: Sender<Done>,
    stats: Arc<NodeStats>,
) {
    let mut open = true;
    let mut jobs: Vec<Job> = Vec::new();
    let mut completed = Vec::new();
    loop {
        let due = node.next_event().map(|t| clock.wall(t));
        let msg = match (open, due) {
            (false, None) => return,
            (false, Some(at)) => {
                wait_until(at);
                None
            }
            (true, None) => Some(rx.recv().unwrap_or(NodeMsg::Shutdown)),
            (true, Some(at)) => match rx.recv_timeout(at.saturating_duration_since(Instant::now()))
            {
                Ok(msg) => Some(msg),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => Some(NodeMsg::Shutdown),
            },
        };
        for msg in msg.into_iter().chain(rx.try_iter()) {
            match msg {
                NodeMsg::Run(job) => jobs.push(job),
                NodeMsg::Shutdown => open = false,
            }
        }

        let now = Instant::now();
        while let Some(t) = node.next_event().filter(|&t| clock.wall(t) <= now) {
            node.advance(t);
        }
        let at = clock.model(now).max(node.now());
        for job in jobs.drain(..) {
            node.submit(&job.spec, at, job.id);
        }
        node.drain_completed_into(&mut completed);
        for c in completed.drain(..) {
            let _ = done_tx.send(Done {
                id: c.tag,
                finished: now,
            });
        }
        stats.publish(&node, &clock);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use msweb_cluster::{ClusterConfig, PolicyKind};
    use msweb_ossim::{run_to_idle, DemandSpec};

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    /// A sun-cluster node, built the way a live run builds its fleet.
    fn sun_node() -> Node {
        ClusterConfig::simulation(6, PolicyKind::MasterSlave)
            .with_masters(2)
            .nodes()
            .swap_remove(0)
    }

    /// Queue `specs` (then `Shutdown`) before the worker starts, run it
    /// to completion and return its reports plus the final counters.
    fn run_worker(specs: &[DemandSpec], clock: ModelClock) -> (Vec<Done>, NodeLoadStats) {
        let (tx, rx) = unbounded();
        let (dtx, drx) = unbounded();
        for (id, spec) in specs.iter().enumerate() {
            tx.send(NodeMsg::Run(Job {
                id: id as u64,
                spec: *spec,
            }))
            .unwrap();
        }
        tx.send(NodeMsg::Shutdown).unwrap();
        let stats = Arc::new(NodeStats::default());
        let shared = Arc::clone(&stats);
        let node = sun_node();
        std::thread::spawn(move || node_worker(node, clock, rx, dtx, shared))
            .join()
            .unwrap();
        (drx.try_iter().collect(), stats.read())
    }

    #[test]
    fn worker_matches_ossim_run_to_idle() {
        // CPU hogs, disk-bound reads and forked CGI with working sets,
        // all submitted at one mapped time: the worker must reproduce the
        // model's completion order whatever the host's wake latency.
        let specs = [
            DemandSpec::cgi(ms(40), 0.9, 64),
            DemandSpec::static_fetch(ms(6), 0.2, 1),
            DemandSpec::cgi(ms(30), 0.1, 128),
            DemandSpec::static_fetch(ms(3), 0.5, 2),
            DemandSpec::static_fetch(ms(25), 1.0, 1),
            DemandSpec::cgi(ms(12), 0.5, 32),
            DemandSpec::static_fetch(ms(9), 0.0, 3),
        ];
        let clock = ModelClock::new(Instant::now(), 0.05);
        let (done, stats) = run_worker(&specs, clock);

        let mut reference = sun_node();
        for (id, spec) in specs.iter().enumerate() {
            reference.submit(spec, SimTime::ZERO, id as u64);
        }
        let model = run_to_idle(&mut reference, 100_000);
        let ids: Vec<u64> = done.iter().map(|d| d.id).collect();
        let model_ids: Vec<u64> = model.iter().map(|c| c.tag).collect();
        assert_eq!(ids, model_ids, "worker and ossim completion orders differ");
        for (d, c) in done.iter().zip(&model) {
            assert!(
                d.finished >= clock.wall(c.finished),
                "request {} reported before its model finish",
                d.id
            );
        }
        assert_eq!(stats.finished, specs.len() as u64);
        assert_eq!(stats.processes, 0);
        assert_eq!(stats.mem_free_ratio, 1.0);
        let load = reference.load();
        assert_eq!(
            stats.cpu_busy_ns,
            clock.scale(load.cpu_busy).as_nanos() as u64
        );
        assert_eq!(
            stats.disk_busy_ns,
            clock.scale(load.disk_busy).as_nanos() as u64
        );
    }

    #[test]
    fn shutdown_drains_everything() {
        let specs = [DemandSpec::static_fetch(ms(4), 0.5, 1); 5];
        let (done, stats) = run_worker(&specs, ModelClock::new(Instant::now(), 0.1));
        assert_eq!(done.len(), 5);
        assert_eq!(stats.finished, 5);
        assert_eq!(stats.processes, 0);
    }
}
