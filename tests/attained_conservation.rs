//! Attained-service conservation on the *live* substrate: an auditing
//! `Schedule` wrapper checks, call by call, that the emulation feeds the
//! scheduler an account of received service that is monotone, capped at
//! the request's true (scaled) demand, and closed exactly once per
//! completion — the same invariants `crates/cluster/tests/proptests.rs`
//! checks for the simulator, here checked against real wall-clock
//! execution.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use msweb::prelude::*;
use proptest::prelude::*;

/// What the auditor observed for one in-flight request.
#[derive(Debug, Clone, Copy)]
struct Flight {
    node: usize,
    attained_us: u64,
}

#[derive(Debug, Default)]
struct Audit {
    /// True scaled demand per request, learned from `note_request` —
    /// the one channel the substrate legitimately leaks truth through.
    truth_us: HashMap<u64, u64>,
    tracked: HashMap<u64, Flight>,
    ended: u64,
    violations: Vec<String>,
}

/// Forwards every `Schedule` call to the wrapped scheduler, mirroring
/// the attained-service feed into its own books so the invariants can
/// be checked from outside the scheduler under test.
struct Auditor<S> {
    inner: S,
    audit: Rc<RefCell<Audit>>,
}

impl<S: Schedule> Schedule for Auditor<S> {
    fn place(
        &mut self,
        dynamic: bool,
        know: ReqKnowledge,
        monitor: &mut LoadMonitor,
    ) -> Result<Placement, PlacementError> {
        self.inner.place(dynamic, know, monitor)
    }

    fn replace_after_failure(
        &mut self,
        dynamic: bool,
        know: ReqKnowledge,
        monitor: &mut LoadMonitor,
    ) -> Result<Placement, PlacementError> {
        self.inner.replace_after_failure(dynamic, know, monitor)
    }

    fn masters(&self) -> usize {
        self.inner.masters()
    }

    fn set_dead(&mut self, node: usize, dead: bool) {
        self.inner.set_dead(node, dead);
    }

    fn is_dead(&self, node: usize) -> bool {
        self.inner.is_dead(node)
    }

    fn note_completion(&mut self, node: usize) {
        self.inner.note_completion(node);
    }

    fn in_flight(&self, node: usize) -> u32 {
        self.inner.in_flight(node)
    }

    fn reservation(&self) -> &ReservationController {
        self.inner.reservation()
    }

    fn reservation_mut(&mut self) -> &mut ReservationController {
        self.inner.reservation_mut()
    }

    fn set_observer(&mut self, observer: Option<Box<dyn DecisionObserver>>) {
        self.inner.set_observer(observer);
    }

    fn tracing(&self) -> bool {
        self.inner.tracing()
    }

    fn emit(&mut self, event: &TraceEvent) {
        self.inner.emit(event);
    }

    fn note_request(&mut self, req: u64, at: SimTime, demand: SimDuration) {
        self.audit
            .borrow_mut()
            .truth_us
            .insert(req, demand.as_micros());
        self.inner.note_request(req, at, demand);
    }

    fn set_telemetry_enabled(&mut self, on: bool) {
        self.inner.set_telemetry_enabled(on);
    }

    fn telemetry(&self) -> Option<&SchedTelemetry> {
        self.inner.telemetry()
    }

    fn scorer_path_counts(&self) -> Option<ScorerPaths> {
        self.inner.scorer_path_counts()
    }

    fn note_service_start(&mut self, node: usize, tag: u64) {
        self.audit.borrow_mut().tracked.insert(
            tag,
            Flight {
                node,
                attained_us: 0,
            },
        );
        self.inner.note_service_start(node, tag);
    }

    fn note_service_progress(&mut self, node: usize, tag: u64, attained: SimDuration) {
        {
            let mut audit = self.audit.borrow_mut();
            let truth = audit.truth_us.get(&tag).copied();
            let mut faults = Vec::new();
            if let Some(fl) = audit.tracked.get_mut(&tag) {
                let new = attained.as_micros();
                if node != fl.node {
                    faults.push(format!(
                        "req {tag}: progress on node {node} != {0}",
                        fl.node
                    ));
                } else {
                    if new < fl.attained_us {
                        faults.push(format!(
                            "req {tag}: attained regressed {} -> {new}",
                            fl.attained_us
                        ));
                    }
                    fl.attained_us = fl.attained_us.max(new);
                    match truth {
                        Some(t) if new <= t => {}
                        Some(t) => {
                            faults.push(format!("req {tag}: attained {new} > true demand {t}"))
                        }
                        None => faults.push(format!("req {tag}: progress before note_request")),
                    }
                }
            }
            audit.violations.extend(faults);
        }
        self.inner.note_service_progress(node, tag, attained);
    }

    fn note_service_end(&mut self, node: usize, tag: u64, total: SimDuration) {
        {
            let mut audit = self.audit.borrow_mut();
            match audit.tracked.remove(&tag) {
                Some(fl) => {
                    if fl.attained_us > total.as_micros() {
                        audit.violations.push(format!(
                            "req {tag}: attained {} overran completed total {}",
                            fl.attained_us,
                            total.as_micros()
                        ));
                    }
                    if fl.node != node {
                        audit
                            .violations
                            .push(format!("req {tag}: ended on node {node} != {0}", fl.node));
                    }
                }
                None => audit
                    .violations
                    .push(format!("req {tag}: completion without service start")),
            }
            match audit.truth_us.get(&tag) {
                Some(&t) if t == total.as_micros() => {}
                Some(&t) => audit.violations.push(format!(
                    "req {tag}: completed total {} != declared truth {t}",
                    total.as_micros()
                )),
                None => {}
            }
            audit.ended += 1;
        }
        self.inner.note_service_end(node, tag, total);
    }

    fn note_service_lost(&mut self, node: usize, tag: u64) {
        self.audit.borrow_mut().tracked.remove(&tag);
        self.inner.note_service_lost(node, tag);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Few cases — each replays a (scaled) trace in real time.
    #[test]
    fn attained_service_is_conserved_on_the_live_substrate(
        n in 20usize..40,
        seed in 0u64..1_000,
        m in 1usize..4,
    ) {
        let trace = ucb()
            .generate(n, &DemandModel::sun_cluster(40.0), seed)
            .scaled_to_rate(40.0);
        // Monitor every 500 ms of model time: 25 ms of wall time.
        let cfg = ClusterConfig::simulation(6, PolicyKind::MasterSlave).with_masters(m);
        let stats = WorkloadStats::from_trace(&trace);
        let audit = Rc::new(RefCell::new(Audit::default()));
        let scheduler = Auditor {
            inner: DynScheduler::for_policy(&cfg, stats.a0, stats.r0),
            audit: Rc::clone(&audit),
        };
        let s = emulate_source(
            cfg,
            trace.source(),
            stats,
            scheduler,
            None,
            RunOptions::new(),
            Realtime::scaled(0.05),
        )
        .summary;
        let audit = audit.borrow();
        prop_assert!(audit.violations.is_empty(), "{}", audit.violations.join("\n"));
        prop_assert_eq!(audit.ended, s.completed as u64);
        prop_assert!(
            audit.tracked.is_empty(),
            "{} flights never closed",
            audit.tracked.len()
        );
    }
}
