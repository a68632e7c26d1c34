//! Smoke tests of the live thread-backed cluster: completeness, class
//! accounting, and agreement with the simulator on policy *ordering*.
//! Absolute live timings depend on the host; assertions here are loose.

use std::cell::RefCell;
use std::rc::Rc;

use msweb::cluster::NodeSample;
use msweb::prelude::*;

/// The six-node prototype shape, monitoring every `period` of model
/// time.
fn sun(policy: PolicyKind, m: usize, period: SimDuration) -> ClusterConfig {
    ClusterConfig::simulation(6, policy)
        .with_masters(m)
        .with_monitor_period(period)
}

/// A live run whose monitor ticks every 100 ms of wall time.
fn live(policy: PolicyKind, m: usize, trace: &Trace, scale: f64) -> RunSummary {
    let period = SimDuration::from_secs_f64(0.1 / scale);
    let cfg = sun(policy, m, period);
    emulate(cfg, trace, RunOptions::new(), Realtime::scaled(scale)).summary
}

#[test]
fn live_accounts_every_request_and_class() {
    let trace = ucb()
        .generate(80, &DemandModel::sun_cluster(40.0), 21)
        .scaled_to_rate(40.0);
    let s = live(PolicyKind::MasterSlave, 3, &trace, 0.1);
    assert_eq!(s.completed, 80);
    assert_eq!(
        s.completed_static + s.completed_dynamic,
        s.completed,
        "class counts must partition completions"
    );
    let cgi_in_trace = trace
        .requests
        .iter()
        .filter(|r| r.class.is_dynamic())
        .count() as u64;
    assert_eq!(s.completed_dynamic, cgi_in_trace);
}

#[test]
fn live_stretch_is_at_least_one() {
    let trace = ksu()
        .generate(60, &DemandModel::sun_cluster(40.0), 22)
        .scaled_to_rate(20.0);
    let s = live(PolicyKind::Flat, 1, &trace, 0.2);
    assert!(s.stretch >= 1.0, "stretch {}", s.stretch);
}

#[test]
fn live_ms_keeps_masters_clean_at_light_load() {
    let trace = ucb()
        .generate(100, &DemandModel::sun_cluster(40.0), 23)
        .scaled_to_rate(30.0);
    let s = live(PolicyKind::MasterSlave, 3, &trace, 0.1);
    let frac = s.dynamic_on_master as f64 / s.completed_dynamic.max(1) as f64;
    assert!(
        frac < 0.4,
        "live reservation should keep most CGI off masters, got {frac}"
    );
}

#[test]
fn live_remote_transfers_deliver() {
    // With a single master, every dynamic request must be transferred to
    // a slave (remote latency path) and still complete.
    let trace = adl()
        .generate(60, &DemandModel::sun_cluster(20.0), 24)
        .scaled_to_rate(15.0);
    let s = live(PolicyKind::MasterSlave, 1, &trace, 0.2);
    assert_eq!(s.completed, 60);
    assert!(s.completed_dynamic > 0);
}

#[test]
fn live_ticks_publish_the_node_model_load() {
    // The live nodes run the simulator's OS model, so a monitor tick sees
    // real memory, queue and process counts: every node hosting a
    // request holds its working set.
    let trace = ucb()
        .generate(120, &DemandModel::sun_cluster(40.0), 25)
        .scaled_to_rate(60.0);
    // Monitor every 100 ms of model time: 10 ms of wall time.
    let cfg = sun(PolicyKind::MasterSlave, 3, SimDuration::from_millis(100));
    let collector = Rc::new(RefCell::new(CollectingObserver::default()));
    let opts = RunOptions::new().observer(Box::new(Rc::clone(&collector)));
    let s = emulate(cfg, &trace, opts, Realtime::scaled(0.1)).summary;
    assert_eq!(s.completed, 120);

    let busy: Vec<NodeSample> = collector
        .borrow()
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Tick { nodes, .. } => Some(nodes.clone()),
            _ => None,
        })
        .flatten()
        .filter(|n| n.processes > 0)
        .collect();
    assert!(!busy.is_empty(), "no tick saw a node with a live process");
    for n in &busy {
        assert!(
            n.mem_free_ratio < 1.0,
            "node with {} processes reports all memory free",
            n.processes
        );
    }
}
