//! Golden fixture pinning every decision-log event kind byte for byte.
//!
//! The region fixtures hold only `meta`, `decision` and `complete`
//! lines; this one also covers `tick`, `node-down`/`node-up`, both
//! kinds of `drop` (fail-over and front end), `alert`, a `meta` line
//! with a registry spec label and one with per-node speeds, and remote
//! decisions that carry `candidates`/`scores` and the `restart` flag.
//! Two short crash runs write into one in-memory log, so any change to
//! how an event is encoded shows up as a fixture diff.
//!
//! Regenerate the fixture (only when a schema change is intended and
//! reviewed) with:
//!
//! ```sh
//! MSWEB_BLESS=1 cargo test --test golden_events
//! ```

use msweb::cluster::SharedSeriesBuffer;
use msweb::prelude::*;

const FIXTURE: &str = "decisions-ms-events-p8.jsonl";

/// Fires on any window whose drop rate exceeds 1 %.
const DROP_RULE: &str = r#"{"rules":[{"name":"drops","signal":"drop_rate","budget":0.01,
    "burn":[{"windows":1,"rate":1.0}]}]}"#;

fn crash(node: usize, ms: u64, restart_dynamic: bool, recover_ms: Option<u64>) -> FailureEvent {
    FailureEvent {
        at: SimTime::from_millis(ms),
        node,
        restart_dynamic,
        recover_at: recover_ms.map(SimTime::from_millis),
    }
}

fn drop_engine() -> SloEngine {
    SloEngine::new(SloRules::from_json(DROP_RULE).expect("rules parse"))
}

/// Run 1: a registry-composed M/S pipeline on eight nodes (spec label
/// in the meta line). Node 5 dies with restarts on and comes back;
/// node 6 dies for good without restarts, so its lost work is dropped
/// on the fail-over path.
fn spec_run(buf: &SharedSeriesBuffer) {
    let trace = ksu()
        .generate(150, &DemandModel::simulation(40.0), 42)
        .scaled_to_rate(1_000.0);
    let stats = WorkloadStats::from_trace(&trace);
    let cfg = ClusterConfig::simulation(8, PolicyKind::MasterSlave)
        .with_masters(3)
        .with_seed(42)
        .with_monitor_period(SimDuration::from_millis(25));
    let spec = StageSpec::for_policy(PolicyKind::MasterSlave);
    let mut scheduler = SchedulerRegistry::builtin()
        .compose(&cfg, &spec, stats.a0, stats.r0)
        .expect("M/S pipeline composes");
    scheduler.set_observer(Some(Box::new(JsonlSink::new(buf.clone()))));
    let plan = FailurePlan::new(vec![
        crash(5, 50, true, Some(110)),
        crash(6, 80, false, None),
    ]);
    let mut sim = ClusterSim::with_scheduler(cfg, scheduler)
        .with_priors(stats.a0, stats.r0)
        .with_mean_demands(stats.static_mean, stats.dynamic_mean)
        .with_spec_label(spec.render())
        .with_failures(plan)
        .with_slo(drop_engine());
    sim.run(&trace);
}

/// Run 2: two nodes of unequal speed (speeds in the meta line). Both
/// die while busy and stay down for a while, so arrivals in between
/// find no live node and are dropped at the front end.
fn speeds_run(buf: &SharedSeriesBuffer) {
    let trace = ucb()
        .generate(40, &DemandModel::simulation(40.0), 7)
        .scaled_to_rate(300.0);
    let cfg = ClusterConfig::simulation(2, PolicyKind::MasterSlave)
        .with_masters(1)
        .with_seed(7)
        .with_speeds(vec![1.0, 2.5])
        .with_monitor_period(SimDuration::from_millis(25));
    let plan = FailurePlan::new(vec![
        crash(1, 40, true, Some(100)),
        crash(0, 45, true, Some(90)),
    ]);
    let mut sim = policy_sim(cfg, &trace)
        .with_failures(plan)
        .with_slo(drop_engine());
    sim.scheduler_mut()
        .set_observer(Some(Box::new(JsonlSink::new(buf.clone()))));
    sim.run(&trace);
}

fn events_log() -> String {
    let buf = SharedSeriesBuffer::new();
    spec_run(&buf);
    speeds_run(&buf);
    buf.contents()
}

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/golden")
        .join(FIXTURE)
}

/// The fixture is only a guard if it holds every event kind the encoder
/// writes, in each of the shapes listed in the module docs.
fn assert_covers_every_event_kind(log: &str) {
    let parsed = TraceLog::parse(log).expect("log parses");
    assert_eq!(parsed.warnings, Vec::<String>::new());
    let ev = &parsed.events;
    let has = |what: &str, f: &dyn Fn(&TraceEvent) -> bool| {
        assert!(ev.iter().any(f), "fixture log holds no {what}");
    };
    has(
        "meta with a spec label",
        &|e| matches!(e, TraceEvent::Meta(m) if m.spec.is_some()),
    );
    has(
        "meta with speeds",
        &|e| matches!(e, TraceEvent::Meta(m) if m.speeds.is_some()),
    );
    has(
        "remote decision with scores",
        &|e| matches!(e, TraceEvent::Decision(d) if !d.candidates.is_empty() && !d.scores.is_empty()),
    );
    has(
        "fail-over restart decision",
        &|e| matches!(e, TraceEvent::Decision(d) if d.restart),
    );
    has("complete", &|e| matches!(e, TraceEvent::Complete { .. }));
    has("tick", &|e| matches!(e, TraceEvent::Tick { .. }));
    has("node-down", &|e| matches!(e, TraceEvent::NodeDown { .. }));
    has("node-up", &|e| matches!(e, TraceEvent::NodeUp { .. }));
    has(
        "fail-over drop",
        &|e| matches!(e, TraceEvent::Drop(d) if d.restart),
    );
    has(
        "front-end drop",
        &|e| matches!(e, TraceEvent::Drop(d) if !d.restart),
    );
    has("alert", &|e| matches!(e, TraceEvent::Alert { .. }));
}

#[test]
fn every_event_kind_matches_the_fixture() {
    let log = events_log();
    assert_covers_every_event_kind(&log);
    assert_eq!(log, events_log(), "the log must be byte-deterministic");
    let path = fixture_path();
    if std::env::var_os("MSWEB_BLESS").is_some() {
        std::fs::write(&path, &log).unwrap();
        return;
    }
    let want =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing fixture {path:?}: {e}"));
    assert!(log == want, "decision log drifted from fixture {path:?}");
}
