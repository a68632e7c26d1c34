//! Golden fixture pinning every decision-log event kind byte for byte.
//!
//! The region fixtures hold only `meta`, `decision` and `complete`
//! lines; this one also covers `tick`, `node-down`/`node-up`, both
//! kinds of `drop` (fail-over and front end), `alert`, a `meta` line
//! with a registry spec label and one with per-node speeds, and remote
//! decisions whose candidate range has dead nodes, and that carry the
//! `restart` flag. Two short crash runs write into one in-memory log,
//! so any change to how an event is encoded shows up as a fixture diff.
//! The same runs' schema-v2 log, with candidate lists and scores, stays
//! committed unchanged next to it (`decisions-ms-events-p8.v2.jsonl`):
//! `tests/golden_log_readers.rs` checks that both read alike.
//!
//! A second pin covers volume rather than shape: a p = 128 crash run
//! with restarts and fail-over drops, whose log holds thousands of
//! remote decisions. That log is too large to commit, so it is pinned
//! by its line count and an FNV-1a-64 digest of its bytes. (Since v3
//! writes no per-candidate scores, it renders fewer distinct floats
//! than the encoder's float memo has slots; the unit test
//! `float_memo_survives_collisions_and_evictions` in
//! `cluster::sched::trace` covers collisions and evictions.)
//!
//! Regenerate the fixtures (only when a schema change is intended and
//! reviewed) with:
//!
//! ```sh
//! MSWEB_BLESS=1 cargo test --test golden_events
//! ```

use msweb::cluster::sched::{encode_event, parse_line, Candidates};
use msweb::cluster::SharedSeriesBuffer;
use msweb::prelude::*;

const FIXTURE: &str = "decisions-ms-events-p8.jsonl";
/// The same log in schema v2, as it was written before v3.
const V2_FIXTURE: &str = "decisions-ms-events-p8.v2.jsonl";
const CRASH_DIGEST: &str = "decisions-ms-crash-p128.digest";

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

/// Run 3: the paper's 128-node cluster under load with a crash plan.
/// Eight single slaves die with restarts on and come back; then a
/// quarter of the slaves die together without restarts, so their lost
/// work is dropped on the fail-over path.
fn crash_run_p128() -> String {
    const P: usize = 128;
    const N: usize = 10_000;
    let lambda = 31.25 * P as f64;
    let trace = ucb()
        .generate(N, &DemandModel::simulation(40.0), 11)
        .scaled_to_rate(lambda);
    let m = plan_masters(P, lambda, ucb().arrival_ratio_a(), 1.0 / 40.0, 1200.0);
    let cfg = ClusterConfig::simulation(P, PolicyKind::MasterSlave)
        .with_masters(m)
        .with_seed(11)
        .with_monitor_period(SimDuration::from_millis(100));
    // Crash k of 9 at k tenths of the run; each node is down 200 ms.
    let slaves = P - m;
    let at_ms = |k: usize| (N as f64 / lambda * 100.0 * k as f64) as u64;
    let restarts =
        (1..=8).map(|k| crash(m + (k * 7) % slaves, at_ms(k), true, Some(at_ms(k) + 200)));
    let rack = (m..m + slaves / 4).map(|node| crash(node, at_ms(9), false, Some(at_ms(9) + 200)));
    let buf = SharedSeriesBuffer::new();
    let mut sim =
        policy_sim(cfg, &trace).with_failures(FailurePlan::new(restarts.chain(rack).collect()));
    sim.scheduler_mut()
        .set_observer(Some(Box::new(JsonlSink::new(buf.clone()))));
    sim.run(&trace);
    drop(sim);
    buf.contents()
}

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/golden")
        .join(name)
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
        "remote decision with a candidate range",
        &|e| matches!(e, TraceEvent::Decision(d) if matches!(d.candidates, Candidates::Range { .. })),
    );
    has(
        "candidate range with a dead node",
        &|e| matches!(e, TraceEvent::Decision(d) if matches!(&d.candidates, Candidates::Range { dead, .. } if !dead.is_empty())),
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
    let path = fixture_path(FIXTURE);
    if std::env::var_os("MSWEB_BLESS").is_some() {
        std::fs::write(&path, &log).unwrap();
        return;
    }
    let want =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing fixture {path:?}: {e}"));
    assert!(log == want, "decision log drifted from fixture {path:?}");
}

#[test]
fn p128_crash_log_matches_its_digest() {
    let log = crash_run_p128();
    let parsed = TraceLog::parse(&log).expect("log parses");
    assert_eq!(parsed.warnings, Vec::<String>::new());
    let ev = &parsed.events;
    let count = |f: &dyn Fn(&TraceEvent) -> bool| ev.iter().filter(|e| f(e)).count();
    let remote = count(&|e| matches!(e, TraceEvent::Decision(d) if !d.candidates.is_empty()));
    assert!(remote >= 1_000, "only {remote} remote decisions");
    assert!(count(&|e| matches!(e, TraceEvent::Decision(d) if d.restart)) > 0);
    assert!(count(&|e| matches!(e, TraceEvent::Drop(d) if d.restart)) > 0);
    assert!(count(&|e| matches!(e, TraceEvent::NodeDown { .. })) > 8);

    let got = format!(
        "lines {}\nfnv1a64 {:016x}\n",
        log.lines().count(),
        fnv1a64(log.as_bytes())
    );
    let path = fixture_path(CRASH_DIGEST);
    if std::env::var_os("MSWEB_BLESS").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing fixture {path:?}: {e}"));
    assert_eq!(got, want, "p = 128 decision log drifted from {path:?}");
}

/// Every line of the committed decision-log fixtures parses back to an
/// event that re-encodes to the same bytes.
#[test]
fn fixture_lines_round_trip_byte_for_byte() {
    let mut lines = 0;
    for name in [
        FIXTURE,
        "regions-greedy-p32.jsonl",
        "regions-greedy-p128.jsonl",
        "regions-nearest-p32.jsonl",
        "regions-nearest-p128.jsonl",
    ] {
        let path = fixture_path(name);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing fixture {path:?}: {e}"));
        for (i, line) in text.lines().enumerate() {
            let (event, warnings) =
                parse_line(line).unwrap_or_else(|e| panic!("{name}:{}: {e}", i + 1));
            assert_eq!(warnings, Vec::<String>::new(), "{name}:{}", i + 1);
            assert!(
                encode_event(&event) == line,
                "{name}:{} does not re-encode to its own bytes",
                i + 1
            );
            lines += 1;
        }
    }
    assert!(lines > 1_000, "only {lines} fixture lines");
}

/// The committed schema-v2 log parses without a warning, and re-encodes
/// to the v3 log of the same runs line for line: v3 drops only the
/// `scores` and writes the candidate list as the range it is.
#[test]
fn v2_fixture_reads_as_the_v3_log() {
    let v2 = std::fs::read_to_string(fixture_path(V2_FIXTURE)).expect("v2 fixture");
    let v3 = std::fs::read_to_string(fixture_path(FIXTURE)).expect("v3 fixture");
    let (old, new) = (TraceLog::parse(&v2).unwrap(), TraceLog::parse(&v3).unwrap());
    assert_eq!(old.warnings, Vec::<String>::new());
    assert_eq!(old.events.len(), new.events.len());
    assert!(v2.lines().all(|l| l.starts_with("{\"v\":2,")));
    for (i, (a, b)) in old.events.iter().zip(&new.events).enumerate() {
        match (a, b) {
            (TraceEvent::Decision(a), TraceEvent::Decision(b)) => {
                assert_eq!(a.scores.len(), a.candidates.len(), "line {}", i + 1);
                assert_eq!(
                    a.candidates.sorted(),
                    b.candidates.sorted(),
                    "line {}",
                    i + 1
                );
                let (mut a, mut b) = (a.clone(), b.clone());
                a.scores.clear();
                a.candidates = Candidates::default();
                b.candidates = Candidates::default();
                assert_eq!(a, b, "line {}", i + 1);
            }
            (a, b) => assert_eq!(a, b, "line {}", i + 1),
        }
    }
}
