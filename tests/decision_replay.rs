//! Differential tests for the counterfactual decision-log replay
//! analyzer (`cluster::sched::replay`, surfaced as `msweb analyze`).
//!
//! The core contract: a decision log replayed under its own recorded
//! composition is a *fixed point* — zero divergent placements, no stage
//! disagreement, identical model stretch and balance — for every
//! built-in policy, at p = 32 and p = 128, on logs produced by the real
//! simulator driver. And the analysis itself is deterministic: the same
//! log analyzed twice renders byte-identical JSON.
//!
//! Golden `AnalysisReport` fixtures live in `tests/fixtures/golden/`;
//! regenerate (only when a behaviour change is intended and reviewed)
//! with:
//!
//! ```sh
//! MSWEB_BLESS=1 cargo test --test decision_replay
//! ```

use std::io::Write;
use std::path::PathBuf;
use std::process::Command;

use msweb::cluster::sched::encode_event;
use msweb::cluster::SharedSeriesBuffer;
use msweb::prelude::*;

const ALL_POLICIES: [PolicyKind; 8] = [
    PolicyKind::Flat,
    PolicyKind::MasterSlave,
    PolicyKind::MsNoSampling,
    PolicyKind::MsNoReservation,
    PolicyKind::MsAllMasters,
    PolicyKind::MsPrime,
    PolicyKind::Redirect,
    PolicyKind::Switch,
];

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("msweb-replay-{}-{name}", std::process::id()));
    p
}

/// Record a traced simulator run and parse the log back.
fn record(policy: PolicyKind, p: usize, m: usize, n: usize, lambda: f64) -> (TraceLog, RunSummary) {
    // Captured in memory, so tests running in parallel never share a file.
    let buf = SharedSeriesBuffer::new();
    let sink = JsonlSink::new(buf.clone());
    let summary = record_into(Box::new(sink), policy, p, m, n, lambda);
    let log = TraceLog::parse(&buf.contents()).expect("parse log");
    (log, summary)
}

/// Run the traced simulation `record` runs, with `observer` installed.
fn record_into(
    observer: Box<dyn DecisionObserver>,
    policy: PolicyKind,
    p: usize,
    m: usize,
    n: usize,
    lambda: f64,
) -> RunSummary {
    let trace = ucb()
        .generate(n, &DemandModel::simulation(40.0), 7)
        .scaled_to_rate(lambda);
    let cfg = ClusterConfig::simulation(p, policy)
        .with_masters(m)
        .with_seed(11);
    simulate(cfg, &trace, RunOptions::new().observer(observer)).summary
}

/// Writes a run's log in schema v2, as the writer before v3 did: each
/// remote decision lists its candidates in collection order, followed
/// by their `scores`.
struct V2Sink(SharedSeriesBuffer);

impl V2Sink {
    fn write(&mut self, v3: &str) {
        let line = v3.replacen("{\"v\":3,", "{\"v\":2,", 1);
        writeln!(self.0, "{line}").unwrap();
    }
}

impl DecisionObserver for V2Sink {
    fn observe(&mut self, record: &DecisionRecord) {
        let scores: Vec<String> = record
            .scores
            .iter()
            .map(|x| match x.is_finite() {
                true => format!("{x:?}"),
                false => "null".to_string(),
            })
            .collect();
        let line = encode_event(&TraceEvent::Decision(record.clone())).replacen(
            ",\"theta_hat\":",
            &format!(",\"scores\":[{}],\"theta_hat\":", scores.join(",")),
            1,
        );
        self.write(&line);
    }
    fn wants_scores(&self) -> bool {
        true
    }
    fn event(&mut self, event: &TraceEvent) {
        self.write(&encode_event(event));
    }
}

/// Self-replay must reconstruct the recorded run exactly.
fn assert_fixed_point(policy: PolicyKind, p: usize, m: usize, n: usize, lambda: f64) {
    let (log, summary) = record(policy, p, m, n, lambda);
    let report = analyze(&log, &ReplayOptions::default()).expect("analyze");
    assert_eq!(report.p, p);
    assert_eq!(
        report.decisions, summary.completed,
        "every completion was placed"
    );
    assert_eq!(
        report.divergent,
        0,
        "{} p={p}: self-replay placed {} of {} requests differently",
        policy.slug(),
        report.divergent,
        report.decisions
    );
    assert_eq!(
        report.first_disagreement,
        None,
        "{} p={p}: self-replay disagreed at some stage",
        policy.slug()
    );
    assert_eq!(report.counterfactual_dropped, 0);
    assert_eq!(report.model_stretch_delta, 0.0);
    assert_eq!(report.node_busy_cv_delta, 0.0);
    assert_eq!(report.baseline_spec, report.replay_spec);
}

#[test]
fn self_replay_is_a_fixed_point_for_every_policy_at_p32() {
    for policy in ALL_POLICIES {
        assert_fixed_point(policy, 32, 8, 800, 600.0);
    }
}

#[test]
fn self_replay_is_a_fixed_point_for_every_policy_at_p128() {
    for policy in ALL_POLICIES {
        assert_fixed_point(policy, 128, 16, 600, 1200.0);
    }
}

#[test]
fn analysis_is_deterministic_byte_for_byte() {
    let (log, _) = record(PolicyKind::MasterSlave, 32, 8, 800, 600.0);
    let a = analyze(&log, &ReplayOptions::default()).expect("first analysis");
    let b = analyze(&log, &ReplayOptions::default()).expect("second analysis");
    assert_eq!(a.to_json(), b.to_json(), "analysis is not deterministic");
}

/// The acceptance counterfactual: an M/S-with-reservation log replayed
/// under a no-reservation admission must diverge, and the *first*
/// disagreement must be attributed to the admission stage (the swapped
/// stage), not downstream ones.
#[test]
fn no_reservation_counterfactual_diverges_at_admission() {
    // A smaller, hotter cluster so the reservation actually gates
    // placements during the run.
    let (log, _) = record(PolicyKind::MasterSlave, 8, 4, 800, 400.0);
    let spec =
        StageSpec::parse("rotation-masters/none/level-split/rsrc-indexed-reserve/split-demand")
            .expect("spec parses");
    let opts = ReplayOptions {
        spec: Some(spec),
        run: 0,
    };
    let report = analyze(&log, &opts).expect("analyze");
    assert!(
        report.divergent > 0,
        "removing the reservation should change placements"
    );
    let first = report
        .first_disagreement
        .as_ref()
        .expect("divergent replay records its first disagreement");
    assert_eq!(
        first.stage,
        StageKind::Admission,
        "the swapped admission stage should disagree first, got {:?}",
        first.stage
    );
    // The divergence shows up in the aggregate deltas too: placements
    // moved, so per-node load assignment changed.
    assert!(report.stage_attribution.values().sum::<u64>() == report.divergent);
}

/// Golden `AnalysisReport` fixtures: a self-replay and the
/// no-reservation counterfactual of the same M/S log. Catches both
/// analyzer drift and encoder drift. The run's schema-v2 log, with
/// candidate lists and scores, must give the same reports byte for
/// byte.
#[test]
fn analysis_reports_match_golden_fixtures() {
    let bless = std::env::var_os("MSWEB_BLESS").is_some();
    let (log, summary) = record(PolicyKind::MasterSlave, 32, 8, 800, 600.0);
    let v2 = SharedSeriesBuffer::new();
    let v2_summary = record_into(
        Box::new(V2Sink(v2.clone())),
        PolicyKind::MasterSlave,
        32,
        8,
        800,
        600.0,
    );
    assert_eq!(summary, v2_summary, "the observer changed the run");
    let v2 = v2.contents();
    assert!(v2.contains("\"scores\":[") && v2.starts_with("{\"v\":2,"));
    let v2_log = TraceLog::parse(&v2).expect("parse the v2 log");
    assert_eq!(v2_log.warnings, Vec::<String>::new());

    let cf_spec =
        StageSpec::parse("rotation-masters/none/level-split/rsrc-indexed-reserve/split-demand")
            .expect("spec parses");
    let self_opts = ReplayOptions::default();
    let cf_opts = ReplayOptions {
        spec: Some(cf_spec),
        run: 0,
    };
    let self_report = analyze(&log, &self_opts).expect("self analysis");
    let cf_report = analyze(&log, &cf_opts).expect("counterfactual analysis");
    for (opts, report) in [(&self_opts, &self_report), (&cf_opts, &cf_report)] {
        let from_v2 = analyze(&v2_log, opts).expect("v2 analysis");
        assert_eq!(from_v2.to_json(), report.to_json(), "v2 and v3 logs differ");
    }

    let mut mismatches = Vec::new();
    for (name, report) in [
        ("analyze-ms-p32-self", &self_report),
        ("analyze-ms-p32-vs-none", &cf_report),
    ] {
        let got = report.to_json();
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures/golden")
            .join(format!("{name}.json"));
        if bless {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &got).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing fixture {path:?}: {e}"));
        if got != want {
            mismatches.push(format!(
                "{name}: report drifted from fixture {path:?}\n--- fixture\n{want}\n--- got\n{got}"
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n\n"));
}

/// Record a region-composed run — three-region ring, region-0 outage
/// mid-run with recovery, a cost series that makes the cost-aware
/// greedy selector leave the expensive home region — and parse the log
/// back.
fn record_region_outage(region_policy: &str) -> TraceLog {
    let p = 12;
    let m = 3;
    let regions = 3;
    let n = 600;
    let lambda = 400.0;
    // Region 0 is 15x as expensive as its neighbours: `region-greedy`
    // sends origin-0 traffic abroad from the first request, while
    // `region-nearest` (latency argmin) keeps it home — a divergence
    // rooted in the region stage itself, with every downstream stage
    // identical.
    let topo = RegionTopology::even(p, m, regions)
        .with_cost(vec![vec![15.0], vec![1.0], vec![1.0]], 1_000_000);
    let (ms, me) = topo.master_range(0);
    let (ss, se) = topo.slave_range(0);
    let replay_us = (n as f64 / lambda * 1e6) as u64;
    let failures = FailurePlan::new(
        (ms..me)
            .chain(ss..se)
            .map(|node| FailureEvent {
                at: SimTime(replay_us / 4),
                node,
                restart_dynamic: true,
                recover_at: Some(SimTime(replay_us * 6 / 10)),
            })
            .collect(),
    );
    let mix = RegionMix::uniform(regions);
    let trace = ucb()
        .generate(n, &DemandModel::simulation(40.0).with_region_mix(mix), 7)
        .scaled_to_rate(lambda);
    let a0 = ucb().arrival_ratio_a();
    let r0 = 1.0 / 40.0;
    let cfg = ClusterConfig::simulation(p, PolicyKind::MasterSlave)
        .with_masters(m)
        .with_seed(11)
        .with_regions(topo);
    let spec = StageSpec::for_policy(PolicyKind::MasterSlave).with_region(region_policy);
    let mut scheduler = SchedulerRegistry::builtin()
        .compose(&cfg, &spec, a0, r0)
        .expect("region pipeline composes");
    let buf = SharedSeriesBuffer::new();
    scheduler.set_observer(Some(Box::new(JsonlSink::new(buf.clone()))));
    let mut sim = ClusterSim::with_scheduler(cfg, scheduler)
        .with_priors(a0, r0)
        .with_spec_label(spec.render())
        .with_failures(failures);
    sim.run(&trace);
    TraceLog::parse(&buf.contents()).expect("parse log")
}

/// A region-outage log is a self-replay fixed point, and re-driving it
/// with the region stage swapped out diverges *at the region stage* —
/// the first disagreement is attributed to `region`, not `entry` or
/// anything downstream.
#[test]
fn region_outage_counterfactual_diverges_at_region_stage() {
    let log = record_region_outage("region-nearest");

    let self_report = analyze(&log, &ReplayOptions::default()).expect("self analysis");
    assert_eq!(
        self_report.divergent, 0,
        "region-outage self-replay must be a fixed point"
    );
    assert_eq!(self_report.first_disagreement, None);

    let swapped = StageSpec::parse(
        "region-greedy/rotation-masters/reservation/level-split/\
         rsrc-indexed-reserve/split-demand",
    )
    .expect("spec parses");
    let report = analyze(
        &log,
        &ReplayOptions {
            spec: Some(swapped),
            run: 0,
        },
    )
    .expect("counterfactual analysis");
    assert!(
        report.divergent > 0,
        "swapping the region selector should change placements"
    );
    let first = report
        .first_disagreement
        .as_ref()
        .expect("divergent replay records its first disagreement");
    assert_eq!(
        first.stage,
        StageKind::Region,
        "the swapped region stage should disagree first, got {:?}",
        first.stage
    );
    assert!(
        report.stage_attribution.get("region").copied().unwrap_or(0) > 0,
        "region divergence should appear in the stage attribution: {:?}",
        report.stage_attribution
    );
}

/// End-to-end through the binary: record with `msweb replay`, analyze
/// with `msweb analyze` — zero self-divergence (exit 0 under
/// `--fail-on-divergence`), byte-identical JSON across two invocations,
/// nonzero exit when the counterfactual spec diverges.
#[test]
fn analyze_cli_self_replay_reports_zero_divergence() {
    let path = tmp("cli-analyze.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_msweb"))
        .args([
            "replay",
            "--trace",
            "ucb",
            "--lambda",
            "200",
            "--p",
            "32",
            "--requests",
            "500",
            "--policy",
            "M/S",
            "--trace-decisions",
            path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn msweb replay");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let analyze_json = || {
        Command::new(env!("CARGO_BIN_EXE_msweb"))
            .args([
                "analyze",
                "--log",
                path.to_str().unwrap(),
                "--json",
                "--fail-on-divergence",
            ])
            .output()
            .expect("spawn msweb analyze")
    };
    let first = analyze_json();
    assert!(
        first.status.success(),
        "self-replay diverged:\n{}{}",
        String::from_utf8_lossy(&first.stdout),
        String::from_utf8_lossy(&first.stderr)
    );
    let second = analyze_json();
    assert_eq!(
        first.stdout, second.stdout,
        "analyze JSON is not byte-stable across runs"
    );
    let body = String::from_utf8_lossy(&first.stdout);
    assert!(
        body.contains("\"divergent\": 0"),
        "unexpected report: {body}"
    );

    // The counterfactual spec must make --fail-on-divergence bite. It
    // drops both master protections — the θ2* admission gate and the
    // master capacity reserve — so masters compete for dynamic work on
    // equal terms and placements really move (dropping the gate alone
    // changes no placement at this light load: reserved masters still
    // cost more than idle slaves).
    let cf = Command::new(env!("CARGO_BIN_EXE_msweb"))
        .args([
            "analyze",
            "--log",
            path.to_str().unwrap(),
            "--spec",
            "rotation-masters/none/level-split/rsrc-indexed/split-demand",
            "--json",
            "--fail-on-divergence",
        ])
        .output()
        .expect("spawn msweb analyze (counterfactual)");
    let cf_body = String::from_utf8_lossy(&cf.stdout);
    assert!(
        !cf.status.success(),
        "counterfactual replay unexpectedly matched the log:\n{cf_body}"
    );
    assert!(
        !cf_body.contains("\"divergent\": 0"),
        "counterfactual should move placements, not just a stage verdict: {cf_body}"
    );

    let _ = std::fs::remove_file(&path);
}
