//! Windowed telemetry series and SLO engine guarantees: the series
//! JSONL and the `slo-check` report are byte-deterministic for a fixed
//! seed/spec (at p = 32 and p = 128) and match golden fixtures; the sim
//! and live substrates emit one series schema; and histogram window
//! deltas re-merge exactly into the cumulative end-of-run histogram.
//!
//! Regenerate the fixtures (only when a schema change is intended and
//! reviewed) with:
//!
//! ```sh
//! MSWEB_BLESS=1 cargo test --test series_slo
//! ```

use std::collections::HashMap;
use std::path::PathBuf;

use msweb::prelude::*;
use msweb::simcore::{HistDelta, LogHistogram};
use proptest::prelude::*;

/// SLO rules exercising all three signals; the stretch burn pair
/// mirrors the fast/slow page-alert idiom.
const RULES: &str = r#"{
  "rules": [
    {"name": "stretch-page", "signal": "stretch", "budget": 2.0,
     "burn": [{"windows": 1, "rate": 3.0}, {"windows": 5, "rate": 1.0}]},
    {"name": "drop-budget", "signal": "drop_rate", "budget": 0.01,
     "burn": [{"windows": 3, "rate": 1.0}]},
    {"name": "clamp-budget", "signal": "clamp_rate", "budget": 0.5,
     "burn": [{"windows": 4, "rate": 1.0}]}
  ]
}"#;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("msweb-series-{}-{name}", std::process::id()));
    p
}

fn fixture_path(name: &str) -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/golden")
        .join(name)
}

fn assert_matches_fixture(got: &str, name: &str) {
    let path = fixture_path(name);
    if std::env::var_os("MSWEB_BLESS").is_some() {
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing fixture {path:?}: {e}"));
    assert_eq!(got, want, "output drifted from fixture {path:?}");
}

/// The canonical instrumented replay (same workload as the telemetry
/// snapshot fixtures): KSU trace, master/slave, λ = 1000/s, seed 42.
fn series_run(p: usize) -> String {
    let trace = ksu()
        .generate(2_000, &DemandModel::simulation(40.0), 42)
        .scaled_to_rate(1_000.0);
    let m = plan_masters(p, 1_000.0, ksu().arrival_ratio_a(), 1.0 / 40.0, 1200.0);
    let cfg = ClusterConfig::simulation(p, PolicyKind::MasterSlave)
        .with_masters(m)
        .with_seed(42);
    let buf = msweb::cluster::SharedSeriesBuffer::new();
    let rec = SeriesRecorder::to_writer(Box::new(buf.clone()));
    let outcome = simulate(cfg, &trace, RunOptions::new().series(rec));
    let rec = outcome.series.expect("series recorder handed back");
    assert!(rec.records() > 0, "run emitted at least one window record");
    buf.contents()
}

/// The six-node prototype for the live runs at time scale 0.05: the
/// monitor ticks every 5 s of model time, 250 ms of wall time.
fn live_sun_cluster() -> ClusterConfig {
    ClusterConfig::simulation(6, PolicyKind::MasterSlave)
        .with_masters(3)
        .with_monitor_period(SimDuration::from_secs(5))
}

/// Record a traced master/slave run at `p` and read the log back.
fn traced_log(p: usize) -> String {
    let trace = ksu()
        .generate(2_000, &DemandModel::simulation(40.0), 42)
        .scaled_to_rate(1_000.0);
    let m = plan_masters(p, 1_000.0, ksu().arrival_ratio_a(), 1.0 / 40.0, 1200.0);
    let cfg = ClusterConfig::simulation(p, PolicyKind::MasterSlave)
        .with_masters(m)
        .with_seed(42);
    let path = tmp(&format!(
        "slo_check_report_is_byte_deterministic_and_matches_fixtures-p{p}.jsonl"
    ));
    let sink = JsonlSink::create(&path).expect("create log");
    let _ = simulate(cfg, &trace, RunOptions::new().observer(Box::new(sink)));
    let log = std::fs::read_to_string(&path).expect("read log");
    let _ = std::fs::remove_file(&path);
    log
}

#[test]
fn series_jsonl_is_byte_deterministic_and_matches_fixtures() {
    for p in [32, 128] {
        let first = series_run(p);
        let second = series_run(p);
        assert_eq!(
            first, second,
            "series JSONL must be byte-identical across runs at p={p}"
        );
        assert_matches_fixture(&first, &format!("series-p{p}.jsonl"));
    }
}

#[test]
fn slo_check_report_is_byte_deterministic_and_matches_fixtures() {
    let rules = SloRules::from_json(RULES).expect("rules parse");
    for p in [32, 128] {
        let log = traced_log(p);
        let first = check_log(read_log(log.as_bytes()), &rules)
            .expect("check")
            .render();
        // The same log parsed into memory first checks the same.
        let parsed = TraceLog::parse(&log).expect("log parses");
        let second = check_log(&parsed, &rules).expect("check").render();
        assert_eq!(
            first, second,
            "slo-check output must be byte-identical across checks at p={p}"
        );
        assert_matches_fixture(&first, &format!("slo-check-p{p}.txt"));
    }
}

#[test]
fn slo_check_is_deterministic_over_a_live_log() {
    let trace = ucb()
        .generate(60, &DemandModel::sun_cluster(40.0), 11)
        .scaled_to_rate(40.0);
    let path = tmp("slo_check_is_deterministic_over_a_live_log.jsonl");
    let sink = JsonlSink::create(&path).expect("create log");
    let opts = RunOptions::new().observer(Box::new(sink));
    let _ = emulate(live_sun_cluster(), &trace, opts, Realtime::scaled(0.05));
    let log = std::fs::read_to_string(&path).expect("read log");
    let _ = std::fs::remove_file(&path);
    let rules = SloRules::from_json(RULES).expect("rules parse");
    // The live log's timestamps are wall-clock, so its *content* varies
    // run to run — but checking one fixed log is a pure function.
    let check = || {
        check_log(read_log(log.as_bytes()), &rules)
            .expect("check")
            .render()
    };
    let (first, second) = (check(), check());
    assert_eq!(first, second, "slo-check over a fixed live log is pure");
}

/// `slo-check` folds a log's windows with the code the run's engine
/// ran: on a crash run that loses in-flight work (no restarts, so every
/// loss is a fail-over drop), it fires exactly the alerts the engine
/// fired and logged — same window, rule and observed value.
#[test]
fn slo_check_fires_the_engines_alerts_on_a_crash_run() {
    let trace = ksu()
        .generate(2_000, &DemandModel::simulation(40.0), 42)
        .scaled_to_rate(1_000.0);
    let cfg = ClusterConfig::simulation(8, PolicyKind::MasterSlave)
        .with_masters(3)
        .with_seed(42);
    // Two slaves die under load, 200 ms apart, and stay down.
    let plan = FailurePlan::new(
        [(5, 700), (6, 900)]
            .into_iter()
            .map(|(node, ms)| FailureEvent {
                at: SimTime::from_millis(ms),
                node,
                restart_dynamic: false,
                recover_at: None,
            })
            .collect(),
    );
    let rules = SloRules::from_json(
        r#"{"rules":[{"name":"drops","signal":"drop_rate","budget":0.01,
            "burn":[{"windows":1,"rate":1.0}]}]}"#,
    )
    .expect("rules parse");
    let buf = msweb::cluster::SharedSeriesBuffer::new();
    let mut sim = policy_sim(cfg, &trace)
        .with_failures(plan)
        .with_slo(SloEngine::new(rules.clone()));
    sim.scheduler_mut()
        .set_observer(Some(Box::new(JsonlSink::new(buf.clone()))));
    let summary = sim.run(&trace);
    assert!(summary.dropped > 0, "the crash must lose in-flight work");
    let fired = sim.slo_engine().expect("engine attached").alerts_fired();
    assert!(fired > 0, "the drop rule must fire during the run");

    let log = TraceLog::parse(&buf.contents()).expect("log parses");
    let (logged, checked) = logged_and_checked_alerts(&log, &rules);
    assert_eq!(logged.len() as u64, fired, "every fired alert is logged");
    assert_eq!(checked, logged, "slo-check must fire the engine's alerts");
}

/// A Swala cache hit is served as a cheap fetch, and the decision log
/// tells `slo-check` that fetch's demand. The engine's stretch divides
/// by the same served demand, so on a cached run `slo-check` fires
/// exactly the alerts the engine fired and logged, and no window — nor
/// the run — reports a stretch below 1.
#[test]
fn slo_check_fires_the_engines_alerts_on_a_cached_run() {
    let (summary, _) = check_cached_run(FailurePlan::none());
    assert!(summary.cache_hits > 0, "hot queries must hit");
}

/// A crash restarts each lost request as it was admitted — a cache hit
/// as a static fetch — so every restart's decision record repeats the
/// admission's class, demand and charge, and `slo-check` still fires
/// the engine's alerts.
#[test]
fn slo_check_fires_the_engines_alerts_on_a_cached_crash_run() {
    // Every 50 ms the next node dies for 100 ms, over the whole 7.5 s
    // run; lost dynamic requests restart.
    let plan = FailurePlan::new(
        (1..150)
            .map(|i| FailureEvent {
                at: SimTime::from_millis(50 * i),
                node: i as usize % 8,
                restart_dynamic: true,
                recover_at: Some(SimTime::from_millis(50 * i + 100)),
            })
            .collect(),
    );
    let (summary, log) = check_cached_run(plan);
    assert!(summary.restarted > 0, "the crashes must restart lost work");
    let mut admitted = HashMap::new();
    let mut restarted_hits = 0;
    for ev in &log.events {
        let TraceEvent::Decision(d) = ev else {
            continue;
        };
        let placed = (d.dynamic, d.demand_us, d.w, d.expected_us);
        if !d.restart {
            admitted.insert(d.req, placed);
            continue;
        }
        assert_eq!(admitted[&d.req], placed, "restart of request {}", d.req);
        restarted_hits += usize::from(!d.dynamic);
    }
    assert!(restarted_hits > 0, "the crashes must restart cache hits");
}

/// Run 3000 ADL requests at 400/s with the Swala cache on 8 nodes under
/// `plan`, logging the decisions and firing a stretch rule with budget
/// 1.0; assert the run's stretch is at least 1 and `slo-check` fires the
/// engine's alerts over the log.
fn check_cached_run(plan: FailurePlan) -> (RunSummary, TraceLog) {
    let demand = DemandModel::simulation(40.0).with_query_popularity(20, 1.1);
    let trace = adl().generate(3_000, &demand, 13).scaled_to_rate(400.0);
    let cfg = ClusterConfig::simulation(8, PolicyKind::MasterSlave)
        .with_masters(3)
        .with_cache(msweb::cluster::CacheConfig::default_swala());
    let rules = SloRules::from_json(
        r#"{"rules":[{"name":"stretch","signal":"stretch","budget":1.0,
            "burn":[{"windows":1,"rate":1.0}]}]}"#,
    )
    .expect("rules parse");
    let buf = msweb::cluster::SharedSeriesBuffer::new();
    let mut sim = policy_sim(cfg, &trace)
        .with_failures(plan)
        .with_slo(SloEngine::new(rules.clone()));
    sim.scheduler_mut()
        .set_observer(Some(Box::new(JsonlSink::new(buf.clone()))));
    let summary = sim.run(&trace);
    assert!(
        summary.stretch >= 1.0,
        "cached run stretch {}",
        summary.stretch
    );

    let log = TraceLog::parse(&buf.contents()).expect("log parses");
    let (logged, checked) = logged_and_checked_alerts(&log, &rules);
    assert_eq!(checked, logged, "slo-check must fire the engine's alerts");
    (summary, log)
}

/// One `(at_us, rule, observed)` per alert.
type Alerts = Vec<(u64, String, f64)>;

/// The alerts the run logged, and the alerts `slo-check` fires over the
/// same log.
fn logged_and_checked_alerts(log: &TraceLog, rules: &SloRules) -> (Alerts, Alerts) {
    let logged = log
        .events
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::Alert {
                at_us,
                rule,
                observed,
                ..
            } => Some((*at_us, rule.clone(), *observed)),
            _ => None,
        })
        .collect();
    let report = check_log(log, rules).expect("check");
    let checked = report
        .alerts
        .iter()
        .map(|a| (a.at_us, a.rule.clone(), a.observed))
        .collect();
    (logged, checked)
}

/// Every object key path in a JSON value, arrays descended through
/// their first element.
fn key_shape(v: &serde::Value, path: &str, out: &mut Vec<String>) {
    match v {
        serde::Value::Object(fields) => {
            for (k, child) in fields {
                let p = format!("{path}.{k}");
                out.push(p.clone());
                key_shape(child, &p, out);
            }
        }
        serde::Value::Array(items) => {
            if let Some(first) = items.first() {
                key_shape(first, &format!("{path}[]"), out);
            }
        }
        _ => {}
    }
}

fn shape_of_lines(jsonl: &str) -> Vec<Vec<String>> {
    jsonl
        .lines()
        .take(2) // header + first window record pin the schema
        .map(|line| {
            let v = serde::Value::parse(line).expect("series line parses");
            let mut keys = Vec::new();
            key_shape(&v, "", &mut keys);
            keys
        })
        .collect()
}

#[test]
fn sim_and_live_series_share_one_schema() {
    let sim = series_run(32);

    let trace = ucb()
        .generate(60, &DemandModel::sun_cluster(40.0), 11)
        .scaled_to_rate(40.0);
    let buf = msweb::cluster::SharedSeriesBuffer::new();
    let rec = SeriesRecorder::to_writer(Box::new(buf.clone()));
    let opts = RunOptions::new().series(rec);
    let outcome = emulate(live_sun_cluster(), &trace, opts, Realtime::scaled(0.05));
    let rec = outcome.series.expect("series recorder handed back");
    assert!(rec.records() > 0, "live run emitted a window record");
    let live = buf.contents();

    let sim_header = serde::Value::parse(sim.lines().next().unwrap()).unwrap();
    let live_header = serde::Value::parse(live.lines().next().unwrap()).unwrap();
    assert_eq!(
        sim_header.get("substrate").and_then(serde::Value::as_str),
        Some("sim")
    );
    assert_eq!(
        live_header.get("substrate").and_then(serde::Value::as_str),
        Some("live")
    );

    assert_eq!(
        shape_of_lines(&sim),
        shape_of_lines(&live),
        "sim and live series lines must expose the same key paths"
    );
}

proptest! {
    /// Re-merging every window's histogram delta must reconstruct the
    /// cumulative end-of-run histogram exactly — the algebra that lets
    /// a scraper integrate the series back into snapshot totals.
    #[test]
    fn histogram_window_deltas_remerge_exactly(
        windows in prop::collection::vec(
            prop::collection::vec(0u64..2_000_000, 0..40),
            1..12,
        )
    ) {
        let mut cumulative = LogHistogram::new();
        let mut baseline = LogHistogram::new();
        let mut merged = HistDelta::new();
        for window in &windows {
            for &v in window {
                cumulative.record(v);
            }
            let delta = cumulative.delta_since(&baseline);
            merged.merge(&delta);
            baseline = cumulative.clone();
        }
        let rebuilt = merged.to_histogram();
        prop_assert_eq!(rebuilt.count(), cumulative.count());
        prop_assert_eq!(rebuilt.sum(), cumulative.sum());
        let strip = |h: &LogHistogram| -> Vec<(usize, u64)> {
            h.nonzero_buckets().iter().map(|&(i, c, _, _)| (i, c)).collect()
        };
        prop_assert_eq!(strip(&rebuilt), strip(&cumulative));
    }
}
