//! The `--trace-decisions` contract: both execution substrates — the
//! event-driven simulator and the live thread-backed emulation — drive
//! the *same* scheduler value, so the per-decision JSONL they emit is
//! schema-identical (same keys, same order, one object per placement),
//! now wrapped in the event stream (`meta` head line, `complete` and
//! `tick` events interleaved) that `msweb analyze` replays.

use std::path::PathBuf;
use std::process::Command;

use msweb::bench::{tab3_traced, ExpConfig};
use msweb::cluster::sched::TRACE_SCHEMA_VERSION;
use msweb::cluster::{RunMeta, SharedSeriesBuffer};
use msweb::prelude::*;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("msweb-{}-{name}", std::process::id()));
    p
}

/// The ordered top-level key sequence of one JSONL line.
fn key_sequence(line: &str) -> Vec<String> {
    let value = serde::Value::parse(line).expect("the line is JSON");
    let fields = value.as_object().expect("the line is an object");
    fields.iter().map(|(key, _)| key.clone()).collect()
}

/// The text every line of event kind `ev` starts with.
fn head(ev: &str) -> String {
    format!("{{\"v\":{TRACE_SCHEMA_VERSION},\"ev\":\"{ev}\"")
}

/// The schema-v3 decision-line key order (see `sched::trace`).
const DECISION_SCHEMA: [&str; 19] = [
    "v",
    "ev",
    "seq",
    "dynamic",
    "entry",
    "candidates",
    "theta_hat",
    "theta2_star",
    "chosen",
    "on_master",
    "redirected",
    "latency_us",
    "req",
    "at_us",
    "demand_us",
    "w",
    "expected_us",
    "masters_ok",
    "restart",
];

fn decision_lines(log: &str) -> Vec<&str> {
    log.lines()
        .filter(|l| l.starts_with(&head("decision")))
        .collect()
}

/// A Table-3-shaped workload: the six-node Sun-cluster demand model.
fn tab3_trace(n: usize) -> Trace {
    ucb()
        .generate(n, &DemandModel::sun_cluster(40.0), 9)
        .scaled_to_rate(40.0)
}

/// Assert the full decision-log contract on one substrate's log text.
fn check_log(log: &str, substrate: &str, n: usize) {
    // The stream parses cleanly — no warnings, every event known.
    let parsed = TraceLog::parse(log).expect("log parses");
    assert_eq!(parsed.warnings, Vec::<String>::new(), "{substrate} warned");

    // First line is the run's meta event naming the substrate.
    let first = log.lines().next().expect("non-empty log");
    assert!(
        first.starts_with(&format!("{},\"substrate\":\"{substrate}\"", head("meta"))),
        "{substrate} log should open with its meta line: {first}"
    );

    // One decision per request, in scheduler-sequence order, plus one
    // completion per request and at least one monitor tick.
    let decisions = decision_lines(log);
    assert_eq!(decisions.len(), n, "{substrate}: one decision per request");
    for (i, line) in decisions.iter().enumerate() {
        assert!(
            line.starts_with(&format!("{},\"seq\":{}", head("decision"), i + 1)),
            "{substrate} decision {i} out of sequence: {line}"
        );
        assert_eq!(
            key_sequence(line),
            DECISION_SCHEMA,
            "{substrate} decision {i} schema drifted"
        );
    }
    let completes = log
        .lines()
        .filter(|l| l.starts_with(&head("complete")))
        .count();
    assert_eq!(completes, n, "{substrate}: one completion per request");
    let ticks = log.lines().filter(|l| l.starts_with(&head("tick"))).count();
    assert!(ticks >= 1, "{substrate}: monitor ticks should be recorded");
}

#[test]
fn sim_and_live_emit_schema_identical_jsonl() {
    let n = 120;
    let trace = tab3_trace(n);

    // Simulator run, traced.
    let sim_path = tmp("sim_and_live_emit_schema_identical_jsonl-sim.jsonl");
    let sim_cfg = ClusterConfig::simulation(6, PolicyKind::MasterSlave)
        .with_masters(3)
        .with_seed(21);
    // Live: the same configuration monitoring every second of model time
    // (50 ms of wall time).
    let live_cfg = sim_cfg
        .clone()
        .with_monitor_period(SimDuration::from_secs(1));
    let sink = JsonlSink::create(&sim_path).expect("create sim log");
    let sim_summary = simulate(sim_cfg, &trace, RunOptions::new().observer(Box::new(sink))).summary;
    assert_eq!(sim_summary.completed, n as u64);

    // Live run, traced — same scheduler type, same observer type.
    let live_path = tmp("sim_and_live_emit_schema_identical_jsonl-live.jsonl");
    let sink = JsonlSink::create(&live_path).expect("create live log");
    let opts = RunOptions::new().observer(Box::new(sink));
    let live_summary = emulate(live_cfg, &trace, opts, Realtime::scaled(0.05)).summary;
    assert_eq!(live_summary.completed, n as u64);

    let sim_log = std::fs::read_to_string(&sim_path).expect("read sim log");
    let live_log = std::fs::read_to_string(&live_path).expect("read live log");

    check_log(&sim_log, "sim", n);
    check_log(&live_log, "live", n);

    // Schema identity across substrates: the decision records carry the
    // same keys in the same order whichever substrate wrote them.
    assert_eq!(
        key_sequence(decision_lines(&sim_log)[0]),
        key_sequence(decision_lines(&live_log)[0]),
        "sim and live decision schemas diverged"
    );

    let _ = std::fs::remove_file(&sim_path);
    let _ = std::fs::remove_file(&live_path);
}

/// One `ClusterConfig` drives both substrates: traced runs of it on the
/// simulator and on the emulator record the same meta line, except for
/// the substrate and the monitor period, which the emulator scales from
/// model time to wall time.
#[test]
fn one_config_drives_both_substrates() {
    let trace = tab3_trace(40);
    let cfg = ClusterConfig::simulation(6, PolicyKind::MasterSlave)
        .with_masters(3)
        .with_seed(21);
    let time_scale = 0.25;
    let meta_of = |buf: &SharedSeriesBuffer| -> RunMeta {
        match TraceLog::parse(&buf.contents())
            .expect("log parses")
            .events
            .first()
        {
            Some(TraceEvent::Meta(meta)) => meta.clone(),
            other => panic!("log must open with its meta line, got {other:?}"),
        }
    };
    let (sim_buf, live_buf) = (SharedSeriesBuffer::new(), SharedSeriesBuffer::new());
    let traced = |buf: &SharedSeriesBuffer| {
        RunOptions::new().observer(Box::new(JsonlSink::new(buf.clone())))
    };
    simulate(cfg.clone(), &trace, traced(&sim_buf));
    emulate(cfg, &trace, traced(&live_buf), Realtime::scaled(time_scale));
    let (sim, mut live) = (meta_of(&sim_buf), meta_of(&live_buf));

    assert_eq!(
        (sim.substrate.as_str(), live.substrate.as_str()),
        ("sim", "live")
    );
    assert_eq!(
        live.monitor_period_us as f64,
        sim.monitor_period_us as f64 * time_scale,
        "the live monitor period is the model period in wall time"
    );
    live.substrate = sim.substrate.clone();
    live.monitor_period_us = sim.monitor_period_us;
    assert_eq!(
        live, sim,
        "every other meta field comes from the one config"
    );
}

/// The `experiments` binary's Table-3 path appends every replay — live
/// and simulated — to one shared log through the same sink; the schema
/// contract must hold there too (the satellite emission path).
#[test]
fn tab3_emission_path_shares_the_decision_schema() {
    let path = tmp("tab3_emission_path_shares_the_decision_schema.jsonl");
    let _ = std::fs::remove_file(&path);
    let exp = ExpConfig {
        requests: 40,
        live_requests: 40,
        seed: 42,
        jobs: 1,
    };
    let rows = tab3_traced(&exp, 0.05, Some(&path));
    assert!(!rows.is_empty());

    let log = std::fs::read_to_string(&path).expect("read tab3 log");
    let parsed = TraceLog::parse(&log).expect("tab3 log parses");
    assert_eq!(parsed.warnings, Vec::<String>::new());

    // Every replay opens its own meta segment; both substrates appear.
    let metas: Vec<&str> = log
        .lines()
        .filter(|l| l.starts_with(&head("meta")))
        .collect();
    assert!(metas.len() >= 2, "expected one meta line per replay");
    assert!(
        metas.iter().any(|l| l.contains("\"substrate\":\"live\""))
            && metas.iter().any(|l| l.contains("\"substrate\":\"sim\"")),
        "tab3 should log both substrates"
    );

    // Every decision line — whichever substrate, whichever policy —
    // carries the identical schema.
    let decisions = decision_lines(&log);
    assert!(!decisions.is_empty());
    for line in &decisions {
        assert_eq!(
            key_sequence(line),
            DECISION_SCHEMA,
            "schema drifted: {line}"
        );
    }

    let _ = std::fs::remove_file(&path);
}

#[test]
fn replay_cli_writes_decision_log() {
    let path = tmp("replay_cli_writes_decision_log.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_msweb"))
        .args([
            "replay",
            "--trace",
            "ucb",
            "--lambda",
            "200",
            "--p",
            "8",
            "--requests",
            "400",
            "--policy",
            "M/S",
            "--trace-decisions",
            path.to_str().unwrap(),
        ])
        .output()
        .expect("failed to spawn msweb");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let log = std::fs::read_to_string(&path).expect("read CLI decision log");
    check_log(&log, "sim", 400);
    let _ = std::fs::remove_file(&path);
}

/// Counts the bytes written through it.
#[derive(Clone, Default)]
struct ByteCount(std::sync::Arc<std::sync::atomic::AtomicU64>);

impl std::io::Write for ByteCount {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = buf.len() as u64;
        self.0.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The log-size gate: a decision line does not grow with the cluster.
/// The M/S run of `msweb replay --trace ucb --lambda 31.25·p --seed 7
/// --policy M/S --trace-decisions` writes at most 600 log bytes per
/// request at p = 128, 1,000 and 10,000 (a schema-v2 log wrote 563,
/// 2,783 and 18,168 per request there).
#[test]
fn decision_log_bytes_per_request_do_not_grow_with_p() {
    const N: usize = 3_000;
    for p in [128, 1_000, 10_000] {
        let lambda = 31.25 * p as f64;
        let trace = ucb()
            .generate(N, &DemandModel::simulation(40.0), 7)
            .scaled_to_rate(lambda);
        let m = plan_masters(p, lambda, ucb().arrival_ratio_a(), 1.0 / 40.0, 1200.0);
        let cfg = ClusterConfig::simulation(p, PolicyKind::MasterSlave)
            .with_masters(m)
            .with_seed(7);
        let bytes = ByteCount::default();
        let sink = JsonlSink::new(bytes.clone());
        let summary = simulate(cfg, &trace, RunOptions::new().observer(Box::new(sink))).summary;
        assert_eq!(summary.completed + summary.dropped, N as u64);
        let per_request = bytes.0.load(std::sync::atomic::Ordering::Relaxed) as f64 / N as f64;
        assert!(
            per_request <= 600.0,
            "p = {p}: {per_request:.1} log bytes per request"
        );
    }
}
