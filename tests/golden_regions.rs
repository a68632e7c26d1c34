//! Golden fixtures for the region front tier: under a fixed root seed,
//! a region-composed pipeline must produce a `RunSummary` *and* a
//! decision log byte-identical to the recorded fixtures, for both
//! built-in region selectors at p ∈ {32, 128}. The live emulation
//! drives the identical scheduler value, so its decision records must
//! carry the identical (extended) schema — live timings are wall-clock,
//! so the live side is checked structurally, not byte-for-byte.
//!
//! A third test pins the conditional-serialisation contract that keeps
//! every pre-existing golden fixture untouched: a regionless run must
//! not emit `origin`/`region` keys at all.
//!
//! Regenerate the fixtures (only when a behaviour change is intended
//! and reviewed) with:
//!
//! ```sh
//! MSWEB_BLESS=1 cargo test --test golden_regions
//! ```

use msweb::cluster::sched::TRACE_SCHEMA_VERSION;
use msweb::cluster::SharedSeriesBuffer;
use msweb::prelude::*;

const POLICIES: [&str; 2] = ["region-nearest", "region-greedy"];
const SIZES: [usize; 2] = [32, 128];
const REGIONS: usize = 4;
const N: usize = 100;

fn slug(policy: &str) -> &str {
    policy.strip_prefix("region-").unwrap_or(policy)
}

/// Region-tagged workload: the origin mix rotates around the ring so
/// every region is the hot one at some point of the run.
fn region_trace(n: usize, rate: f64) -> Trace {
    let mix = RegionMix::rotating(REGIONS, 4.0, 4.0);
    ucb()
        .generate(n, &DemandModel::simulation(40.0).with_region_mix(mix), 7)
        .scaled_to_rate(rate)
}

/// The fixed seed-state run every fixture captures: a region-composed
/// M/S pipeline on an even ring of `REGIONS` regions.
fn golden_run(policy: &str, p: usize) -> (RunSummary, String) {
    let a0 = ucb().arrival_ratio_a();
    let r0 = 1.0 / 40.0;
    // Load scales with the cluster so both sizes run at the same
    // per-node utilisation.
    let trace = region_trace(N, 150.0 * (p as f64 / 8.0));
    let cfg = ClusterConfig::simulation(p, PolicyKind::MasterSlave)
        .with_masters(p / 4)
        .with_seed(11)
        .with_regions(RegionTopology::even(p, p / 4, REGIONS));
    let spec = StageSpec::for_policy(PolicyKind::MasterSlave).with_region(policy);
    let mut scheduler = SchedulerRegistry::builtin()
        .compose(&cfg, &spec, a0, r0)
        .expect("region pipeline composes");

    // Logs are captured in memory, so tests running in parallel never
    // share a file.
    let buf = SharedSeriesBuffer::new();
    scheduler.set_observer(Some(Box::new(JsonlSink::new(buf.clone()))));
    let mut sim = ClusterSim::with_scheduler(cfg, scheduler)
        .with_priors(a0, r0)
        .with_spec_label(spec.render());
    let summary = sim.run(&trace);
    (summary, buf.contents())
}

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/golden")
        .join(name)
}

#[test]
fn region_summaries_and_decision_logs_match_fixtures() {
    let bless = std::env::var_os("MSWEB_BLESS").is_some();
    let mut mismatches = Vec::new();
    for policy in POLICIES {
        for p in SIZES {
            let (summary, log) = golden_run(policy, p);
            let artifacts = [
                (
                    format!("regions-{}-p{p}.json", slug(policy)),
                    serde::to_json_string_pretty(&summary),
                ),
                (format!("regions-{}-p{p}.jsonl", slug(policy)), log),
            ];
            for (name, got) in artifacts {
                let path = fixture_path(&name);
                if bless {
                    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
                    std::fs::write(&path, &got).unwrap();
                    continue;
                }
                let want = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("missing fixture {path:?}: {e}"));
                if got != want {
                    mismatches.push(format!("{name}: drifted from fixture {path:?}"));
                }
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
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

fn decision_lines(log: &str) -> Vec<&str> {
    log.lines()
        .filter(|l| l.starts_with(&head("decision")))
        .collect()
}

/// Both substrates drive the same scheduler value, so a live region
/// run's decision records must carry exactly the simulator's extended
/// schema (the base keys plus `origin` and `region`), its meta line
/// must embed the topology, and every request must still complete.
#[test]
fn live_region_log_matches_the_sim_schema() {
    let n = 40;
    let (sim_summary, sim_log) = golden_run("region-nearest", 32);
    assert!(sim_summary.completed > 0);

    let mix = RegionMix::rotating(2, 4.0, 2.0);
    let trace = ucb()
        .generate(n, &DemandModel::sun_cluster(40.0).with_region_mix(mix), 9)
        .scaled_to_rate(40.0);
    let slug = "region-nearest/rotation-masters/reservation/level-split/\
                rsrc-indexed-reserve/split-demand";
    // Monitor every second of model time: 50 ms of wall time.
    let cfg = ClusterConfig::simulation(6, PolicyKind::MasterSlave)
        .with_masters(2)
        .with_monitor_period(SimDuration::from_secs(1))
        .with_regions(RegionTopology::even(6, 2, 2));
    let spec = StageSpec::parse(slug).expect("spec parses");
    let stats = WorkloadStats::from_trace(&trace);
    let scheduler = SchedulerRegistry::builtin()
        .compose(&cfg, &spec, stats.a0, stats.r0)
        .expect("live region pipeline composes");
    let buf = SharedSeriesBuffer::new();
    let summary = emulate_source(
        cfg,
        trace.source(),
        stats,
        scheduler,
        Some(slug.to_string()),
        RunOptions::new().observer(Box::new(JsonlSink::new(buf.clone()))),
        Realtime::scaled(0.05),
    )
    .summary;
    assert_eq!(summary.completed, n as u64);
    let live_log = buf.contents();

    let parsed = TraceLog::parse(&live_log).expect("live log parses");
    assert_eq!(parsed.warnings, Vec::<String>::new());
    let meta = live_log.lines().next().expect("non-empty live log");
    assert!(
        meta.contains("\"regions\""),
        "live meta should embed the region topology: {meta}"
    );

    let sim_keys = key_sequence(decision_lines(&sim_log)[0]);
    let live_keys = key_sequence(decision_lines(&live_log)[0]);
    assert_eq!(
        sim_keys, live_keys,
        "sim and live region decision schemas diverged"
    );
    assert_eq!(
        &sim_keys[sim_keys.len() - 2..],
        &["origin".to_string(), "region".to_string()],
        "region runs append origin/region to the decision schema"
    );
}

/// The conditional-serialisation contract protecting every pre-existing
/// golden fixture: without a region composition, neither the meta line
/// nor any decision record mentions regions, so regionless logs (and
/// the summaries derived from them) are byte-for-byte what they were
/// before the region tier existed.
#[test]
fn regionless_runs_emit_no_region_fields() {
    let trace = ucb()
        .generate(200, &DemandModel::simulation(40.0), 7)
        .scaled_to_rate(300.0);
    let cfg = ClusterConfig::simulation(8, PolicyKind::MasterSlave)
        .with_masters(3)
        .with_seed(11);
    let buf = SharedSeriesBuffer::new();
    simulate(
        cfg,
        &trace,
        RunOptions::new().observer(Box::new(JsonlSink::new(buf.clone()))),
    );
    let log = buf.contents();
    for key in ["\"origin\"", "\"region\"", "\"regions\""] {
        assert!(
            !log.contains(key),
            "regionless log must not serialise {key}"
        );
    }
}
