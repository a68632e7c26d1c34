//! Telemetry snapshot guarantees: byte-determinism for a fixed
//! seed/spec (at p = 32 and p = 128), golden fixtures, JSON round-trip,
//! and schema identity between the simulator and the live emulation.
//!
//! Regenerate the fixtures (only when a schema change is intended and
//! reviewed) with:
//!
//! ```sh
//! MSWEB_BLESS=1 cargo test --test telemetry
//! ```

use msweb::prelude::*;

/// The canonical instrumented replay: KSU trace, master/slave policy,
/// λ = 1000/s, planned master count, fixed seed.
fn instrumented_run(p: usize) -> TelemetrySnapshot {
    let trace = ksu()
        .generate(2_000, &DemandModel::simulation(40.0), 42)
        .scaled_to_rate(1_000.0);
    let m = plan_masters(p, 1_000.0, ksu().arrival_ratio_a(), 1.0 / 40.0, 1200.0);
    let cfg = ClusterConfig::simulation(p, PolicyKind::MasterSlave)
        .with_masters(m)
        .with_seed(42);
    simulate(cfg, &trace, RunOptions::new().telemetry(true))
        .telemetry
        .expect("telemetry enabled")
}

fn fixture_path(p: usize) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/golden")
        .join(format!("telemetry-p{p}.json"))
}

#[test]
fn snapshot_json_is_byte_deterministic_and_matches_fixtures() {
    let bless = std::env::var_os("MSWEB_BLESS").is_some();
    for p in [32, 128] {
        let first = instrumented_run(p).to_json();
        let second = instrumented_run(p).to_json();
        assert_eq!(
            first, second,
            "telemetry JSON must be byte-identical across runs at p={p}"
        );
        let path = fixture_path(p);
        if bless {
            std::fs::write(&path, &first).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing fixture {path:?}: {e}"));
        assert_eq!(
            first, want,
            "telemetry snapshot at p={p} drifted from fixture {path:?}"
        );
    }
}

#[test]
fn snapshot_round_trips_through_json() {
    let snap = instrumented_run(32);
    let back = TelemetrySnapshot::from_json(&snap.to_json()).expect("parse back");
    // Equality is over the deterministic encoding, which is exactly
    // what the JSON carries (wall-clock span sums are excluded).
    assert_eq!(snap, back);
    assert!(snap.sched.place_calls > 0);
    assert!(!snap.windows.is_empty(), "controller series sampled");
    assert_eq!(snap.node_busy.len(), 32);
}

/// Every object key path present in one substrate's snapshot, with
/// arrays descended through their first element.
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

#[test]
fn sim_and_live_snapshots_share_one_schema() {
    let sim = instrumented_run(32);

    let trace = ucb()
        .generate(60, &DemandModel::sun_cluster(40.0), 11)
        .scaled_to_rate(40.0);
    // Monitor every 5 s of model time: 250 ms of wall time.
    let cfg = ClusterConfig::simulation(6, PolicyKind::MasterSlave)
        .with_masters(3)
        .with_monitor_period(SimDuration::from_secs(5));
    let opts = RunOptions::new().telemetry(true);
    let live = emulate(cfg, &trace, opts, Realtime::scaled(0.05))
        .telemetry
        .expect("telemetry enabled");
    assert_eq!(live.substrate, "live");
    assert_eq!(sim.substrate, "sim");

    let (mut sim_keys, mut live_keys) = (Vec::new(), Vec::new());
    key_shape(&sim.to_value(), "", &mut sim_keys);
    key_shape(&live.to_value(), "", &mut live_keys);
    assert_eq!(
        sim_keys, live_keys,
        "sim and live snapshots must expose the same key paths"
    );
}
