//! Golden fixtures for the two decision-log readers, `msweb analyze`
//! and `msweb slo-check`, run through the binary over the every-event
//! p = 8 log (`decisions-ms-events-p8.jsonl`) and over the same runs'
//! schema-v2 log (`decisions-ms-events-p8.v2.jsonl`, committed before
//! v3 and kept unchanged). Both logs must give the same bytes: readers
//! ignore the scores a v2 line carries and take the factual scores from
//! a lockstep replay of the recorded composition.
//!
//! That log holds two `meta` runs, restart decisions, fail-over and
//! front-end drops, node-down/up events and two recorded alerts, so the
//! pins cover run selection, the multi-run reset and every event kind
//! either reader folds. The p = 32 and p = 128 reader fixtures hold none
//! of these.
//!
//! Regenerate the fixtures from the v3 log (only when a reader change is
//! intended and reviewed) with:
//!
//! ```sh
//! MSWEB_BLESS=1 cargo test --test golden_log_readers
//! ```

use std::path::PathBuf;
use std::process::{Command, Output};

/// The v3 log first: blessing writes the fixtures from it.
const LOGS: [&str; 2] = [
    "decisions-ms-events-p8.jsonl",
    "decisions-ms-events-p8.v2.jsonl",
];

/// Fires on all three signals over the p = 8 log.
const RULES: &str = r#"{"rules": [
  {"name": "stretch-page", "signal": "stretch", "budget": 2.0,
   "burn": [{"windows": 1, "rate": 3.0}, {"windows": 3, "rate": 1.0}]},
  {"name": "drops", "signal": "drop_rate", "budget": 0.01,
   "burn": [{"windows": 1, "rate": 1.0}]},
  {"name": "clamps", "signal": "clamp_rate", "budget": 0.25,
   "burn": [{"windows": 2, "rate": 1.0}]}
]}"#;

fn fixture_path(name: &str) -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/golden")
        .join(name)
}

fn msweb(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_msweb"))
        .args(args)
        .output()
        .expect("spawn msweb")
}

/// Assert the outputs `run` gives over each of [`LOGS`] all match
/// fixture `name`.
fn assert_matches_fixture(run: impl Fn(&str) -> Output, name: &str) {
    let path = fixture_path(name);
    for (i, log) in LOGS.into_iter().enumerate() {
        let got = String::from_utf8(run(log).stdout).expect("stdout is UTF-8");
        if i == 0 && std::env::var_os("MSWEB_BLESS").is_some() {
            std::fs::write(&path, &got).unwrap();
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing fixture {path:?}: {e}"));
        assert_eq!(got, want, "output over {log} drifted from fixture {path:?}");
    }
}

fn analyze(log: &str, extra: &[&str]) -> Output {
    let log = fixture_path(log);
    let mut args = vec!["analyze", "--log", log.to_str().unwrap(), "--json"];
    args.extend_from_slice(extra);
    let out = msweb(&args);
    assert!(
        out.status.success(),
        "analyze {extra:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn analyze_run_0_matches_fixture() {
    assert_matches_fixture(|log| analyze(log, &[]), "analyze-ms-events-p8-run0.json");
}

#[test]
fn analyze_run_1_matches_fixture() {
    assert_matches_fixture(
        |log| analyze(log, &["--run", "1"]),
        "analyze-ms-events-p8-run1.json",
    );
}

#[test]
fn analyze_counterfactual_matches_fixture() {
    let spec = "rotation-masters/none/level-split/rsrc-indexed/split-demand";
    assert_matches_fixture(
        |log| analyze(log, &["--spec", spec]),
        "analyze-ms-events-p8-vs-none.json",
    );
}

#[test]
fn slo_check_breach_matches_fixture() {
    let dir = std::env::temp_dir().join(format!("msweb-golden-readers-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let rules = dir.join("rules.json");
    std::fs::write(&rules, RULES).unwrap();
    let slo_check = |log: &str| {
        let log = fixture_path(log);
        let out = msweb(&[
            "slo-check",
            "--log",
            log.to_str().unwrap(),
            "--rules",
            rules.to_str().unwrap(),
        ]);
        assert_eq!(
            out.status.code(),
            Some(1),
            "a breach exits 1: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out
    };
    assert_matches_fixture(slo_check, "slo-check-ms-events-p8.txt");
    let _ = std::fs::remove_dir_all(&dir);
}
