//! Golden fixtures for the two decision-log readers, `msweb analyze`
//! and `msweb slo-check`, run through the binary over the every-event
//! p = 8 log (`decisions-ms-events-p8.jsonl`).
//!
//! That log holds two `meta` runs, restart decisions, fail-over and
//! front-end drops, node-down/up events and two recorded alerts, so the
//! pins cover run selection, the multi-run reset and every event kind
//! either reader folds. The p = 32 and p = 128 reader fixtures hold none
//! of these.
//!
//! Regenerate the fixtures (only when a reader change is intended and
//! reviewed) with:
//!
//! ```sh
//! MSWEB_BLESS=1 cargo test --test golden_log_readers
//! ```

use std::path::PathBuf;
use std::process::{Command, Output};

const LOG: &str = "decisions-ms-events-p8.jsonl";

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

fn assert_matches_fixture(out: &Output, name: &str) {
    let got = String::from_utf8(out.stdout.clone()).expect("stdout is UTF-8");
    let path = fixture_path(name);
    if std::env::var_os("MSWEB_BLESS").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing fixture {path:?}: {e}"));
    assert_eq!(got, want, "output drifted from fixture {path:?}");
}

fn analyze(extra: &[&str]) -> Output {
    let log = fixture_path(LOG);
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
    assert_matches_fixture(&analyze(&[]), "analyze-ms-events-p8-run0.json");
}

#[test]
fn analyze_run_1_matches_fixture() {
    assert_matches_fixture(&analyze(&["--run", "1"]), "analyze-ms-events-p8-run1.json");
}

#[test]
fn analyze_counterfactual_matches_fixture() {
    let out = analyze(&[
        "--spec",
        "rotation-masters/none/level-split/rsrc-indexed/split-demand",
    ]);
    assert_matches_fixture(&out, "analyze-ms-events-p8-vs-none.json");
}

#[test]
fn slo_check_breach_matches_fixture() {
    let dir = std::env::temp_dir().join(format!("msweb-golden-readers-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let rules = dir.join("rules.json");
    std::fs::write(&rules, RULES).unwrap();
    let log = fixture_path(LOG);
    let out = msweb(&[
        "slo-check",
        "--log",
        log.to_str().unwrap(),
        "--rules",
        rules.to_str().unwrap(),
    ]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        out.status.code(),
        Some(1),
        "a breach exits 1: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_matches_fixture(&out, "slo-check-ms-events-p8.txt");
}
