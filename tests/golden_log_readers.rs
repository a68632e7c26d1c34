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

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Command, Output};

use msweb::cluster::{
    analyze as analyze_log, check_log, read_log, ReplayError, ReplayOptions, SloRules,
    SnapshotError, StageSpec, TelemetrySnapshot,
};
use msweb::simcore::SimRng;

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

/// The counterfactual composition the `--spec` fixture pins.
const COUNTERFACTUAL: &str = "rotation-masters/none/level-split/rsrc-indexed/split-demand";

#[test]
fn analyze_counterfactual_matches_fixture() {
    assert_matches_fixture(
        |log| analyze(log, &["--spec", COUNTERFACTUAL]),
        "analyze-ms-events-p8-vs-none.json",
    );
}

#[test]
fn slo_check_breach_matches_fixture() {
    let dir = std::env::temp_dir().join(format!(
        "msweb-golden-readers-slo_check_breach_matches_fixture-{}",
        std::process::id()
    ));
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

/// `log` with field `field` of its `run`-th `meta` line (from 0) set to
/// the JSON token `token`.
fn swap_meta_field(log: &str, run: usize, field: &str, token: &str) -> String {
    let mut runs = 0;
    let mut out = String::with_capacity(log.len() + 32);
    for line in log.lines() {
        if line.contains(r#""ev":"meta""#) {
            if runs == run {
                let key = format!("\"{field}\":");
                let start = line.find(&key).expect("meta field present") + key.len();
                let rest = &line[start..];
                let len = if rest.starts_with('[') {
                    rest.find(']').expect("closed array") + 1
                } else {
                    rest.find([',', '}']).expect("field ends")
                };
                out.push_str(&line[..start]);
                out.push_str(token);
                out.push_str(&rest[len..]);
                out.push('\n');
                runs += 1;
                continue;
            }
            runs += 1;
        }
        out.push_str(line);
        out.push('\n');
    }
    assert!(runs > run, "log has no run {run}");
    out
}

/// Run `analyze` (self-replay of `run`), `analyze --spec` and
/// `slo-check` over `log` in-process; a panic in any of them fails the
/// test, naming `case`. Returns the three results as `Ok` or the error.
fn run_readers(log: &str, run: usize, case: &str) -> [Result<(), ReplayError>; 3] {
    let rules = SloRules::from_json(RULES).expect("rules parse");
    let counterfactual = StageSpec::parse(COUNTERFACTUAL).expect("spec parses");
    let lines = || read_log(log.as_bytes());
    let guarded = |reader: &str, f: &dyn Fn() -> Result<(), ReplayError>| {
        catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| panic!("{reader} panicked on {case}"))
    };
    [
        guarded("analyze", &|| {
            analyze_log(lines(), &ReplayOptions { spec: None, run }).map(drop)
        }),
        guarded("analyze --spec", &|| {
            let opts = ReplayOptions {
                spec: Some(counterfactual.clone()),
                run,
            };
            analyze_log(lines(), &opts).map(drop)
        }),
        guarded("slo-check", &|| check_log(lines(), &rules).map(drop)),
    ]
}

/// A meta line that claims a huge cluster fails on the replay limit,
/// before replay composes anything p-sized: 2⁶² nodes overflowed a
/// capacity computation, 10⁸ asked for gigabytes. Cut before its first
/// tick, the log holds nothing else to reject; whole, its first tick
/// contradicts the claim, and both readers report that.
#[test]
fn analyze_rejects_a_huge_meta_p_before_composing() {
    let log = std::fs::read_to_string(fixture_path(LOGS[0])).unwrap();
    let first_tick = log.find(r#""ev":"tick""#).expect("log has a tick");
    let before_tick = &log[..log[..first_tick].rfind('\n').unwrap() + 1];
    for p in ["4611686018427387904", "100000000"] {
        let cut = swap_meta_field(before_tick, 0, "p", p);
        let [own, counterfactual, _] = run_readers(&cut, 0, &format!("cut log, p = {p}"));
        for result in [own, counterfactual] {
            match result {
                Err(ReplayError::Meta { field: "p", .. }) => {}
                other => panic!("p = {p}: want the meta p error, got {other:?}"),
            }
        }
        let whole = swap_meta_field(&log, 0, "p", p);
        for result in run_readers(&whole, 0, &format!("p = {p}")) {
            match result {
                Err(ReplayError::Inconsistent(msg)) => assert!(msg.contains(p), "{msg}"),
                other => panic!("p = {p}: want the tick contradiction, got {other:?}"),
            }
        }
    }
}

/// Numeric meta fields that an edited log may carry any number in.
const META_NUMBERS: [&str; 11] = [
    "p",
    "m",
    "seed",
    "a0",
    "r0",
    "master_reserve",
    "dns_skew",
    "monitor_period_us",
    "remote_latency_us",
    "redirect_rtt_us",
    "speeds",
];

/// Tokens swapped in: zero, negative, the integer extremes, a float
/// too large for any integer field, and null.
const SWAPS: [&str; 6] = [
    "0",
    "-1",
    "18446744073709551615",
    "1e308",
    "null",
    "4611686018427387904",
];

/// Every numeric meta field swapped to every extreme token, in a seeded
/// choice of the log's two runs: each reader returns `Ok` or a typed
/// error, never a panic.
#[test]
fn readers_survive_extreme_numbers_in_meta_lines() {
    let log = std::fs::read_to_string(fixture_path(LOGS[0])).unwrap();
    let mut rng = SimRng::seed_from_u64(0x6d65_7461);
    let mut rejected = 0;
    for field in META_NUMBERS {
        for token in SWAPS {
            let run = rng.gen_index(2);
            let mutated = swap_meta_field(&log, run, field, token);
            let case = format!("run {run} {field} = {token}");
            rejected += run_readers(&mutated, run, &case)
                .iter()
                .filter(|r| r.is_err())
                .count();
        }
    }
    // Most swaps leave a log no reader accepts.
    assert!(rejected > META_NUMBERS.len() * SWAPS.len(), "{rejected}");
}

/// Byte offsets inside lines that the truncation test cuts at, per log.
const INNER_CUTS: usize = 80;

/// Lines the duplication test repeats, per log.
const DUPLICATED_LINES: usize = 80;

/// Count the `Ok`s among `results` into `counts[0]` and the errors
/// into `counts[1]`.
fn tally(results: [Result<(), ReplayError>; 3], counts: &mut [usize; 2]) {
    for r in results {
        counts[usize::from(r.is_err())] += 1;
    }
}

/// Both logs cut after every line, and at a seeded sample of byte
/// offsets inside lines: each reader returns `Ok` or a typed error,
/// never a panic, for a seeded choice of the two runs.
#[test]
fn readers_survive_truncated_logs() {
    let mut rng = SimRng::seed_from_u64(0x6375_7473);
    let (mut whole_lines, mut inside_lines) = ([0; 2], [0; 2]);
    for name in LOGS {
        let log = std::fs::read_to_string(fixture_path(name)).unwrap();
        let ends: Vec<usize> = log.match_indices('\n').map(|(i, _)| i + 1).collect();
        for (line, &end) in ends.iter().enumerate() {
            let run = rng.gen_index(2);
            let case = format!("{name} cut after line {}", line + 1);
            tally(run_readers(&log[..end], run, &case), &mut whole_lines);
        }
        let mut inner = 0;
        while inner < INNER_CUTS {
            let at = rng.gen_index(log.len());
            if log.as_bytes()[at.saturating_sub(1)] == b'\n' || !log.is_char_boundary(at) {
                continue;
            }
            inner += 1;
            let run = rng.gen_index(2);
            let case = format!("{name} cut at byte {at}");
            tally(run_readers(&log[..at], run, &case), &mut inside_lines);
        }
    }
    // A cut after a line leaves a shorter log that the readers mostly
    // accept; a cut inside a line leaves a broken last line.
    assert!(whole_lines[0] > whole_lines[1], "{whole_lines:?}");
    assert!(inside_lines[1] > inside_lines[0], "{inside_lines:?}");
}

/// Both logs with one seeded line repeated right after itself (a
/// duplicated `meta`, decision, completion, tick or node event): each
/// reader returns `Ok` or a typed error, never a panic.
#[test]
fn readers_survive_duplicated_lines() {
    let mut rng = SimRng::seed_from_u64(0x6475_7073);
    for name in LOGS {
        let log = std::fs::read_to_string(fixture_path(name)).unwrap();
        let lines: Vec<&str> = log.lines().collect();
        for _ in 0..DUPLICATED_LINES {
            let dup = rng.gen_index(lines.len());
            let mut mutated = String::with_capacity(log.len() + lines[dup].len() + 1);
            for (i, line) in lines.iter().enumerate() {
                let copies = if i == dup { 2 } else { 1 };
                for _ in 0..copies {
                    mutated.push_str(line);
                    mutated.push('\n');
                }
            }
            let run = rng.gen_index(2);
            let _ = run_readers(&mutated, run, &format!("{name} line {} twice", dup + 1));
        }
    }
}

/// The `--telemetry` snapshots `metrics-dump --from` reads.
const SNAPSHOTS: [&str; 2] = ["telemetry-p32.json", "telemetry-p128.json"];

/// Byte offsets each snapshot is cut at.
const SNAPSHOT_CUTS: usize = 200;

/// `metrics-dump --from` in-process: parse a snapshot and render it;
/// a panic fails the test, naming `case`.
fn metrics_dump_from(text: &str, case: &str) -> Result<String, SnapshotError> {
    catch_unwind(AssertUnwindSafe(|| {
        TelemetrySnapshot::from_json(text).map(|snap| snap.to_prometheus())
    }))
    .unwrap_or_else(|_| panic!("metrics-dump --from panicked on {case}"))
}

/// Snapshots cut at a seeded sample of byte offsets, and with every
/// member repeated under its own key with a seeded value in front of
/// it: `metrics-dump --from` renders or returns a typed error, never a
/// panic.
#[test]
fn metrics_dump_from_survives_cut_and_duplicated_key_snapshots() {
    let mut rng = SimRng::seed_from_u64(0x736e_6170);
    let values = [
        "0",
        "-1",
        "18446744073709551615",
        "1e308",
        "null",
        "\"x\"",
        "[]",
        "{}",
    ];
    for name in SNAPSHOTS {
        let snap = std::fs::read_to_string(fixture_path(name)).unwrap();
        assert!(
            metrics_dump_from(&snap, name).is_ok(),
            "{name} renders whole"
        );
        for _ in 0..SNAPSHOT_CUTS {
            let at = rng.gen_index(snap.len());
            let _ = metrics_dump_from(&snap[..at], &format!("{name} cut at byte {at}"));
        }
        let mut duplicated = 0;
        for (start, line) in snap
            .match_indices('\n')
            .map(|(i, _)| i + 1)
            .zip(snap.lines().skip(1))
        {
            let member = line.trim_start();
            let Some(key_end) = member.strip_prefix('"').and_then(|m| m.find("\": ")) else {
                continue;
            };
            let indent = &line[..line.len() - member.len()];
            let key = &member[..key_end + 2];
            let value = values[rng.gen_index(values.len())];
            let mutated = format!(
                "{}{indent}{key}: {value},\n{}",
                &snap[..start],
                &snap[start..]
            );
            let _ = metrics_dump_from(&mutated, &format!("{name} {key} = {value} twice"));
            duplicated += 1;
        }
        assert!(duplicated > 50, "{name}: {duplicated} members");
    }
}
