//! Smoke tests of the `msweb` CLI binary.

use std::process::Command;

fn msweb(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_msweb"))
        .args(args)
        .output()
        .expect("failed to spawn msweb")
}

#[test]
fn help_exits_with_usage() {
    let out = msweb(&["help"]);
    assert!(!out.status.success(), "help exits non-zero by convention");
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("USAGE"));
    assert!(text.contains("plan"));
    assert!(text.contains("replay"));
}

#[test]
fn unknown_subcommand_fails() {
    let out = msweb(&["frobnicate"]);
    assert!(!out.status.success());
}

#[test]
fn plan_prints_masters() {
    let out = msweb(&["plan", "--lambda", "1000", "--a", "0.25", "--inv-r", "40"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("masters"), "{text}");
    assert!(text.contains("vs flat"), "{text}");
}

#[test]
fn plan_rejects_garbage() {
    let out = msweb(&["plan", "--lambda", "not-a-number"]);
    assert!(!out.status.success());
}

#[test]
fn traces_lists_all_four() {
    let out = msweb(&["traces"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for t in ["DEC", "UCB", "KSU", "ADL"] {
        assert!(text.contains(t), "missing {t} in:\n{text}");
    }
}

#[test]
fn replay_single_policy() {
    let out = msweb(&[
        "replay",
        "--trace",
        "ucb",
        "--lambda",
        "200",
        "--p",
        "8",
        "--requests",
        "800",
        "--policy",
        "M/S",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("stretch"), "{text}");
    assert!(text.contains("completed"), "{text}");
}

#[test]
fn replay_requires_trace() {
    let out = msweb(&["replay", "--lambda", "200"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--trace"));
}

#[test]
fn import_roundtrip_via_tempfile() {
    // Render a small trace to CLF, write it out, import it back.
    use msweb::prelude::*;
    use msweb::workload::clf;
    let trace = ksu()
        .generate(300, &DemandModel::simulation(40.0), 5)
        .scaled_to_rate(30.0);
    let text = clf::trace_to_clf(&trace);
    let path = std::env::temp_dir().join(format!("msweb_cli_test_{}.log", std::process::id()));
    std::fs::write(&path, text).unwrap();

    let out = msweb(&[
        "import",
        "--log",
        path.to_str().unwrap(),
        "--p",
        "8",
        "--lambda",
        "100",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("imported 300 requests"), "{stdout}");
    assert!(stdout.contains("M/S"), "{stdout}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn import_missing_file_fails_cleanly() {
    let out = msweb(&["import", "--log", "/nonexistent/access.log"]);
    assert!(!out.status.success());
}

#[test]
fn experiments_fig3a_quick_writes_json() {
    let path =
        std::env::temp_dir().join(format!("msweb_cli_experiments_{}.json", std::process::id()));
    let out = msweb(&[
        "experiments",
        "--id",
        "fig3a",
        "--quick",
        "--json",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FIG 3(a)"), "{stdout}");
    let json = std::fs::read_to_string(&path).unwrap();
    assert!(json.contains("\"Fig3a\""), "{json}");
    assert!(json.contains("stretch_ms"), "{json}");

    // A comma-separated id list runs each experiment into one report.
    let out = msweb(&[
        "experiments",
        "--id",
        "fig3a,fig3b",
        "--quick",
        "--json",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("wrote 2 report(s)"), "{stdout}");
    let json = std::fs::read_to_string(&path).unwrap();
    assert!(json.contains("\"Fig3a\""), "{json}");
    assert!(json.contains("\"Fig3b\""), "{json}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn experiments_rejects_unknown_id() {
    let out = msweb(&["experiments", "--id", "fig9z"]);
    assert!(!out.status.success());
    // An unknown id anywhere in a list is a usage error before any
    // experiment runs.
    let out = msweb(&["experiments", "--id", "fig3a,fig9z", "--quick"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("fig9z"));
}

#[test]
fn malformed_numeric_flags_are_hard_errors_naming_the_flag() {
    // (args, flag named in the error) — malformed, fractional-where-
    // integer, and non-finite values must all hard-error, never fall
    // back to a default silently.
    let cases: &[(&[&str], &str)] = &[
        (&["live", "--scale", "abc"], "--scale"),
        (&["replay", "--trace", "ucb", "--lambda", "NaN"], "--lambda"),
        (&["replay", "--trace", "ucb", "--lambda", "inf"], "--lambda"),
        (
            &[
                "replay",
                "--trace",
                "ucb",
                "--lambda",
                "200",
                "--requests",
                "1.5",
            ],
            "--requests",
        ),
        (
            &[
                "replay", "--trace", "ucb", "--lambda", "200", "--seed", "-3",
            ],
            "--seed",
        ),
        (
            &["experiments", "--pareto", "--test", "--jobs", "two"],
            "--jobs",
        ),
    ];
    for (args, flag) in cases {
        let out = msweb(args);
        assert!(!out.status.success(), "{args:?} unexpectedly succeeded");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(flag),
            "{args:?}: error must name {flag}: {err}"
        );
    }
}

/// Every subcommand declares its flags: a typo'd flag, or one given
/// twice, exits 2 naming the flag and printing usage instead of running
/// with defaults.
#[test]
fn unknown_and_repeated_flags_are_rejected_with_usage() {
    let cases: &[(&[&str], &str)] = &[
        (
            &["scale", "--test", "--tick-worker", "2"],
            "unknown flag --tick-worker for `msweb scale`",
        ),
        (
            &["plan", "--lambda", "1000", "--p", "8", "--p", "16"],
            "flag --p given more than once",
        ),
        (
            &["traces", "--p", "8"],
            "unknown flag --p for `msweb traces`",
        ),
        // `experiments` modes each read their own flags: one that belongs
        // to another mode, or two modes at once, is rejected too.
        (
            &["experiments", "--grid", "zzz", "--id", "fig3a", "--quick"],
            "flag --grid does not apply to `msweb experiments`",
        ),
        (
            &["experiments", "--id", "fig3a", "--requests", "400"],
            "flag --requests does not apply to `msweb experiments`",
        ),
        (
            &["experiments", "--pareto", "--id", "fig3a", "--quick"],
            "flag --id does not apply to `msweb experiments --pareto`",
        ),
        (
            &["experiments", "--regions", "--quick", "--jobs", "2"],
            "flag --jobs does not apply to `msweb experiments --regions`",
        ),
        (
            &[
                "experiments",
                "--unknown-sizes",
                "--quick",
                "--grid",
                "rsrc",
            ],
            "flag --grid does not apply to `msweb experiments --unknown-sizes`",
        ),
        (
            &["experiments", "--pareto", "--regions", "--quick"],
            "--pareto and --regions are separate `msweb experiments` modes",
        ),
    ];
    for (args, message) in cases {
        let out = msweb(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.starts_with(message),
            "{args:?}: expected {message:?}: {err}"
        );
        assert!(
            err.contains("USAGE"),
            "{args:?}: error must print usage: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran before rejecting");
    }
}

/// The `--spec` error help must list exactly the stages the registry
/// can compose — derived from `SchedulerRegistry`'s name accessors, so
/// the rendered catalogue can never drift from the real stage space
/// (it used to hard-code the old five-stage pipeline).
#[test]
fn analyze_bad_spec_lists_the_registry_stage_catalogue() {
    use msweb::cluster::SchedulerRegistry;

    // A tiny real log so the parser reaches the --spec validation.
    let path = std::env::temp_dir().join(format!("msweb_cli_badspec_{}.jsonl", std::process::id()));
    let rec = msweb(&[
        "replay",
        "--trace",
        "ucb",
        "--lambda",
        "200",
        "--p",
        "8",
        "--requests",
        "20",
        "--policy",
        "M/S",
        "--trace-decisions",
        path.to_str().unwrap(),
    ]);
    assert!(rec.status.success());

    let out = msweb(&[
        "analyze",
        "--log",
        path.to_str().unwrap(),
        "--spec",
        "bogus/x",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("[region/]entry/admission/candidates/scorer/charge"),
        "error must show the six-part spec shape: {err}"
    );

    let reg = SchedulerRegistry::builtin();
    let scorers: Vec<String> = reg
        .scorer_names()
        .into_iter()
        .chain(reg.scorer_family_names().into_iter().map(|f| f + ":<arg>"))
        .collect();
    for (label, names) in [
        ("region:", reg.region_names()),
        ("entry:", reg.entry_names()),
        ("admission:", reg.admission_names()),
        ("candidates:", reg.candidate_names()),
        ("scorer:", scorers),
        ("charge:", reg.charge_names()),
    ] {
        let line = format!("  {label:<12} {}", names.join(" "));
        assert!(
            err.lines().any(|l| l == line),
            "stage list must render {line:?} from the registry, got:\n{err}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn regions_smoke_grid_prints_scenario_verdicts() {
    // Tiny request count so the debug binary stays fast; the full gate
    // (two-run determinism + flash-crowd verdict) runs in CI on the
    // release binary.
    let out = msweb(&["experiments", "--regions", "--quick", "--requests", "400"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REGIONS"), "{stdout}");
    for scenario in ["diurnal", "flash-crowd", "outage"] {
        assert!(stdout.contains(scenario), "missing {scenario}: {stdout}");
    }
    for policy in ["region-nearest", "region-greedy"] {
        assert!(stdout.contains(policy), "missing {policy}: {stdout}");
    }
}

#[test]
fn pareto_smoke_grid_prints_attributed_front() {
    // Tiny filtered smoke grid so the debug binary stays fast; the full
    // gate (two-run determinism + hybrid check) runs in CI on the
    // release binary.
    let out = msweb(&[
        "experiments",
        "--pareto",
        "--quick",
        "--requests",
        "200",
        "--grid",
        "level-split",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("PARETO"), "{stdout}");
    assert!(stdout.contains("first divergent stage"), "{stdout}");
    assert!(stdout.contains("front:"), "{stdout}");
}

/// Inputs that would reach a library assertion are rejected up front:
/// exit 2 with a message, never a panic (exit 101).
#[test]
fn out_of_range_inputs_exit_2_with_a_message() {
    // (args, text the message must contain)
    let cases: &[(&[&str], &str)] = &[
        (
            &["replay", "--trace", "ucb", "--p", "0", "--requests", "50"],
            "cluster needs at least one node",
        ),
        (
            &["metrics-dump", "--p", "0"],
            "cluster needs at least one node",
        ),
        (&["metrics-dump", "--lambda", "0"], "--lambda"),
        (
            &[
                "replay",
                "--trace",
                "ucb",
                "--inv-r",
                "0",
                "--requests",
                "50",
            ],
            "--inv-r",
        ),
        (
            &[
                "replay",
                "--trace",
                "ucb",
                "--lambda",
                "0",
                "--requests",
                "50",
            ],
            "--lambda",
        ),
        (&["live", "--rate", "0", "--requests", "10"], "--rate"),
        (&["scale", "--p", "0", "--test", "--skip-parity"], "--p"),
        (&["live", "--scale", "0", "--requests", "10"], "--scale"),
        (&["live", "--scale", "-1", "--requests", "10"], "--scale"),
        (
            &["experiments", "--regions", "--requests", "0", "--quick"],
            "--requests",
        ),
        (
            &["experiments", "--pareto", "--requests", "0", "--quick"],
            "--requests",
        ),
        (
            &["experiments", "--pareto", "--grid", "zzz", "--quick"],
            "--grid \"zzz\" matches no cell",
        ),
    ];
    for (args, needle) in cases {
        let out = msweb(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(
            err.contains(needle),
            "{args:?}: must mention {needle}: {err}"
        );
    }
}

/// A log sink whose only write is the final flush (five requests fit in
/// the write buffer) must still report a failed flush, once, and the
/// run must still finish.
#[test]
fn failed_final_flush_is_reported_once() {
    if !std::path::Path::new("/dev/full").exists() {
        return;
    }
    for (flag, message) in [
        ("--trace-decisions", "trace-decisions: write failed"),
        ("--telemetry-series", "telemetry series: write failed"),
    ] {
        let out = msweb(&[
            "replay",
            "--trace",
            "ucb",
            "--lambda",
            "600",
            "--p",
            "32",
            "--requests",
            "5",
            "--policy",
            "M/S",
            flag,
            "/dev/full",
        ]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{flag}: the run must finish: {err}");
        assert_eq!(
            err.matches(message).count(),
            1,
            "{flag}: expected one {message:?} report, got:\n{err}"
        );
    }
}
