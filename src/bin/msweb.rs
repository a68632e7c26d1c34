//! `msweb` — command-line front end to the cluster scheduling toolkit.
//!
//! ```text
//! msweb plan    --lambda 2000 --a 0.43 --inv-r 60 --p 32
//! msweb replay  --trace ksu --lambda 1000 --inv-r 80 --p 32 [--policy M/S] [--requests 20000]
//! msweb import  --log access.log [--lambda 800] [--p 16]
//! msweb traces
//! msweb analyze --log decisions.jsonl [--spec <spec>] [--run <n>] [--json] [--fail-on-divergence]
//! msweb slo-check --log decisions.jsonl --rules rules.json [--json]
//! msweb live    [--rate 40] [--requests 300] [--scale 0.2] [--telemetry out.json] [--top]
//!               [--serve-metrics 127.0.0.1:9100] [--telemetry-series out.jsonl]
//! msweb experiments [--id fig4a,fig4b] [--jobs 8] [--json out.json] [--quick] [--telemetry]
//! msweb metrics-dump [--from snapshot.json]
//! ```
//!
//! Every subcommand is a thin veneer over the public library API — the
//! same calls the examples and the experiment harness make.

use std::io::BufReader;

use msweb::bench::scale;
use msweb::prelude::*;
use msweb::workload::clf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage_and_exit();
    };
    // Each subcommand with the flags it accepts.
    let (run, accepted): (fn(&Flags), &str) = match cmd.as_str() {
        "plan" => (cmd_plan, "lambda a inv-r p mu-h"),
        "replay" => (
            cmd_replay,
            "trace lambda inv-r p policy requests seed trace-decisions telemetry metrics-out \
             telemetry-series slo-rules",
        ),
        "import" => (cmd_import, "log lambda p requests"),
        "traces" => (|_| cmd_traces(), ""),
        "live" => (
            cmd_live,
            "rate requests scale trace-decisions telemetry metrics-out top telemetry-series \
             slo-rules serve-metrics",
        ),
        "analyze" => (cmd_analyze, "log spec run json fail-on-divergence"),
        "slo-check" => (cmd_slo_check, "log rules json"),
        "experiments" => (
            cmd_experiments,
            "id jobs json quick seed trace-decisions telemetry telemetry-series unknown-sizes \
             pareto regions grid requests test",
        ),
        "metrics-dump" => (cmd_metrics_dump, "from trace lambda p requests seed policy"),
        "scale" => (
            cmd_scale,
            "p n trace seed lambda-per-p out test skip-parity",
        ),
        "help" | "--help" | "-h" => usage_and_exit(),
        other => {
            eprintln!("unknown subcommand: {other}\n");
            usage_and_exit();
        }
    };
    run(&Flags::parse(cmd, &args[1..], accepted));
}

fn usage_and_exit() -> ! {
    eprintln!(
        "msweb — master/slave Web-cluster scheduling (SPAA'99 reproduction)

USAGE:
  msweb plan    --lambda <req/s> --a <ratio> --inv-r <1/r> [--p <nodes>]
                  size the master level with Theorem 1
  msweb replay  --trace <ucb|ksu|adl|dec> --lambda <req/s> [--inv-r <1/r>]
                  [--p <nodes>] [--policy <name>] [--requests <n>] [--seed <s>]
                  [--trace-decisions <path>]
                  [--telemetry <path>] [--metrics-out <path>]
                  [--telemetry-series <path>] [--slo-rules <rules.json>]
                  simulate a policy on a synthetic Table-1 trace;
                  --telemetry writes the deterministic snapshot JSON,
                  --metrics-out the Prometheus text dump,
                  --telemetry-series the per-monitor-window JSONL time
                  series, and --slo-rules evaluates burn-rate rules
                  during the run (alerts on stderr, and in the decision
                  log when --trace-decisions is active); all need a
                  single --policy run
  msweb import  --log <file> [--lambda <req/s>] [--p <nodes>] [--requests <n>]
                  replay your own Common Log Format access log
  msweb traces    print the built-in trace characteristics (Table 1)
  msweb live    [--rate <req/s>] [--requests <n>] [--scale <x>]
                  [--trace-decisions <path>]
                  [--telemetry <path>] [--metrics-out <path>] [--top]
                  [--telemetry-series <path>] [--slo-rules <rules.json>]
                  [--serve-metrics <addr>]
                  run the thread-backed live cluster (6 nodes); telemetry
                  instruments the master/slave run, --top prints a live
                  stderr table each monitor period, --serve-metrics
                  answers Prometheus scrapes (GET /metrics) at <addr>
                  (e.g. 127.0.0.1:9100; port 0 picks one) while the
                  master/slave run executes
  msweb analyze --log <decisions.jsonl> [--spec <stage-spec>] [--run <n>]
                  [--json [path]] [--fail-on-divergence]
                  replay a decision log: re-drive the recorded (or a
                  counterfactual --spec) composition over the recorded
                  stream and report per-stage divergence attribution and
                  stretch/balance deltas
  msweb slo-check --log <decisions.jsonl> --rules <rules.json> [--json]
                  re-derive the per-window signals (stretch, drop rate,
                  clamping) from a decision log and evaluate the SLO
                  burn-rate rules over them; deterministic for a fixed
                  log, exits 1 when any rule fired
  msweb experiments [--id <id>[,<id>...]] [--jobs <n>] [--json <path>]
                  [--quick] [--seed <s>] [--trace-decisions <path>]
                  [--telemetry [path]] [--telemetry-series <path>]
                  regenerate the paper's tables/figures through the
                  parallel sweep runner (default: all experiments on all
                  cores; ids: fig3a fig3b tab1 tab2 fig4a fig4b fig5 tab3
                  ablation, comma-separated); --telemetry embeds an instrumented companion
                  replay's snapshot in each report (and writes it to
                  [path] when given); --telemetry-series streams the
                  companion replay's per-window JSONL time series to
                  <path>
  msweb experiments --unknown-sizes [--quick] [--jobs <n>] [--seed <s>]
                  [--json <path>] [--test]
                  sweep demand visibility (exact/noisy/hidden) x policy
                  (RSRC vs the attained-service scorers gittins/serpt/
                  las) and report end-to-end and model stretch per cell;
                  --test runs the CI smoke grid and fails unless an
                  attained policy beats RSRC under noisy and hidden
                  declarations
  msweb experiments --pareto [--grid <filter>] [--quick] [--jobs <n>]
                  [--seed <s>] [--requests <n>] [--json <path>] [--test]
                  enumerate every registry-composable stage combination
                  (pruned), score each on (model stretch, node-busy CV,
                  drop rate) under common random numbers, and print the
                  Pareto front with first-divergent-stage attribution
                  vs the RSRC baseline; --grid keeps only specs whose
                  slug contains <filter>; --test runs the bounded CI
                  smoke grid twice and fails on an empty front, a
                  missing hybrid, or byte-nondeterminism
  msweb experiments --regions [--quick] [--seed <s>] [--requests <n>]
                  [--json <path>] [--test]
                  drive the multi-region front tier through three
                  scenarios (diurnal rotation, migrating flash crowd,
                  region outage) x the two region selectors
                  (region-nearest, region-greedy) and compare them on
                  latency-weighted model stretch; --test runs the
                  bounded grid twice and fails on nondeterminism, an
                  incomplete grid, or greedy not winning flash-crowd
  msweb metrics-dump [--from <snapshot.json>] [--trace <name>]
                  [--lambda <req/s>] [--p <nodes>] [--requests <n>]
                  [--seed <s>] [--policy <name>]
                  print a Prometheus text exposition to stdout: from a
                  saved --telemetry snapshot with --from, otherwise from
                  a fresh short instrumented simulation
  msweb scale   [--p <list>] [--n <list>] [--trace <name>] [--seed <s>]
                  [--lambda-per-p <req/s/node>] [--out BENCH_scale.json]
                  [--test] [--skip-parity]
                  stream p x n scale cells (default 1k,4k,10k nodes x
                  1M,10M requests) through the indexed M/S composition,
                  record wall-clock + peak RSS (each cell in its own
                  process) into BENCH_scale.json and
                  enforce the scale budget (peak RSS <= 1 GiB, streamed
                  == materialized summaries); --test runs the CI smoke
                  grid (p=1000, n=100k)

--trace-decisions logs every scheduling decision (entry node, candidate
set as a node range with its dead nodes, reservation state, chosen node,
transfer latency) as one JSON object per line (schema v3; `analyze`
recomputes per-candidate RSRC scores by replay). The schema is identical whether
the records come from the simulator (replay/experiments) or the live
cluster (live/experiments tab3).

Policies: Flat, M/S, M/S-ns, M/S-nr, M/S-1, M/S', Redirect, Switch
(slugs flat, ms, ms-ns, ms-nr, ms-1, ms-prime, redirect, switch)"
    );
    std::process::exit(2);
}

/// A subcommand's `--key [value]` flags.
struct Flags(Vec<(String, String)>);

impl Flags {
    /// Parse `args` for subcommand `cmd`. A flag outside `accepted` (a
    /// space-separated list), or one given twice, prints its name plus
    /// usage and exits 2.
    fn parse(cmd: &str, args: &[String], accepted: &str) -> Flags {
        let mut out: Vec<(String, String)> = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                if !accepted.split_whitespace().any(|k| k == key) {
                    eprintln!("unknown flag --{key} for `msweb {cmd}`\n");
                    usage_and_exit();
                }
                if out.iter().any(|(k, _)| k == key) {
                    eprintln!("flag --{key} given more than once\n");
                    usage_and_exit();
                }
                // Boolean flags (e.g. --quick) take no value; only consume
                // the next token when it isn't itself a flag.
                let value = match it.peek() {
                    Some(v) if !v.starts_with("--") => it.next().cloned().unwrap_or_default(),
                    _ => String::new(),
                };
                out.push((key.to_string(), value));
            } else {
                eprintln!("unexpected argument: {a}");
                std::process::exit(2);
            }
        }
        Flags(out)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// A finite numeric flag. Malformed or non-finite values (`abc`,
    /// `NaN`, `inf`) are a hard error naming the offending flag — never
    /// a silent fallback to the default.
    fn num(&self, key: &str, default: f64) -> f64 {
        match self.get(key) {
            Some(v) => match v.parse::<f64>() {
                Ok(x) if x.is_finite() => x,
                _ => {
                    eprintln!("--{key} expects a finite number, got '{v}'");
                    std::process::exit(2);
                }
            },
            None => default,
        }
    }

    /// A positive finite numeric flag (a rate or a time scale): zero or
    /// a negative value is a hard error naming the flag.
    fn positive(&self, key: &str, default: f64) -> f64 {
        let x = self.num(key, default);
        if x <= 0.0 {
            eprintln!("--{key} expects a positive number, got '{x}'");
            std::process::exit(2);
        }
        x
    }

    /// A positive integer flag (a count that must not be empty).
    fn count(&self, key: &str, default: usize) -> usize {
        let n = self.usize(key, default);
        if n == 0 {
            eprintln!("--{key} expects a positive integer, got '0'");
            std::process::exit(2);
        }
        n
    }

    /// A non-negative integer flag, parsed directly (no silent
    /// truncation of fractional values, no negative-to-zero cast).
    fn usize(&self, key: &str, default: usize) -> usize {
        match self.get(key) {
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("--{key} expects a non-negative integer, got '{v}'");
                std::process::exit(2);
            }),
            None => default,
        }
    }

    /// A `u64` flag (seeds), parsed directly like [`Flags::usize`].
    fn u64(&self, key: &str, default: u64) -> u64 {
        match self.get(key) {
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("--{key} expects a non-negative integer, got '{v}'");
                std::process::exit(2);
            }),
            None => default,
        }
    }

    fn required(&self, key: &str) -> &str {
        self.get(key).unwrap_or_else(|| {
            eprintln!("missing required flag --{key}");
            std::process::exit(2);
        })
    }
}

/// `cfg`, once [`ClusterConfig::validate`] accepts it; a rejected
/// configuration exits 2 with the reason.
fn checked(cfg: ClusterConfig) -> ClusterConfig {
    if let Err(e) = cfg.validate() {
        eprintln!("invalid cluster configuration: {e}");
        std::process::exit(2);
    }
    cfg
}

/// `rate` (req/s), once [`ClusterConfig::check_rate`] accepts it for
/// the simulator's monitor period; a rejected rate exits 2, the message
/// led by `flag`.
fn checked_rate(rate: f64, flag: &str) -> f64 {
    let cfg = ClusterConfig::simulation(1, PolicyKind::MasterSlave);
    if let Err(e) = cfg.check_rate(rate) {
        eprintln!("{flag}: {e}");
        std::process::exit(2);
    }
    rate
}

fn policy_by_name(name: &str) -> PolicyKind {
    name.parse().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// Open a decision log, truncating it; exits on I/O failure (an
/// explicitly requested trace that cannot be written is an error, not a
/// warning).
fn decision_sink(path: &str) -> Box<dyn DecisionObserver> {
    match JsonlSink::create(path) {
        Ok(sink) => Box::new(sink),
        Err(e) => {
            eprintln!("cannot create --trace-decisions file {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Open a decision log for appending (later runs of a multi-run
/// command share the file).
fn decision_sink_append(path: &str) -> Box<dyn DecisionObserver> {
    match JsonlSink::append(path) {
        Ok(sink) => Box::new(sink),
        Err(e) => {
            eprintln!("cannot open --trace-decisions file {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Load and validate an SLO rules document; exits on I/O or grammar
/// errors (a requested rule set that cannot be evaluated is an error).
fn load_slo_rules(path: &str) -> SloRules {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read --slo-rules file {path}: {e}");
        std::process::exit(1);
    });
    SloRules::from_json(&text).unwrap_or_else(|e| {
        eprintln!("bad --slo-rules file {path}: {e}");
        std::process::exit(2);
    })
}

/// Open a `--telemetry-series` JSONL sink; exits on I/O failure.
fn series_sink(path: &str) -> SeriesRecorder {
    SeriesRecorder::create(path).unwrap_or_else(|e| {
        eprintln!("cannot create --telemetry-series file {path}: {e}");
        std::process::exit(1);
    })
}

/// Write the snapshot to the `--telemetry` (JSON) and `--metrics-out`
/// (Prometheus text) paths, whichever were requested.
fn write_telemetry(snap: &TelemetrySnapshot, json_path: Option<&str>, prom_path: Option<&str>) {
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(path, snap.to_json()) {
            eprintln!("failed to write --telemetry file {path}: {e}");
            std::process::exit(1);
        }
        println!("telemetry snapshot written to {path}");
    }
    if let Some(path) = prom_path {
        if let Err(e) = std::fs::write(path, snap.to_prometheus()) {
            eprintln!("failed to write --metrics-out file {path}: {e}");
            std::process::exit(1);
        }
        println!("prometheus dump written to {path}");
    }
}

fn trace_by_name(name: &str) -> TraceSpec {
    match name.to_ascii_lowercase().as_str() {
        "ucb" => ucb(),
        "ksu" => ksu(),
        "adl" => adl(),
        "dec" => dec(),
        other => {
            eprintln!("unknown trace: {other} (expected ucb|ksu|adl|dec)");
            std::process::exit(2);
        }
    }
}

fn print_summary(label: &str, s: &RunSummary) {
    println!("{label}");
    println!("  stretch          {:>10.3}", s.stretch);
    println!("  static stretch   {:>10.3}", s.stretch_static);
    println!("  dynamic stretch  {:>10.3}", s.stretch_dynamic);
    println!(
        "  median static    {:>9.1}ms",
        s.median_static_response_s * 1e3
    );
    println!(
        "  median dynamic   {:>9.1}ms",
        s.median_dynamic_response_s * 1e3
    );
    println!(
        "  p99 static       {:>9.1}ms",
        s.p99_static_response_s * 1e3
    );
    println!("  completed        {:>10}", s.completed);
    if s.cache_hits > 0 {
        println!("  cache hits       {:>10}", s.cache_hits);
    }
}

fn cmd_plan(flags: &Flags) {
    let lambda = flags.num("lambda", 1000.0);
    let a = flags.num("a", 0.25);
    let inv_r = flags.num("inv-r", 40.0);
    let p = flags.usize("p", 32);
    let mu_h = flags.num("mu-h", 1200.0);

    let w = match Workload::from_ratios(lambda, a, mu_h, 1.0 / inv_r) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("invalid workload: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "workload: λ={lambda}/s, a={a}, 1/r={inv_r}, μ_h={mu_h}/s, p={p}\n\
         offered load {:.2} Erlangs ({:.1}% of the cluster)",
        w.offered_load(),
        100.0 * w.offered_load() / p as f64
    );
    match FlatModel::evaluate(&w, p) {
        Ok(f) => println!(
            "flat:  stretch {:.3} at {:.1}% utilisation",
            f.stretch,
            f.utilisation * 100.0
        ),
        Err(e) => println!("flat:  UNSTABLE ({e})"),
    }
    match plan(&w, p, ThetaRule::Midpoint) {
        Ok(pl) => {
            println!(
                "M/S:   m = {} masters, θ = {:.3}, stretch {:.3} ({:+.1}% vs flat)",
                pl.m,
                pl.theta,
                pl.stretch_ms,
                pl.improvement_over_flat_pct()
            );
            println!(
                "       beats-flat interval θ ∈ [{:.3}, {:.3}], runtime bound θ2* = {:.3}",
                pl.interval.theta1,
                pl.interval.theta2,
                reservation_bound(pl.m, p, a, 1.0 / inv_r)
            );
            // The planner actually deployed (with the static-promptness floor):
            let deployed = plan_masters(p, lambda, a, 1.0 / inv_r, mu_h);
            if deployed != pl.m {
                println!("       deployed m = {deployed} (static-promptness floor applied)");
            }
        }
        Err(e) => println!("M/S:   no feasible configuration ({e})"),
    }
}

/// A mode of `msweb experiments`: the flag that selects it (none for the
/// paper's tables and figures), the flags it reads, and its entry point.
type ExperimentMode = (Option<&'static str>, &'static str, fn(&Flags));

const EXPERIMENT_MODES: [ExperimentMode; 4] = [
    (
        None,
        "id jobs json quick seed trace-decisions telemetry telemetry-series",
        cmd_paper_experiments,
    ),
    (
        Some("unknown-sizes"),
        "quick jobs seed json test",
        cmd_unknown_sizes,
    ),
    (
        Some("pareto"),
        "grid quick jobs seed requests json test",
        cmd_pareto,
    ),
    (
        Some("regions"),
        "quick seed requests json test",
        cmd_regions,
    ),
];

/// `msweb experiments`: run the one mode the flags select. Two mode flags
/// at once, or a flag the selected mode does not read, exit 2 naming it
/// before anything runs.
fn cmd_experiments(flags: &Flags) {
    let selected: Vec<&ExperimentMode> = EXPERIMENT_MODES
        .iter()
        .filter(|(flag, ..)| flag.is_some_and(|f| flags.get(f).is_some()))
        .collect();
    let (mode, accepted, run) = match selected[..] {
        [] => &EXPERIMENT_MODES[0],
        [one] => one,
        [a, b, ..] => {
            eprintln!(
                "--{} and --{} are separate `msweb experiments` modes; give one\n",
                a.0.unwrap_or_default(),
                b.0.unwrap_or_default()
            );
            usage_and_exit();
        }
    };
    let own = |k: &str| Some(k) == *mode || accepted.split_whitespace().any(|a| a == k);
    if let Some((key, _)) = flags.0.iter().find(|(k, _)| !own(k)) {
        let mode = mode.map(|m| format!(" --{m}")).unwrap_or_default();
        eprintln!("flag --{key} does not apply to `msweb experiments{mode}`\n");
        usage_and_exit();
    }
    run(flags);
}

/// `msweb experiments` without a mode flag: the paper's tables and
/// figures.
fn cmd_paper_experiments(flags: &Flags) {
    let quick = flags.get("quick").is_some();
    let jobs = flags.usize("jobs", 0);
    let mut exp = if quick {
        ExpConfig::quick()
    } else {
        ExpConfig::default()
    };
    exp.seed = flags.u64("seed", exp.seed);
    let telemetry = flags.get("telemetry");
    let runner = ExperimentRunner::new(exp)
        .parallelism(jobs)
        .live_time_scale(if quick { 0.3 } else { 1.0 })
        .trace_decisions(flags.get("trace-decisions").map(std::path::PathBuf::from))
        .telemetry(telemetry.is_some());

    let ids: Vec<ExperimentId> = match flags.get("id") {
        Some(list) => list
            .split(',')
            .map(|name| {
                ExperimentId::parse(name).unwrap_or_else(|| {
                    eprintln!("unknown experiment id: {name}");
                    std::process::exit(2);
                })
            })
            .collect(),
        None => ExperimentId::ALL.to_vec(),
    };

    let mut reports = Vec::with_capacity(ids.len());
    for id in ids {
        let report = runner.run(id);
        println!("{}", report.render());
        reports.push(report);
    }
    if let Some(path) = flags.get("json") {
        let body: Vec<String> = reports.iter().map(ExperimentReport::to_json).collect();
        let json = format!("[\n{}\n]\n", body.join(",\n"));
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {} report(s) to {path}", reports.len());
    }
    // `--telemetry <path>` also writes the companion snapshot on its
    // own; every report of one invocation embeds the same one (the
    // runner's canonical replay depends only on the ExpConfig).
    if let Some(path) = telemetry.filter(|p| !p.is_empty()) {
        if let Some(snap) = reports.iter().find_map(|r| r.telemetry.as_ref()) {
            if let Err(e) = std::fs::write(path, snap.to_json()) {
                eprintln!("failed to write --telemetry file {path}: {e}");
                std::process::exit(1);
            }
            println!("telemetry snapshot written to {path}");
        }
    }
    // `--telemetry-series <path>` streams the same canonical companion
    // replay's per-window time series (byte-deterministic for a fixed
    // seed and sizing).
    if let Some(path) = flags.get("telemetry-series") {
        match runner.write_telemetry_series(path) {
            Ok(records) => println!("telemetry series ({records} windows) written to {path}"),
            Err(e) => {
                eprintln!("failed to write --telemetry-series file {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// `msweb experiments --unknown-sizes`: the demand-visibility sweep —
/// what happens to placement quality when per-request demand
/// declarations decay from exact to noisy to absent.
fn cmd_unknown_sizes(flags: &Flags) {
    let test = flags.get("test").is_some();
    let quick = test || flags.get("quick").is_some();
    let mut exp = if quick {
        msweb::bench::ExpConfig::quick()
    } else {
        msweb::bench::ExpConfig::default()
    };
    exp.seed = flags.u64("seed", exp.seed);
    exp.jobs = flags.usize("jobs", exp.jobs);

    let rows = msweb::bench::unknown_sizes(&exp);
    println!(
        "unknown-sizes sweep: UCB x {} requests, p=32, visibility x policy\n",
        exp.requests
    );
    println!(
        "{:<10} {:<9} {:>9} {:>14}",
        "visibility", "policy", "stretch", "model stretch"
    );
    let mut last_vis = "";
    for r in &rows {
        if r.visibility != last_vis && !last_vis.is_empty() {
            println!();
        }
        last_vis = &r.visibility;
        println!(
            "{:<10} {:<9} {:>9.3} {:>14.4}",
            r.visibility, r.policy, r.stretch, r.model_stretch
        );
    }

    if let Some(path) = flags.get("json") {
        let json = serde::to_json_string_pretty(&rows) + "\n";
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("\nwrote {} rows to {path}", rows.len());
    }

    match msweb::bench::unknown_sizes_check(&rows) {
        Ok(()) => println!(
            "\nOK: an attained-service policy beats RSRC under noisy and hidden declarations"
        ),
        Err(msg) => {
            eprintln!("\nunknown-sizes gate failed: {msg}");
            if test {
                std::process::exit(1);
            }
        }
    }
}

/// `msweb experiments --pareto`: the stage-space Pareto sweep — every
/// registry-composable pipeline scored on (model stretch, node-busy CV,
/// drop rate), the 3-D front extracted deterministically, and each
/// frontier point attributed to its first divergent stage vs the RSRC
/// baseline. `--test` runs the bounded smoke grid twice and fails on an
/// empty front, a missing hybrid, or byte-nondeterminism.
fn cmd_pareto(flags: &Flags) {
    use msweb::bench::{pareto, pareto_check, StageGrid};
    let test = flags.get("test").is_some();
    let quick = test || flags.get("quick").is_some();
    let mut exp = if quick {
        msweb::bench::ExpConfig::quick()
    } else {
        msweb::bench::ExpConfig::default()
    };
    exp.seed = flags.u64("seed", exp.seed);
    exp.jobs = flags.usize("jobs", exp.jobs);
    exp.requests = flags.count("requests", exp.requests);

    let mut grid = if test {
        StageGrid::smoke()
    } else {
        StageGrid::full(&SchedulerRegistry::builtin())
    };
    if let Some(filter) = flags.get("grid") {
        let name = grid.label();
        grid = grid.with_filter(filter);
        // An empty selection is an input error, like an unknown `--id`.
        if grid.enumerate().specs.is_empty() {
            eprintln!("--grid {filter:?} matches no cell of the {name} grid");
            std::process::exit(2);
        }
    }

    let report = pareto(&exp, &grid);
    print!("{}", report.render());

    match flags.get("json") {
        // `--json` with no value streams to stdout; with a value it
        // writes the file and keeps the human table on stdout.
        Some("") => print!("{}", report.to_json()),
        Some(path) => {
            if let Err(e) = std::fs::write(path, report.to_json()) {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
            println!("wrote the frontier report to {path}");
        }
        None => {}
    }

    if test {
        // Byte-determinism gate: the identical configuration must
        // serialise identically on a second full run.
        let again = pareto(&exp, &grid);
        if report.to_json() != again.to_json() {
            eprintln!("pareto gate failed: two identical runs produced different JSON");
            std::process::exit(1);
        }
        println!("determinism: two runs byte-identical");
    }

    match pareto_check(&report) {
        Ok(()) => println!(
            "OK: non-empty front with >=1 hybrid, every point attributed vs {}",
            report.baseline
        ),
        Err(msg) => {
            eprintln!("pareto gate failed: {msg}");
            if test {
                std::process::exit(1);
            }
        }
    }
}

/// `msweb experiments --regions`: the multi-region scenario grid —
/// three scenarios (diurnal rotation, migrating flash crowd, region
/// outage) x the two region selectors, scored on latency-weighted
/// model stretch. `--test` runs the bounded grid twice and fails on
/// byte-nondeterminism, an incomplete grid, or the greedy selector not
/// beating `region-nearest` in the flash-crowd scenario.
fn cmd_regions(flags: &Flags) {
    use msweb::bench::{regions, regions_check};
    let test = flags.get("test").is_some();
    let quick = test || flags.get("quick").is_some();
    let mut exp = if quick {
        msweb::bench::ExpConfig::quick()
    } else {
        msweb::bench::ExpConfig::default()
    };
    exp.seed = flags.u64("seed", exp.seed);
    exp.requests = flags.count("requests", exp.requests);

    let report = regions(&exp);
    print!("{}", report.render());

    match flags.get("json") {
        // `--json` with no value streams to stdout; with a value it
        // writes the file and keeps the human table on stdout.
        Some("") => print!("{}", report.to_json()),
        Some(path) => {
            if let Err(e) = std::fs::write(path, report.to_json()) {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
            println!("wrote the scenario report to {path}");
        }
        None => {}
    }

    if test {
        // Byte-determinism gate: the identical configuration must
        // serialise identically on a second full run.
        let again = regions(&exp);
        if report.to_json() != again.to_json() {
            eprintln!("regions gate failed: two identical runs produced different JSON");
            std::process::exit(1);
        }
        println!("determinism: two runs byte-identical");
    }

    match regions_check(&report) {
        Ok(()) => println!(
            "OK: full {}x{} grid, region-greedy wins flash-crowd on latency-weighted stretch",
            msweb::bench::SCENARIOS.len(),
            msweb::bench::REGION_POLICIES.len()
        ),
        Err(msg) => {
            eprintln!("regions gate failed: {msg}");
            if test {
                std::process::exit(1);
            }
        }
    }
}

/// `msweb metrics-dump`: a Prometheus text exposition on stdout — from
/// a saved `--telemetry` snapshot (`--from`), or from a fresh short
/// instrumented simulation (KSU master/slave cell by default).
fn cmd_metrics_dump(flags: &Flags) {
    if let Some(path) = flags.get("from") {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read snapshot {path}: {e}");
            std::process::exit(1);
        });
        let snap = TelemetrySnapshot::from_json(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse snapshot {path}: {e}");
            std::process::exit(1);
        });
        print!("{}", snap.to_prometheus());
        return;
    }
    let spec = trace_by_name(flags.get("trace").unwrap_or("ksu"));
    let lambda = checked_rate(flags.positive("lambda", 1000.0), "--lambda");
    let p = flags.usize("p", 32);
    let n = flags.usize("requests", 2_000);
    let seed = flags.u64("seed", 42);
    let policy = policy_by_name(flags.get("policy").unwrap_or("ms"));
    let trace = spec
        .generate(n, &DemandModel::simulation(40.0), seed)
        .scaled_to_rate(lambda);
    let m = plan_masters(p, lambda, spec.arrival_ratio_a(), 1.0 / 40.0, 1200.0);
    let cfg = ClusterConfig::simulation(p, policy)
        .with_masters(m)
        .with_seed(seed);
    let outcome = simulate(checked(cfg), &trace, RunOptions::new().telemetry(true));
    let snap = outcome.telemetry.expect("telemetry enabled");
    print!("{}", snap.to_prometheus());
}

fn cmd_replay(flags: &Flags) {
    let spec = trace_by_name(flags.required("trace"));
    let lambda = checked_rate(flags.positive("lambda", 1000.0), "--lambda");
    let inv_r = flags.positive("inv-r", 40.0);
    let p = flags.usize("p", 32);
    let n = flags.usize("requests", 20_000);
    let seed = flags.u64("seed", 42);

    let trace = spec
        .generate(n, &DemandModel::simulation(inv_r), seed)
        .scaled_to_rate(lambda);
    let m = plan_masters(p, lambda, spec.arrival_ratio_a(), 1.0 / inv_r, 1200.0);
    println!(
        "replaying {} × {n} requests at {lambda}/s on p={p} (m={m}, 1/r={inv_r})\n",
        spec.name
    );

    let log = flags.get("trace-decisions");
    let tele_json = flags.get("telemetry");
    let metrics_out = flags.get("metrics-out");
    let series_path = flags.get("telemetry-series");
    let slo_rules = flags.get("slo-rules").map(load_slo_rules);
    match flags.get("policy") {
        Some(name) => {
            let policy = policy_by_name(name);
            let cfg = ClusterConfig::simulation(p, policy)
                .with_masters(m)
                .with_seed(seed);
            let cfg = checked(cfg);
            let mut opts =
                RunOptions::new().telemetry(tele_json.is_some() || metrics_out.is_some());
            if let Some(path) = log {
                opts = opts.observer(decision_sink(path));
            }
            if let Some(path) = series_path {
                opts = opts.series(series_sink(path));
            }
            if let Some(rules) = slo_rules {
                opts = opts.slo(SloEngine::new(rules));
            }
            let outcome = simulate(cfg, &trace, opts);
            print_summary(policy.label(), &outcome.summary);
            if let Some(engine) = &outcome.slo {
                println!("slo alerts fired: {}", engine.alerts_fired());
            }
            if let Some(snap) = &outcome.telemetry {
                write_telemetry(snap, tele_json, metrics_out);
            }
            if let Some(path) = series_path {
                println!("telemetry series written to {path}");
            }
        }
        None => {
            if tele_json.is_some()
                || metrics_out.is_some()
                || series_path.is_some()
                || slo_rules.is_some()
            {
                eprintln!(
                    "--telemetry/--metrics-out/--telemetry-series/--slo-rules need a \
                     single --policy replay"
                );
                std::process::exit(2);
            }
            // Truncate the shared log once, then let every policy's
            // replay append to it.
            let mut first = true;
            for policy in [
                PolicyKind::Flat,
                PolicyKind::MasterSlave,
                PolicyKind::MsNoReservation,
                PolicyKind::MsAllMasters,
                PolicyKind::Switch,
            ] {
                let cfg = ClusterConfig::simulation(p, policy)
                    .with_masters(m)
                    .with_seed(seed);
                let cfg = checked(cfg);
                let mut opts = RunOptions::new();
                if let Some(path) = log {
                    opts = opts.observer(if first {
                        decision_sink(path)
                    } else {
                        decision_sink_append(path)
                    });
                }
                first = false;
                let s = simulate(cfg, &trace, opts).summary;
                println!("{:<9} stretch {:>8.3}", policy.label(), s.stretch);
            }
        }
    }
    if let Some(path) = log {
        println!("\ndecision log written to {path}");
    }
}

/// Render the stage catalogue for `--spec` error messages, one line
/// per pipeline stage, generated from the live registry so the list
/// can never drift from what actually composes.
fn registered_stages() -> String {
    let reg = SchedulerRegistry::builtin();
    let line = |label: &str, names: Vec<String>| format!("  {label:<12} {}\n", names.join(" "));
    format!(
        "registered stages ([region/]entry/admission/candidates/scorer/charge):\n{}{}{}{}{}{}",
        line("region:", reg.region_names()),
        line("entry:", reg.entry_names()),
        line("admission:", reg.admission_names()),
        line("candidates:", reg.candidate_names()),
        line(
            "scorer:",
            reg.scorer_names()
                .into_iter()
                .chain(reg.scorer_family_names().into_iter().map(|f| f + ":<arg>"))
                .collect(),
        ),
        line("charge:", reg.charge_names()),
    )
}

/// Open the decision log at `path` as a stream of parsed lines; exit 1
/// when it cannot be opened.
fn open_log(path: &str) -> impl Iterator<Item = Result<LogLine, ReplayError>> {
    match std::fs::File::open(path) {
        Ok(file) => read_log(BufReader::new(file)),
        Err(e) => {
            eprintln!("cannot read decision log {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Report why a log reader failed and exit 1: a read or parse error as
/// one the log could not be read for, anything else as `what` failing.
fn log_failed(what: &str, path: &str, e: ReplayError) -> ! {
    match e {
        ReplayError::Read(_) | ReplayError::Line { .. } => {
            eprintln!("cannot read decision log {path}: {e}")
        }
        _ => eprintln!("cannot {what} {path}: {e}"),
    }
    std::process::exit(1);
}

fn cmd_analyze(flags: &Flags) {
    let path = flags.required("log");
    let log = open_log(path);
    let mut opts = ReplayOptions {
        run: flags.usize("run", 0),
        ..ReplayOptions::default()
    };
    if let Some(spec) = flags.get("spec") {
        match StageSpec::parse(spec) {
            Ok(s) => opts.spec = Some(s),
            Err(e) => {
                eprintln!("bad --spec: {e}");
                eprint!("{}", registered_stages());
                std::process::exit(2);
            }
        }
    }
    let report = analyze(log, &opts).unwrap_or_else(|e| log_failed("analyze", path, e));

    match flags.get("json") {
        // `--json` with no value streams to stdout; with a value it
        // writes the file and keeps the human summary on stdout.
        Some("") => print!("{}", report.to_json()),
        Some(out) => {
            if let Err(e) = std::fs::write(out, report.to_json()) {
                eprintln!("failed to write {out}: {e}");
                std::process::exit(1);
            }
            print_analysis(&report);
            println!("\nreport written to {out}");
        }
        None => print_analysis(&report),
    }

    if flags.get("fail-on-divergence").is_some() && report.divergent > 0 {
        eprintln!(
            "FAIL: {} of {} placements diverged under {}",
            report.divergent, report.decisions, report.replay_spec
        );
        std::process::exit(1);
    }
}

/// `msweb slo-check`: evaluate SLO burn-rate rules against a decision
/// log. The per-window signals are re-derived from the log alone, so
/// the verdict is byte-deterministic for a fixed log and rule set;
/// exits 1 when any rule fired.
fn cmd_slo_check(flags: &Flags) {
    let path = flags.required("log");
    let rules = load_slo_rules(flags.required("rules"));
    let log = open_log(path);
    let report = check_log(log, &rules).unwrap_or_else(|e| log_failed("slo-check", path, e));
    if flags.get("json").is_some() {
        println!("{}", report.to_value().to_json_pretty());
    } else {
        print!("{}", report.render());
    }
    if report.breached() {
        std::process::exit(1);
    }
}

fn print_analysis(r: &AnalysisReport) {
    println!(
        "{} log, run {}/{}: policy {} on p={} (m={}, seed {})",
        r.substrate,
        r.run + 1,
        r.runs,
        r.policy,
        r.p,
        r.m,
        r.seed
    );
    println!("  recorded composition  {}", r.baseline_spec);
    if r.replay_spec != r.baseline_spec {
        println!("  replayed composition  {}", r.replay_spec);
    }
    println!(
        "  decisions {:>8}   divergent {:>6}  ({:.2}%)",
        r.decisions,
        r.divergent,
        r.divergence_rate * 100.0
    );
    match &r.first_disagreement {
        Some(d) => println!(
            "  first disagreement at decision {} (request {}): {} stage",
            d.seq,
            d.req,
            d.stage.as_str()
        ),
        None => println!("  replay is a fixed point of the log (no disagreement at any stage)"),
    }
    if !r.stage_attribution.is_empty() {
        let parts: Vec<String> = r
            .stage_attribution
            .iter()
            .map(|(stage, n)| format!("{stage} {n}"))
            .collect();
        println!("  divergence by stage   {}", parts.join(", "));
    }
    println!(
        "  completions {:>6}   drops recorded {:>4}  replayed {:>4}  rescued {:>4}",
        r.completions, r.drops_recorded, r.drops_replayed, r.rescued
    );
    if r.restarts_recorded > 0 {
        println!("  failure restarts      {}", r.restarts_recorded);
    }
    if r.recorded_stretch > 0.0 {
        println!("  recorded stretch      {:>8.3}", r.recorded_stretch);
    }
    println!(
        "  model stretch         {:>8.3} -> {:>8.3}  (delta {:+.3})",
        r.model_stretch_factual, r.model_stretch_counterfactual, r.model_stretch_delta
    );
    println!(
        "  node-busy CV          {:>8.3} -> {:>8.3}  (delta {:+.3})",
        r.node_busy_cv_factual, r.node_busy_cv_counterfactual, r.node_busy_cv_delta
    );
    for row in &r.divergences {
        let cf = match row.counterfactual {
            Some(n) => format!("{n}"),
            None => "drop".to_string(),
        };
        println!(
            "    seq {:>6} req {:>6}: node {} -> {}  ({} stage)",
            row.seq,
            row.req,
            row.factual,
            cf,
            row.stage.as_str()
        );
    }
    if r.divergences_truncated {
        println!("    ... divergence list truncated");
    }
    if r.parse_warning_count > 0 {
        println!("  parse warnings        {}", r.parse_warning_count);
        for w in &r.parse_warnings {
            println!("    {w}");
        }
        if (r.parse_warnings.len() as u64) < r.parse_warning_count {
            println!("    ... warning list truncated");
        }
    }
    if r.skipped_unknown_events > 0 {
        println!("  unknown events        {}", r.skipped_unknown_events);
    }
}

fn cmd_import(flags: &Flags) {
    let path = flags.required("log");
    let lambda = flags.num("lambda", 0.0);
    let p = flags.usize("p", 16);
    let n = flags.usize("requests", usize::MAX);

    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let records = match clf::parse_clf(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("parse error: {e}");
            std::process::exit(1);
        }
    };
    let kind = clf::guess_cgi_kind(&records);
    let demand = DemandModel::simulation(40.0);
    let mut trace = clf::records_to_trace("imported", &records, &demand, kind, 7).truncated(n);
    if lambda > 0.0 {
        trace = trace.scaled_to_rate(checked_rate(lambda, "--lambda"));
    }
    let s = trace.summary();
    println!(
        "imported {} requests: {:.1}% CGI, replay rate {:.1}/s, inferred CGI kind {kind:?}\n",
        trace.len(),
        s.cgi_pct,
        trace.mean_rate()
    );
    let a = s.arrival_ratio_a.clamp(0.01, 10.0);
    let m = plan_masters(p, trace.mean_rate(), a, 1.0 / 40.0, 1200.0);
    for policy in [
        PolicyKind::Flat,
        PolicyKind::MasterSlave,
        PolicyKind::Switch,
    ] {
        let cfg = checked(ClusterConfig::simulation(p, policy).with_masters(m));
        let r = simulate(cfg, &trace, RunOptions::new()).summary;
        println!("{:<9} stretch {:>8.3}", policy.label(), r.stretch);
    }
}

fn cmd_traces() {
    println!(
        "{:<6} {:>5} {:>14} {:>7} {:>10} {:>10} {:>10}  CGI replay model",
        "trace", "year", "requests", "%CGI", "interval", "HTML B", "CGI B"
    );
    for t in all_traces() {
        println!(
            "{:<6} {:>5} {:>14} {:>7.1} {:>9.3}s {:>10} {:>10}  {:?}",
            t.name,
            t.year,
            t.paper_requests,
            t.cgi_pct,
            t.mean_interval_s,
            t.mean_html_bytes,
            t.mean_cgi_bytes,
            t.cgi_kind
        );
    }
}

fn cmd_live(flags: &Flags) {
    let rate = flags.positive("rate", 40.0);
    let n = flags.usize("requests", 300);
    let scale = flags.positive("scale", 0.2);

    let trace = ucb()
        .generate(n, &DemandModel::sun_cluster(40.0), 11)
        .scaled_to_rate(rate);
    println!(
        "live cluster: 6 nodes, {n} requests at {rate}/s, time scale {scale} \
         (expect ~{:.0}s wall)\n",
        n as f64 / rate * scale
    );
    let log = flags.get("trace-decisions");
    let tele_json = flags.get("telemetry");
    let metrics_out = flags.get("metrics-out");
    let series_path = flags.get("telemetry-series");
    let mut slo_rules = flags.get("slo-rules").map(load_slo_rules);
    let top = flags.get("top").is_some();
    // Bind the scrape endpoint before any run starts, so address errors
    // surface immediately and scrapers can connect from the first
    // moment (the body fills in once the instrumented run begins).
    let mut metrics_server = flags.get("serve-metrics").map(|addr| {
        let server = MetricsServer::bind(addr).unwrap_or_else(|e| {
            eprintln!("cannot bind --serve-metrics address {addr}: {e}");
            std::process::exit(1);
        });
        println!("serving live metrics at http://{}/metrics", server.addr());
        server
    });
    let mut first = true;
    for (policy, m) in [(PolicyKind::Flat, 1), (PolicyKind::MasterSlave, 3)] {
        let cfg = ClusterConfig::simulation(6, policy).with_masters(m);
        // Telemetry (and the --top table, series, SLO rules and the
        // scrape endpoint) instrument the master/slave run — the
        // paper's policy and the run of interest.
        let instrument = (tele_json.is_some()
            || metrics_out.is_some()
            || top
            || series_path.is_some()
            || slo_rules.is_some()
            || metrics_server.is_some())
            && policy == PolicyKind::MasterSlave;
        // The live path and the simulator take the same run options, so
        // tracing works identically.
        let mut opts = RunOptions::new();
        if let Some(path) = log {
            opts = opts.observer(if first {
                decision_sink(path)
            } else {
                decision_sink_append(path)
            });
        }
        let mut rt = Realtime::scaled(scale);
        if instrument {
            opts = opts.telemetry(tele_json.is_some() || metrics_out.is_some() || top);
            rt.top = top;
            if let Some(path) = series_path {
                opts = opts.series(series_sink(path));
            }
            if let Some(rules) = slo_rules.take() {
                opts = opts.slo(SloEngine::new(rules));
            }
            rt.metrics = metrics_server.take();
        }
        let outcome = emulate(cfg, &trace, opts, rt);
        if let Some(snap) = &outcome.telemetry {
            write_telemetry(snap, tele_json, metrics_out);
        }
        if let Some(engine) = &outcome.slo {
            println!("slo alerts fired: {}", engine.alerts_fired());
        }
        if let (true, Some(path)) = (instrument, series_path) {
            println!("telemetry series written to {path}");
        }
        first = false;
        println!(
            "{:<9} live stretch {:>8.3}",
            policy.label(),
            outcome.summary.stretch
        );
    }
    if let Some(path) = log {
        println!("\ndecision log written to {path}");
    }
}

#[derive(serde::Serialize)]
struct ScaleReport {
    trace: String,
    seed: u64,
    lambda_per_p: f64,
    budget_max_rss_bytes: u64,
    /// Each cell's row ([`scale::median_run`] of its runs).
    cells: Vec<scale::ScaleCell>,
    parity: Vec<scale::ScaleParity>,
    telemetry: Option<scale::ScaleTelemetryCheck>,
    budget_ok: bool,
}

/// Names the one cell run (`"<p>,<n>,<telemetry 0|1>"`) a child
/// `msweb scale` process runs. The parent starts one child per run with
/// its own arguments plus this variable and reads the child's one-line
/// JSON report from its stdout, so each run's peak RSS is its own.
const SCALE_CELL_ENV: &str = "MSWEB_SCALE_CELL";

/// Parse a comma-separated size list with optional `k`/`M` suffixes
/// (`"1k,4k,10k"` → `[1000, 4000, 10000]`).
fn parse_size_list(s: &str, flag: &str) -> Vec<usize> {
    s.split(',')
        .map(|tok| {
            let t = tok.trim();
            let (digits, mult) = match t.chars().last() {
                Some('k') | Some('K') => (&t[..t.len() - 1], 1_000usize),
                Some('m') | Some('M') => (&t[..t.len() - 1], 1_000_000usize),
                _ => (t, 1),
            };
            digits
                .parse::<usize>()
                .ok()
                .filter(|&v| v > 0)
                .map(|v| v * mult)
                .unwrap_or_else(|| {
                    eprintln!("--{flag} expects positive sizes like 1000 or 10k,1M, got '{t}'");
                    std::process::exit(2);
                })
        })
        .collect()
}

fn cmd_scale(flags: &Flags) {
    let test_mode = flags.get("test").is_some();
    let workload = scale::ScaleWorkload {
        spec: trace_by_name(flags.get("trace").unwrap_or("ucb")),
        seed: flags.u64("seed", 42),
        lambda_per_p: flags.positive("lambda-per-p", 31.25),
    };
    let out = flags.get("out").unwrap_or("BENCH_scale.json");
    let default_p = if test_mode { "1000" } else { "1000,4000,10000" };
    let default_n = if test_mode {
        "100000"
    } else {
        "1000000,10000000"
    };
    let p_list = parse_size_list(flags.get("p").unwrap_or(default_p), "p");
    let n_list = parse_size_list(flags.get("n").unwrap_or(default_n), "n");
    let parity_p = scale::PARITY_CELLS.map(|(p, _)| p);
    for &p in p_list.iter().chain(&parity_p) {
        let flag = format!("--lambda-per-p {} at p = {p}", workload.lambda_per_p);
        checked_rate(workload.lambda(p), &flag);
    }
    let largest = (
        p_list.iter().copied().max().unwrap_or(32),
        n_list.iter().copied().max().unwrap_or(20_000),
    );

    if let Ok(cell) = std::env::var(SCALE_CELL_ENV) {
        let parsed = match cell.split(',').collect::<Vec<_>>()[..] {
            [p, n, t @ ("0" | "1")] => p.parse().ok().zip(n.parse().ok()).map(|pn| (pn, t == "1")),
            _ => None,
        };
        let Some(((p, n), telemetry)) = parsed else {
            eprintln!("{SCALE_CELL_ENV} must be \"<p>,<n>,<0|1>\", got {cell:?}");
            std::process::exit(2);
        };
        let report = scale::scale_cell(&workload, p, n, telemetry);
        println!("{}", serde::to_json_string(&report));
        return;
    }

    // Parity gate first (small, so it never disturbs the RSS story):
    // the streamed run must be byte-identical to the materialized one.
    let mut parity = Vec::new();
    if flags.get("skip-parity").is_none() {
        for (p, n) in scale::PARITY_CELLS {
            let check = scale::parity(&workload, p, n);
            println!(
                "parity p={p:<4} n={n}: streamed {} materialized",
                if check.byte_identical { "==" } else { "!=" }
            );
            parity.push(check);
        }
    }

    // Each cell runs RUNS_PER_CELL times, each run in a fresh child process
    // so its peak RSS is its own; the largest cell's first run also runs
    // the telemetry pair.
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("cannot locate the msweb binary for the scale cells: {e}");
        std::process::exit(1);
    });
    let mut cells = Vec::new();
    let mut telemetry = None;
    let mut final_rss = scale::peak_rss_bytes();
    for &n in &n_list {
        for &p in &p_list {
            let mut runs = Vec::with_capacity(scale::RUNS_PER_CELL);
            for run in 0..scale::RUNS_PER_CELL {
                let telemetry_flag = u8::from(run == 0 && (p, n) == largest);
                let output = std::process::Command::new(&exe)
                    .args(std::env::args_os().skip(1))
                    .env(SCALE_CELL_ENV, format!("{p},{n},{telemetry_flag}"))
                    .stderr(std::process::Stdio::inherit())
                    .output();
                let report = match &output {
                    Ok(o) if o.status.success() => {
                        scale::ScaleChildReport::from_json(&String::from_utf8_lossy(&o.stdout))
                    }
                    _ => Err(format!("{output:?}")),
                };
                let report = report.unwrap_or_else(|e| {
                    eprintln!("scale cell p={p} n={n} failed: {e}");
                    std::process::exit(1);
                });
                if let Some(check) = report.telemetry {
                    println!(
                        "telemetry p={p:<6} n={n:<9} RSS delta {:>7.1} MiB  ({})",
                        check.rss_after_bytes.saturating_sub(check.rss_before_bytes) as f64
                            / (1024.0 * 1024.0),
                        if check.ok { "neutral" } else { "OVER BUDGET" }
                    );
                    final_rss = final_rss.max(check.rss_after_bytes);
                    telemetry = Some(check);
                }
                runs.push(report.cell);
            }
            let cell = scale::median_run(runs).unwrap_or_else(|e| {
                eprintln!("scale cell p={p} n={n}: {e}");
                std::process::exit(1);
            });
            println!(
                "p={p:<6} n={n:<9} lambda={:<9.0} wall {:>8.2}s  \
                 {:>9.0} req/s ({:.0}–{:.0})  peak RSS {:>7.1} MiB  stretch {:.3}",
                cell.lambda,
                cell.wall_s,
                cell.throughput_req_per_s,
                cell.throughput_min_req_per_s,
                cell.throughput_max_req_per_s,
                cell.peak_rss_bytes as f64 / (1024.0 * 1024.0),
                cell.stretch
            );
            final_rss = final_rss.max(cell.peak_rss_bytes);
            cells.push(cell);
        }
    }

    let rss_ok = final_rss <= scale::RSS_BUDGET_BYTES || final_rss == 0;
    let parity_ok = parity.iter().all(|p| p.byte_identical);
    let telemetry_ok = telemetry.as_ref().is_some_and(|t| t.ok);
    let report = ScaleReport {
        trace: workload.spec.name.to_string(),
        seed: workload.seed,
        lambda_per_p: workload.lambda_per_p,
        budget_max_rss_bytes: scale::RSS_BUDGET_BYTES,
        cells,
        parity,
        telemetry,
        budget_ok: rss_ok && parity_ok && telemetry_ok,
    };
    if let Err(e) = std::fs::write(out, serde::to_json_string_pretty(&report) + "\n") {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    }
    println!("\nscale report written to {out}");
    if !rss_ok {
        eprintln!(
            "BUDGET VIOLATION: peak RSS {:.1} MiB exceeds the 1 GiB scale budget",
            final_rss as f64 / (1024.0 * 1024.0)
        );
    }
    if !parity_ok {
        eprintln!("BUDGET VIOLATION: streamed summary diverged from materialized replay");
    }
    if !telemetry_ok {
        eprintln!(
            "BUDGET VIOLATION: telemetry instrumentation moved peak RSS by more \
             than {} MiB",
            scale::TELEMETRY_DELTA_BUDGET_BYTES / (1024 * 1024)
        );
    }
    if !(rss_ok && parity_ok && telemetry_ok) {
        std::process::exit(1);
    }
}
