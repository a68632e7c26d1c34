//! Host-cost benchmark of the msweb discrete-event simulator.
//!
//! Composes the paper's M/S pipeline
//! (`rotation-masters/reservation/level-split/rsrc-indexed-reserve/split-demand`)
//! through the public library API, streams a seeded UCB workload at
//! λ = 31.25·p into `ClusterSim::run_source`, and prints one JSON result
//! line. Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ucb-p1k --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports end-to-end metrics from untraced runs: an untimed
//! warm-up, then timed repetitions, each scaled to a reference host speed
//! (see `calib.rs`), reporting the median. `--trace 1` is
//! the traced pass: it alternates untraced and traced repetitions, times
//! every call across each layer boundary (see `layers.rs`) and reports
//! per-layer numbers plus the tracing overhead. Both modes check the
//! simulated outputs and exit 1 on any mismatch. Every simulator runs with
//! one tick worker and sends its observer output to in-memory byte
//! counters, so no file or thread pool enters the measurement.

mod calib;
mod layers;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

use msweb_cluster::sched::stages::{
    LevelCandidates, MinRsrcScorer, ReservationAdmission, RotationEntry, SplitDemandCharge,
};
use msweb_cluster::sched::Stages;
use msweb_cluster::{
    plan_masters, ClusterConfig, ClusterSim, DecisionObserver, FailureEvent, FailurePlan,
    JsonlSink, PolicyKind, RunSummary, Schedule, Scheduler, SchedulerRegistry, ScorerPaths,
    SeriesRecorder, SloEngine, SloRules, StageSpec, WorkloadStats,
};
use msweb_simcore::SimTime;
use msweb_workload::{ucb, DemandModel, RateScaling, ScaledSource};

use layers::{ByteCounter, Ledger, Timed, TimedObserver, TimedSchedule, TimedSource};

/// The registry spec every run composes.
const SPEC: &str = "rotation-masters/reservation/level-split/rsrc-indexed-reserve/split-demand";
/// Arrival rate per node, as in `BENCH_scale.json`.
const LAMBDA_PER_P: f64 = 31.25;
/// Size of the probe prefix that pins rate scaling and workload priors.
const PROBE_N: usize = 50_000;
/// Monitor tick work runs inline: no thread pool in the measurement.
const TICK_WORKERS: usize = 1;

/// SLO rules for the observed workload: one per signal, with budgets a
/// run can burn, so the engine evaluates and fires on real data.
const SLO_RULES: &str = r#"{"rules":[
  {"name":"stretch-page","signal":"stretch","budget":1.5,"burn":[{"windows":4,"rate":1.2}]},
  {"name":"drop-page","signal":"drop_rate","budget":0.001,"burn":[{"windows":2,"rate":2.0}]},
  {"name":"clamp-ticket","signal":"clamp_rate","budget":0.5,"burn":[{"windows":8,"rate":1.0}]}
]}"#;

struct Workload {
    name: &'static str,
    /// Cluster size.
    p: usize,
    /// Requests per run.
    n: usize,
    /// Attach the full observer stack (decision log, telemetry probe,
    /// series recorder, SLO engine) and the crash plan.
    observed: bool,
    /// Expected host seconds of one untraced repetition; turns
    /// `--seconds` into a repetition count that is the same on every
    /// commit.
    nominal_rep_s: f64,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "ucb-p10k",
        p: 10_000,
        n: 1_000_000,
        observed: false,
        nominal_rep_s: 11.0,
    },
    Workload {
        name: "ucb-p1k",
        p: 1_000,
        n: 400_000,
        observed: false,
        nominal_rep_s: 0.9,
    },
    Workload {
        name: "ucb-p128-observed",
        p: 128,
        n: 100_000,
        observed: true,
        nominal_rep_s: 1.1,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <s> --trace <0|1>",
        WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        let slot = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            _ => usage(&format!("unknown flag {flag}")),
        };
        if slot.replace(value.as_str()).is_some() {
            usage(&format!("{flag} given twice"));
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == workload)
        .unwrap_or_else(|| usage(&format!("unknown workload {workload}")));
    let seed = seed
        .unwrap_or_else(|| usage("--seed is required"))
        .parse()
        .unwrap_or_else(|_| usage("--seed expects an unsigned integer"));
    let seconds: f64 = seconds
        .unwrap_or("10")
        .parse()
        .unwrap_or_else(|_| usage("--seconds expects a number"));
    if !(seconds.is_finite() && seconds > 0.0) {
        usage("--seconds must be positive");
    }
    let trace = match trace.unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => usage(&format!("--trace expects 0 or 1, got {other}")),
    };
    Args {
        workload,
        seed,
        seconds,
        trace,
    }
}

/// The seeded workload, sized and rate-scaled: everything the simulator
/// is given besides the request stream.
struct Plan {
    cfg: ClusterConfig,
    stats: WorkloadStats,
    scaling: RateScaling,
    demand: DemandModel,
    failures: FailurePlan,
}

fn plan(w: &Workload, seed: u64) -> Plan {
    let spec = ucb();
    let demand = DemandModel::simulation(40.0);
    let lambda = LAMBDA_PER_P * w.p as f64;
    let probe = spec.generate(w.n.min(PROBE_N), &demand, seed);
    let t0 = probe.requests.first().map_or(SimTime::ZERO, |r| r.arrival);
    let scaling = RateScaling::to_rate(probe.mean_rate(), t0, lambda);
    let stats = WorkloadStats::from_trace(&probe);
    let m = plan_masters(w.p, lambda, spec.arrival_ratio_a(), 1.0 / 40.0, 1200.0);
    let cfg = ClusterConfig::simulation(w.p, PolicyKind::MasterSlave)
        .with_masters(m)
        .with_seed(seed);
    let failures = crash_plan(w, m, w.n as f64 / lambda, &cfg);
    Plan {
        cfg,
        stats,
        scaling,
        demand,
        failures,
    }
}

/// The observed workload's fixed crash plan (independent of the seed):
/// `RESTART_CRASHES` single-slave crashes spread over the run, each
/// restarting its lost dynamic requests elsewhere, then one correlated
/// crash of a quarter of the slaves (a rack) without restart, whose lost
/// requests are dropped. Every crashed node recovers after two monitor
/// periods. Other workloads run without failures.
fn crash_plan(w: &Workload, m: usize, horizon_s: f64, cfg: &ClusterConfig) -> FailurePlan {
    const RESTART_CRASHES: usize = 8;
    if !w.observed {
        return FailurePlan::none();
    }
    let slaves = w.p - m;
    let down = cfg.monitor_period().as_micros() * 2;
    let at = |k: usize| (horizon_s * 1e6 * k as f64 / (RESTART_CRASHES + 2) as f64) as u64;
    let crash = |at_us: u64, node: usize, restart_dynamic: bool| FailureEvent {
        at: SimTime(at_us),
        node,
        restart_dynamic,
        recover_at: Some(SimTime(at_us + down)),
    };
    let restarts = (1..=RESTART_CRASHES).map(|k| crash(at(k), m + (k * 7) % slaves, true));
    let rack = (m..m + slaves / 4).map(|node| crash(at(RESTART_CRASHES + 1), node, false));
    FailurePlan::new(restarts.chain(rack).collect())
}

fn registry_scheduler(plan: &Plan) -> impl Schedule {
    SchedulerRegistry::builtin()
        .compose(
            &plan.cfg,
            &StageSpec::parse(SPEC).expect("built-in spec parses"),
            plan.stats.a0,
            plan.stats.r0,
        )
        .expect("built-in spec composes")
}

fn static_scheduler(plan: &Plan) -> impl Schedule {
    let c = &plan.cfg;
    let stages = Stages {
        entry: RotationEntry::over_masters(c.dns_skew()),
        admission: ReservationAdmission { enforce: true },
        candidates: LevelCandidates,
        scorer: MinRsrcScorer::indexed(c.master_reserve()),
        charge: SplitDemandCharge,
    };
    Scheduler::compose(c, stages, plan.stats.a0, plan.stats.r0).expect("stages compose")
}

fn traced_scheduler(plan: &Plan, ledger: &Rc<Ledger>) -> impl Schedule {
    let c = &plan.cfg;
    let stages = Stages {
        entry: Timed::new(RotationEntry::over_masters(c.dns_skew()), ledger),
        admission: Timed::new(ReservationAdmission { enforce: true }, ledger),
        candidates: Timed::new(LevelCandidates, ledger),
        scorer: Timed::new(MinRsrcScorer::indexed(c.master_reserve()), ledger),
        charge: Timed::new(SplitDemandCharge, ledger),
    };
    TimedSchedule {
        inner: Scheduler::compose(c, stages, plan.stats.a0, plan.stats.r0).expect("stages compose"),
        ledger: ledger.clone(),
    }
}

/// What one run yields.
struct RunOut {
    summary: RunSummary,
    json: String,
    setup_s: f64,
    run_s: f64,
    log_bytes: u64,
    series_bytes: u64,
    windows: u64,
    paths: Option<ScorerPaths>,
}

/// Build a simulator around the scheduler `make` composes (set-up,
/// timed), then drive the seeded stream through it (run, timed). With a
/// ledger, the source and the observer are wrapped in timing layers too.
fn run_once<S: Schedule>(
    w: &Workload,
    seed: u64,
    n: usize,
    make: impl FnOnce(&Plan) -> S,
    ledger: Option<&Rc<Ledger>>,
) -> RunOut {
    let log = ByteCounter::default();
    let series = ByteCounter::default();
    let start = Instant::now();
    let plan = plan(w, seed);
    let scheduler = make(&plan);
    let mut sim = ClusterSim::with_scheduler(plan.cfg.clone(), scheduler)
        .with_priors(plan.stats.a0, plan.stats.r0)
        .with_mean_demands(plan.stats.static_mean, plan.stats.dynamic_mean)
        .with_spec_label(SPEC)
        .with_tick_workers(TICK_WORKERS)
        .with_failures(plan.failures.clone());
    if w.observed {
        let sink = JsonlSink::new(log.clone());
        let observer: Box<dyn DecisionObserver> = match ledger {
            Some(l) => Box::new(TimedObserver {
                inner: sink,
                ledger: l.clone(),
            }),
            None => Box::new(sink),
        };
        sim.scheduler_mut().set_observer(Some(observer));
        let rules = SloRules::from_json(SLO_RULES).expect("built-in SLO rules parse");
        sim = sim
            .with_telemetry()
            .with_series(SeriesRecorder::to_writer(Box::new(series.clone())))
            .with_slo(SloEngine::new(rules));
    }
    let source = ScaledSource::new(ucb().stream(n, &plan.demand, seed), plan.scaling);
    let setup_s = start.elapsed().as_secs_f64();
    let started = Instant::now();
    let summary = match ledger {
        Some(l) => sim.run_source(TimedSource {
            inner: source,
            ledger: l.clone(),
        }),
        None => sim.run_source(source),
    };
    let run_s = started.elapsed().as_secs_f64();
    let windows = sim.take_series().map_or(0, |r| r.records());
    let paths = sim.scheduler().scorer_path_counts();
    RunOut {
        json: serde::to_json_string(&summary),
        summary,
        setup_s,
        run_s,
        log_bytes: log.bytes(),
        series_bytes: series.bytes(),
        windows,
        paths,
    }
}

/// Output checks. Each checked simulator run is one attempted operation;
/// a run that fails any check counts as failed.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// Every request is either completed or dropped, and the run is
    /// identical to the reference run, summary and observer output alike.
    fn run(&mut self, w: &Workload, label: &str, out: &RunOut, reference: &RunOut) {
        let s = &out.summary;
        let mut problems = Vec::new();
        if s.completed + s.dropped != w.n as u64 {
            problems.push(format!(
                "completed {} + dropped {} != n {}",
                s.completed, s.dropped, w.n
            ));
        }
        if out.json != reference.json {
            problems.push(format!(
                "summary differs from the reference run\n  {}\n  {}",
                out.json, reference.json
            ));
        }
        if (out.log_bytes, out.series_bytes) != (reference.log_bytes, reference.series_bytes) {
            problems.push(format!(
                "observer output {}/{} B differs from the reference {}/{} B",
                out.log_bytes, out.series_bytes, reference.log_bytes, reference.series_bytes
            ));
        }
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
        }
        for p in problems {
            eprintln!("perfbench: CHECK FAILED ({label}): {p}");
        }
    }
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let k = v.len();
    if k % 2 == 1 {
        v[k / 2]
    } else {
        (v[k / 2 - 1] + v[k / 2]) / 2.0
    }
}

fn min(v: impl IntoIterator<Item = f64>) -> f64 {
    v.into_iter().fold(f64::INFINITY, f64::min)
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Metric name, unit and value, in output order.
type Metrics = Vec<(&'static str, &'static str, f64)>;

/// What a mode reports: its metrics, every repetition's run time, and
/// extra fields for the information line.
struct Outcome {
    metrics: Metrics,
    run_s: Vec<f64>,
    notes: Vec<(&'static str, f64)>,
}

/// Calibration kernel runs after the warm-up and after each repetition;
/// their fastest is the host-speed sample at that point.
const KERNELS_PER_CALIBRATION: usize = 3;

fn calibrate() -> f64 {
    min((0..KERNELS_PER_CALIBRATION).map(|_| calib::kernel_s()))
}

/// An untimed warm-up on a fifth of the stream, then `reps` timed
/// repetitions of the registry composition, with a host-speed sample
/// (see `calib.rs`) before the first and after each. Each repetition's
/// host times are scaled to the reference host speed by the mean of its
/// two neighbouring samples; throughput and set-up come from the median
/// scaled repetition, which a stalled repetition or a stalled sample
/// cannot move. Unscaled medians go to the information line. Simulated
/// metrics come from the summaries, which must all be identical.
fn end_to_end(w: &Workload, args: &Args, checks: &mut Checks) -> Outcome {
    let reps = (args.seconds / w.nominal_rep_s).ceil().max(3.0) as usize;
    run_once(w, args.seed, w.n / 5, registry_scheduler, None);
    let mut speed = vec![calibrate()];
    let mut outs = Vec::with_capacity(reps);
    for _ in 0..reps {
        outs.push(run_once(w, args.seed, w.n, registry_scheduler, None));
        speed.push(calibrate());
    }
    let reference = &outs[0];
    let (mut runs, mut setups) = (Vec::new(), Vec::new());
    for (r, out) in outs.iter().enumerate() {
        checks.run(w, &format!("repetition {r}"), out, reference);
        let scale = 2.0 * calib::REFERENCE_S / (speed[r] + speed[r + 1]);
        runs.push(out.run_s * scale);
        setups.push(out.setup_s * scale);
    }
    let n = w.n as f64;
    let s = &reference.summary;
    let metrics = vec![
        ("throughput_rps", "1/s", n / median(&mut runs)),
        ("setup_s", "s", median(&mut setups)),
        ("peak_rss_mib", "MiB", peak_rss_mib()),
        ("stretch", "ratio", s.stretch),
        ("stretch_dynamic", "ratio", s.stretch_dynamic),
        ("resp_static_p50_s", "s", s.median_static_response_s),
        ("resp_static_p99_s", "s", s.p99_static_response_s),
        ("resp_dynamic_p50_s", "s", s.median_dynamic_response_s),
        ("completion_rate", "ratio", s.completed as f64 / n),
    ];
    let mut raw_runs: Vec<f64> = outs.iter().map(|o| o.run_s).collect();
    let mut raw_setups: Vec<f64> = outs.iter().map(|o| o.setup_s).collect();
    Outcome {
        metrics,
        run_s: raw_runs.clone(),
        notes: vec![
            ("raw_throughput_rps", n / median(&mut raw_runs)),
            ("raw_setup_s", median(&mut raw_setups)),
            ("kernel_min_s", min(speed.iter().copied())),
            ("kernel_reference_s", calib::REFERENCE_S),
            ("dropped", s.dropped as f64),
        ],
    }
}

/// The traced pass: one untimed run of the statically composed built-in
/// stages (the warm-up, and the reference every later run must equal
/// byte for byte), then alternating untraced (registry) and traced
/// (stage-wrapped, every layer timed) repetitions. Per-layer numbers come
/// from the fastest traced repetition; the overhead compares the fastest
/// of each kind.
fn per_layer(w: &Workload, args: &Args, checks: &mut Checks) -> Outcome {
    let pairs = (args.seconds / (2.5 * w.nominal_rep_s)).ceil().max(2.0) as usize;
    let reference = run_once(w, args.seed, w.n, static_scheduler, None);
    checks.run(w, "static composition", &reference, &reference);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut best: Option<(Rc<Ledger>, RunOut)> = None;
    for r in 0..pairs {
        let out = run_once(w, args.seed, w.n, registry_scheduler, None);
        checks.run(w, &format!("untraced repetition {r}"), &out, &reference);
        untraced.push(out.run_s);
        let ledger = Ledger::new();
        let out = run_once(
            w,
            args.seed,
            w.n,
            |p| traced_scheduler(p, &ledger),
            Some(&ledger),
        );
        checks.run(w, &format!("traced repetition {r}"), &out, &reference);
        traced.push(out.run_s);
        if best.as_ref().is_none_or(|(_, b)| out.run_s < b.run_s) {
            best = Some((ledger, out));
        }
    }
    let (l, out) = best.expect("at least one traced repetition");
    write_spans(w, args.seed, &l);

    let n = w.n as f64;
    let total_ns = out.run_s * 1e9;
    let g = |c: &std::cell::Cell<u64>| c.get() as f64;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let place_ns = g(&l.place_ns);
    let self_ns = total_ns - g(&l.gen_ns) - place_ns - g(&l.notify_ns) - g(&l.emit_ns);
    let paths = out.paths.unwrap_or_default();
    let scorer_calls = (paths.indexed + paths.dense_total()) as f64;
    let hist = l.place_hist.borrow();
    let mut m: Metrics = vec![
        ("workload.gen_ns_per_req", "ns", per(g(&l.gen_ns), n)),
        ("workload.gen_share", "ratio", per(g(&l.gen_ns), total_ns)),
        (
            "sched.place_ns_per_call",
            "ns",
            per(place_ns, hist.count() as f64),
        ),
        ("sched.place_p99_ns", "ns", hist.quantile(0.99) as f64),
        ("sched.place_samples", "count", hist.count() as f64),
        ("sched.place_share", "ratio", per(place_ns, total_ns)),
        (
            "sched.remote_share",
            "ratio",
            per(g(&l.remote), g(&l.stage_calls[2])),
        ),
        ("sched.place_errors", "count", g(&l.place_errors)),
        ("sched.notify_ns_per_req", "ns", per(g(&l.notify_ns), n)),
    ];
    // In pipeline order, like the ledger's stage slots.
    const STAGE_METRICS: [&str; 5] = [
        "sched.entry_ns_per_call",
        "sched.admission_ns_per_call",
        "sched.candidates_ns_per_call",
        "sched.scorer_ns_per_call",
        "sched.charge_ns_per_call",
    ];
    for (i, name) in STAGE_METRICS.into_iter().enumerate() {
        m.push((name, "ns", per(g(&l.stage_ns[i]), g(&l.stage_calls[i]))));
    }
    m.extend([
        (
            "sched.candidates_len_mean",
            "count",
            per(g(&l.candidates_len_sum), g(&l.remote)),
        ),
        ("sched.scorer_indexed", "count", paths.indexed as f64),
        (
            "sched.scorer_dense_degenerate",
            "count",
            paths.dense_degenerate as f64,
        ),
        (
            "sched.scorer_dense_small",
            "count",
            paths.dense_small as f64,
        ),
        (
            "sched.scorer_dense_no_range",
            "count",
            paths.dense_no_range as f64,
        ),
        (
            "sched.dense_share",
            "ratio",
            per(paths.dense_total() as f64, scorer_calls),
        ),
        ("sim.self_ns_per_req", "ns", per(self_ns, n)),
        ("sim.self_share", "ratio", per(self_ns, total_ns)),
        ("trace.emit_ns_per_req", "ns", per(g(&l.observer_ns), n)),
        ("trace.bytes_per_req", "B", per(out.log_bytes as f64, n)),
        (
            "series.bytes_per_window",
            "B",
            per(out.series_bytes as f64, out.windows as f64),
        ),
        ("drop_rate", "ratio", per(out.summary.dropped as f64, n)),
        (
            "trace_overhead",
            "ratio",
            min(traced.iter().copied()) / min(untraced.iter().copied()),
        ),
    ]);
    let mut run_s = untraced;
    run_s.extend(traced);
    Outcome {
        metrics: m,
        run_s,
        notes: vec![("dropped", out.summary.dropped as f64)],
    }
}

/// Write the sampled spans as JSONL next to the benchmark binary (inside
/// the build directory), after all timing is done.
fn write_spans(w: &Workload, seed: u64, ledger: &Ledger) {
    let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.to_path_buf()))
    else {
        return;
    };
    let path = dir.join(format!("spans-{}-seed{seed}.jsonl", w.name));
    let mut text = String::new();
    for s in ledger.spans() {
        let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
        let _ = writeln!(
            text,
            "{{\"id\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.start_ns, s.end_ns
        );
    }
    match std::fs::write(&path, text) {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let w = args.workload;
    let mut checks = Checks::default();
    let outcome = if args.trace {
        per_layer(w, &args, &mut checks)
    } else {
        end_to_end(w, &args, &mut checks)
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let runs: Vec<String> = outcome.run_s.iter().map(|s| format!("{s:.4}")).collect();
    let notes: String = outcome
        .notes
        .iter()
        .map(|(k, v)| format!(",\"{k}\":{v}"))
        .collect();
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"p\":{},\"n\":{},\"lambda\":{},\"spec\":\"{SPEC}\",\
         \"tick_workers\":{TICK_WORKERS},\"observer_output\":\"in-memory byte counters\",\
         \"nproc\":{nproc},\"trace\":{},\"run_s\":[{}]{notes}}}",
        w.name,
        args.seed,
        w.p,
        w.n,
        LAMBDA_PER_P * w.p as f64,
        u8::from(args.trace),
        runs.join(",")
    );
    let body: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"))
        .collect();
    let correct = checks.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checks.attempted,
        checks.failed,
        body.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
