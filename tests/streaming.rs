//! Streaming `RequestSource` contract tests: generator/stream
//! equivalence, streamed-vs-materialized run parity on both substrates,
//! and bit-determinism of the sharded monitor tick.

use msweb::prelude::*;

/// `TraceSpec::generate(n)` and `TraceSpec::stream(n)` share one RNG
/// path: the streamed requests must be the materialized trace, request
/// for request, for every built-in trace family.
#[test]
fn stream_matches_generate_for_every_trace() {
    let demand = DemandModel::simulation(40.0);
    for spec in all_traces() {
        let n = 2_000;
        let trace = spec.generate(n, &demand, 1234);
        let streamed: Vec<Request> = spec.stream(n, &demand, 1234).collect();
        assert_eq!(
            trace.requests, streamed,
            "{}: stream() diverged from generate()",
            spec.name
        );
    }
}

/// `len_hint` counts down exactly while a generator source drains.
#[test]
fn gen_source_len_hint_is_exact() {
    let demand = DemandModel::simulation(40.0);
    let mut source = ucb().stream(100, &demand, 7);
    for remaining in (0..=100u64).rev() {
        assert_eq!(source.len_hint(), Some(remaining as usize));
        if remaining > 0 {
            assert!(source.next().is_some());
        }
    }
    assert!(source.next().is_none());
}

/// The simulator produces byte-identical `RunSummary` JSON whether the
/// workload arrives materialized or streamed, at both probe cluster
/// sizes of the scale budget.
#[test]
fn sim_streamed_summary_is_byte_identical() {
    let demand = DemandModel::simulation(40.0);
    for p in [32usize, 128] {
        let lambda = 31.25 * p as f64;
        let trace = ucb().generate(5_000, &demand, 42).scaled_to_rate(lambda);
        let m = plan_masters(p, lambda, ucb().arrival_ratio_a(), 1.0 / 40.0, 1200.0);
        let cfg = ClusterConfig::simulation(p, PolicyKind::MasterSlave)
            .with_masters(m)
            .with_seed(42);
        let materialized = simulate(cfg.clone(), &trace, RunOptions::new()).summary;
        let stats = WorkloadStats::from_trace(&trace);
        let streamed = simulate_source(cfg, trace.source(), stats, RunOptions::new()).summary;
        assert_eq!(materialized, streamed, "p={p}: summaries diverged");
        assert_eq!(
            serde::to_json_string_pretty(&materialized),
            serde::to_json_string_pretty(&streamed),
            "p={p}: summary JSON diverged"
        );
    }
}

/// `WorkloadStats::from_requests` over a stream reproduces the trace
/// estimation bit for bit (same summation order).
#[test]
fn workload_stats_stream_equals_trace() {
    let demand = DemandModel::simulation(40.0);
    for spec in all_traces() {
        let trace = spec.generate(3_000, &demand, 9);
        let from_trace = WorkloadStats::from_trace(&trace);
        let from_stream = WorkloadStats::from_requests(spec.stream(3_000, &demand, 9));
        assert_eq!(from_trace, from_stream, "{}", spec.name);
    }
}

/// The live substrate cannot be byte-deterministic (wall-clock timing),
/// but a streamed emulation must agree with the materialized one on
/// every timing-independent summary field.
#[test]
fn emu_streamed_run_matches_on_timing_independent_fields() {
    let trace = ucb()
        .generate(60, &DemandModel::sun_cluster(40.0), 5)
        .scaled_to_rate(40.0);
    let mut cfg = LiveConfig::sun_cluster(PolicyKind::MasterSlave, 3);
    cfg.time_scale = 0.05;
    cfg.monitor_period = std::time::Duration::from_millis(50);

    let materialized = emulate(&cfg, &trace, LiveRunOptions::new()).summary;
    let scheduler = live_scheduler(&cfg, &trace);
    let streamed = emulate_source(
        &cfg,
        trace.clone().into_source(),
        WorkloadStats::from_trace(&trace),
        scheduler,
        LiveRunOptions::new(),
    )
    .summary;

    assert_eq!(materialized.completed, streamed.completed);
    assert_eq!(materialized.completed_static, streamed.completed_static);
    assert_eq!(materialized.completed_dynamic, streamed.completed_dynamic);
    assert_eq!(materialized.dropped, streamed.dropped);
    assert_eq!(materialized.restarted, streamed.restarted);
}

/// Sharding the per-tick node work must never change the summary: every
/// per-node refresh is a pure function and all cross-node folds stay
/// sequential, so any worker count reproduces the dense scan bit for
/// bit.
#[test]
fn sharded_tick_summary_is_bit_identical() {
    let demand = DemandModel::simulation(40.0);
    let trace = ksu().generate(4_000, &demand, 11).scaled_to_rate(2_000.0);
    let run_with = |workers: usize| {
        let cfg = ClusterConfig::simulation(64, PolicyKind::MasterSlave)
            .with_masters(8)
            .with_seed(11);
        let mut sim = policy_sim(cfg, &trace).with_tick_workers(workers);
        sim.run(&trace)
    };
    let sequential = run_with(1);
    for workers in [2, 3, 8, 0] {
        let sharded = run_with(workers);
        assert_eq!(sequential, sharded, "workers={workers}");
        assert_eq!(
            serde::to_json_string_pretty(&sequential),
            serde::to_json_string_pretty(&sharded),
            "workers={workers}: JSON diverged"
        );
    }
}
