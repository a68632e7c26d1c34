//! Property-based tests for the cluster scheduler.

use msweb_cluster::sched::{encode_event, parse_line, DecisionRecord, ParseLineError, RunMeta};
use msweb_cluster::{
    analyze, check_log, read_log, simulate, ClusterConfig, ClusterSim, DecisionObserver,
    DropRecord, DynScheduler, JsonlSink, LoadMonitor, NodeSample, PolicyKind, RegionTopology,
    ReplayError, ReplayOptions, ReqKnowledge, RunOptions, SchedulerRegistry, SharedSeriesBuffer,
    SloRules, StageSpec, TraceEvent,
};
use msweb_simcore::{SimDuration, SimRng, SimTime};
use msweb_workload::{ksu, ucb, DemandModel, RegionMix};
use proptest::prelude::*;

/// `cfg.policy`'s built-in composition, as the simulator builds it.
fn builtin(cfg: &ClusterConfig) -> DynScheduler {
    let spec = StageSpec::for_policy(cfg.policy());
    SchedulerRegistry::builtin()
        .compose(cfg, &spec, 0.3, 0.02)
        .unwrap()
}

fn policies() -> Vec<PolicyKind> {
    vec![
        PolicyKind::Flat,
        PolicyKind::MasterSlave,
        PolicyKind::MsNoSampling,
        PolicyKind::MsNoReservation,
        PolicyKind::MsAllMasters,
        PolicyKind::MsPrime,
        PolicyKind::Redirect,
        PolicyKind::Switch,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Placements always target a live node in range, for every policy,
    /// class mix, and dead-set.
    #[test]
    fn placements_are_valid(
        which in 0usize..8,
        p in 2usize..40,
        m_frac in 0.1f64..0.9,
        seed in any::<u64>(),
        dead_node in any::<Option<u8>>(),
    ) {
        let policy = policies()[which];
        let m = ((p as f64 * m_frac) as usize).clamp(1, p - 1);
        let mut cfg = ClusterConfig::simulation(p, policy);
        cfg = cfg.with_masters(m);
        cfg = cfg.with_seed(seed);
        let mut d = builtin(&cfg);
        let mut mon = LoadMonitor::new(p, SimDuration::from_millis(500), SimTime::ZERO);
        let dead = dead_node.map(|n| n as usize % p);
        // Keep at least one node alive.
        if let Some(n) = dead {
            if p > 1 {
                d.set_dead(n, true);
            }
        }
        let svc = SimDuration::from_millis(10);
        for i in 0..200u64 {
            let dynamic = i % 3 == 0;
            let pl = d.place(dynamic, ReqKnowledge::new(0.7, svc), &mut mon).unwrap();
            prop_assert!(pl.node < p, "node {} out of range", pl.node);
            if let Some(n) = dead {
                prop_assert!(pl.node != n, "{policy:?} placed on dead node");
            }
            if pl.on_master {
                prop_assert!(dynamic || pl.node < d.masters().max(p));
            }
        }
    }

    /// The reservation cap is respected by the M/S scheduler: the
    /// master-placed fraction of dynamics never exceeds cap by more than
    /// one request's worth.
    #[test]
    fn reservation_cap_respected(p in 4usize..40, seed in any::<u64>()) {
        let m = (p / 4).max(1);
        let mut cfg = ClusterConfig::simulation(p, PolicyKind::MasterSlave);
        cfg = cfg.with_masters(m);
        cfg = cfg.with_seed(seed);
        let mut d = builtin(&cfg);
        let mut mon = LoadMonitor::new(p, SimDuration::from_millis(500), SimTime::ZERO);
        let svc = SimDuration::from_millis(10);
        let n = 500;
        let mut on_master = 0u32;
        for _ in 0..n {
            if d.place(true, ReqKnowledge::new(0.7, svc), &mut mon).unwrap().on_master {
                on_master += 1;
            }
        }
        let cap = d.reservation().theta2_star();
        let frac = on_master as f64 / n as f64;
        prop_assert!(
            frac <= cap + 2.0 / n as f64 + 1e-9,
            "master fraction {frac} exceeds cap {cap}"
        );
    }

    /// Scheduler decisions are deterministic per seed.
    #[test]
    fn dispatcher_deterministic(seed in any::<u64>(), which in 0usize..8) {
        let policy = policies()[which];
        let run = || {
            let mut cfg = ClusterConfig::simulation(16, policy);
            cfg = cfg.with_masters(4);
            cfg = cfg.with_seed(seed);
            let mut d = builtin(&cfg);
            let mut mon =
                LoadMonitor::new(16, SimDuration::from_millis(500), SimTime::ZERO);
            (0..100u64)
                .map(|i| {
                    d.place(i % 2 == 0, ReqKnowledge::new(0.5, SimDuration::from_millis(5)), &mut mon)
                        .unwrap()
                        .node
                })
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }

    /// Full simulations: every request completes exactly once, stretch is
    /// at least ~1, class counts partition, for random small workloads
    /// under every policy.
    #[test]
    fn simulations_account_for_everything(
        which in 0usize..8,
        n in 100usize..600,
        lambda in 30.0f64..400.0,
        seed in any::<u64>(),
    ) {
        let policy = policies()[which];
        let trace = ucb()
            .generate(n, &DemandModel::simulation(40.0), seed)
            .scaled_to_rate(lambda);
        let mut cfg = ClusterConfig::simulation(8, policy);
        cfg = cfg.with_masters(3);
        cfg = cfg.with_seed(seed);
        let s = simulate(cfg, &trace, RunOptions::new()).summary;
        prop_assert_eq!(s.completed, n as u64);
        prop_assert_eq!(s.completed_static + s.completed_dynamic, n as u64);
        prop_assert!(s.stretch >= 0.99, "stretch {}", s.stretch);
        prop_assert_eq!(s.dropped, 0);
    }

    /// In-flight connection counts are conserved: after any interleaving
    /// of placements, completions and node failures, completing every
    /// outstanding request returns every per-node count to zero.
    #[test]
    fn in_flight_returns_to_zero(
        which in 0usize..8,
        seed in any::<u64>(),
        ops in proptest::collection::vec(0u8..4, 1..120),
    ) {
        let policy = policies()[which];
        let p = 8;
        let mut cfg = ClusterConfig::simulation(p, policy);
        cfg = cfg.with_masters(3);
        cfg = cfg.with_seed(seed);
        let mut d = builtin(&cfg);
        let mut mon = LoadMonitor::new(p, SimDuration::from_millis(500), SimTime::ZERO);
        let svc = SimDuration::from_millis(10);
        // Nodes of requests placed but not yet completed.
        let mut outstanding: Vec<usize> = Vec::new();
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                // Place a request (alternate static/dynamic).
                0 | 1 => {
                    if let Ok(pl) = d.place(step.is_multiple_of(2), ReqKnowledge::new(0.6, svc), &mut mon) {
                        outstanding.push(pl.node);
                    }
                }
                // Complete the oldest outstanding request.
                2 => {
                    if !outstanding.is_empty() {
                        let node = outstanding.remove(0);
                        d.note_completion(node);
                    }
                }
                // Kill a node and re-place its outstanding work, as the
                // failure driver does.
                _ => {
                    let victim = step % p;
                    d.set_dead(victim, true);
                    for slot in outstanding.iter_mut() {
                        if *slot == victim {
                            d.note_completion(victim);
                            if let Ok(pl) =
                                d.replace_after_failure(true, ReqKnowledge::new(0.6, svc), &mut mon)
                            {
                                *slot = pl.node;
                            }
                        }
                    }
                    outstanding.retain(|&n| n != victim);
                    d.set_dead(victim, false);
                }
            }
        }
        for node in outstanding.drain(..) {
            d.note_completion(node);
        }
        for n in 0..p {
            prop_assert_eq!(d.in_flight(n), 0, "node {} count not drained", n);
        }
    }

    /// The O(log p) decision index and the dense RSRC scan pick the same
    /// node for every draw and leave the scheduler RNG in the same state
    /// after every placement, across random cluster shapes, tick/charge
    /// histories (including off-period ticks), node deaths, and request
    /// weights drawn from a palette that may exceed the index's tree cap.
    /// Loads are coarsely quantised so exact cost ties are common. The
    /// two pipelines differ only in the scorer stage, so any divergence
    /// is a bug in the index's tie-break or staleness tracking.
    #[test]
    fn indexed_argmin_matches_dense_argmin(
        p in 17usize..120,
        m_frac in 0.1f64..0.6,
        seed in any::<u64>(),
        palette in proptest::collection::vec(0u8..=100, 1..8),
        ops in proptest::collection::vec((0u8..8, any::<u16>()), 40..200),
    ) {
        let m = ((p as f64 * m_frac) as usize).clamp(1, p - 1);
        let registry = SchedulerRegistry::builtin();
        let mk = |scorer: &str| {
            let spec = StageSpec::parse(&format!(
                "rotation-masters/reservation/level-split/{scorer}/split-demand"
            ))
            .unwrap();
            let mut cfg = ClusterConfig::simulation(p, PolicyKind::MasterSlave);
            cfg = cfg.with_masters(m);
            cfg = cfg.with_seed(seed);
            registry.compose(&cfg, &spec, 0.3, 0.02).unwrap()
        };
        let mut dense = mk("min-rsrc-reserve");
        let mut indexed = mk("rsrc-indexed-reserve");
        let mut mon_a = LoadMonitor::new(p, SimDuration::from_millis(500), SimTime::ZERO);
        let mut mon_b = LoadMonitor::new(p, SimDuration::from_millis(500), SimTime::ZERO);
        let mut now = SimTime::ZERO;
        let svc = SimDuration::from_millis(10);
        let mut dead = vec![false; p];
        for (step, (op, arg)) in ops.into_iter().enumerate() {
            let arg = arg as usize;
            match op {
                // Advance the clock by a non-uniform amount and feed both
                // monitors the same pseudo-random snapshots.
                0 => {
                    now = now
                        .checked_add(SimDuration::from_millis(200 + (arg as u64 % 700)))
                        .unwrap();
                    let snaps: Vec<_> = (0..p)
                        .map(|i| {
                            let h = (i as u64)
                                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                                .wrapping_add(step as u64)
                                ^ seed;
                            msweb_ossim::LoadSnapshot {
                                at: now,
                                cpu_busy: SimDuration::from_secs_f64(
                                    now.as_secs_f64() * ((h % 7) as f64 / 8.0),
                                ),
                                disk_busy: SimDuration::from_secs_f64(
                                    now.as_secs_f64() * (((h >> 7) % 7) as f64 / 8.0),
                                ),
                                mem_free_ratio: 1.0,
                                ready_len: 0,
                                disk_queue_len: 0,
                                processes: 0,
                            }
                        })
                        .collect();
                    mon_a.tick(now, &snaps);
                    mon_b.tick(now, &snaps);
                }
                // Toggle a node's liveness, but never kill the last live
                // node of a level.
                1 => {
                    let victim = arg % p;
                    let flip = !dead[victim];
                    let (lo, hi) = if victim < m { (0, m) } else { (m, p) };
                    let live_in_level = (lo..hi).filter(|&i| !dead[i]).count();
                    if !flip || live_in_level > 1 {
                        dead[victim] = flip;
                        dense.set_dead(victim, flip);
                        indexed.set_dead(victim, flip);
                    }
                }
                // Place a request through both pipelines (charging each
                // monitor identically) and compare the chosen node and
                // the RNG state left behind.
                _ => {
                    let dynamic = op % 2 == 0;
                    let w = f64::from(palette[arg % palette.len()]) / 100.0;
                    let a = dense.place(dynamic, ReqKnowledge::new(w, svc), &mut mon_a).unwrap();
                    let b = indexed.place(dynamic, ReqKnowledge::new(w, svc), &mut mon_b).unwrap();
                    prop_assert_eq!(a.node, b.node, "placement at step {} diverged", step);
                    prop_assert_eq!(dense.rng(), indexed.rng(), "RNG at step {} diverged", step);
                }
            }
        }
    }

    /// Schema-v2 decision records survive the JSONL round trip exactly:
    /// encode → parse is the identity, with no warnings, for arbitrary
    /// field values (including the v2 replay fields and restart flag).
    #[test]
    fn decision_records_round_trip_through_jsonl(
        seq in any::<u64>(),
        req in any::<u64>(),
        entry in 0usize..256,
        chosen in 0usize..256,
        cand in prop::collection::vec((0usize..256, any::<f64>()), 0..9),
        theta_hat in 0.0f64..=1.0,
        theta2_star in 0.0f64..=1.0,
        w in 0.0f64..=1.0,
        latency_us in any::<u64>(),
        at_us in any::<u64>(),
        demand_us in any::<u64>(),
        expected_us in any::<u64>(),
        dynamic in any::<bool>(),
        on_master in any::<bool>(),
        redirected in any::<bool>(),
        masters_ok in any::<bool>(),
        restart in any::<bool>(),
        origin in 0usize..8,
        region in any::<Option<bool>>(),
    ) {
        let record = DecisionRecord {
            seq,
            dynamic,
            entry,
            candidates: cand.iter().map(|&(n, _)| n).collect(),
            scores: cand.iter().map(|&(_, s)| s).collect(),
            theta_hat,
            theta2_star,
            chosen,
            on_master,
            redirected,
            latency_us,
            req,
            at_us,
            demand_us,
            w,
            expected_us,
            masters_ok,
            restart,
            origin: if region.is_some() { origin } else { 0 },
            region: region.map(usize::from),
        };
        let event = TraceEvent::Decision(record);
        let line = encode_event(&event);
        let (parsed, warnings) = parse_line(&line)
            .map_err(|e| format!("round trip failed to parse: {e}\n{line}"))?;
        prop_assert_eq!(parsed, event);
        prop_assert_eq!(warnings, Vec::<String>::new());
    }

    /// The failure/lifecycle events (drop, node-down/up, complete, tick)
    /// round-trip exactly too — these are what make `failure_recovery`
    /// scenarios replayable from logs alone.
    #[test]
    fn lifecycle_events_round_trip_through_jsonl(
        kind in 0u8..5,
        req in any::<u64>(),
        node in 0usize..256,
        at_us in any::<u64>(),
        us in any::<u64>(),
        w in 0.0f64..=1.0,
        rho in 0.0f64..=1.0,
        dynamic in any::<bool>(),
        redrive in any::<bool>(),
        restart in any::<bool>(),
        nodes in prop::collection::vec(
            (any::<u64>(), any::<u64>(), 0.0f64..=1.0, 0usize..4096),
            0..7,
        ),
    ) {
        let event = match kind {
            0 => TraceEvent::Drop(DropRecord {
                req,
                at_us,
                dynamic,
                w,
                expected_us: us,
                redrive,
                restart,
                origin: node % 8,
            }),
            1 => TraceEvent::NodeDown { node },
            2 => TraceEvent::NodeUp { node },
            3 => TraceEvent::Complete {
                req,
                node,
                dynamic,
                response_us: us,
            },
            _ => TraceEvent::Tick {
                at_us,
                rho,
                nodes: nodes
                    .iter()
                    .map(|&(cpu, disk, mem, len)| NodeSample {
                        cpu_busy_us: cpu,
                        disk_busy_us: disk,
                        mem_free_ratio: mem,
                        ready_len: len,
                        disk_queue_len: len / 2,
                        processes: len + 1,
                    })
                    .collect(),
            },
        };
        let line = encode_event(&event);
        let (parsed, warnings) = parse_line(&line)
            .map_err(|e| format!("round trip failed to parse: {e}\n{line}"))?;
        prop_assert_eq!(parsed, event);
        prop_assert_eq!(warnings, Vec::<String>::new());
    }

    /// Meta lines round-trip, including awkward spec strings (quotes,
    /// backslashes, newlines, non-ASCII) and optional per-node speeds.
    #[test]
    fn meta_events_round_trip_through_jsonl(
        which in 0usize..8,
        live in any::<bool>(),
        spec_idx in any::<Option<u8>>(),
        p in 1usize..256,
        m in 0usize..256,
        seed in any::<u64>(),
        a0 in 0.01f64..=10.0,
        r0 in 1e-4f64..=1.0,
        master_reserve in 0.0f64..=1.0,
        dns_skew in 0.0f64..=1.0,
        monitor_period_us in any::<u64>(),
        remote_latency_us in any::<u64>(),
        redirect_rtt_us in any::<u64>(),
        speeds in any::<Option<u8>>(),
        regions in any::<bool>(),
    ) {
        const SPECS: [&str; 4] = [
            "rotation/none/entry-only/rsrc-indexed/split-demand",
            "rotation-masters/reservation/level-split/rsrc-indexed-reserve/split-demand",
            "a \"quoted\" spec with \\ backslash",
            "sp\u{e9}c\nwith control\tchars \u{1f980}",
        ];
        let meta = RunMeta {
            substrate: if live { "live" } else { "sim" }.to_string(),
            p,
            m,
            policy: policies()[which].slug().to_string(),
            spec: spec_idx.map(|i| SPECS[i as usize % SPECS.len()].to_string()),
            seed,
            a0,
            r0,
            master_reserve,
            dns_skew,
            monitor_period_us,
            remote_latency_us,
            redirect_rtt_us,
            speeds: speeds.map(|k| (0..k as usize % 6).map(|i| 0.5 + i as f64).collect()),
            regions: regions.then(|| RegionTopology::even(p.max(2), p.max(2) / 2, 2)),
        };
        let event = TraceEvent::Meta(meta);
        let line = encode_event(&event);
        let (parsed, warnings) = parse_line(&line)
            .map_err(|e| format!("round trip failed to parse: {e}\n{line}"))?;
        prop_assert_eq!(parsed, event);
        prop_assert_eq!(warnings, Vec::<String>::new());
    }

    /// Forward schema tolerance on arbitrary records: unknown fields and
    /// newer versions parse with a warning, never an error, and preserve
    /// every field they carry; an untagged v1 (bare-record) line is an
    /// error.
    #[test]
    fn schema_drift_warns_but_parses(
        seq in 1u64..1_000_000,
        entry in 0usize..64,
        chosen in 0usize..64,
        theta_hat in 0.0f64..=1.0,
        theta2_star in 0.0f64..=1.0,
        dynamic in any::<bool>(),
        on_master in any::<bool>(),
        latency_us in any::<u64>(),
    ) {
        let record = DecisionRecord {
            seq,
            dynamic,
            entry,
            candidates: vec![entry, chosen],
            scores: vec![1.5, 0.5],
            theta_hat,
            theta2_star,
            chosen,
            on_master,
            redirected: false,
            latency_us,
            req: seq - 1,
            at_us: 7,
            demand_us: 8,
            w: 0.25,
            expected_us: 9,
            masters_ok: true,
            restart: false,
            origin: 0,
            region: None,
        };
        let line = encode_event(&TraceEvent::Decision(record.clone()));

        // Unknown field from some future schema: warn, keep the rest.
        let extended = format!(
            "{},\"zzz_future_field\":[1,2,{{\"k\":true}}]}}",
            &line[..line.len() - 1]
        );
        let (parsed, warnings) = parse_line(&extended)
            .map_err(|e| format!("unknown field became an error: {e}"))?;
        prop_assert_eq!(&parsed, &TraceEvent::Decision(record.clone()));
        prop_assert!(
            warnings.iter().any(|w| w.contains("zzz_future_field")),
            "expected an unknown-field warning, got {warnings:?}"
        );

        // Newer schema version: warn, parse on a best-effort basis.
        let newer = line.replacen("{\"v\":2,", "{\"v\":3,", 1);
        let (parsed, warnings) = parse_line(&newer)
            .map_err(|e| format!("newer version became an error: {e}"))?;
        prop_assert_eq!(&parsed, &TraceEvent::Decision(record.clone()));
        prop_assert!(!warnings.is_empty(), "newer version should warn");

        // A v1 line (bare record, no envelope) is rejected, not guessed.
        let v1 = format!(
            "{{\"seq\":{seq},\"dynamic\":{dynamic},\"entry\":{entry},\
             \"candidates\":[{entry},{chosen}],\"scores\":[1.5,0.5],\
             \"theta_hat\":{theta_hat},\"theta2_star\":{theta2_star},\
             \"chosen\":{chosen},\"on_master\":{on_master},\
             \"redirected\":false,\"latency_us\":{latency_us}}}"
        );
        prop_assert_eq!(parse_line(&v1), Err(ParseLineError::Untagged));
    }

    /// The cache never changes completion accounting, only speeds.
    #[test]
    fn cache_preserves_accounting(seed in any::<u64>(), q in 5usize..100) {
        let demand = DemandModel::simulation(40.0).with_query_popularity(q, 1.0);
        let trace = ksu()
            .generate(400, &demand, seed)
            .scaled_to_rate(150.0);
        let mut cfg = ClusterConfig::simulation(8, PolicyKind::MasterSlave);
        cfg = cfg.with_masters(3);
        cfg = cfg.with_cache(msweb_cluster::CacheConfig::default_swala());
        cfg = cfg.with_seed(seed);
        let s = simulate(cfg, &trace, RunOptions::new()).summary;
        prop_assert_eq!(s.completed, 400);
        prop_assert!(s.cache_hits <= s.completed_dynamic);
    }
}

/// Floats whose text sits at an edge: signed zeros, subnormals, the
/// extremes, both sides of each point where `{:?}` switches between
/// positional and exponential notation, and the non-finite values the
/// encoder writes as `null`.
fn edge_floats() -> Vec<f64> {
    let tiny = f64::from_bits(1);
    let mut v = vec![
        0.0,
        -0.0,
        tiny,
        -tiny,
        f64::MIN_POSITIVE / 3.0,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        1.0,
        0.1,
        1.0 / 3.0,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    for boundary in [1e15f64, 1e16, 1e17, 1e-4, 1e-5] {
        for x in [boundary, -boundary] {
            let bits = x.to_bits();
            v.extend([bits - 1, bits, bits + 1].map(f64::from_bits));
        }
    }
    v
}

/// More floats than the decision-log encoder's 1024-slot memo holds:
/// the edge values, then RSRC-like costs (positional notation) and raw
/// bit patterns (any exponent, subnormals and NaN payloads included).
fn float_pool(seed: u64) -> Vec<f64> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut pool = edge_floats();
    for i in 0..1_600 {
        pool.push(if i % 2 == 0 {
            rng.gen_range(100_000) as f64 / 7.0
        } else {
            f64::from_bits(rng.gen_range(u64::MAX))
        });
    }
    pool
}

/// `x` as a decision-log line must render it.
fn float_text(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// Draws the fields of a generated decision-log event.
struct Draw(SimRng);

impl Draw {
    fn u64(&mut self) -> u64 {
        match self.0.gen_index(4) {
            0 => self.0.gen_range(10),
            1 => self.0.gen_range(1_000_000),
            2 => u64::MAX,
            _ => self.0.gen_range(u64::MAX),
        }
    }

    fn usize(&mut self) -> usize {
        self.u64() as usize
    }

    fn bool(&mut self) -> bool {
        self.0.gen_bool(0.5)
    }

    /// A float the log can carry: finite (non-finite floats encode as
    /// `null`, which parses back as no number).
    fn f64(&mut self) -> f64 {
        loop {
            let x = match self.0.gen_index(3) {
                0 => *self.0.choose(&edge_floats()),
                1 => self.0.gen_range(100_000) as f64 / 7.0,
                _ => f64::from_bits(self.0.gen_range(u64::MAX)),
            };
            if x.is_finite() {
                return x;
            }
        }
    }

    /// A short string with characters JSON must escape.
    fn text(&mut self) -> String {
        let n = self.0.gen_index(8);
        (0..n)
            .map(|_| {
                *self
                    .0
                    .choose(&['a', 'Z', ' ', '"', '\\', '/', '\n', '\u{1}', 'é', '🦀'])
            })
            .collect()
    }

    fn vec<T>(&mut self, max: usize, mut item: impl FnMut(&mut Draw) -> T) -> Vec<T> {
        let n = self.0.gen_index(max + 1);
        (0..n).map(|_| item(self)).collect()
    }
}

/// An event of kind `kind % 8` with fields drawn from `seed`, optional
/// fields set or unset at random.
fn generated_event(kind: u8, seed: u64) -> TraceEvent {
    let mut d = Draw(SimRng::seed_from_u64(seed));
    match kind % 8 {
        0 => TraceEvent::Meta(RunMeta {
            substrate: d.text(),
            p: d.usize(),
            m: d.usize(),
            policy: d.text(),
            spec: d.bool().then(|| d.text()),
            seed: d.u64(),
            a0: d.f64(),
            r0: d.f64(),
            master_reserve: d.f64(),
            dns_skew: d.f64(),
            monitor_period_us: d.u64(),
            remote_latency_us: d.u64(),
            redirect_rtt_us: d.u64(),
            speeds: d.bool().then(|| d.vec(3, Draw::f64)),
            regions: d.bool().then(|| RegionTopology::even(12, 3, 3)),
        }),
        1 => {
            let candidates = d.vec(4, Draw::usize);
            let region = d.bool().then(|| d.usize());
            TraceEvent::Decision(DecisionRecord {
                seq: d.u64(),
                dynamic: d.bool(),
                entry: d.usize(),
                scores: candidates.iter().map(|_| d.f64()).collect(),
                candidates,
                theta_hat: d.f64(),
                theta2_star: d.f64(),
                chosen: d.usize(),
                on_master: d.bool(),
                redirected: d.bool(),
                latency_us: d.u64(),
                req: d.u64(),
                at_us: d.u64(),
                demand_us: d.u64(),
                w: d.f64(),
                expected_us: d.u64(),
                masters_ok: d.bool(),
                restart: d.bool(),
                // The origin is written only next to a region.
                origin: region.map_or(0, |_| d.usize()),
                region,
            })
        }
        2 => TraceEvent::Complete {
            req: d.u64(),
            node: d.usize(),
            dynamic: d.bool(),
            response_us: d.u64(),
        },
        3 => TraceEvent::Tick {
            at_us: d.u64(),
            rho: d.f64(),
            nodes: d.vec(3, |d| NodeSample {
                cpu_busy_us: d.u64(),
                disk_busy_us: d.u64(),
                mem_free_ratio: d.f64(),
                ready_len: d.usize(),
                disk_queue_len: d.usize(),
                processes: d.usize(),
            }),
        },
        4 => TraceEvent::NodeDown { node: d.usize() },
        5 => TraceEvent::NodeUp { node: d.usize() },
        6 => TraceEvent::Drop(DropRecord {
            req: d.u64(),
            at_us: d.u64(),
            dynamic: d.bool(),
            w: d.f64(),
            expected_us: d.u64(),
            redrive: d.bool(),
            restart: d.bool(),
            origin: if d.bool() { d.usize() } else { 0 },
        }),
        _ => TraceEvent::Alert {
            at_us: d.u64(),
            rule: d.text(),
            signal: d.text(),
            windows: d.u64(),
            burn_rate: d.f64(),
            observed: d.f64(),
            budget: d.f64(),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every event's line parses back to the event without warnings,
    /// and re-encodes to the same bytes.
    #[test]
    fn generated_events_round_trip_byte_for_byte(kind in any::<u8>(), seed in any::<u64>()) {
        let event = generated_event(kind, seed);
        let line = encode_event(&event);
        let (parsed, warnings) = parse_line(&line).map_err(|e| e.to_string())?;
        prop_assert!(warnings.is_empty(), "{:?}", warnings);
        prop_assert_eq!(encode_event(&parsed), line);
        prop_assert_eq!(parsed, event);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Differential test of the sink's float memo. Decision records draw
    /// every float from a pool larger than the memo, mostly from a hot
    /// few (as RSRC costs repeat between monitor ticks), so slots collide
    /// and evict. Each float must still render as `{:?}` (or `null`),
    /// and the sink's bytes must equal `encode_event`'s line by line.
    #[test]
    fn sink_float_memo_matches_std_formatting(
        pool_seed in any::<u64>(),
        pick_seed in any::<u64>(),
        records in 50usize..400,
    ) {
        let pool = float_pool(pool_seed);
        let mut rng = SimRng::seed_from_u64(pick_seed);
        let mut pick = || {
            let from = if rng.gen_bool(0.25) { pool.len() } else { 64 };
            pool[rng.gen_index(from)]
        };
        let mut buf = Vec::new();
        let mut want = String::new();
        let mut sent = Vec::new();
        {
            let mut sink = JsonlSink::new(&mut buf);
            for seq in 1..=records as u64 {
                let n = (seq % 17) as usize;
                let record = DecisionRecord {
                    seq,
                    req: seq,
                    candidates: (0..n).collect(),
                    scores: (0..n).map(|_| pick()).collect(),
                    theta_hat: pick(),
                    theta2_star: pick(),
                    w: pick(),
                    ..DecisionRecord::default()
                };
                sink.observe(&record);
                want.push_str(&encode_event(&TraceEvent::Decision(record.clone())));
                want.push('\n');
                sent.push(record);
            }
        }
        let got = String::from_utf8(buf).map_err(|e| e.to_string())?;
        for (line, r) in got.lines().zip(&sent) {
            let scores: Vec<String> = r.scores.iter().map(|&x| float_text(x)).collect();
            for field in [
                format!("\"scores\":[{}],", scores.join(",")),
                format!("\"theta_hat\":{},", float_text(r.theta_hat)),
                format!("\"theta2_star\":{},", float_text(r.theta2_star)),
                format!("\"w\":{},", float_text(r.w)),
            ] {
                prop_assert!(line.contains(&field), "{} not in line {}: {}", field, r.seq, line);
            }
        }
        prop_assert!(got == want, "sink bytes differ from encode_event");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Attained-service accounting is conserved on the simulation
    /// substrate for every visibility level and attained-service
    /// scorer, with and without a mid-run crash: progress never
    /// overruns the true demand, the books close for every request
    /// (nothing left in flight), exactly the completed requests are
    /// folded into the completion counters, and the completed service
    /// time equals the workload's true demand when everything ran to
    /// completion (and never exceeds it otherwise).
    #[test]
    fn attained_service_is_conserved_in_simulation(
        n in 100usize..300,
        rate in 50.0f64..300.0,
        seed in any::<u64>(),
        vis in 0usize..3,
        which in 0usize..3,
        crash in any::<bool>(),
    ) {
        use msweb_cluster::{ClusterSim, FailurePlan};
        use msweb_workload::DemandVisibility;

        let trace = ucb()
            .generate(n, &DemandModel::simulation(40.0), seed)
            .scaled_to_rate(rate);
        let cfg = ClusterConfig::simulation(8, PolicyKind::MasterSlave)
            .with_masters(3)
            .with_seed(seed ^ 0x5ca1e);
        let scorer = ["gittins", "serpt", "las"][which];
        let spec = StageSpec::parse(&format!(
            "rotation-masters/attained/level-split/{scorer}/split-demand"
        ))
        .unwrap();
        let registry = SchedulerRegistry::builtin();
        let scheduler = registry.compose(&cfg, &spec, 0.25, 0.025).unwrap();
        let visibility = [
            DemandVisibility::Exact,
            DemandVisibility::Noisy(0.3),
            DemandVisibility::Hidden,
        ][vis];
        let mut sim = ClusterSim::with_scheduler(cfg, scheduler)
            .with_priors(0.25, 0.025)
            .with_visibility(visibility);
        if crash {
            sim = sim.with_failures(FailurePlan::crash(5, SimTime::from_millis(300)));
        }
        let s = sim.run(&trace);
        let att = sim.scheduler().attained().expect("attained pipelines keep books");
        prop_assert_eq!(att.in_flight(), 0, "books left open");
        prop_assert_eq!(att.overruns(), 0, "attained exceeded true demand");
        prop_assert_eq!(att.completed(), s.completed as u64);
        let true_total: u64 = trace
            .requests
            .iter()
            .map(|r| r.demand.service.as_micros())
            .sum();
        if s.completed == n as u64 && s.restarted == 0 {
            prop_assert_eq!(att.completed_time().as_micros(), true_total);
        } else {
            prop_assert!(att.completed_time().as_micros() <= true_total);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Region-capacity conservation: driving a region-composed
    /// scheduler directly through an arbitrary interleaving of
    /// placements (with migrating origins), completions, and node
    /// kill/recover toggles, every successful placement lands in a
    /// region that had a live master and spare capacity at decision
    /// time, the placement itself never pushes a region past its
    /// capacity, and `NoLiveNodes` is returned exactly when no region
    /// is eligible. Failures shrink to a minimal op sequence.
    #[test]
    fn region_guard_conserves_capacity_under_outages_and_migrations(
        seed in any::<u64>(),
        k in 2usize..5,
        masters_per in 1usize..3,
        slaves_per in 1usize..4,
        node_capacity in 1u32..4,
        greedy in any::<bool>(),
        ops in prop::collection::vec(
            (0usize..8, 0usize..64, any::<bool>(), 0usize..3),
            1..160,
        ),
    ) {
        let m = k * masters_per;
        let p = m + k * slaves_per;
        let topo = RegionTopology::even(p, m, k).with_node_capacity(node_capacity);
        let cfg = ClusterConfig::simulation(p, PolicyKind::MasterSlave)
            .with_masters(m)
            .with_seed(seed)
            .with_regions(topo.clone());
        let policy = if greedy { "region-greedy" } else { "region-nearest" };
        let spec = StageSpec::for_policy(PolicyKind::MasterSlave).with_region(policy);
        let mut sched = SchedulerRegistry::builtin()
            .compose(&cfg, &spec, 0.25, 0.025)
            .expect("region pipeline composes");
        let mut monitor = LoadMonitor::new(p, SimDuration::from_millis(500), SimTime::ZERO);

        let region_load = |sched: &dyn Fn(usize) -> u32, r: usize| {
            let counts: Vec<u32> = (0..p).map(sched).collect();
            topo.region_in_flight(r, &counts)
        };

        let mut outstanding: Vec<usize> = Vec::new();
        let mut req = 0u64;
        let mut t_us = 0u64;
        for (origin, sel, dynamic, action) in ops {
            match action {
                // An outage (or recovery) of one node; whole-region
                // outages arise from repeated toggles.
                0 => {
                    let node = sel % p;
                    let dead = sched.is_dead(node);
                    sched.set_dead(node, !dead);
                }
                // A completion frees capacity in the serving region.
                1 => {
                    if !outstanding.is_empty() {
                        let node = outstanding.swap_remove(sel % outstanding.len());
                        sched.note_completion(node);
                    }
                }
                // A placement from a (possibly migrated) origin.
                _ => {
                    req += 1;
                    t_us += 1_000;
                    let demand = SimDuration::from_micros(8_000);
                    sched.note_request(req, SimTime(t_us), demand);
                    sched.note_origin(origin);
                    let dead: Vec<bool> = (0..p).map(|n| sched.is_dead(n)).collect();
                    let before: Vec<u64> = (0..k)
                        .map(|r| region_load(&|n| sched.in_flight(n), r))
                        .collect();
                    match sched.place(dynamic, ReqKnowledge::new(0.4, demand), &mut monitor) {
                        Ok(placement) => {
                            let r = topo.region_of(placement.node);
                            prop_assert!(
                                topo.has_live_master(r, &dead, m),
                                "req {} placed into region {} with no live master",
                                req, r
                            );
                            prop_assert!(
                                before[r] < topo.capacity(r),
                                "req {} entered region {} already at capacity {}",
                                req, r, topo.capacity(r)
                            );
                            let after = region_load(&|n| sched.in_flight(n), r);
                            prop_assert!(
                                after <= topo.capacity(r),
                                "region {} exceeded capacity: {} > {}",
                                r, after, topo.capacity(r)
                            );
                            outstanding.push(placement.node);
                        }
                        Err(_) => {
                            for (r, &load) in before.iter().enumerate() {
                                prop_assert!(
                                    !topo.has_live_master(r, &dead, m)
                                        || load >= topo.capacity(r),
                                    "NoLiveNodes returned while region {} was eligible \
                                     (live master, load {}/{})",
                                    r, load, topo.capacity(r)
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// One byte-level edit of a well-formed input; positions are taken
/// modulo the input's current length.
#[derive(Debug, Clone)]
enum Edit {
    /// Cut the input at this position.
    Truncate(u64),
    /// Overwrite the byte at this position.
    Set(u64, u8),
    /// Insert a byte before this position.
    Insert(u64, u8),
    /// Replace the first ASCII digit at or after this position with
    /// this digit: the input stays well-formed JSON more often than
    /// not, but its numbers (sizes, node ids, times) change.
    Digit(u64, u8),
}

/// Bytes that matter to JSON and to the numbers inside it.
const SYNTAX: &[u8] = b"{}[]\":,-+.0123456789eE \n";

/// An edit whose byte is, half the time, a JSON syntax byte and
/// otherwise any byte at all.
fn edit() -> impl Strategy<Value = Edit> {
    (0u8..3, any::<u64>(), any::<u8>(), any::<bool>()).prop_map(|(kind, at, b, syntax)| {
        let b = if syntax {
            SYNTAX[b as usize % SYNTAX.len()]
        } else {
            b
        };
        match kind {
            0 => Edit::Truncate(at),
            1 => Edit::Set(at, b),
            _ => Edit::Insert(at, b),
        }
    })
}

fn digit_edit() -> impl Strategy<Value = Edit> {
    (any::<u64>(), any::<u8>()).prop_map(|(at, d)| Edit::Digit(at, d))
}

/// `base` with `edits` applied in order, read back as (lossy) UTF-8.
fn mutate(base: &str, edits: &[Edit]) -> String {
    let mut bytes = base.as_bytes().to_vec();
    for e in edits {
        let len = bytes.len() as u64;
        match *e {
            Edit::Truncate(at) => bytes.truncate((at % (len + 1)) as usize),
            Edit::Set(at, b) if len > 0 => bytes[(at % len) as usize] = b,
            Edit::Set(..) => {}
            Edit::Insert(at, b) => bytes.insert((at % (len + 1)) as usize, b),
            Edit::Digit(at, d) if len > 0 => {
                let from = (at % len) as usize;
                if let Some(i) = bytes[from..].iter().position(u8::is_ascii_digit) {
                    bytes[from + i] = b'0' + d % 10;
                }
            }
            Edit::Digit(..) => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A valid rules document exercising every signal.
const SLO_RULES: &str = r#"{"rules": [
  {"name": "stretch-page", "signal": "stretch", "budget": 2.0,
   "burn": [{"windows": 1, "rate": 3.0}, {"windows": 5, "rate": 1.0}]},
  {"name": "drop-budget", "signal": "drop_rate", "budget": 0.01,
   "burn": [{"windows": 3, "rate": 1.0}]},
  {"name": "clamp-budget", "signal": "clamp_rate", "budget": 0.5,
   "burn": [{"windows": 4, "rate": 1.0}]}
]}"#;

/// A small recorded decision log: meta, decisions, completions and
/// monitor ticks of a traced master/slave run.
fn recorded_log() -> &'static str {
    static LOG: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    LOG.get_or_init(|| {
        let trace = ksu()
            .generate(60, &DemandModel::simulation(40.0), 3)
            .scaled_to_rate(60.0);
        let cfg = ClusterConfig::simulation(4, PolicyKind::MasterSlave)
            .with_masters(2)
            .with_seed(3);
        let buf = SharedSeriesBuffer::new();
        simulate(
            cfg,
            &trace,
            RunOptions::new().observer(Box::new(JsonlSink::new(buf.clone()))),
        );
        buf.contents()
    })
}

/// A small recorded decision log of a six-stage region composition:
/// its meta line carries the region topology, and its decisions carry
/// origins and regions.
fn recorded_region_log() -> &'static str {
    static LOG: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    LOG.get_or_init(|| {
        let (p, m, regions) = (6, 2, 2);
        let topo =
            RegionTopology::even(p, m, regions).with_cost(vec![vec![4.0], vec![1.0]], 1_000_000);
        let trace = ucb()
            .generate(
                60,
                &DemandModel::simulation(40.0).with_region_mix(RegionMix::uniform(regions)),
                5,
            )
            .scaled_to_rate(120.0);
        let (a0, r0) = (ucb().arrival_ratio_a(), 1.0 / 40.0);
        let cfg = ClusterConfig::simulation(p, PolicyKind::MasterSlave)
            .with_masters(m)
            .with_seed(5)
            .with_regions(topo);
        let spec = StageSpec::parse(
            "region-greedy/rotation-masters/reservation/level-split/\
             rsrc-indexed-reserve/split-demand",
        )
        .expect("spec parses");
        let mut scheduler = SchedulerRegistry::builtin()
            .compose(&cfg, &spec, a0, r0)
            .expect("region pipeline composes");
        let buf = SharedSeriesBuffer::new();
        scheduler.set_observer(Some(Box::new(JsonlSink::new(buf.clone()))));
        ClusterSim::with_scheduler(cfg, scheduler)
            .with_priors(a0, r0)
            .with_spec_label(spec.render())
            .run(&trace);
        buf.contents()
    })
}

/// [`recorded_region_log`] with `edits` applied to the whole log, or
/// only to its meta line (about 2% of the log), where the region
/// topology is decoded.
fn mutate_region_log(edits: &[Edit], meta_only: bool) -> String {
    let log = recorded_region_log();
    if !meta_only {
        return mutate(log, edits);
    }
    let (meta, body) = log.split_once('\n').expect("meta line");
    format!("{}\n{body}", mutate(meta, edits))
}

/// Stream `text` as a decision log through slo-check and analyze;
/// either may reject it, neither may panic.
fn check_mutated_log(text: &str) {
    let rules = SloRules::from_json(SLO_RULES).expect("valid rules parse");
    let _ = check_log(read_log(text.as_bytes()), &rules);
    let _ = analyze(read_log(text.as_bytes()), &ReplayOptions::default());
}

/// [`recorded_log`] with its `tick`-th tick line (counted cyclically)
/// re-encoded to sample `nodes` nodes instead of the meta's p = 4.
fn recount_tick(tick: usize, nodes: usize) -> String {
    let log = recorded_log();
    let ticks = log
        .lines()
        .filter(|l| l.contains("\"ev\":\"tick\""))
        .count();
    let target = tick % ticks;
    let mut seen = 0;
    let mut out = String::new();
    for line in log.lines() {
        let mut line = line.to_string();
        if line.contains("\"ev\":\"tick\"") {
            if seen == target {
                let (mut event, _) = parse_line(&line).expect("recorded line parses");
                if let TraceEvent::Tick { nodes: samples, .. } = &mut event {
                    let last = samples[0];
                    samples.resize(nodes, last);
                }
                line = encode_event(&event);
            }
            seen += 1;
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A malformed rules file is a typed error, never a panic.
    #[test]
    fn malformed_slo_rules_never_panic(edits in prop::collection::vec(edit(), 1..6)) {
        let text = mutate(SLO_RULES, &edits);
        let _ = SloRules::from_json(&text);
    }

    /// A renumbered rules file is a typed error or a rule set, never a
    /// panic.
    #[test]
    fn renumbered_slo_rules_never_panic(edits in prop::collection::vec(digit_edit(), 1..6)) {
        let text = mutate(SLO_RULES, &edits);
        let _ = SloRules::from_json(&text);
    }

    /// A malformed decision log either fails to parse or yields a log
    /// that `check_log` and `analyze` report on or reject — no panic.
    #[test]
    fn malformed_decision_logs_never_panic(edits in prop::collection::vec(edit(), 1..6)) {
        check_mutated_log(&mutate(recorded_log(), &edits));
    }

    /// A log whose numbers were rewritten (sizes, node ids, times,
    /// priors) mostly still parses, so this drives `check_log` and
    /// `analyze` over inconsistent logs.
    #[test]
    fn renumbered_decision_logs_never_panic(edits in prop::collection::vec(digit_edit(), 1..6)) {
        check_mutated_log(&mutate(recorded_log(), &edits));
    }

    /// A tick that samples another node count than its meta's p makes
    /// both readers reject the log as contradicting its meta line.
    #[test]
    fn a_tick_with_another_node_count_is_rejected(
        tick in any::<usize>(),
        nodes in (0usize..8).prop_filter_map("not p", |n| (n != 4).then_some(n)),
    ) {
        let text = recount_tick(tick, nodes);
        let rules = SloRules::from_json(SLO_RULES).expect("valid rules parse");
        let checked = check_log(read_log(text.as_bytes()), &rules);
        prop_assert!(matches!(checked, Err(ReplayError::Inconsistent(_))), "{:?}", checked);
        let analyzed = analyze(read_log(text.as_bytes()), &ReplayOptions::default());
        prop_assert!(matches!(analyzed, Err(ReplayError::Inconsistent(_))), "{:?}", analyzed);
    }

    /// The same for a region composition's log, so malformed topologies,
    /// origins and regions reach the meta decoder and the replay.
    #[test]
    fn malformed_region_logs_never_panic(
        edits in prop::collection::vec(edit(), 1..6),
        meta_only in any::<bool>(),
    ) {
        check_mutated_log(&mutate_region_log(&edits, meta_only));
    }

    /// A region log whose numbers were rewritten: region ranges, the
    /// latency and cost matrices, capacities, origins and regions.
    #[test]
    fn renumbered_region_logs_never_panic(
        edits in prop::collection::vec(digit_edit(), 1..6),
        meta_only in any::<bool>(),
    ) {
        check_mutated_log(&mutate_region_log(&edits, meta_only));
    }
}
