use super::*;
use msweb_simcore::SimTime;

fn monitor(p: usize) -> LoadMonitor {
    LoadMonitor::new(p, SimDuration::from_millis(500), SimTime::ZERO)
}

/// Mean demand used by the tests' charging path.
fn svc() -> SimDuration {
    SimDuration::from_millis(10)
}

/// Exact declaration over the tests' standard demand.
fn k(w: f64) -> ReqKnowledge {
    ReqKnowledge::new(w, svc())
}

/// `cfg.policy`'s built-in composition, as the simulator builds it.
fn builtin(cfg: &ClusterConfig) -> DynScheduler {
    let spec = StageSpec::for_policy(cfg.policy());
    SchedulerRegistry::builtin()
        .compose(cfg, &spec, 0.25, 0.025)
        .unwrap()
}

fn scheduler(policy: PolicyKind, p: usize, m: usize) -> DynScheduler {
    builtin(&ClusterConfig::simulation(p, policy).with_masters(m))
}

#[test]
fn static_requests_stay_on_masters_for_ms() {
    let mut d = scheduler(PolicyKind::MasterSlave, 32, 8);
    let mut mon = monitor(32);
    for _ in 0..200 {
        let p = d.place(false, k(0.5), &mut mon).unwrap();
        assert!(p.node < 8, "static landed on slave {}", p.node);
        assert!(p.latency.is_zero());
        assert!(p.on_master);
    }
}

#[test]
fn static_requests_spread_everywhere_for_flat_and_msprime() {
    for kind in [
        PolicyKind::Flat,
        PolicyKind::MsPrime,
        PolicyKind::MsAllMasters,
    ] {
        let mut d = scheduler(kind, 16, 4);
        let mut mon = monitor(16);
        let mut seen = [false; 16];
        for _ in 0..800 {
            seen[d.place(false, k(0.5), &mut mon).unwrap().node] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "{kind:?}: statics did not reach every node"
        );
    }
}

#[test]
fn flat_never_redirects_dynamics() {
    let mut d = scheduler(PolicyKind::Flat, 8, 2);
    let mut mon = monitor(8);
    for _ in 0..100 {
        let p = d.place(true, k(0.9), &mut mon).unwrap();
        assert!(p.latency.is_zero());
    }
}

#[test]
fn msprime_pins_dynamics() {
    let mut d = scheduler(PolicyKind::MsPrime, 16, 4);
    let mut mon = monitor(16);
    for _ in 0..200 {
        let p = d.place(true, k(0.9), &mut mon).unwrap();
        assert!(p.node >= 4, "dynamic on static node {}", p.node);
    }
}

#[test]
fn ms_reservation_caps_master_placements() {
    let mut d = scheduler(PolicyKind::MasterSlave, 32, 8);
    let mut mon = monitor(32);
    let theta = d.reservation().theta2_star();
    let mut on_master = 0;
    let n = 2000;
    for _ in 0..n {
        if d.place(true, k(0.9), &mut mon).unwrap().on_master {
            on_master += 1;
        }
    }
    let frac = on_master as f64 / n as f64;
    assert!(
        frac <= theta + 0.05,
        "master fraction {frac} exceeds theta2* {theta}"
    );
}

#[test]
fn ms_nr_floods_masters_when_idle() {
    // Without reservation, an all-idle cluster gives masters the same
    // cost as slaves, so a material share of dynamics lands on them.
    let mut d = scheduler(PolicyKind::MsNoReservation, 32, 8);
    let mut mon = monitor(32);
    let mut on_master = 0;
    for _ in 0..2000 {
        if d.place(true, k(0.9), &mut mon).unwrap().on_master {
            on_master += 1;
        }
    }
    let frac = on_master as f64 / 2000.0;
    // Uniform over 32 candidates would give 0.25.
    assert!(frac > 0.15, "M/S-nr placed only {frac} on masters");
}

#[test]
fn remote_latency_charged_only_when_moving() {
    let mut d = scheduler(PolicyKind::MasterSlave, 4, 2);
    let mut mon = monitor(4);
    for _ in 0..200 {
        let p = d.place(true, k(0.9), &mut mon).unwrap();
        if p.node >= 2 {
            assert_eq!(p.latency, SimDuration::from_millis(1));
        }
    }
}

#[test]
fn redirect_pays_round_trip() {
    let mut d = scheduler(PolicyKind::Redirect, 4, 1);
    let mut mon = monitor(4);
    let mut paid = false;
    for _ in 0..100 {
        let p = d.place(true, k(0.9), &mut mon).unwrap();
        if p.node != 0 {
            assert!(p.latency >= SimDuration::from_millis(80));
            paid = true;
        }
    }
    assert!(paid, "no dynamic request ever moved off the single master");
}

#[test]
fn dead_nodes_are_avoided() {
    let mut d = scheduler(PolicyKind::MasterSlave, 8, 2);
    let mut mon = monitor(8);
    d.set_dead(5, true);
    d.set_dead(6, true);
    for _ in 0..300 {
        let p = d.place(true, k(0.5), &mut mon).unwrap();
        assert!(p.node != 5 && p.node != 6);
        let s = d.place(false, k(0.5), &mut mon).unwrap();
        assert!(s.node != 5 && s.node != 6);
    }
    d.set_dead(5, false);
    assert!(!d.is_dead(5));
}

#[test]
fn switch_balances_connection_counts() {
    let mut d = scheduler(PolicyKind::Switch, 8, 1);
    let mut mon = monitor(8);
    // 64 placements with no completions: counts must be exactly even.
    for _ in 0..64 {
        d.place(false, k(0.5), &mut mon).unwrap();
    }
    for n in 0..8 {
        assert_eq!(d.in_flight(n), 8, "node {n} unbalanced");
    }
    // Completions free capacity and the switch reuses it first.
    d.note_completion(3);
    d.note_completion(3);
    let p = d.place(true, k(0.9), &mut mon).unwrap();
    assert_eq!(p.node, 3);
    assert!(p.latency.is_zero());
}

#[test]
fn dns_skew_concentrates_entries() {
    let cfg = ClusterConfig::simulation(16, PolicyKind::Flat).with_dns_skew(0.5);
    let mut d = builtin(&cfg);
    let mut mon = monitor(16);
    let mut counts = [0u32; 16];
    for _ in 0..4000 {
        counts[d.place(false, k(0.5), &mut mon).unwrap().node] += 1;
    }
    // Geometric weights: node 0 should get about half the traffic and
    // the tail almost nothing.
    assert!(counts[0] > counts[4] * 4, "skew not applied: {counts:?}");
    assert!(counts[0] as f64 / 4000.0 > 0.3);
}

#[test]
fn zero_skew_is_uniform() {
    let mut d = scheduler(PolicyKind::Flat, 16, 1);
    let mut mon = monitor(16);
    let mut counts = [0u32; 16];
    for _ in 0..8000 {
        counts[d.place(false, k(0.5), &mut mon).unwrap().node] += 1;
    }
    for (n, &c) in counts.iter().enumerate() {
        let freq = c as f64 / 8000.0;
        assert!((freq - 1.0 / 16.0).abs() < 0.02, "node {n} freq {freq}");
    }
}

#[test]
fn failure_replacement_pays_latency() {
    let mut d = scheduler(PolicyKind::MasterSlave, 8, 2);
    let mut mon = monitor(8);
    for _ in 0..50 {
        let p = d.replace_after_failure(true, k(0.9), &mut mon).unwrap();
        assert!(!p.latency.is_zero());
    }
}

#[test]
fn dead_cluster_yields_typed_error_for_every_policy() {
    for kind in [
        PolicyKind::Flat,
        PolicyKind::MasterSlave,
        PolicyKind::MsNoSampling,
        PolicyKind::MsNoReservation,
        PolicyKind::MsAllMasters,
        PolicyKind::MsPrime,
        PolicyKind::Redirect,
        PolicyKind::Switch,
    ] {
        let mut d = scheduler(kind, 4, 2);
        let mut mon = monitor(4);
        for n in 0..4 {
            d.set_dead(n, true);
        }
        for dynamic in [false, true] {
            assert_eq!(
                d.place(dynamic, k(0.5), &mut mon),
                Err(PlacementError::NoLiveNodes),
                "{kind:?} did not surface the dead cluster"
            );
        }
        assert_eq!(
            d.replace_after_failure(true, k(0.5), &mut mon),
            Err(PlacementError::NoLiveNodes)
        );
    }
}

#[test]
fn completion_bookkeeping_saturates_at_zero() {
    let mut d = scheduler(PolicyKind::Switch, 4, 1);
    let mut mon = monitor(4);
    let p = d.place(true, k(0.5), &mut mon).unwrap();
    assert_eq!(d.in_flight(p.node), 1);
    d.note_completion(p.node);
    assert_eq!(d.in_flight(p.node), 0);
}

#[test]
fn observer_records_every_decision() {
    use std::cell::RefCell;
    use std::rc::Rc;
    let mut d = scheduler(PolicyKind::MasterSlave, 8, 2);
    let mut mon = monitor(8);
    let collector = Rc::new(RefCell::new(CollectingObserver::default()));
    d.set_observer(Some(Box::new(Rc::clone(&collector))));
    for i in 0..20 {
        d.place(i % 2 == 0, k(0.7), &mut mon).unwrap();
    }
    d.set_observer(None);
    let records = std::mem::take(&mut collector.borrow_mut().records);
    assert_eq!(records.len(), 20);
    for (i, r) in records.iter().enumerate() {
        assert_eq!(r.seq, i as u64 + 1);
        assert_eq!(r.dynamic, i % 2 == 0);
        assert!(r.chosen < 8);
        assert!(r.theta2_star.is_finite() && r.theta2_star >= 0.0);
        if r.dynamic {
            assert_eq!(
                r.candidates.len(),
                r.scores.len(),
                "scores must align with candidates"
            );
            assert!(!r.candidates.is_empty());
        } else {
            assert!(r.candidates.is_empty(), "statics never score candidates");
        }
    }
}

#[test]
fn registry_composes_a_working_scheduler() {
    let cfg = ClusterConfig::simulation(8, PolicyKind::MasterSlave);
    let registry = SchedulerRegistry::builtin();
    let spec = StageSpec::parse("least-connections/none/level-split/min-rsrc/split-demand")
        .expect("well-formed spec");
    let mut sched = registry
        .compose(&cfg, &spec, 0.25, 0.025)
        .expect("all stages registered");
    let mut mon = monitor(8);
    for _ in 0..100 {
        let p = sched.place(true, k(0.8), &mut mon).unwrap();
        assert!(p.node < 8);
    }
}

#[test]
fn registry_reports_unknown_stage_names() {
    let cfg = ClusterConfig::simulation(4, PolicyKind::Flat);
    let registry = SchedulerRegistry::builtin();
    let spec = StageSpec::parse("rotation/none/entry-only/does-not-exist/split-demand").unwrap();
    let err = match registry.compose(&cfg, &spec, 0.25, 0.025) {
        Ok(_) => panic!("unknown scorer must not compose"),
        Err(e) => e,
    };
    match err {
        ComposeError::UnknownStage {
            kind,
            name,
            available,
        } => {
            assert_eq!(kind, "scorer");
            assert_eq!(name, "does-not-exist");
            assert!(available.contains(&"min-rsrc".to_string()));
        }
        other => panic!("unexpected error: {other}"),
    }
}

#[test]
fn stage_spec_rejects_wrong_arity() {
    assert!(StageSpec::parse("a/b/c").is_err());
    assert!(StageSpec::parse("a/b/c/d/e/f/g").is_err());
    assert!(StageSpec::parse("rotation/none/entry-only/random/cpu-only").is_ok());
    // Six parts parse as region + the classic five.
    let spec = StageSpec::parse("region-nearest/rotation/none/entry-only/random/cpu-only").unwrap();
    assert_eq!(spec.region.as_deref(), Some("region-nearest"));
}

/// Deterministic, monotone-in-time synthetic busy counters so ticks
/// produce varied (and mostly tie-free) per-node load views.
fn synthetic_snaps(p: usize, t: SimTime) -> Vec<msweb_ossim::LoadSnapshot> {
    (0..p)
        .map(|i| {
            let f_cpu = ((i * 37 + 11) % 90) as f64 / 100.0;
            let f_disk = ((i * 53 + 29) % 90) as f64 / 100.0;
            let elapsed = t.as_micros() as f64;
            msweb_ossim::LoadSnapshot {
                at: t,
                cpu_busy: SimDuration::from_micros((elapsed * f_cpu) as u64),
                disk_busy: SimDuration::from_micros((elapsed * f_disk) as u64),
                mem_free_ratio: 1.0,
                ready_len: 0,
                disk_queue_len: 0,
                processes: 0,
            }
        })
        .collect()
}

#[test]
fn builtin_specs_match_their_dense_reference_draw_for_draw() {
    // Every built-in policy's spec must make the decisions — same
    // argmin, same tie-breaks, same RNG draws — of the same spec with
    // the dense reference scorer, across ticks (index rebuild), charges
    // (re-key) and liveness changes (rebuild), at a cluster size where
    // the indexed path is actually taken (candidates >= 16).
    let registry = SchedulerRegistry::builtin();
    for policy in PolicyKind::ALL {
        let cfg = ClusterConfig::simulation(48, policy).with_masters(12);
        let indexed_spec = StageSpec::for_policy(policy);
        let dense_spec = StageSpec {
            scorer: indexed_spec.scorer.replace("rsrc-indexed", "min-rsrc"),
            ..indexed_spec.clone()
        };
        assert_ne!(dense_spec, indexed_spec, "{policy:?}: no indexed scorer");
        let mut dense = registry.compose(&cfg, &dense_spec, 0.25, 0.025).unwrap();
        let mut indexed = registry.compose(&cfg, &indexed_spec, 0.25, 0.025).unwrap();
        let mut mon_a = monitor(48);
        let mut mon_b = monitor(48);
        for step in 0..500usize {
            if step % 100 == 99 {
                let t = SimTime::from_millis(500 * (step as u64 / 100 + 1));
                mon_a.tick(t, &synthetic_snaps(48, t));
                mon_b.tick(t, &synthetic_snaps(48, t));
            }
            if step == 200 {
                dense.set_dead(20, true);
                indexed.set_dead(20, true);
            }
            if step == 350 {
                for (node, dead) in [(20, false), (3, true)] {
                    dense.set_dead(node, dead);
                    indexed.set_dead(node, dead);
                }
            }
            let dynamic = step % 3 != 0;
            let w = ((step * 13) % 101) as f64 / 100.0;
            let a = dense.place(dynamic, k(w), &mut mon_a).unwrap();
            let b = indexed.place(dynamic, k(w), &mut mon_b).unwrap();
            assert_eq!(a, b, "{policy:?}: decision {step} diverged");
            assert_eq!(
                dense.rng(),
                indexed.rng(),
                "{policy:?}: draws diverged at {step}"
            );
        }
    }
}

#[test]
fn registry_resolves_parameterised_scorer_family() {
    let cfg = ClusterConfig::simulation(8, PolicyKind::MasterSlave);
    let registry = SchedulerRegistry::builtin();
    let spec = StageSpec::parse("rotation/none/level-split/rsrc-p2:4/split-demand").unwrap();
    let mut sched = registry
        .compose(&cfg, &spec, 0.25, 0.025)
        .expect("rsrc-p2:4 is a valid scorer spec");
    let mut mon = monitor(8);
    for _ in 0..50 {
        assert!(sched.place(true, k(0.6), &mut mon).unwrap().node < 8);
    }
}

#[test]
fn registry_rejects_bad_power_of_k_arguments() {
    let cfg = ClusterConfig::simulation(8, PolicyKind::MasterSlave);
    let registry = SchedulerRegistry::builtin();
    for bad in ["rsrc-p2:0", "rsrc-p2:", "rsrc-p2:three", "rsrc-p2:-2"] {
        let spec =
            StageSpec::parse(&format!("rotation/none/level-split/{bad}/split-demand")).unwrap();
        match registry.compose(&cfg, &spec, 0.25, 0.025) {
            Err(ComposeError::BadStageArg { kind, name, .. }) => {
                assert_eq!(kind, "scorer");
                assert_eq!(name, bad);
            }
            Ok(_) => panic!("{bad} must not compose"),
            Err(other) => panic!("{bad}: unexpected error {other}"),
        }
    }
    // A bare family name (no `:`) is an unknown scorer, and the hint
    // advertises the family syntax.
    let spec = StageSpec::parse("rotation/none/level-split/rsrc-p2/split-demand").unwrap();
    match registry.compose(&cfg, &spec, 0.25, 0.025) {
        Err(ComposeError::UnknownStage { available, .. }) => {
            assert!(available.contains(&"rsrc-p2:<arg>".to_string()));
            assert!(available.contains(&"rsrc-indexed".to_string()));
        }
        other => panic!("unexpected result: {:?}", other.map(|_| ())),
    }
}

#[test]
fn power_of_k_concentrates_on_the_cheap_node() {
    // With one idle node in a busy cluster, k = 32 samples over p = 16
    // nodes miss the idle node with probability (15/16)^32 ~ 0.13, so a
    // large majority of dynamics must land there.
    let cfg = ClusterConfig::simulation(16, PolicyKind::MasterSlave).with_masters(4);
    let registry = SchedulerRegistry::builtin();
    let spec = StageSpec::parse("rotation/none/level-split/rsrc-p2:32/split-demand").unwrap();
    let mut sched = registry.compose(&cfg, &spec, 0.25, 0.025).unwrap();
    let mut mon = monitor(16);
    let t = SimTime::from_millis(500);
    let snaps: Vec<_> = (0..16)
        .map(|i| {
            let busy_ms = if i == 9 { 0 } else { 450 };
            msweb_ossim::LoadSnapshot {
                at: t,
                cpu_busy: SimDuration::from_millis(busy_ms),
                disk_busy: SimDuration::from_millis(busy_ms),
                mem_free_ratio: 1.0,
                ready_len: 0,
                disk_queue_len: 0,
                processes: 0,
            }
        })
        .collect();
    mon.tick(t, &snaps);
    let mut on_nine = 0;
    let n = 400;
    for _ in 0..n {
        let node = sched
            .place(true, ReqKnowledge::new(0.5, SimDuration::ZERO), &mut mon)
            .unwrap()
            .node;
        if node == 9 {
            on_nine += 1;
        }
    }
    assert!(
        on_nine as f64 / n as f64 > 0.6,
        "power-of-32 placed only {on_nine}/{n} on the idle node"
    );
}

#[test]
fn jsonl_sink_writes_one_line_per_record() {
    let mut buf: Vec<u8> = Vec::new();
    {
        let mut sink = JsonlSink::new(&mut buf);
        let record = DecisionRecord {
            seq: 1,
            dynamic: true,
            entry: 0,
            candidates: vec![2, 1],
            scores: vec![1.5, 2.5],
            theta_hat: 0.1,
            theta2_star: 0.4,
            chosen: 2,
            on_master: false,
            redirected: false,
            latency_us: 1000,
            req: 1,
            at_us: 0,
            demand_us: 0,
            w: 0.5,
            expected_us: 0,
            masters_ok: true,
            restart: false,
            origin: 0,
            region: None,
        };
        sink.observe(&record);
        sink.observe(&record);
    }
    let text = String::from_utf8(buf).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2);
    for line in lines {
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"seq\""));
        assert!(line.contains("\"theta2_star\""));
    }
}
