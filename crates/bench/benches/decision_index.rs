//! Decision-index microbenchmark: the dense O(p) RSRC scan vs the
//! O(log p) per-weight min-tree index, swept over cluster sizes
//! p ∈ {32, 128, 1024, 4096}.
//!
//! Three views of the cost:
//!
//! * `scan_*` — one `Scorer::choose` at a fixed request weight over the
//!   whole cluster against a warm load view (the steady state between
//!   monitor ticks; a fixed weight is what the index keeps a tree for);
//! * `cycle_*` — `choose` followed by a `LoadMonitor::charge` of the
//!   chosen node, with a monitor tick every 128 decisions as in a live
//!   dispatcher loop, so the cost includes the index's per-charge
//!   re-key (O(log p)) and its per-tick rebuild (O(p), amortised over
//!   the window's decisions);
//! * `place_*` — a full composed-pipeline placement, dense vs indexed
//!   scorer stage, plus the `rsrc-p2:4` sampling scorer for contrast.
//!
//! Setup asserts the indexed scorer picks exactly the dense scan's node
//! and leaves the RNG in exactly the dense scan's state, on a loaded
//! view and on an idle (all-tied) one, before timing anything.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use msweb_cluster::sched::stages::{MinRsrcScorer, PowerOfKScorer};
use msweb_cluster::sched::{Scorer, StageCtx};
use msweb_cluster::{
    ClusterConfig, LoadMonitor, PolicyKind, ReqKnowledge, ReservationController, RsrcPredictor,
    Schedule, SchedulerRegistry, SeriesMeta, SeriesRecorder, SeriesWindowInput, StageSpec,
    WindowSample,
};
use msweb_ossim::LoadSnapshot;
use msweb_simcore::{SimDuration, SimRng, SimTime};

const SIZES: [usize; 4] = [32, 128, 1024, 4096];

/// Effective weight of the timed scan queries.
const SCAN_W: f64 = 0.9;

/// Shared scorer inputs: a ticked monitor with non-uniform busy
/// fractions, all nodes live, no in-flight skew.
struct World {
    monitor: LoadMonitor,
    rsrc: RsrcPredictor,
    reservation: ReservationController,
    dead: Vec<bool>,
    in_flight: Vec<u32>,
    m: usize,
    candidates: Vec<usize>,
}

/// A world whose monitor has been ticked with random busy fractions
/// (`loaded`) or never ticked, so every node ties at idle cost.
fn world_with(p: usize, loaded: bool) -> World {
    let m = (p / 4).max(1);
    let mut monitor = LoadMonitor::new(p, SimDuration::from_millis(500), SimTime::ZERO);
    let mut rng = SimRng::seed_from_u64(0x5eed ^ p as u64);
    let t = SimTime::from_millis(500);
    let snaps: Vec<LoadSnapshot> = (0..p)
        .map(|_| LoadSnapshot {
            at: t,
            cpu_busy: SimDuration::from_secs_f64(0.5 * 0.9 * rng.next_f64()),
            disk_busy: SimDuration::from_secs_f64(0.5 * 0.9 * rng.next_f64()),
            mem_free_ratio: 1.0,
            ready_len: 0,
            disk_queue_len: 0,
            processes: 0,
        })
        .collect();
    if loaded {
        monitor.tick(t, &snaps);
    }
    World {
        monitor,
        rsrc: RsrcPredictor::homogeneous(p, true),
        reservation: ReservationController::new(m, p, 0.25, 0.025, true),
        dead: vec![false; p],
        in_flight: vec![0; p],
        m,
        candidates: (0..p).collect(),
    }
}

fn world(p: usize) -> World {
    world_with(p, true)
}

fn ctx<'a>(w: &'a World, rng: &'a mut SimRng) -> StageCtx<'a> {
    StageCtx {
        rng,
        dead: &w.dead,
        dead_levels: [0; 2],
        in_flight: &w.in_flight,
        masters: w.m,
        rsrc: &w.rsrc,
        reservation: &w.reservation,
        loads: w.monitor.all(),
        monitor_id: w.monitor.id(),
        load_epoch: w.monitor.epoch(),
        charge_log: w.monitor.charges(),
        liveness_epoch: 0,
        attained: None,
    }
}

/// The indexed scorer must agree with the dense scan — same node, same
/// RNG state afterwards — before we time it. Eight weights cover both
/// the per-weight trees and the dense fallback beyond the tree cap.
fn assert_equivalent(w: &World, dense: &MinRsrcScorer, indexed: &MinRsrcScorer) {
    for i in 0..32 {
        let sampled_w = [SCAN_W, 0.1, 0.5, 0.95, 0.0, 1.0, 0.3, 0.7][i as usize % 8];
        let mut ra = SimRng::seed_from_u64(i);
        let mut rb = SimRng::seed_from_u64(i);
        let know = ReqKnowledge::new(sampled_w, SimDuration::from_millis(33));
        let a = dense.choose(&mut ctx(w, &mut ra), &w.candidates, know);
        let b = indexed.choose(&mut ctx(w, &mut rb), &w.candidates, know);
        assert_eq!(a, b, "indexed argmin diverged from dense at w={sampled_w}");
        assert_eq!(
            ra, rb,
            "indexed RNG draws diverged from dense at w={sampled_w}"
        );
    }
}

fn bench_scan(c: &mut Criterion) {
    for p in SIZES {
        let w = world(p);
        let dense = MinRsrcScorer::dense(0.0);
        assert_equivalent(&world_with(p, false), &dense, &MinRsrcScorer::indexed(0.0));
        let indexed = MinRsrcScorer::indexed(0.0);
        assert_equivalent(&w, &dense, &indexed);
        for (name, scorer) in [("dense", &dense), ("indexed", &indexed)] {
            c.bench_function(&format!("scan_{name}_p{p}"), |b| {
                let mut rng = SimRng::seed_from_u64(7);
                b.iter(|| {
                    black_box(scorer.choose(
                        &mut ctx(&w, &mut rng),
                        &w.candidates,
                        ReqKnowledge::new(SCAN_W, SimDuration::from_millis(33)),
                    ))
                })
            });
        }
    }
}

fn bench_choose_charge_cycle(c: &mut Criterion) {
    for p in SIZES {
        for (name, scorer) in [
            ("dense", MinRsrcScorer::dense(0.0)),
            ("indexed", MinRsrcScorer::indexed(0.0)),
        ] {
            c.bench_function(&format!("cycle_{name}_p{p}"), |b| {
                let mut w = world(p);
                let mut rng = SimRng::seed_from_u64(7);
                let mut snap_rng = SimRng::seed_from_u64(11);
                let svc = SimDuration::from_millis(33);
                let mut now = SimTime::from_millis(500);
                let mut i = 0u64;
                b.iter(|| {
                    i += 1;
                    if i.is_multiple_of(128) {
                        now = now.checked_add(SimDuration::from_millis(500)).unwrap();
                        let snaps: Vec<LoadSnapshot> = (0..p)
                            .map(|_| LoadSnapshot {
                                at: now,
                                cpu_busy: SimDuration::from_secs_f64(
                                    now.as_secs_f64() * 0.9 * snap_rng.next_f64(),
                                ),
                                disk_busy: SimDuration::from_secs_f64(
                                    now.as_secs_f64() * 0.9 * snap_rng.next_f64(),
                                ),
                                mem_free_ratio: 1.0,
                                ready_len: 0,
                                disk_queue_len: 0,
                                processes: 0,
                            })
                            .collect();
                        w.monitor.tick(now, &snaps);
                    }
                    let node = scorer
                        .choose(
                            &mut ctx(&w, &mut rng),
                            &w.candidates,
                            ReqKnowledge::new(0.7, svc),
                        )
                        .unwrap();
                    w.monitor.charge(node, svc, svc);
                    black_box(node)
                })
            });
        }
    }
}

fn bench_place(c: &mut Criterion) {
    let registry = SchedulerRegistry::builtin();
    for p in SIZES {
        for (name, scorer) in [
            ("dense", "min-rsrc-reserve"),
            ("indexed", "rsrc-indexed-reserve"),
            ("p2of4", "rsrc-p2:4"),
        ] {
            c.bench_function(&format!("place_{name}_p{p}"), |b| {
                let mut cfg = ClusterConfig::simulation(p, PolicyKind::MasterSlave);
                cfg = cfg.with_masters((p / 4).max(1));
                let spec = StageSpec::parse(&format!(
                    "rotation-masters/reservation/level-split/{scorer}/split-demand"
                ))
                .unwrap();
                let mut sched = registry.compose(&cfg, &spec, 0.25, 0.025).unwrap();
                let mut mon = LoadMonitor::new(p, SimDuration::from_millis(500), SimTime::ZERO);
                let svc = SimDuration::from_millis(33);
                b.iter(|| black_box(sched.place(true, ReqKnowledge::new(0.9, svc), &mut mon)))
            });
        }
    }
}

/// The full placement pipeline with telemetry enabled — the issue's
/// overhead budget is ≤5% over `place_indexed_*` (spans are sampled
/// 1-in-64; the rest is plain counter bumps).
fn bench_place_telemetry(c: &mut Criterion) {
    let registry = SchedulerRegistry::builtin();
    for p in SIZES {
        c.bench_function(&format!("place_indexed_telemetry_p{p}"), |b| {
            let mut cfg = ClusterConfig::simulation(p, PolicyKind::MasterSlave);
            cfg = cfg.with_masters((p / 4).max(1));
            let spec = StageSpec::parse(
                "rotation-masters/reservation/level-split/rsrc-indexed-reserve/split-demand",
            )
            .unwrap();
            let mut sched = registry.compose(&cfg, &spec, 0.25, 0.025).unwrap();
            sched.set_telemetry_enabled(true);
            let mut mon = LoadMonitor::new(p, SimDuration::from_millis(500), SimTime::ZERO);
            let svc = SimDuration::from_millis(33);
            b.iter(|| black_box(sched.place(true, ReqKnowledge::new(0.9, svc), &mut mon)))
        });
    }
}

/// The telemetry pipeline with a streaming [`SeriesRecorder`] attached:
/// every 4096 placements folds the cumulative scheduler telemetry into
/// one JSONL window record (drained to a sink). That cadence is still
/// far more aggressive than a real run's — a monitor window spans
/// 500 ms of substrate time against sub-µs placements — so the
/// amortised overhead over `place_indexed_telemetry_*` measured here
/// upper-bounds the issue's ≤5% budget; with no recorder attached the
/// cost is exactly zero (the placement hot path never consults one).
fn bench_place_series(c: &mut Criterion) {
    let registry = SchedulerRegistry::builtin();
    for p in SIZES {
        c.bench_function(&format!("place_indexed_series_p{p}"), |b| {
            let m = (p / 4).max(1);
            let mut cfg = ClusterConfig::simulation(p, PolicyKind::MasterSlave);
            cfg = cfg.with_masters(m);
            let spec = StageSpec::parse(
                "rotation-masters/reservation/level-split/rsrc-indexed-reserve/split-demand",
            )
            .unwrap();
            let mut sched = registry.compose(&cfg, &spec, 0.25, 0.025).unwrap();
            sched.set_telemetry_enabled(true);
            let mut mon = LoadMonitor::new(p, SimDuration::from_millis(500), SimTime::ZERO);
            let svc = SimDuration::from_millis(33);
            let mut rec = SeriesRecorder::to_writer(Box::new(std::io::sink()));
            rec.begin(&SeriesMeta {
                substrate: "bench",
                policy: "rsrc-indexed-reserve",
                p,
                m,
                seed: 0,
            });
            let node_busy = vec![0.5f64; p];
            let mut at_us = 0u64;
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                let placed = sched.place(true, ReqKnowledge::new(0.9, svc), &mut mon);
                if i.is_multiple_of(4096) {
                    at_us += 500_000;
                    let window = WindowSample {
                        at_us,
                        theta2_star: 0.45,
                        a_hat: 0.25,
                        r_hat: 0.025,
                        rho: 0.5,
                        theta_hat: 0.4,
                        clamp_events: 0,
                    };
                    rec.record(&SeriesWindowInput {
                        window: &window,
                        sched: sched.telemetry(),
                        node_busy: &node_busy,
                        window_stretch: Some(1.0),
                        drops: 0,
                    });
                }
                black_box(placed)
            })
        });
    }
}

fn bench_power_of_k_scan(c: &mut Criterion) {
    let p = 4096;
    let w = world(p);
    let scorer = PowerOfKScorer::new(4, 0.0);
    c.bench_function("scan_p2of4_p4096", |b| {
        let mut rng = SimRng::seed_from_u64(7);
        b.iter(|| {
            black_box(scorer.choose(
                &mut ctx(&w, &mut rng),
                &w.candidates,
                ReqKnowledge::new(0.7, SimDuration::from_millis(33)),
            ))
        })
    });
}

criterion_group!(
    benches,
    bench_scan,
    bench_choose_charge_cycle,
    bench_place,
    bench_place_telemetry,
    bench_place_series,
    bench_power_of_k_scan
);
criterion_main!(benches);
