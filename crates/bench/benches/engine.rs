//! Micro-benchmarks of the simulation engine: the node-event tree,
//! RNG, and a single OS-model node under load.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use msweb_ossim::{node::run_to_idle, DemandSpec, Node, NodeScratch, OsParams};
use msweb_simcore::{EventTree, SimDuration, SimRng, SimTime};

/// The simulator's use of its node-event index, at p = 1k and 10k:
/// about 15 % of the keys hold an entry, and each step takes the
/// minimum and either re-keys it later (the node stays busy) or removes
/// it and inserts an idle key near the current time (the node goes idle
/// and an arrival wakes another). One iteration is 1,000 steps.
fn bench_event_tree(c: &mut Criterion) {
    for p in [1_000, 10_000] {
        let mut q = EventTree::new(p);
        let mut rng = SimRng::seed_from_u64(1);
        let busy = p * 15 / 100;
        for k in 0..busy {
            q.set(k, Some(SimTime::from_micros(rng.gen_range(10_000))));
        }
        let mut idle: Vec<usize> = (busy..p).collect();
        c.bench_function(&format!("event_tree_step_p{p}"), |b| {
            b.iter(|| {
                for _ in 0..1_000 {
                    let (t, k) = q.peek().expect("a busy key");
                    if rng.gen_range(4) == 0 {
                        q.set(k, None);
                        let wake = rng.gen_index(idle.len());
                        let next = std::mem::replace(&mut idle[wake], k);
                        q.set(next, Some(SimTime(t.0 + rng.gen_range(100))));
                    } else {
                        q.set(k, Some(SimTime(t.0 + 1 + rng.gen_range(10_000))));
                    }
                }
                black_box(q.peek())
            })
        });
    }
}

fn bench_rng(c: &mut Criterion) {
    c.bench_function("rng_f64_1k", |b| {
        let mut rng = SimRng::seed_from_u64(7);
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..1000 {
                acc += rng.next_f64();
            }
            black_box(acc)
        })
    });
}

fn bench_node(c: &mut Criterion) {
    c.bench_function("ossim_node_100_mixed_processes", |b| {
        // One scratch across iterations, as a cluster keeps one pool.
        let mut scratch = NodeScratch::default();
        b.iter(|| {
            let mut n = Node::new(0, OsParams::default());
            for i in 0..100u64 {
                let spec = if i % 4 == 0 {
                    DemandSpec::cgi(SimDuration::from_millis(30), 0.9, 64)
                } else {
                    DemandSpec::static_fetch(SimDuration::from_micros(830), 0.5, 1)
                };
                n.submit(&spec, SimTime::ZERO, i, &mut scratch);
            }
            black_box(run_to_idle(&mut n, &mut scratch, 1_000_000).len())
        })
    });
}

criterion_group!(benches, bench_event_tree, bench_rng, bench_node);
criterion_main!(benches);
