//! Micro-benchmarks of the simulation engine: the keyed next-event
//! heap, RNG, and a single OS-model node under load.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use msweb_ossim::{node::run_to_idle, DemandSpec, Node, NodeScratch, OsParams};
use msweb_simcore::{KeyedHeap, SimDuration, SimRng, SimTime};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_10k", |b| {
        b.iter(|| {
            let mut q = KeyedHeap::new(10_000);
            let mut rng = SimRng::seed_from_u64(1);
            for k in 0..10_000 {
                q.set(k, Some(SimTime::from_micros(rng.gen_range(1_000_000))));
            }
            let mut acc = 0u64;
            while let Some((_, k)) = q.pop() {
                acc = acc.wrapping_add(k as u64);
            }
            black_box(acc)
        })
    });
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

criterion_group!(benches, bench_event_queue, bench_rng, bench_node);
criterion_main!(benches);
