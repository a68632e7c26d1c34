//! SCALE: the streaming event loop at large fleet sizes.
//!
//! Each cell streams a fixed request count through the indexed
//! master/slave composition at p ∈ {1k, 4k, 10k} nodes with the arrival
//! rate scaled proportionally (λ = 31.25·p), so per-request work — not
//! queueing — dominates the comparison. The request count per iteration
//! is kept small; the full n ∈ {1M, 10M} budget cells are produced by
//! `msweb scale`, which also records peak RSS into `BENCH_scale.json`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use msweb_bench::scale::ScaleWorkload;
use msweb_workload::{ucb, DemandModel};

fn bench_scale(c: &mut Criterion) {
    let demand = DemandModel::simulation(40.0);
    let spec = ucb();
    let workload = ScaleWorkload {
        spec: spec.clone(),
        seed: 42,
        lambda_per_p: 31.25,
    };
    let n = 50_000;

    for p in [1_000usize, 4_000, 10_000] {
        // Pin the rate-scaling factor and the workload stats once per
        // cell from a materialized probe of the same generator stream.
        let plan = workload.plan(p, n);
        c.bench_function(&format!("scale_stream/p{p}_n{n}"), |b| {
            b.iter(|| black_box(plan.sim().run_source(plan.source())))
        });
    }

    // The generator itself, streamed: the floor any run pays per request
    // before scheduling starts.
    c.bench_function("scale_gen_source_50k", |b| {
        b.iter(|| {
            let mut last = None;
            for r in spec.stream(n, &demand, 42) {
                last = Some(r);
            }
            black_box(last)
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_scale
);
criterion_main!(benches);
