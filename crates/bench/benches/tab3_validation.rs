//! TAB3: one live-vs-simulated validation pair (heavily reduced — the
//! full table is regenerated by the `experiments` binary). The live side
//! runs in real (scaled) time, so samples are few.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use msweb_cluster::{simulate, ClusterConfig, PolicyKind, RunOptions};
use msweb_emu::{emulate, Realtime};
use msweb_workload::{ucb, DemandModel};

fn bench_tab3(c: &mut Criterion) {
    let trace = ucb()
        .generate(60, &DemandModel::sun_cluster(40.0), 42)
        .scaled_to_rate(40.0);
    // One configuration for both substrates (the live side ticks its
    // monitor every 500 ms × 0.02 = 10 ms of wall time).
    let cfg = ClusterConfig::simulation(6, PolicyKind::MasterSlave)
        .with_masters(3)
        .with_mu_h(110.0);

    c.bench_function("tab3_live_ucb_60req", |b| {
        b.iter(|| {
            let rt = Realtime::scaled(0.02);
            black_box(emulate(cfg.clone(), &trace, RunOptions::new(), rt).summary)
        })
    });

    c.bench_function("tab3_sim_ucb_60req", |b| {
        b.iter(|| black_box(simulate(cfg.clone(), &trace, RunOptions::new()).summary))
    });
}

criterion_group!(name = benches; config = Criterion::default().sample_size(10); targets = bench_tab3);
criterion_main!(benches);
