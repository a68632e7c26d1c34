//! Run the live thread-backed cluster emulation (the Sun-prototype
//! substitute) and compare it against the simulator on the same workload
//! — a miniature of the paper's Table 3 validation.
//!
//! ```sh
//! cargo run --release --example live_cluster [-- <requests> <rate>]
//! ```

use msweb::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(400);
    let rate: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(40.0);

    // The paper's prototype: 6 Ultra-1-class nodes (110 static req/s),
    // UCB trace with r = 1/40, 3 masters.
    let spec = ucb();
    let trace = spec
        .generate(n, &DemandModel::sun_cluster(40.0), 11)
        .scaled_to_rate(rate);
    println!(
        "live cluster: 6 nodes, {} requests at {:.0} req/s, time scale 0.1",
        trace.len(),
        rate
    );
    let cal = msweb::emu::calibrate();
    println!(
        "host timing: wait error {:?}, sleep overshoot {:?}\n",
        cal.wait_error, cal.sleep_overshoot
    );

    let mut results = Vec::new();
    for (policy, m) in [
        (PolicyKind::Flat, 1),
        (PolicyKind::MasterSlave, 3),
        (PolicyKind::MsNoReservation, 3),
    ] {
        // One configuration for both substrates: 110-req/s nodes, the
        // simulator's 500 ms monitor period (50 ms of wall time live).
        let cfg = ClusterConfig::simulation(6, policy)
            .with_masters(m)
            .with_mu_h(110.0);
        let t0 = std::time::Instant::now();
        let live = emulate(
            cfg.clone(),
            &trace,
            RunOptions::new(),
            Realtime::scaled(0.1),
        )
        .summary;
        let sim = simulate(cfg, &trace, RunOptions::new()).summary;

        println!(
            "{:<8} live stretch {:>7.3} | simulated {:>7.3}   ({:.1}s wall)",
            policy.label(),
            live.stretch,
            sim.stretch,
            t0.elapsed().as_secs_f64()
        );
        results.push((policy, live.stretch, sim.stretch));
    }

    // Improvement ratios, live vs simulated (the Table 3 comparison).
    let flat = results[0];
    println!();
    for &(policy, live, sim) in &results[1..] {
        println!(
            "M/S-family {} vs Flat: live {:+.1}% | simulated {:+.1}%",
            policy.label(),
            (flat.1 / live - 1.0) * 100.0,
            (flat.2 / sim - 1.0) * 100.0
        );
    }
}
