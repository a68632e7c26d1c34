//! Compose a novel scheduling policy from the pipeline registry — no
//! changes to `msweb-cluster` required.
//!
//! Two compositions are built here:
//!
//! 1. a pure registry policy, `"least-connections/none/level-split/\
//!    min-rsrc/split-demand"` — an L4-switch front end driving the
//!    paper's two-level candidate sets;
//! 2. the same pipeline with a *custom scorer written in this example*:
//!    power-of-two-choices over the RSRC cost (Eq. 5), a classic
//!    randomized-load-balancing rule the paper never evaluated. (The
//!    registry now also ships this rule built in as `rsrc-p2:<k>` for
//!    any `k` — the hand-rolled version stays here as the registration
//!    walkthrough.)
//!
//! Both run through the ordinary [`ClusterSim`] driver and are compared
//! against the built-in M/S and Flat policies on the same trace.
//!
//! ```sh
//! cargo run --release --example custom_policy
//! ```

use msweb::cluster::sched::{Scorer, StageCtx};
use msweb::prelude::*;

/// Power-of-two-choices over RSRC cost: draw two candidates uniformly
/// at random and keep the cheaper one. O(1) load inspection per
/// decision instead of a full scan, at a modest placement-quality cost —
/// the classic Azar et al. trade-off, expressed as one pipeline stage.
///
/// Its pick depends on each candidate's position in the list, so it
/// keeps the default `Scorer::choose_range`, which declines. The
/// built-in `level-split` stage declares its candidate set as a node
/// range (`CandidateSet::live_range`); when the scorer declines, the
/// scheduler collects the list and calls `choose` as before. A custom
/// candidate stage may declare a range too. `Some((lo, hi))` promises
/// that `collect` would return `Remote` with exactly the live nodes of
/// `[lo, hi)`, in any order, and debug builds check that promise
/// against `collect` on every placement that uses the range.
struct PowerOfTwoRsrc;

impl Scorer for PowerOfTwoRsrc {
    fn choose(
        &self,
        ctx: &mut StageCtx<'_>,
        candidates: &[usize],
        know: ReqKnowledge,
    ) -> Option<usize> {
        if candidates.is_empty() {
            return None;
        }
        let a = candidates[ctx.rng.gen_index(candidates.len())];
        let b = candidates[ctx.rng.gen_index(candidates.len())];
        let cost = |n: usize| ctx.rsrc.cost(n, &ctx.loads[n], know.w);
        Some(if cost(b) < cost(a) { b } else { a })
    }

    fn score(&self, ctx: &StageCtx<'_>, node: usize, know: ReqKnowledge) -> f64 {
        ctx.rsrc.cost(node, &ctx.loads[node], know.w)
    }
}

fn main() {
    let (p, m, lambda, inv_r) = (16, 4, 700.0, 40.0);
    let trace = ucb()
        .generate(12_000, &DemandModel::simulation(inv_r), 17)
        .scaled_to_rate(lambda);
    let a0 = ucb().arrival_ratio_a();
    let r0 = 1.0 / inv_r;

    let config = ClusterConfig::simulation(p, PolicyKind::MasterSlave)
        .with_masters(m)
        .with_seed(99);

    // A registry with one extra stage: our scorer, under its own name.
    let mut registry = SchedulerRegistry::builtin();
    registry.register_scorer("rsrc-p2c", |_| Box::new(PowerOfTwoRsrc));

    let run_spec = |spec: &str| -> RunSummary {
        let spec = StageSpec::parse(spec).expect("well-formed stage spec");
        let scheduler = match registry.compose(&config, &spec, a0, r0) {
            Ok(s) => s,
            Err(e) => panic!("compose failed: {e}"),
        };
        let mut sim = ClusterSim::with_scheduler(config.clone(), scheduler).with_mean_demands(
            SimDuration::from_secs_f64(1.0 / 1200.0),
            SimDuration::from_secs_f64(1.0 / 1200.0 / r0),
        );
        sim.run(&trace)
    };

    println!("UCB x 12k requests at {lambda}/s on p={p} (m={m}, 1/r={inv_r})\n");
    let switch_level = run_spec("least-connections/none/level-split/min-rsrc/split-demand");
    let p2c = run_spec("least-connections/none/level-split/rsrc-p2c/split-demand");
    let ms = simulate(config.clone(), &trace, RunOptions::new()).summary;
    let flat = simulate(
        ClusterConfig::simulation(p, PolicyKind::Flat).with_seed(99),
        &trace,
        RunOptions::new(),
    )
    .summary;

    println!("{:<44} stretch", "composition");
    for (name, s) in [
        ("built-in Flat (DNS rotation)", &flat),
        ("built-in M/S (reservation + full RSRC scan)", &ms),
        ("switch entry + level-split + full scan", &switch_level),
        ("switch entry + level-split + RSRC p2c", &p2c),
    ] {
        println!("{name:<44} {:>7.3}", s.stretch);
    }
    println!(
        "\npower-of-two placement quality vs the full scan: {:+.1}%",
        (p2c.stretch / switch_level.stretch - 1.0) * 100.0
    );
}
