//! χ² evidence that every argmin scorer breaks exact cost ties
//! uniformly — the equivalence argument for dropping the per-placement
//! candidate shuffle: "uniform among the exact minima by one draw" is
//! distributionally identical to "shuffle, then keep the first minimum".
//! The shared tie helper is tested through the scorers that use it (the
//! dense RSRC scan and least-connections) and the decision index through
//! the indexed RSRC scorer, which must also land on the dense scan's
//! node draw for draw.

use msweb_cluster::sched::stages::{LeastConnectionsScorer, MinRsrcScorer};
use msweb_cluster::sched::{Scorer, StageCtx};
use msweb_cluster::{LoadMonitor, ReqKnowledge, ReservationController, RsrcPredictor};
use msweb_simcore::{SimDuration, SimRng, SimTime};

/// Pearson's χ² statistic of `counts` against the uniform distribution.
fn chi_square_uniform(counts: &[u64]) -> f64 {
    let expected = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
    counts
        .iter()
        .map(|&c| (c as f64 - expected).powi(2) / expected)
        .sum()
}

/// Tie sets of k = 2, 6 and 13 nodes in a 48-node cluster, each with the
/// χ² critical value at α = 0.001 for k − 1 degrees of freedom.
const TIE_SETS: [(&[usize], f64); 3] = [
    (&[5, 40], 10.828),
    (&[0, 7, 8, 21, 33, 47], 20.515),
    (&[1, 2, 3, 10, 11, 12, 19, 25, 26, 30, 38, 44, 45], 32.909),
];

/// Draws per tie set: ≥ 1,500 expected hits per tied node even at k = 13.
const TIE_DRAWS: usize = 20_000;

/// Run `choose` `TIE_DRAWS` times over a 48-node view in which exactly
/// the nodes of `tied` are idle (in RSRC cost and in connections) and
/// every other node is loaded; return per-tied-node hit counts.
fn tie_counts(tied: &[usize], scorer: &dyn Scorer) -> Vec<u64> {
    let (p, m) = (48, 12);
    let t = SimTime::from_millis(500);
    let snaps: Vec<_> = (0..p)
        .map(|i| {
            let busy = if tied.contains(&i) { 0 } else { 100 + i as u64 };
            msweb_ossim::LoadSnapshot {
                at: t,
                cpu_busy: SimDuration::from_millis(busy),
                disk_busy: SimDuration::from_millis(busy),
                mem_free_ratio: 1.0,
                ready_len: 0,
                disk_queue_len: 0,
                processes: 0,
            }
        })
        .collect();
    let mut mon = LoadMonitor::new(p, SimDuration::from_millis(500), SimTime::ZERO);
    mon.tick(t, &snaps);
    let in_flight: Vec<u32> = (0..p).map(|i| u32::from(!tied.contains(&i))).collect();
    let (dead, rsrc) = (vec![false; p], RsrcPredictor::homogeneous(p, true));
    let reservation = ReservationController::new(m, p, 0.25, 0.025, true);
    // Descending order: the tie rule must not depend on candidate order.
    let candidates: Vec<usize> = (0..p).rev().collect();
    let mut rng = SimRng::seed_from_u64(0x7135);
    let mut counts = vec![0u64; tied.len()];
    for _ in 0..TIE_DRAWS {
        let mut ctx = StageCtx {
            rng: &mut rng,
            dead: &dead,
            dead_levels: [0; 2],
            in_flight: &in_flight,
            masters: m,
            rsrc: &rsrc,
            reservation: &reservation,
            loads: mon.all(),
            monitor_id: mon.id(),
            load_epoch: mon.epoch(),
            charge_log: mon.charges(),
            liveness_epoch: 0,
            attained: None,
        };
        let node = scorer
            .choose(
                &mut ctx,
                &candidates,
                ReqKnowledge::new(0.9, SimDuration::from_millis(10)),
            )
            .unwrap();
        let slot = tied.iter().position(|&n| n == node);
        counts[slot.unwrap_or_else(|| panic!("chose untied node {node}"))] += 1;
    }
    counts
}

#[test]
fn tie_helper_is_uniform_over_exact_minima() {
    for (tied, critical) in TIE_SETS {
        for scorer in [
            &LeastConnectionsScorer as &dyn Scorer,
            &MinRsrcScorer::dense(0.0),
        ] {
            let chi2 = chi_square_uniform(&tie_counts(tied, scorer));
            assert!(
                chi2 < critical,
                "k={}: χ² {chi2:.2} ≥ {critical}",
                tied.len()
            );
        }
    }
}

#[test]
fn indexed_tie_break_is_uniform_and_matches_the_dense_draws() {
    for (tied, critical) in TIE_SETS {
        let indexed = MinRsrcScorer::indexed(0.0);
        let counts = tie_counts(tied, &indexed);
        assert_eq!(
            indexed.path_counts().unwrap().indexed,
            TIE_DRAWS as u64,
            "every draw must take the indexed path"
        );
        let chi2 = chi_square_uniform(&counts);
        assert!(
            chi2 < critical,
            "k={}: χ² {chi2:.2} ≥ {critical}",
            tied.len()
        );
        // Same RNG seed, same view: the dense scan lands on the same
        // nodes draw for draw, so the hit counts are identical.
        assert_eq!(counts, tie_counts(tied, &MinRsrcScorer::dense(0.0)));
    }
}
