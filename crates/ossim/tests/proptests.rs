//! Property-based tests for the node OS model.

use msweb_ossim::{node::run_to_idle, DemandSpec, Node, NodeScratch, OsParams};
use msweb_simcore::{SimDuration, SimTime};
use proptest::prelude::*;

/// Arbitrary small demand specs.
fn demand() -> impl Strategy<Value = DemandSpec> {
    (
        1u64..200_000, // service microseconds
        0.0f64..=1.0,  // cpu fraction
        0u32..64,      // memory pages
        any::<bool>(), // cgi?
    )
        .prop_map(|(us, w, pages, cgi)| DemandSpec {
            service: SimDuration::from_micros(us),
            cpu_fraction: w,
            memory_pages: pages,
            is_cgi: cgi,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every submitted process eventually completes, exactly once, and
    /// resources return to their initial state.
    #[test]
    fn all_processes_complete_and_resources_return(
        specs in prop::collection::vec(demand(), 1..25)
    ) {
        let mut n = Node::new(0, OsParams::default());
        let mut scratch = NodeScratch::default();
        for (i, spec) in specs.iter().enumerate() {
            n.submit(spec, SimTime::ZERO, i as u64, &mut scratch);
        }
        let done = run_to_idle(&mut n, &mut scratch, 2_000_000);
        prop_assert_eq!(done.len(), specs.len());
        let mut tags: Vec<u64> = done.iter().map(|c| c.tag).collect();
        tags.sort_unstable();
        prop_assert_eq!(tags, (0..specs.len() as u64).collect::<Vec<_>>());
        prop_assert!(n.is_idle());
        prop_assert_eq!(n.load().mem_free_ratio, 1.0);
        prop_assert_eq!(n.load().ready_len, 0);
        prop_assert_eq!(n.load().disk_queue_len, 0);
    }

    /// Response time is never less than the contention-free demand
    /// (causality), and with a single process it is demand plus bounded
    /// overhead.
    #[test]
    fn response_at_least_demand(spec in demand()) {
        let mut n = Node::new(0, OsParams::default());
        let mut scratch = NodeScratch::default();
        n.submit(&spec, SimTime::ZERO, 0, &mut scratch);
        let done = run_to_idle(&mut n, &mut scratch, 2_000_000);
        prop_assert_eq!(done.len(), 1);
        let resp = done[0].finished - done[0].arrived;
        // The node quantises I/O into whole pages, so demand may round
        // down by up to one page.
        let params = OsParams::default();
        let floor = spec.service.saturating_sub(params.page_io);
        prop_assert!(
            resp + SimDuration::from_micros(1) >= floor,
            "response {resp} below demand {}",
            spec.service
        );
        // Overheads for a lone process: fork (if CGI) + one ctx switch +
        // one page of I/O rounding.
        let mut ceiling = spec.service + params.context_switch + params.page_io;
        if spec.is_cgi {
            ceiling += params.fork_overhead;
        }
        // Extra context switches can occur around I/O transitions: allow
        // one per quantum of service as slack.
        let slack_switches = spec.service.as_micros() / params.quantum.as_micros() + 2;
        ceiling += params.context_switch.mul(slack_switches);
        prop_assert!(
            resp <= ceiling,
            "lone process response {resp} exceeds ceiling {ceiling}"
        );
    }

    /// CPU busy time equals total CPU demand plus exactly the charged
    /// context switches (work conservation).
    #[test]
    fn cpu_work_conservation(specs in prop::collection::vec(demand(), 1..15)) {
        let params = OsParams::default();
        let mut n = Node::new(0, params.clone());
        let mut scratch = NodeScratch::default();
        // Give everyone ample memory by using few pages (deficits add I/O,
        // not CPU, so conservation still holds; keep as-is).
        for (i, spec) in specs.iter().enumerate() {
            n.submit(spec, SimTime::ZERO, i as u64, &mut scratch);
        }
        run_to_idle(&mut n, &mut scratch, 2_000_000);
        let busy = n.load().cpu_busy;
        let demand_cpu: SimDuration = specs
            .iter()
            .map(|s| {
                // CPU demand plus the sub-page I/O remainder the compiler
                // folds back into CPU to conserve total demand.
                let whole_pages = s.io_time().as_micros() / params.page_io.as_micros();
                let io_executed = params.page_io.mul(whole_pages);
                let mut c = s.cpu_time() + (s.io_time() - io_executed);
                if s.is_cgi {
                    c += params.fork_overhead;
                }
                c
            })
            .fold(SimDuration::ZERO, |a, b| a + b);
        let ctx = SimDuration::from_micros(n.context_switches() * 50);
        let expect = demand_cpu + ctx;
        // Compiling demands into bursts rounds each CPU burst to integer
        // microseconds; allow one microsecond per burst of drift.
        let drift = if busy >= expect { busy - expect } else { expect - busy };
        prop_assert!(
            drift <= SimDuration::from_micros(64 * specs.len() as u64),
            "cpu busy {busy} vs demand+ctx {expect}"
        );
    }

    /// Disk busy time equals pages served times page time.
    #[test]
    fn disk_work_is_page_quantised(specs in prop::collection::vec(demand(), 1..15)) {
        let params = OsParams::default();
        let mut n = Node::new(0, params.clone());
        let mut scratch = NodeScratch::default();
        for (i, spec) in specs.iter().enumerate() {
            n.submit(spec, SimTime::ZERO, i as u64, &mut scratch);
        }
        run_to_idle(&mut n, &mut scratch, 2_000_000);
        let busy = n.load().disk_busy.as_micros();
        prop_assert_eq!(busy % params.page_io.as_micros(), 0);
    }

    /// Killing a random subset never wedges the node; survivors complete.
    #[test]
    fn kill_subset_leaves_consistent_node(
        specs in prop::collection::vec(demand(), 2..12),
        kill_mask in prop::collection::vec(any::<bool>(), 2..12),
    ) {
        let mut n = Node::new(0, OsParams::default());
        let mut scratch = NodeScratch::default();
        let pids: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| n.submit(s, SimTime::ZERO, i as u64, &mut scratch))
            .collect();
        let mut killed = std::collections::HashSet::new();
        for (pid, &k) in pids.iter().zip(kill_mask.iter().cycle()) {
            if k && n.kill(*pid, &mut scratch).is_some() {
                killed.insert(*pid);
            }
        }
        let done = run_to_idle(&mut n, &mut scratch, 2_000_000);
        prop_assert_eq!(done.len(), specs.len() - killed.len());
        prop_assert!(n.is_idle());
        prop_assert_eq!(n.load().mem_free_ratio, 1.0);
    }

    /// Short CPU jobs always finish before long CPU hogs that arrived
    /// with them (MLFQ priority separation), and no hog starves.
    #[test]
    fn mlfq_short_jobs_overtake_hogs(
        n_hogs in 1usize..4,
        n_short in 1usize..8,
        hog_ms in 60u64..200,
        short_us in 200u64..2_000,
    ) {
        let mut node = Node::new(0, OsParams::default());
        let mut scratch = NodeScratch::default();
        for i in 0..n_hogs {
            node.submit(
                &DemandSpec::static_fetch(SimDuration::from_millis(hog_ms), 1.0, 0),
                SimTime::ZERO,
                i as u64,
                &mut scratch,
            );
        }
        for i in 0..n_short {
            node.submit(
                &DemandSpec::static_fetch(SimDuration::from_micros(short_us), 1.0, 0),
                SimTime::ZERO,
                (100 + i) as u64,
                &mut scratch,
            );
        }
        let done = run_to_idle(&mut node, &mut scratch, 2_000_000);
        prop_assert_eq!(done.len(), n_hogs + n_short);
        let last_short = done
            .iter()
            .filter(|c| c.tag >= 100)
            .map(|c| c.finished)
            .max()
            .expect("shorts exist");
        let first_hog = done
            .iter()
            .filter(|c| c.tag < 100)
            .map(|c| c.finished)
            .min()
            .expect("hogs exist");
        prop_assert!(
            last_short <= first_hog,
            "short jobs must all finish before any hog: {last_short:?} vs {first_hog:?}"
        );
        // No starvation: every hog finishes within (total work + slack).
        let total_ms = n_hogs as u64 * hog_ms + 20;
        for c in done.iter().filter(|c| c.tag < 100) {
            prop_assert!(c.finished <= SimTime::from_millis(total_ms));
        }
    }

    /// Identical CPU-bound jobs submitted together finish within one
    /// quantum-round of each other (round-robin fairness).
    #[test]
    fn mlfq_round_robin_fairness(n in 2usize..6, work_ms in 20u64..80) {
        let mut node = Node::new(0, OsParams::default());
        let mut scratch = NodeScratch::default();
        for i in 0..n {
            node.submit(
                &DemandSpec::static_fetch(SimDuration::from_millis(work_ms), 1.0, 0),
                SimTime::ZERO,
                i as u64,
                &mut scratch,
            );
        }
        let done = run_to_idle(&mut node, &mut scratch, 2_000_000);
        let first = done.iter().map(|c| c.finished).min().unwrap();
        let last = done.iter().map(|c| c.finished).max().unwrap();
        // Peers can differ by at most ~one quantum each plus overheads.
        let bound = SimDuration::from_millis(10 * n as u64 + 5);
        prop_assert!(
            last - first <= bound,
            "fairness spread {} exceeds {}",
            last - first,
            bound
        );
    }

    /// Identical I/O-bound jobs submitted together also finish within a
    /// bounded spread (round-robin disk fairness).
    #[test]
    fn disk_round_robin_fairness(n in 2usize..6, pages in 3u32..12) {
        let params = OsParams::default();
        let mut node = Node::new(0, params.clone());
        let mut scratch = NodeScratch::default();
        let io_ms = pages as u64 * 2;
        for i in 0..n {
            node.submit(
                &DemandSpec::static_fetch(SimDuration::from_millis(io_ms), 0.0, 0),
                SimTime::ZERO,
                i as u64,
                &mut scratch,
            );
        }
        let done = run_to_idle(&mut node, &mut scratch, 2_000_000);
        let first = done.iter().map(|c| c.finished).min().unwrap();
        let last = done.iter().map(|c| c.finished).max().unwrap();
        // Page-level round robin: peers finish within ~n pages of each other.
        let bound = params.page_io.mul(2 * n as u64 * 5);
        prop_assert!(last - first <= bound, "disk spread {}", last - first);
    }

    /// Determinism: identical submissions produce identical histories.
    #[test]
    fn node_is_deterministic(specs in prop::collection::vec(demand(), 1..10)) {
        let run = || {
            let mut n = Node::new(0, OsParams::default());
            let mut scratch = NodeScratch::default();
            for (i, spec) in specs.iter().enumerate() {
                n.submit(spec, SimTime::ZERO, i as u64, &mut scratch);
            }
            run_to_idle(&mut n, &mut scratch, 2_000_000)
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a, b);
    }
}
