//! Multi-region scenario harness: drive the region front tier
//! (`cluster::sched::region`) through three named scenarios and compare
//! the two built-in region selectors on latency-weighted placement
//! quality.
//!
//! The scenarios stress exactly the axes a geo-scheduler must care
//! about:
//!
//! * **diurnal** — the traffic centre of gravity rotates around the
//!   region ring (a `RegionMix::rotating` schedule) while a per-region
//!   cost/carbon series rotates out of phase, so the cost-aware greedy
//!   selector has something to trade latency against;
//! * **flash-crowd** — a migrating hot spot concentrates most arrivals
//!   in one region at a time; `region-nearest` holds traffic home until
//!   the hard capacity guard trips and then dumps the overflow on a
//!   single neighbour, while `region-greedy`'s headroom term spreads it
//!   across both remote regions *before* saturation — the acceptance
//!   headline of this harness;
//! * **outage** — a whole region (masters and slaves) dies mid-run and
//!   recovers later, exercising the node-down/up path through the
//!   region guard and the decision log.
//!
//! Every cell replays the same per-scenario trace under the same seed
//! (common random numbers), through the deterministic simulator, and
//! the report serialises through the deterministic vendored `serde`
//! writer — `msweb experiments --regions --test` runs the bounded grid
//! twice and fails on any byte difference.
//!
//! The headline metric is **latency-weighted model stretch**: the
//! processor-sharing model stretch of the placements
//! ([`msweb_cluster::sched::model_stretch`]) plus the mean
//! origin→region network latency normalised by each request's demand —
//! i.e. `mean((model_response + region_latency) / demand)`, which
//! decomposes exactly into those two terms because both average over
//! the same placement set.

use msweb_cluster::{
    ClusterConfig, ClusterSim, CollectingObserver, FailureEvent, FailurePlan, PolicyKind,
    RegionTopology, Schedule, SchedulerRegistry, StageSpec,
};
use msweb_simcore::SimTime;
use msweb_workload::{ucb, DemandModel, RegionMix, Trace};
use serde::Serialize;
use std::cell::RefCell;
use std::rc::Rc;

use crate::experiments::ExpConfig;
use crate::report::{f, Table};

/// Cluster shape every scenario runs on: three regions of eight nodes
/// (two masters + six slaves each).
const P: usize = 24;
const MASTERS: usize = 6;
const REGIONS: usize = 3;
/// Per-node in-flight capacity for the region guard; low enough that a
/// flash crowd actually saturates its home region.
const NODE_CAPACITY: u32 = 6;
const INV_R: f64 = 40.0;
/// Replay arrival rate, requests/second: ~60% of the cluster's service
/// rate in the calm phases, a ~1.6x overload inside a flash-crowd hot
/// region — enough to drive the hot region into the capacity guard.
const LAMBDA: f64 = 3000.0;
/// Hot-region weight of the flash-crowd mix: the hot phase sends
/// `HOT/(HOT+2)` of all arrivals from one origin region.
const FLASH_HOT_WEIGHT: f64 = 24.0;
/// Hot-region weight of the diurnal rotation (milder than the flash
/// crowd — a daily swing, not an incident).
const DIURNAL_HOT_WEIGHT: f64 = 6.0;

/// The two region selectors under comparison, in report order.
pub const REGION_POLICIES: [&str; 2] = ["region-nearest", "region-greedy"];

/// The scenario names, in report order.
pub const SCENARIOS: [&str; 3] = ["diurnal", "flash-crowd", "outage"];

/// One (scenario, region policy) cell's measured outcome.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RegionScenarioRow {
    /// Scenario name (`diurnal`, `flash-crowd`, `outage`).
    pub scenario: String,
    /// Region-selector stage name.
    pub region_policy: String,
    /// Full six-part stage spec the cell composed.
    pub spec: String,
    /// Requests completed.
    pub completed: u64,
    /// Requests dropped (cluster dead or every region at capacity).
    pub dropped: u64,
    /// End-to-end mean stretch from the simulator.
    pub stretch: f64,
    /// Eq. 5 processor-sharing model stretch of the placements.
    pub model_stretch: f64,
    /// Mean origin→serving-region network latency per placement, ms.
    pub mean_region_latency_ms: f64,
    /// Headline objective: model stretch plus the demand-normalised
    /// region latency term (lower is better).
    pub lw_model_stretch: f64,
    /// Placements charged to each region, indexed by region.
    pub region_charges: Vec<u64>,
    /// Fraction of placements served outside the request's origin
    /// region.
    pub remote_fraction: f64,
}

/// Per-scenario comparison of the two selectors on the headline metric.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioVerdict {
    /// Scenario name.
    pub scenario: String,
    /// `region-nearest`'s latency-weighted model stretch.
    pub nearest_lw_stretch: f64,
    /// `region-greedy`'s latency-weighted model stretch.
    pub greedy_lw_stretch: f64,
    /// The selector with the lower latency-weighted model stretch.
    pub winner: String,
}

/// The complete scenario-grid result.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RegionsReport {
    /// Requests per scenario replay.
    pub requests: usize,
    /// Root seed (shared by every cell — common random numbers).
    pub seed: u64,
    /// Cluster size.
    pub p: usize,
    /// Master count.
    pub masters: usize,
    /// Region count.
    pub regions: usize,
    /// Per-node in-flight capacity of the region guard.
    pub node_capacity: u32,
    /// Replay arrival rate, requests/second.
    pub lambda: f64,
    /// Every cell, scenario-major in [`SCENARIOS`] ×
    /// [`REGION_POLICIES`] order.
    pub rows: Vec<RegionScenarioRow>,
    /// Per-scenario nearest-vs-greedy comparison.
    pub verdicts: Vec<ScenarioVerdict>,
}

/// One scenario's full driving input.
struct Scenario {
    name: &'static str,
    trace: Trace,
    topo: RegionTopology,
    failures: FailurePlan,
}

/// Build the three scenarios for one configuration. The region mix
/// draws from the workload generator's dedicated stream (split label
/// 6), so the arrival/demand streams are identical across scenarios —
/// only the origin tags and the injected failures differ.
fn scenarios(exp: &ExpConfig) -> Vec<Scenario> {
    let spec = ucb();
    // RegionMix phases are anchored to the generator's natural
    // timeline; the trace is rescaled to LAMBDA afterwards, which maps
    // phases onto the replay monotonically.
    let natural_s = exp.requests as f64 * spec.mean_interval_s;
    // Scaled (replay) duration, for failure timing and cost phases.
    let replay_us = (exp.requests as f64 / LAMBDA * 1e6) as u64;
    let base_topo = RegionTopology::even(P, MASTERS, REGIONS).with_node_capacity(NODE_CAPACITY);

    let gen = |mix: RegionMix| {
        spec.generate(
            exp.requests,
            &DemandModel::simulation(INV_R).with_region_mix(mix),
            exp.seed,
        )
        .scaled_to_rate(LAMBDA)
    };

    // Diurnal: traffic rotates around the ring twice; the cost series
    // rotates against it so the cheap region is never the hot one.
    let diurnal_mix = RegionMix::rotating(REGIONS, DIURNAL_HOT_WEIGHT, natural_s / 6.0);
    let diurnal_topo = base_topo.clone().with_cost(
        vec![
            vec![0.5, 1.0, 1.5],
            vec![1.5, 0.5, 1.0],
            vec![1.0, 1.5, 0.5],
        ],
        (replay_us / 6).max(1),
    );

    // Flash crowd: a warm-up phase, then the hot spot visits each
    // region in turn.
    let flash_mix = RegionMix::new(
        vec![
            vec![1.0, 1.0, 1.0],
            vec![FLASH_HOT_WEIGHT, 1.0, 1.0],
            vec![1.0, FLASH_HOT_WEIGHT, 1.0],
            vec![1.0, 1.0, FLASH_HOT_WEIGHT],
        ],
        natural_s / 4.0,
    );

    // Outage: uniform traffic; region 0 (masters and slaves) dies a
    // quarter into the run and recovers past the midpoint.
    let outage_mix = RegionMix::uniform(REGIONS);
    let kill_at = SimTime(replay_us / 4);
    let recover_at = SimTime(replay_us * 6 / 10);
    let (ms, me) = base_topo.master_range(0);
    let (ss, se) = base_topo.slave_range(0);
    let outage = FailurePlan::new(
        (ms..me)
            .chain(ss..se)
            .map(|node| FailureEvent {
                at: kill_at,
                node,
                restart_dynamic: true,
                recover_at: Some(recover_at),
            })
            .collect(),
    );

    vec![
        Scenario {
            name: "diurnal",
            trace: gen(diurnal_mix),
            topo: diurnal_topo,
            failures: FailurePlan::none(),
        },
        Scenario {
            name: "flash-crowd",
            trace: gen(flash_mix),
            topo: base_topo.clone(),
            failures: FailurePlan::none(),
        },
        Scenario {
            name: "outage",
            trace: gen(outage_mix),
            topo: base_topo,
            failures: outage,
        },
    ]
}

/// Run one (scenario, region policy) cell and score it.
fn run_cell(sc: &Scenario, region_policy: &str, seed: u64) -> RegionScenarioRow {
    let spec = StageSpec::for_policy(PolicyKind::MasterSlave).with_region(region_policy);
    let a0 = ucb().arrival_ratio_a();
    let r0 = 1.0 / INV_R;
    let cfg = ClusterConfig::simulation(P, PolicyKind::MasterSlave)
        .with_masters(MASTERS)
        .with_seed(seed)
        .with_regions(sc.topo.clone());
    let scheduler = SchedulerRegistry::builtin()
        .compose(&cfg, &spec, a0, r0)
        .expect("the built-in region compositions compose");
    let observer: Rc<RefCell<CollectingObserver>> = Rc::default();
    let mut sim = {
        let mut scheduler = scheduler;
        scheduler.set_observer(Some(Box::new(Rc::clone(&observer))));
        ClusterSim::with_scheduler(cfg, scheduler)
            .with_priors(a0, r0)
            .with_spec_label(spec.render())
            .with_failures(sc.failures.clone())
    };
    let summary = sim.run(&sc.trace);

    let records = observer.borrow();
    let placements: Vec<(usize, u64, u64)> = records
        .records
        .iter()
        .map(|r| (r.chosen, r.at_us, r.demand_us))
        .collect();
    let model_stretch = msweb_cluster::sched::model_stretch(&placements, P, None);

    // The latency term averages over exactly the placements the model
    // scores (in-range node, known demand), so the sum below is the
    // mean of (model response + latency) / demand.
    let mut latency_sum = 0.0f64;
    let mut latency_us_sum = 0u64;
    let mut counted = 0u64;
    let mut remote = 0u64;
    let mut region_charges = vec![0u64; sc.topo.regions()];
    for r in records.records.iter() {
        let region = r.region.unwrap_or_else(|| sc.topo.region_of(r.chosen));
        region_charges[region] += 1;
        if region != r.origin % sc.topo.regions() {
            remote += 1;
        }
        if r.chosen < P && r.demand_us > 0 {
            let lat = sc.topo.latency_us(r.origin, region);
            latency_sum += lat as f64 / r.demand_us as f64;
            latency_us_sum += lat;
            counted += 1;
        }
    }
    let total = records.records.len() as u64;
    let latency_term = if counted == 0 {
        0.0
    } else {
        latency_sum / counted as f64
    };
    RegionScenarioRow {
        scenario: sc.name.to_string(),
        region_policy: region_policy.to_string(),
        spec: spec.render(),
        completed: summary.completed,
        dropped: summary.dropped,
        stretch: summary.stretch,
        model_stretch,
        mean_region_latency_ms: if counted == 0 {
            0.0
        } else {
            latency_us_sum as f64 / counted as f64 / 1e3
        },
        lw_model_stretch: model_stretch + latency_term,
        region_charges,
        remote_fraction: if total == 0 {
            0.0
        } else {
            remote as f64 / total as f64
        },
    }
}

/// Run the full scenario grid: [`SCENARIOS`] × [`REGION_POLICIES`],
/// every cell under the shared seed.
pub fn regions(exp: &ExpConfig) -> RegionsReport {
    let mut rows = Vec::new();
    let mut verdicts = Vec::new();
    for sc in scenarios(exp) {
        let mut by_policy = Vec::new();
        for policy in REGION_POLICIES {
            let row = run_cell(&sc, policy, exp.seed);
            by_policy.push((policy, row.lw_model_stretch));
            rows.push(row);
        }
        let nearest = by_policy[0].1;
        let greedy = by_policy[1].1;
        verdicts.push(ScenarioVerdict {
            scenario: sc.name.to_string(),
            nearest_lw_stretch: nearest,
            greedy_lw_stretch: greedy,
            winner: if greedy < nearest {
                "region-greedy"
            } else {
                "region-nearest"
            }
            .to_string(),
        });
    }
    RegionsReport {
        requests: exp.requests,
        seed: exp.seed,
        p: P,
        masters: MASTERS,
        regions: REGIONS,
        node_capacity: NODE_CAPACITY,
        lambda: LAMBDA,
        rows,
        verdicts,
    }
}

impl RegionsReport {
    /// Serialise as pretty-printed JSON (byte-deterministic for a fixed
    /// configuration; ends with a newline).
    pub fn to_json(&self) -> String {
        serde::to_json_string_pretty(self) + "\n"
    }

    /// Render the human-readable scenario table the CLI prints.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== REGIONS: multi-region scenario grid ==\n\
             UCB x {} requests at λ={}/s, p={}, m={}, {} regions \
             (node capacity {}), seed {}\n",
            self.requests,
            self.lambda,
            self.p,
            self.masters,
            self.regions,
            self.node_capacity,
            self.seed,
        );
        let mut t = Table::new(vec![
            "scenario",
            "region policy",
            "lw stretch",
            "model stretch",
            "net ms",
            "remote%",
            "drops",
            "charges by region",
        ]);
        for row in &self.rows {
            t.row(vec![
                row.scenario.clone(),
                row.region_policy.clone(),
                f(row.lw_model_stretch, 4),
                f(row.model_stretch, 4),
                f(row.mean_region_latency_ms, 2),
                f(row.remote_fraction * 100.0, 1),
                row.dropped.to_string(),
                row.region_charges
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join("/"),
            ]);
        }
        out.push_str(&t.render());
        for v in &self.verdicts {
            let _ = writeln!(
                out,
                "{}: nearest {:.4} vs greedy {:.4} -> {}",
                v.scenario, v.nearest_lw_stretch, v.greedy_lw_stretch, v.winner
            );
        }
        out
    }
}

/// The `--test` gate: every scenario must run both selectors to
/// completion, and the greedy selector must beat `region-nearest` on
/// latency-weighted model stretch in the flash-crowd scenario (the
/// acceptance headline).
pub fn regions_check(report: &RegionsReport) -> Result<(), String> {
    if report.rows.is_empty() {
        return Err("empty regions report".to_string());
    }
    for scenario in SCENARIOS {
        for policy in REGION_POLICIES {
            let row = report
                .rows
                .iter()
                .find(|r| r.scenario == scenario && r.region_policy == policy)
                .ok_or_else(|| format!("missing cell {scenario}/{policy}"))?;
            if row.completed == 0 {
                return Err(format!("{scenario}/{policy}: zero completions"));
            }
            if !row.lw_model_stretch.is_finite() {
                return Err(format!("{scenario}/{policy}: non-finite headline metric"));
            }
        }
    }
    let flash = report
        .verdicts
        .iter()
        .find(|v| v.scenario == "flash-crowd")
        .ok_or_else(|| "missing flash-crowd verdict".to_string())?;
    if flash.greedy_lw_stretch >= flash.nearest_lw_stretch {
        return Err(format!(
            "flash-crowd: region-greedy ({:.4}) does not beat region-nearest ({:.4}) \
             on latency-weighted model stretch",
            flash.greedy_lw_stretch, flash.nearest_lw_stretch
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExpConfig {
        ExpConfig {
            requests: 2_000,
            live_requests: 0,
            seed: 42,
            jobs: 1,
        }
    }

    #[test]
    fn scenario_grid_is_complete_and_deterministic() {
        let report = regions(&quick());
        assert_eq!(report.rows.len(), SCENARIOS.len() * REGION_POLICIES.len());
        regions_check(&report).unwrap();
        let again = regions(&quick());
        assert_eq!(report.to_json(), again.to_json());
    }

    #[test]
    fn outage_cells_keep_region_zero_dark_while_down() {
        let report = regions(&quick());
        for row in report.rows.iter().filter(|r| r.scenario == "outage") {
            // Region 0 was dead for ~a third of the run: it must be
            // charged visibly less than the survivors.
            assert!(
                (row.region_charges[0] as f64) < 0.8 * row.region_charges[1] as f64,
                "{}: charges {:?}",
                row.region_policy,
                row.region_charges
            );
            assert!(row.completed > 0);
        }
    }

    #[test]
    fn flash_crowd_spills_more_under_greedy() {
        // At 2,000 requests the two selectors' spill fractions differ by
        // a few dozen requests, the same order as one seed's placement
        // noise (a single seed flips either way), so compare the mean
        // over eight seeds.
        let seeds = 42u64..50;
        let spill = |policy: &str| {
            let total: f64 = seeds
                .clone()
                .map(|seed| {
                    let exp = ExpConfig { seed, ..quick() };
                    let flash = scenarios(&exp)
                        .into_iter()
                        .find(|sc| sc.name == "flash-crowd")
                        .unwrap();
                    run_cell(&flash, policy, seed).remote_fraction
                })
                .sum();
            total / seeds.clone().count() as f64
        };
        // The headroom term moves traffic off the hot region before the
        // hard guard does.
        let (greedy, nearest) = (spill("region-greedy"), spill("region-nearest"));
        assert!(
            greedy >= nearest,
            "mean spill: greedy {greedy} vs nearest {nearest}"
        );
    }
}
