//! String-keyed registry of pipeline stages.
//!
//! Every scheduler is built here: look up five stage names, get a boxed
//! [`DynScheduler`]. [`SchedulerRegistry::builtin`] pre-registers every
//! stage the paper's policies are built from, and
//! [`StageSpec::for_policy`] names each policy's stages. The CLI and
//! examples compose *custom* specs — including user-registered stages —
//! the same way, without editing this crate.

use super::region::{GreedyRegion, NearestRegion, RegionSelector};
use super::stages::{
    AttainedAdmission, CpuOnlyCharge, EntryOnly, GittinsScorer, LasScorer, LeastConnectionsEntry,
    LeastConnectionsScorer, LevelCandidates, MinRsrcScorer, NoAdmission, PinnedCandidates,
    PowerOfKScorer, RandomScorer, ReservationAdmission, RotationEntry, SerptScorer,
    SplitDemandCharge,
};
use super::{
    Admission, CandidateSet, ChargeBack, DynScheduler, EntrySelector, Scheduler, Scorer, Stages,
};
use crate::config::{ClusterConfig, ConfigError, PolicyKind};
use std::collections::BTreeMap;

type RegionFactory = Box<dyn Fn(&ClusterConfig) -> Box<dyn RegionSelector>>;
type EntryFactory = Box<dyn Fn(&ClusterConfig) -> Box<dyn EntrySelector>>;
type AdmissionFactory = Box<dyn Fn(&ClusterConfig) -> Box<dyn Admission>>;
type CandidateFactory = Box<dyn Fn(&ClusterConfig) -> Box<dyn CandidateSet>>;
type ScorerFactory = Box<dyn Fn(&ClusterConfig) -> Box<dyn Scorer>>;
type ScorerFamilyFactory = Box<dyn Fn(&ClusterConfig, &str) -> Result<Box<dyn Scorer>, String>>;
type ChargeFactory = Box<dyn Fn(&ClusterConfig) -> Box<dyn ChargeBack>>;

/// Names of the stages a composition is assembled from.
///
/// Parse one from `"entry/admission/candidates/scorer/charge"` with
/// [`StageSpec::parse`], e.g.
/// `"least-connections/none/level-split/min-rsrc/split-demand"`.
/// Multi-region compositions prepend an optional sixth leading part,
/// `"region/entry/admission/candidates/scorer/charge"`, naming the
/// region-selector stage that runs before entry selection (e.g.
/// `"region-greedy/rotation/none/level-split/rsrc-indexed/split-demand"`);
/// it composes only over a configuration carrying a
/// [`crate::RegionTopology`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSpec {
    /// Region-selector stage name, when the composition has a
    /// multi-region front tier. `None` renders back to the plain
    /// five-part form.
    pub region: Option<String>,
    /// Entry-selector stage name.
    pub entry: String,
    /// Admission stage name.
    pub admission: String,
    /// Candidate-set stage name.
    pub candidates: String,
    /// Scorer stage name.
    pub scorer: String,
    /// Charge-back stage name.
    pub charge: String,
}

impl StageSpec {
    /// Parse a `/`-separated stage spec: five parts, or six with a
    /// leading region-selector name.
    pub fn parse(spec: &str) -> Result<Self, ComposeError> {
        let parts: Vec<&str> = spec.split('/').map(str::trim).collect();
        let (region, rest): (Option<&str>, &[&str]) = match parts.as_slice() {
            [region, rest @ ..] if rest.len() == 5 => (Some(region), rest),
            rest if rest.len() == 5 => (None, rest),
            _ => return Err(ComposeError::BadSpec(spec.to_string())),
        };
        let [entry, admission, candidates, scorer, charge] = rest else {
            unreachable!("rest.len() == 5 checked above");
        };
        Ok(StageSpec {
            region: region.map(str::to_string),
            entry: entry.to_string(),
            admission: admission.to_string(),
            candidates: candidates.to_string(),
            scorer: scorer.to_string(),
            charge: charge.to_string(),
        })
    }

    /// The stages of a built-in [`PolicyKind`] — the one table mapping
    /// each paper variant to its composition. Compose it over a
    /// configuration whose `policy` is the same variant: the policy
    /// also drives RSRC sampling and redirect accounting. The simulator
    /// and the live emulation build every built-in policy from it, and
    /// the replay analyzer swaps one part to express "same policy,
    /// different stage" counterfactuals.
    pub fn for_policy(policy: PolicyKind) -> StageSpec {
        let (entry, admission, candidates, scorer, charge) = match policy {
            PolicyKind::Flat => (
                "rotation",
                "none",
                "entry-only",
                "rsrc-indexed",
                "split-demand",
            ),
            PolicyKind::MsPrime => (
                "rotation",
                "none",
                "pinned-slaves",
                "rsrc-indexed",
                "split-demand",
            ),
            PolicyKind::MsAllMasters => (
                "rotation",
                "reservation",
                "level-split",
                "rsrc-indexed-reserve",
                "split-demand",
            ),
            PolicyKind::Switch => (
                "least-connections",
                "none",
                "entry-only",
                "rsrc-indexed",
                "cpu-only",
            ),
            PolicyKind::MsNoReservation => (
                "rotation-masters",
                "reservation-observe",
                "level-split",
                "rsrc-indexed",
                "split-demand",
            ),
            PolicyKind::MasterSlave | PolicyKind::MsNoSampling | PolicyKind::Redirect => (
                "rotation-masters",
                "reservation",
                "level-split",
                "rsrc-indexed-reserve",
                "split-demand",
            ),
        };
        StageSpec {
            region: None,
            entry: entry.to_string(),
            admission: admission.to_string(),
            candidates: candidates.to_string(),
            scorer: scorer.to_string(),
            charge: charge.to_string(),
        }
    }

    /// Attach a region-selector stage (builder style).
    pub fn with_region(mut self, region: impl Into<String>) -> Self {
        self.region = Some(region.into());
        self
    }

    /// Render back to the `/`-separated form accepted by
    /// [`StageSpec::parse`].
    pub fn render(&self) -> String {
        let core = format!(
            "{}/{}/{}/{}/{}",
            self.entry, self.admission, self.candidates, self.scorer, self.charge
        );
        match &self.region {
            Some(region) => format!("{region}/{core}"),
            None => core,
        }
    }
}

/// Why a composition could not be built.
#[derive(Debug)]
pub enum ComposeError {
    /// A stage spec string did not have five `/`-separated parts (six
    /// with the optional leading region part).
    BadSpec(String),
    /// A stage name is not registered; lists what is.
    UnknownStage {
        /// Which of the five stage kinds was being looked up.
        kind: &'static str,
        /// The name that failed to resolve.
        name: String,
        /// The registered names for that kind.
        available: Vec<String>,
    },
    /// A parameterised stage (`family:arg`) rejected its argument.
    BadStageArg {
        /// Which of the five stage kinds was being looked up.
        kind: &'static str,
        /// The full `family:arg` name.
        name: String,
        /// Why the family rejected the argument.
        reason: String,
    },
    /// The cluster configuration itself is invalid.
    Invalid(ConfigError),
}

impl std::fmt::Display for ComposeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ComposeError::BadSpec(s) => write!(
                f,
                "bad stage spec {s:?}: expected \
                 [region/]entry/admission/candidates/scorer/charge"
            ),
            ComposeError::UnknownStage {
                kind,
                name,
                available,
            } => write!(
                f,
                "unknown {kind} stage {name:?}; registered: {}",
                available.join(", ")
            ),
            ComposeError::BadStageArg { kind, name, reason } => {
                write!(f, "bad {kind} stage {name:?}: {reason}")
            }
            ComposeError::Invalid(e) => write!(f, "invalid configuration: {e}"),
        }
    }
}

impl std::error::Error for ComposeError {}

impl From<ConfigError> for ComposeError {
    fn from(e: ConfigError) -> Self {
        ComposeError::Invalid(e)
    }
}

/// String-keyed stage factories; see the [module docs](self).
pub struct SchedulerRegistry {
    regions: BTreeMap<String, RegionFactory>,
    entries: BTreeMap<String, EntryFactory>,
    admissions: BTreeMap<String, AdmissionFactory>,
    candidates: BTreeMap<String, CandidateFactory>,
    scorers: BTreeMap<String, ScorerFactory>,
    scorer_families: BTreeMap<String, ScorerFamilyFactory>,
    charges: BTreeMap<String, ChargeFactory>,
}

impl Default for SchedulerRegistry {
    fn default() -> Self {
        Self::builtin()
    }
}

impl DynScheduler {
    /// The built-in scheduler of `config.policy()`
    /// ([`StageSpec::for_policy`]), its reservation controller seeded
    /// with the workload priors `a0`/`r0` — what the simulator and the
    /// live emulator run when the caller names no scheduler. Panics on
    /// an invalid configuration.
    pub fn for_policy(config: &ClusterConfig, a0: f64, r0: f64) -> Self {
        SchedulerRegistry::builtin()
            .compose(config, &StageSpec::for_policy(config.policy()), a0, r0)
            .expect("invalid cluster configuration")
    }
}

impl SchedulerRegistry {
    /// An empty registry with no stages registered.
    pub fn empty() -> Self {
        SchedulerRegistry {
            regions: BTreeMap::new(),
            entries: BTreeMap::new(),
            admissions: BTreeMap::new(),
            candidates: BTreeMap::new(),
            scorers: BTreeMap::new(),
            scorer_families: BTreeMap::new(),
            charges: BTreeMap::new(),
        }
    }

    /// A registry pre-loaded with every built-in stage:
    ///
    /// | kind | names |
    /// |---|---|
    /// | region | `region-nearest`, `region-greedy` |
    /// | entry | `rotation`, `rotation-masters`, `least-connections` |
    /// | admission | `reservation`, `reservation-observe`, `attained`, `none` |
    /// | candidates | `level-split`, `pinned-slaves`, `entry-only` |
    /// | scorer | `min-rsrc`, `min-rsrc-reserve`, `rsrc-indexed`, `rsrc-indexed-reserve`, `rsrc-p2:<k>`, `least-connections`, `random`, `gittins`, `serpt`, `las` |
    /// | charge | `split-demand`, `cpu-only` |
    ///
    /// Parameterised stages read their parameters (DNS skew, master
    /// reserve, pin set) from the `ClusterConfig` they are built for.
    ///
    /// Scorer notes: `min-rsrc`/`min-rsrc-reserve` are the reference
    /// dense scans; `rsrc-indexed`/`rsrc-indexed-reserve` produce
    /// byte-identical placements through the O(log p) decision index
    /// ([`super::index`]); `rsrc-p2:<k>` is the approximate
    /// power-of-k-choices rule (`k ≥ 1` uniform samples per decision),
    /// registered as a *family* — the part after `:` is parsed as the
    /// sample count. `gittins`/`serpt`/`las` rank by attained service
    /// (see [`super::knowledge`]) and stay meaningful when demand
    /// declarations are hidden or noisy; `attained` admission is their
    /// size-oblivious master-protection counterpart.
    pub fn builtin() -> Self {
        let mut r = Self::empty();
        r.register_region("region-nearest", |_| Box::new(NearestRegion));
        r.register_region("region-greedy", |_| Box::new(GreedyRegion));
        r.register_entry("rotation", |c| {
            Box::new(RotationEntry::over_all(c.dns_skew()))
        });
        r.register_entry("rotation-masters", |c| {
            Box::new(RotationEntry::over_masters(c.dns_skew()))
        });
        r.register_entry("least-connections", |_| Box::new(LeastConnectionsEntry));
        r.register_admission("reservation", |_| {
            Box::new(ReservationAdmission { enforce: true })
        });
        r.register_admission("reservation-observe", |_| {
            Box::new(ReservationAdmission { enforce: false })
        });
        r.register_admission("attained", |_| Box::new(AttainedAdmission));
        r.register_admission("none", |_| Box::new(NoAdmission));
        r.register_candidates("level-split", |_| Box::new(LevelCandidates));
        r.register_candidates("pinned-slaves", |c| Box::new(PinnedCandidates::slaves(c)));
        r.register_candidates("entry-only", |_| Box::new(EntryOnly));
        r.register_scorer("min-rsrc", |_| Box::new(MinRsrcScorer::dense(0.0)));
        r.register_scorer("min-rsrc-reserve", |c| {
            Box::new(MinRsrcScorer::dense(c.master_reserve()))
        });
        r.register_scorer("rsrc-indexed", |_| Box::new(MinRsrcScorer::indexed(0.0)));
        r.register_scorer("rsrc-indexed-reserve", |c| {
            Box::new(MinRsrcScorer::indexed(c.master_reserve()))
        });
        r.register_scorer_family("rsrc-p2", |c, arg| {
            let k: usize = arg
                .parse()
                .map_err(|_| format!("sample count {arg:?} is not an integer"))?;
            if k == 0 {
                return Err("sample count must be at least 1".to_string());
            }
            Ok(Box::new(PowerOfKScorer::new(k, c.master_reserve())))
        });
        r.register_scorer("least-connections", |_| Box::new(LeastConnectionsScorer));
        r.register_scorer("random", |_| Box::new(RandomScorer));
        r.register_scorer("gittins", |_| Box::new(GittinsScorer));
        r.register_scorer("serpt", |_| Box::new(SerptScorer));
        r.register_scorer("las", |_| Box::new(LasScorer));
        r.register_charge("split-demand", |_| Box::new(SplitDemandCharge));
        r.register_charge("cpu-only", |_| Box::new(CpuOnlyCharge));
        r
    }

    /// Register (or replace) a region-selector factory under `name`.
    /// Region stages only compose over configurations that carry a
    /// region topology ([`ClusterConfig::with_regions`]).
    pub fn register_region(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(&ClusterConfig) -> Box<dyn RegionSelector> + 'static,
    ) {
        self.regions.insert(name.into(), Box::new(f));
    }

    /// Register (or replace) an entry-selector factory under `name`.
    pub fn register_entry(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(&ClusterConfig) -> Box<dyn EntrySelector> + 'static,
    ) {
        self.entries.insert(name.into(), Box::new(f));
    }

    /// Register (or replace) an admission factory under `name`.
    pub fn register_admission(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(&ClusterConfig) -> Box<dyn Admission> + 'static,
    ) {
        self.admissions.insert(name.into(), Box::new(f));
    }

    /// Register (or replace) a candidate-set factory under `name`.
    pub fn register_candidates(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(&ClusterConfig) -> Box<dyn CandidateSet> + 'static,
    ) {
        self.candidates.insert(name.into(), Box::new(f));
    }

    /// Register (or replace) a scorer factory under `name`.
    pub fn register_scorer(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(&ClusterConfig) -> Box<dyn Scorer> + 'static,
    ) {
        self.scorers.insert(name.into(), Box::new(f));
    }

    /// Register (or replace) a *parameterised* scorer family under
    /// `family`. A spec scorer named `family:arg` resolves through `f`
    /// with the text after the first `:` as `arg`; `f` returns a
    /// human-readable reason when the argument is invalid. Exact scorer
    /// names registered via [`SchedulerRegistry::register_scorer`] win
    /// over family matches.
    pub fn register_scorer_family(
        &mut self,
        family: impl Into<String>,
        f: impl Fn(&ClusterConfig, &str) -> Result<Box<dyn Scorer>, String> + 'static,
    ) {
        self.scorer_families.insert(family.into(), Box::new(f));
    }

    /// Registered entry-selector names, sorted (the registry is
    /// `BTreeMap`-keyed, so enumeration order is deterministic). The
    /// accessors exist so grid searches — `bench::pareto`'s
    /// `StageGrid` — can enumerate the composable stage space without
    /// this crate hard-coding it twice.
    pub fn entry_names(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    /// Registered region-selector names, sorted.
    pub fn region_names(&self) -> Vec<String> {
        self.regions.keys().cloned().collect()
    }

    /// Registered admission names, sorted.
    pub fn admission_names(&self) -> Vec<String> {
        self.admissions.keys().cloned().collect()
    }

    /// Registered candidate-set names, sorted.
    pub fn candidate_names(&self) -> Vec<String> {
        self.candidates.keys().cloned().collect()
    }

    /// Registered exact scorer names, sorted. Parameterised families
    /// are listed separately by
    /// [`SchedulerRegistry::scorer_family_names`] — an instance such as
    /// `rsrc-p2:2` only exists once an argument is chosen.
    pub fn scorer_names(&self) -> Vec<String> {
        self.scorers.keys().cloned().collect()
    }

    /// Registered scorer *family* names, sorted (resolve as
    /// `family:arg`).
    pub fn scorer_family_names(&self) -> Vec<String> {
        self.scorer_families.keys().cloned().collect()
    }

    /// Registered charge-back names, sorted.
    pub fn charge_names(&self) -> Vec<String> {
        self.charges.keys().cloned().collect()
    }

    /// Register (or replace) a charge-back factory under `name`.
    pub fn register_charge(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(&ClusterConfig) -> Box<dyn ChargeBack> + 'static,
    ) {
        self.charges.insert(name.into(), Box::new(f));
    }

    /// Build a boxed scheduler for `config` from the named stages.
    /// `a0`/`r0` seed the reservation controller as in
    /// [`Scheduler::compose`].
    pub fn compose(
        &self,
        config: &ClusterConfig,
        spec: &StageSpec,
        a0: f64,
        r0: f64,
    ) -> Result<DynScheduler, ComposeError> {
        type Factory<T> = Box<dyn Fn(&ClusterConfig) -> Box<T>>;
        fn get<'a, T: ?Sized>(
            map: &'a BTreeMap<String, Factory<T>>,
            kind: &'static str,
            name: &str,
        ) -> Result<&'a Factory<T>, ComposeError> {
            map.get(name).ok_or_else(|| ComposeError::UnknownStage {
                kind,
                name: name.to_string(),
                available: map.keys().cloned().collect(),
            })
        }
        let stages = Stages {
            entry: get(&self.entries, "entry", &spec.entry)?(config),
            admission: get(&self.admissions, "admission", &spec.admission)?(config),
            candidates: get(&self.candidates, "candidates", &spec.candidates)?(config),
            scorer: self.resolve_scorer(config, &spec.scorer)?,
            charge: get(&self.charges, "charge", &spec.charge)?(config),
        };
        let mut scheduler = Scheduler::compose(config, stages, a0, r0)?;
        if let Some(region) = &spec.region {
            let factory = get(&self.regions, "region", region)?;
            let topo = config
                .regions()
                .ok_or_else(|| ComposeError::BadStageArg {
                    kind: "region",
                    name: region.clone(),
                    reason: "configuration has no region topology \
                             (ClusterConfig::with_regions)"
                        .to_string(),
                })?
                .clone();
            scheduler.set_region_stage(topo, factory(config));
        }
        Ok(scheduler)
    }

    /// Resolve a scorer name: exact registrations first, then
    /// `family:arg` parameterised families.
    fn resolve_scorer(
        &self,
        config: &ClusterConfig,
        name: &str,
    ) -> Result<Box<dyn Scorer>, ComposeError> {
        if let Some(f) = self.scorers.get(name) {
            return Ok(f(config));
        }
        if let Some((family, arg)) = name.split_once(':') {
            if let Some(f) = self.scorer_families.get(family) {
                return f(config, arg).map_err(|reason| ComposeError::BadStageArg {
                    kind: "scorer",
                    name: name.to_string(),
                    reason,
                });
            }
        }
        Err(ComposeError::UnknownStage {
            kind: "scorer",
            name: name.to_string(),
            available: self
                .scorers
                .keys()
                .cloned()
                .chain(self.scorer_families.keys().map(|f| format!("{f}:<arg>")))
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::Schedule;

    fn cfg() -> ClusterConfig {
        ClusterConfig::simulation(8, PolicyKind::MasterSlave).with_masters(2)
    }

    #[test]
    fn spec_parse_render_is_a_fixed_point() {
        for slug in [
            "rotation/none/entry-only/rsrc-indexed/split-demand",
            "least-connections/reservation/level-split/rsrc-p2:2/cpu-only",
            "rotation-masters/attained/pinned-slaves/las/split-demand",
            "region-greedy/rotation/none/level-split/rsrc-indexed/split-demand",
            "region-nearest/least-connections/none/entry-only/rsrc-indexed/cpu-only",
        ] {
            let spec = StageSpec::parse(slug).unwrap();
            assert_eq!(spec.render(), slug);
            assert_eq!(StageSpec::parse(&spec.render()).unwrap(), spec);
        }
    }

    #[test]
    fn builtin_policy_specs_round_trip() {
        for policy in PolicyKind::ALL {
            let spec = StageSpec::for_policy(policy);
            assert_eq!(
                StageSpec::parse(&spec.render()).unwrap(),
                spec,
                "{policy:?}"
            );
        }
    }

    #[test]
    fn malformed_specs_are_typed_errors_not_panics() {
        for bad in [
            "",
            "a/b/c/d",
            "a/b/c/d/e/f/g",
            "rotation/none/entry-only/min-rsrc",
        ] {
            match StageSpec::parse(bad) {
                Err(ComposeError::BadSpec(s)) => assert_eq!(s, bad),
                other => panic!("{bad:?}: expected BadSpec, got {other:?}"),
            }
        }
        // Trailing-empty part still has five segments and parses; the
        // empty *name* then fails stage lookup, not spec splitting. A
        // six-part spec parses with the first part as the region stage.
        let spec = StageSpec::parse("rotation/none/entry-only/min-rsrc/").unwrap();
        assert_eq!(spec.charge, "");
        let spec = StageSpec::parse("a/b/c/d/e/f").unwrap();
        assert_eq!(spec.region.as_deref(), Some("a"));
        assert_eq!(spec.entry, "b");
    }

    #[test]
    fn unknown_stage_errors_name_the_kind_and_list_alternatives() {
        let reg = SchedulerRegistry::builtin();
        let cases = [
            ("nope/none/entry-only/min-rsrc/split-demand", "entry"),
            (
                "rotation/nope/entry-only/min-rsrc/split-demand",
                "admission",
            ),
            ("rotation/none/nope/min-rsrc/split-demand", "candidates"),
            ("rotation/none/entry-only/nope/split-demand", "scorer"),
            ("rotation/none/entry-only/min-rsrc/nope", "charge"),
            (
                "nope/rotation/none/entry-only/min-rsrc/split-demand",
                "region",
            ),
        ];
        for (slug, expect_kind) in cases {
            let spec = StageSpec::parse(slug).unwrap();
            match reg.compose(&cfg(), &spec, 0.4, 0.025) {
                Err(ComposeError::UnknownStage {
                    kind,
                    name,
                    available,
                }) => {
                    assert_eq!(kind, expect_kind, "{slug}");
                    assert_eq!(name, "nope");
                    assert!(!available.is_empty(), "{slug}: empty alternatives");
                }
                Err(other) => panic!("{slug}: expected UnknownStage, got {other:?}"),
                Ok(_) => panic!("{slug}: unexpectedly composed"),
            }
        }
    }

    #[test]
    fn bad_family_arguments_are_typed_errors() {
        let reg = SchedulerRegistry::builtin();
        for scorer in ["rsrc-p2:0", "rsrc-p2:x", "rsrc-p2:"] {
            let slug = format!("rotation/none/entry-only/{scorer}/split-demand");
            let spec = StageSpec::parse(&slug).unwrap();
            match reg.compose(&cfg(), &spec, 0.4, 0.025) {
                Err(ComposeError::BadStageArg { kind, name, reason }) => {
                    assert_eq!(kind, "scorer");
                    assert_eq!(name, scorer);
                    assert!(!reason.is_empty());
                }
                Err(other) => panic!("{scorer}: expected BadStageArg, got {other:?}"),
                Ok(_) => panic!("{scorer}: unexpectedly composed"),
            }
        }
    }

    #[test]
    fn region_specs_compose_only_over_region_topologies() {
        use crate::RegionTopology;
        let reg = SchedulerRegistry::builtin();
        let spec =
            StageSpec::parse("region-nearest/rotation/none/level-split/rsrc-indexed/split-demand")
                .unwrap();
        // Without a topology the spec is a typed error, not a panic.
        match reg.compose(&cfg(), &spec, 0.4, 0.025) {
            Err(ComposeError::BadStageArg { kind, name, reason }) => {
                assert_eq!(kind, "region");
                assert_eq!(name, "region-nearest");
                assert!(reason.contains("region topology"), "{reason}");
            }
            Err(other) => panic!("expected BadStageArg, got {other:?}"),
            Ok(_) => panic!("composed without a region topology"),
        }
        // With one, both built-in selectors compose and the scheduler
        // reports the installed topology.
        let cfg = cfg().with_regions(RegionTopology::even(8, 2, 2));
        for region in reg.region_names() {
            let spec = spec.clone().with_region(region.clone());
            let sched = reg
                .compose(&cfg, &spec, 0.4, 0.025)
                .unwrap_or_else(|e| panic!("{region}: {e}"));
            let topo = sched.region_topology().expect("topology installed");
            assert_eq!(topo.regions(), 2);
        }
    }

    /// A composition keeps attained-service books exactly when one of
    /// its stages reads them: the `attained` admission or a `gittins`,
    /// `serpt` or `las` scorer. Every built-in policy spec and every
    /// admission × scorer pairing is checked.
    #[test]
    fn attained_books_are_kept_exactly_when_a_stage_reads_them() {
        const READERS: [&str; 4] = ["attained", "gittins", "serpt", "las"];
        let reg = SchedulerRegistry::builtin();
        let mut specs: Vec<StageSpec> = PolicyKind::ALL.map(StageSpec::for_policy).to_vec();
        let mut scorers = reg.scorer_names();
        scorers.push("rsrc-p2:2".to_string());
        for admission in reg.admission_names() {
            for scorer in &scorers {
                let slug =
                    format!("rotation-masters/{admission}/level-split/{scorer}/split-demand");
                specs.push(StageSpec::parse(&slug).unwrap());
            }
        }
        let mut readers = 0;
        for spec in &specs {
            let sched = reg.compose(&cfg(), spec, 0.4, 0.025).unwrap();
            let reads = [&spec.admission, &spec.scorer]
                .iter()
                .any(|name| READERS.contains(&name.as_str()));
            readers += usize::from(reads);
            assert_eq!(
                Schedule::attained(&sched).is_some(),
                reads,
                "{}",
                spec.render()
            );
        }
        assert!(readers > 0 && readers < specs.len());
    }

    #[test]
    fn name_accessors_match_the_builtin_table() {
        let reg = SchedulerRegistry::builtin();
        assert_eq!(reg.region_names(), ["region-greedy", "region-nearest"]);
        assert_eq!(
            reg.entry_names(),
            ["least-connections", "rotation", "rotation-masters"]
        );
        assert_eq!(
            reg.admission_names(),
            ["attained", "none", "reservation", "reservation-observe"]
        );
        assert_eq!(
            reg.candidate_names(),
            ["entry-only", "level-split", "pinned-slaves"]
        );
        assert_eq!(reg.scorer_family_names(), ["rsrc-p2"]);
        assert_eq!(reg.charge_names(), ["cpu-only", "split-demand"]);
        // Every enumerable (entry, admission, candidates, scorer,
        // charge) combination composes: the accessors and the factory
        // maps cannot drift apart.
        let cfg = cfg();
        for entry in reg.entry_names() {
            for admission in reg.admission_names() {
                for candidates in reg.candidate_names() {
                    for scorer in reg.scorer_names() {
                        for charge in reg.charge_names() {
                            let spec = StageSpec {
                                region: None,
                                entry: entry.clone(),
                                admission: admission.clone(),
                                candidates: candidates.clone(),
                                scorer: scorer.clone(),
                                charge: charge.clone(),
                            };
                            reg.compose(&cfg, &spec, 0.4, 0.025).unwrap_or_else(|e| {
                                panic!("{} does not compose: {e}", spec.render())
                            });
                        }
                    }
                }
            }
        }
    }
}
