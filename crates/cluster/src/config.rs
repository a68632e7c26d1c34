//! Cluster configuration: topology, policy selection, and the paper's
//! Table 2 parameter grid.

use std::fmt;
use std::sync::Arc;

use msweb_ossim::{DemandSpec, Node, OsParams, OsParamsError};
use msweb_simcore::SimDuration;
use msweb_workload::Request;
use serde::Serialize;

use crate::cache::CacheConfig;
use crate::sched::region::RegionTopology;

/// Why a [`ClusterConfig`] was rejected by [`ClusterConfig::validate`].
///
/// Every variant carries the offending value(s) so callers can branch on
/// the failure instead of parsing an error string.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `p == 0`: a cluster needs at least one node.
    NoNodes,
    /// The per-node OS parameter block is inconsistent (the reason
    /// [`OsParams::validate`] gave).
    Os(OsParamsError),
    /// `master_reserve` outside `[0, 1)`.
    MasterReserveOutOfRange(f64),
    /// `speeds` present but its length disagrees with `p`.
    SpeedCountMismatch {
        /// Number of speed factors supplied.
        got: usize,
        /// Cluster size they must match.
        p: usize,
    },
    /// A speed factor is non-positive or non-finite.
    NonPositiveSpeed(f64),
    /// `dns_skew` outside `[0, 1)`.
    DnsSkewOutOfRange(f64),
    /// A zero load-monitor period: the stale load view would never
    /// refresh.
    ZeroMonitorPeriod,
    /// Resolved master count is zero or exceeds the cluster size.
    BadMasterCount {
        /// Resolved master count.
        m: usize,
        /// Cluster size.
        p: usize,
    },
    /// Every node would be a master under an M/S policy that needs at
    /// least one slave (use [`PolicyKind::MsAllMasters`] for that).
    NoSlave,
    /// The region topology is inconsistent with the cluster shape
    /// (message from [`RegionTopology::validate`]).
    Region(String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoNodes => write!(f, "cluster needs at least one node"),
            ConfigError::Os(e) => write!(f, "invalid OS parameters: {e}"),
            ConfigError::MasterReserveOutOfRange(v) => {
                write!(f, "master_reserve {v} not in [0,1)")
            }
            ConfigError::SpeedCountMismatch { got, p } => {
                write!(f, "{got} speed factors for {p} nodes")
            }
            ConfigError::NonPositiveSpeed(v) => {
                write!(f, "node speeds must be positive and finite, got {v}")
            }
            ConfigError::DnsSkewOutOfRange(v) => write!(f, "dns_skew {v} not in [0,1)"),
            ConfigError::ZeroMonitorPeriod => write!(f, "monitor period must be positive"),
            ConfigError::BadMasterCount { m, p } => {
                write!(f, "bad master count {m} for p={p}")
            }
            ConfigError::NoSlave => {
                write!(f, "M/S needs at least one slave (use MsAllMasters)")
            }
            ConfigError::Region(msg) => write!(f, "invalid region topology: {msg}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Which scheduling policy drives the cluster (Section 5.2's contenders).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum PolicyKind {
    /// Flat architecture: every request to a uniformly random node, CGI
    /// executed where it lands.
    Flat,
    /// The paper's full optimisation: master/slave separation + RSRC cost
    /// prediction + reservation-based admission of dynamic work on
    /// masters.
    MasterSlave,
    /// M/S-ns: no off-line demand sampling; every request is costed with
    /// `w = 0.5`.
    MsNoSampling,
    /// M/S-nr: no reservation; masters always eligible for dynamic work.
    MsNoReservation,
    /// M/S-1: every node is a master (no static/dynamic separation), the
    /// scheduling algorithm otherwise unchanged — "a flat architecture
    /// with remote CGI".
    MsAllMasters,
    /// M/S′: dynamic requests pinned to a fixed set of nodes, static
    /// spread over all nodes.
    MsPrime,
    /// HTTP-redirection baseline (the alternative the paper rejects):
    /// like M/S but every re-scheduled request pays a client round-trip
    /// before re-arriving.
    Redirect,
    /// Load-balancing switch baseline (Cisco LocalDirector / BigIP
    /// style): every request — static or dynamic — goes to the node with
    /// the fewest open connections. §2: switches "use simple load
    /// balancing schemes which may not be sufficient for
    /// resource-intensive dynamic content".
    Switch,
}

impl PolicyKind {
    /// Every policy, in the paper's presentation order.
    pub const ALL: [PolicyKind; 8] = [
        PolicyKind::Flat,
        PolicyKind::MasterSlave,
        PolicyKind::MsNoSampling,
        PolicyKind::MsNoReservation,
        PolicyKind::MsAllMasters,
        PolicyKind::MsPrime,
        PolicyKind::Redirect,
        PolicyKind::Switch,
    ];

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Flat => "Flat",
            PolicyKind::MasterSlave => "M/S",
            PolicyKind::MsNoSampling => "M/S-ns",
            PolicyKind::MsNoReservation => "M/S-nr",
            PolicyKind::MsAllMasters => "M/S-1",
            PolicyKind::MsPrime => "M/S'",
            PolicyKind::Redirect => "Redirect",
            PolicyKind::Switch => "Switch",
        }
    }

    /// The CLI-friendly slug accepted (alongside the figure label) by
    /// [`FromStr`](std::str::FromStr).
    pub fn slug(self) -> &'static str {
        match self {
            PolicyKind::Flat => "flat",
            PolicyKind::MasterSlave => "ms",
            PolicyKind::MsNoSampling => "ms-ns",
            PolicyKind::MsNoReservation => "ms-nr",
            PolicyKind::MsAllMasters => "ms-1",
            PolicyKind::MsPrime => "ms-prime",
            PolicyKind::Redirect => "redirect",
            PolicyKind::Switch => "switch",
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Error returned when a policy name does not parse; lists the
/// accepted names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePolicyError {
    /// The string that failed to parse.
    pub input: String,
}

impl std::fmt::Display for ParsePolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown policy {:?}; accepted:", self.input)?;
        for p in PolicyKind::ALL {
            write!(f, " {} ({})", p.label(), p.slug())?;
        }
        Ok(())
    }
}

impl std::error::Error for ParsePolicyError {}

impl std::str::FromStr for PolicyKind {
    type Err = ParsePolicyError;

    /// Accepts both the paper's figure label (`"M/S-nr"`) and the CLI
    /// slug (`"ms-nr"`); round-trips with [`PolicyKind::label`] and
    /// [`PolicyKind::slug`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PolicyKind::ALL
            .into_iter()
            .find(|p| s == p.label() || s == p.slug())
            .ok_or_else(|| ParsePolicyError {
                input: s.to_string(),
            })
    }
}

/// Full configuration of one simulated cluster run.
///
/// Construct with [`ClusterConfig::simulation`] and refine with the
/// fluent `with_*` methods:
///
/// ```
/// use msweb_cluster::{ClusterConfig, PolicyKind};
/// use msweb_simcore::SimDuration;
///
/// let cfg = ClusterConfig::simulation(32, PolicyKind::MasterSlave)
///     .with_masters(6)
///     .with_monitor_period(SimDuration::from_millis(250))
///     .with_seed(7);
/// assert!(cfg.validate().is_ok());
/// ```
///
/// Fields are private: construction goes through the builder methods
/// (robust against future field additions, reads as one expression) and
/// inspection through the same-named accessor methods.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes.
    p: usize,
    /// Master count, clamped to `[1, p]` at resolution (ignored by
    /// Flat); [`plan_masters`] derives one from Theorem 1.
    masters: usize,
    /// Scheduling policy.
    policy: PolicyKind,
    /// Per-node OS parameters.
    os: OsParams,
    /// Load-information update period (the rstat sampling interval).
    monitor_period: SimDuration,
    /// Remote CGI dispatch latency, excluding fork (paper: 1 ms TCP
    /// connection time).
    remote_latency: SimDuration,
    /// Client round-trip penalty for the Redirect baseline (a 1999 WAN
    /// RTT; irrelevant to other policies).
    redirect_rtt: SimDuration,
    /// Fraction of each master's CPU and disk capacity reserved for
    /// static processing (§4's "reserve a certain amount of CPU and I/O
    /// ... on each master node"). Dynamic placement sees masters as this
    /// much busier, so they only absorb CGI overflow once slaves are
    /// loaded past the reserve. Ignored by Flat/M/S-nr/M/S′.
    master_reserve: f64,
    /// Per-node CPU speed factors; `None` = homogeneous. Length must be
    /// `p` when present.
    speeds: Option<Vec<f64>>,
    /// Dynamic-content cache (the Swala extension); `None` disables
    /// caching (the paper's main experiments: "Our work in this paper
    /// does not consider CGI caching").
    cache: Option<CacheConfig>,
    /// DNS client-side caching skew for the front end, in [0, 1): 0 is
    /// ideal uniform rotation; larger values concentrate arrivals on the
    /// nodes whose addresses clients have cached (§2: "DNS round-robin
    /// rotation does not evenly distribute the load among servers, due to
    /// ... DNS entry caching"). Entry node i is drawn with weight
    /// `(1 − skew)^i`.
    dns_skew: f64,
    /// Multi-region topology; `None` (the default) is the classic
    /// single-cluster front tier with no region stage.
    regions: Option<RegionTopology>,
    /// RNG seed for dispatch decisions.
    seed: u64,
}

impl ClusterConfig {
    /// The paper's simulation defaults for a `p`-node cluster under
    /// `policy`.
    pub fn simulation(p: usize, policy: PolicyKind) -> Self {
        ClusterConfig {
            p,
            masters: (p / 5).max(1),
            policy,
            os: OsParams::default(),
            monitor_period: SimDuration::from_millis(500),
            remote_latency: SimDuration::from_millis(1),
            redirect_rtt: SimDuration::from_millis(80),
            master_reserve: 0.5,
            speeds: None,
            cache: None,
            dns_skew: 0.0,
            regions: None,
            seed: 0x5eed,
        }
    }

    /// Use exactly `m` masters (clamped to `[1, p]` at resolution time).
    pub fn with_masters(mut self, m: usize) -> Self {
        self.masters = m;
        self
    }

    /// Set the load-information update period.
    pub fn with_monitor_period(mut self, period: SimDuration) -> Self {
        self.monitor_period = period;
        self
    }

    /// Set the per-node OS parameter block.
    pub fn with_os(mut self, os: OsParams) -> Self {
        self.os = os;
        self
    }

    /// Set the fraction of master capacity reserved for static work.
    pub fn with_master_reserve(mut self, reserve: f64) -> Self {
        self.master_reserve = reserve;
        self
    }

    /// Set per-node CPU speed factors (length must be `p`).
    pub fn with_speeds(mut self, speeds: Vec<f64>) -> Self {
        self.speeds = Some(speeds);
        self
    }

    /// Enable the dynamic-content cache extension.
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Set the DNS client-side caching skew in `[0, 1)`.
    pub fn with_dns_skew(mut self, skew: f64) -> Self {
        self.dns_skew = skew;
        self
    }

    /// Set the remote CGI dispatch latency.
    pub fn with_remote_latency(mut self, latency: SimDuration) -> Self {
        self.remote_latency = latency;
        self
    }

    /// Install a multi-region topology (validated against `p` and the
    /// resolved master count by [`ClusterConfig::validate`]).
    pub fn with_regions(mut self, regions: RegionTopology) -> Self {
        self.regions = Some(regions);
        self
    }

    /// Set the dispatch-decision RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the client round-trip penalty charged by the Redirect
    /// baseline.
    pub fn with_redirect_rtt(mut self, rtt: SimDuration) -> Self {
        self.redirect_rtt = rtt;
        self
    }

    /// Number of nodes.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Scheduling policy.
    pub fn policy(&self) -> PolicyKind {
        self.policy
    }

    /// Per-node OS parameters.
    pub fn os(&self) -> &OsParams {
        &self.os
    }

    /// Load-information update period.
    pub fn monitor_period(&self) -> SimDuration {
        self.monitor_period
    }

    /// Remote CGI dispatch latency.
    pub fn remote_latency(&self) -> SimDuration {
        self.remote_latency
    }

    /// Client round-trip penalty for the Redirect baseline.
    pub fn redirect_rtt(&self) -> SimDuration {
        self.redirect_rtt
    }

    /// Fraction of master capacity reserved for static work.
    pub fn master_reserve(&self) -> f64 {
        self.master_reserve
    }

    /// Per-node CPU speed factors; `None` = homogeneous.
    pub fn speeds(&self) -> Option<&[f64]> {
        self.speeds.as_deref()
    }

    /// The cluster's `p` idle OS-model nodes, with this configuration's
    /// OS parameters and speed factors. Both substrates build their
    /// fleet here: the simulator steps these nodes in one event loop,
    /// the live emulation gives each to its own worker thread.
    pub fn nodes(&self) -> Vec<Node> {
        let os = Arc::new(self.os.clone());
        (0..self.p)
            .map(|i| match self.speeds() {
                Some(s) => Node::with_speed(i, Arc::clone(&os), s[i]),
                None => Node::new(i, Arc::clone(&os)),
            })
            .collect()
    }

    /// The OS-model process a request runs as: its service demand, CPU
    /// fraction and working set in pages, with CGI requests paying the
    /// fork charge. Inlined: the simulator's generic driver calls it on
    /// every delivery from the caller's crate.
    #[inline]
    pub fn demand_spec(&self, req: &Request) -> DemandSpec {
        DemandSpec {
            service: req.demand.service,
            cpu_fraction: req.demand.cpu_fraction,
            memory_pages: self.os.bytes_to_pages(req.demand.memory_bytes),
            is_cgi: req.class.is_dynamic(),
        }
    }

    /// Dynamic-content cache configuration, when enabled.
    pub fn cache(&self) -> Option<&CacheConfig> {
        self.cache.as_ref()
    }

    /// DNS client-side caching skew in `[0, 1)`.
    pub fn dns_skew(&self) -> f64 {
        self.dns_skew
    }

    /// Multi-region topology, when one is installed.
    pub fn regions(&self) -> Option<&RegionTopology> {
        self.regions.as_ref()
    }

    /// Dispatch-decision RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Resolve the number of masters for this configuration.
    pub fn resolve_masters(&self) -> usize {
        match self.policy {
            PolicyKind::Flat | PolicyKind::Switch => 0,
            PolicyKind::MsAllMasters => self.p,
            _ => self.masters.clamp(1, self.p),
        }
    }

    /// Validate topology and parameters.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.p == 0 {
            return Err(ConfigError::NoNodes);
        }
        self.os.validate().map_err(ConfigError::Os)?;
        if !(0.0..1.0).contains(&self.master_reserve) {
            return Err(ConfigError::MasterReserveOutOfRange(self.master_reserve));
        }
        if let Some(speeds) = &self.speeds {
            if speeds.len() != self.p {
                return Err(ConfigError::SpeedCountMismatch {
                    got: speeds.len(),
                    p: self.p,
                });
            }
            if let Some(&bad) = speeds.iter().find(|&&s| !(s.is_finite() && s > 0.0)) {
                return Err(ConfigError::NonPositiveSpeed(bad));
            }
        }
        if !(0.0..1.0).contains(&self.dns_skew) {
            return Err(ConfigError::DnsSkewOutOfRange(self.dns_skew));
        }
        if self.monitor_period.is_zero() {
            return Err(ConfigError::ZeroMonitorPeriod);
        }
        let m = self.resolve_masters();
        match self.policy {
            PolicyKind::Flat | PolicyKind::Switch => {}
            PolicyKind::MsAllMasters => {}
            _ => {
                if m == 0 || m > self.p {
                    return Err(ConfigError::BadMasterCount { m, p: self.p });
                }
                if m == self.p && self.p > 1 {
                    return Err(ConfigError::NoSlave);
                }
            }
        }
        if let Some(regions) = &self.regions {
            regions.validate(self.p, m).map_err(ConfigError::Region)?;
        }
        Ok(())
    }
}

/// Theorem-1 master planning from sampled workload parameters: pick the
/// `m` minimising the analytic M/S stretch, subject to a floor that keeps
/// the static load within the *unreserved* half of the master level
/// (consistent with the runtime's 50 % master capacity reserve — an
/// analytic `m` that saturates masters with static work alone would
/// contradict §4's "static requests can be processed promptly"). Falls
/// back to `p/4` when the workload overloads every configuration (the
/// run will saturate anyway).
pub fn plan_masters(p: usize, lambda: f64, a: f64, r: f64, mu_h: f64) -> usize {
    let Ok(w) = msweb_queueing::Workload::from_ratios(lambda, a, mu_h, r) else {
        return (p / 4).max(1);
    };
    // Static work must stay comfortably inside the reserved half of the
    // master level (utilisation of the reserve <= ~70%), or static
    // promptness — the whole point of the separation — is lost.
    let m_floor = ((w.lambda_h / (0.35 * mu_h)).ceil() as usize).max(1);
    let m = match msweb_queueing::plan(&w, p, msweb_queueing::ThetaRule::Midpoint) {
        Ok(plan) => plan.m,
        Err(_) => (p / 4).max(1),
    };
    m.max(m_floor).min(p.saturating_sub(1).max(1))
}

/// One cell of the paper's Table 2 grid: a trace replayed at a rate with
/// a demand ratio on a cluster size.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GridCell {
    /// Trace name ("UCB" / "KSU" / "ADL").
    pub trace: &'static str,
    /// Cluster size.
    pub p: usize,
    /// Replay arrival rate, requests/second.
    pub lambda: f64,
    /// Demand ratio `1/r`.
    pub inv_r: f64,
}

/// The reconstructed Table 2 grid (see DESIGN.md §4 for the derivation of
/// the λ values from the Figure 5 caption).
///
/// Cells whose offered load exceeds 95 % of the cluster are dropped,
/// matching the paper's "such a setting creates reasonable loads ...
/// otherwise, the load would be too light or too heavy": the heaviest
/// (λ, 1/r) combinations are analytically unstable for the CGI-heavy
/// traces and were never replayed.
pub fn table2_grid() -> Vec<GridCell> {
    let mut cells = Vec::new();
    let rates: [(&'static str, f64, [f64; 2], [f64; 2]); 3] = [
        ("UCB", 11.2, [1000.0, 2000.0], [4000.0, 8000.0]),
        ("KSU", 29.1, [500.0, 1000.0], [2000.0, 4000.0]),
        ("ADL", 44.3, [500.0, 1000.0], [2000.0, 4000.0]),
    ];
    let stable = |cgi_pct: f64, lambda: f64, inv_r: f64, p: usize| -> bool {
        let a = cgi_pct / (100.0 - cgi_pct);
        match msweb_queueing::Workload::from_ratios(lambda, a, 1200.0, 1.0 / inv_r) {
            Ok(w) => w.offered_load() / p as f64 <= 0.95,
            Err(_) => false,
        }
    };
    for &(trace, cgi_pct, small, large) in &rates {
        for &inv_r in &[20.0, 40.0, 80.0, 160.0] {
            for &lambda in &small {
                if stable(cgi_pct, lambda, inv_r, 32) {
                    cells.push(GridCell {
                        trace,
                        p: 32,
                        lambda,
                        inv_r,
                    });
                }
            }
            for &lambda in &large {
                if stable(cgi_pct, lambda, inv_r, 128) {
                    cells.push(GridCell {
                        trace,
                        p: 128,
                        lambda,
                        inv_r,
                    });
                }
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_round_trip() {
        for p in PolicyKind::ALL {
            assert_eq!(
                p.label().parse::<PolicyKind>(),
                Ok(p),
                "label {}",
                p.label()
            );
            assert_eq!(p.slug().parse::<PolicyKind>(), Ok(p), "slug {}", p.slug());
            assert_eq!(format!("{p}"), p.label());
        }
        let err = "no-such-policy".parse::<PolicyKind>().unwrap_err();
        assert!(err.to_string().contains("ms-prime"));
    }

    #[test]
    fn defaults_validate() {
        for policy in [
            PolicyKind::Flat,
            PolicyKind::MasterSlave,
            PolicyKind::MsNoSampling,
            PolicyKind::MsNoReservation,
            PolicyKind::MsAllMasters,
            PolicyKind::MsPrime,
            PolicyKind::Redirect,
        ] {
            let c = ClusterConfig::simulation(32, policy);
            assert!(c.validate().is_ok(), "{policy:?}");
        }
    }

    #[test]
    fn master_resolution() {
        let mut c = ClusterConfig::simulation(32, PolicyKind::MasterSlave).with_masters(6);
        assert_eq!(c.resolve_masters(), 6);
        c.policy = PolicyKind::Flat;
        assert_eq!(c.resolve_masters(), 0);
        c.policy = PolicyKind::MsAllMasters;
        assert_eq!(c.resolve_masters(), 32);
    }

    #[test]
    fn auto_masters_matches_paper_sensitivity_setup() {
        // §5.2.1: r=1/60, a=0.44, λ=750 on 32 nodes -> 6 masters;
        // λ=3000 on 128 nodes -> 25 masters.
        let m32 = plan_masters(32, 750.0, 0.44, 1.0 / 60.0, 1200.0);
        let m128 = plan_masters(128, 3000.0, 0.44, 1.0 / 60.0, 1200.0);
        // Exact integers depend on our (cleaner) root derivation; the
        // paper reports 6 and 25. Accept the immediate neighbourhood and
        // record the exact values in EXPERIMENTS.md.
        assert!((4..=9).contains(&m32), "m32 = {m32}");
        assert!((18..=34).contains(&m128), "m128 = {m128}");
    }

    #[test]
    fn validation_rejects_bad_speeds() {
        let base = ClusterConfig::simulation(4, PolicyKind::MasterSlave);
        assert_eq!(
            base.clone().with_speeds(vec![1.0; 3]).validate(),
            Err(ConfigError::SpeedCountMismatch { got: 3, p: 4 })
        );
        assert_eq!(
            base.clone()
                .with_speeds(vec![1.0, 2.0, 0.0, 1.0])
                .validate(),
            Err(ConfigError::NonPositiveSpeed(0.0))
        );
        assert!(base
            .with_speeds(vec![1.0, 2.0, 1.5, 1.0])
            .validate()
            .is_ok());
    }

    #[test]
    fn validation_rejects_all_masters_for_ms() {
        let c = ClusterConfig::simulation(8, PolicyKind::MasterSlave).with_masters(8);
        assert_eq!(c.validate(), Err(ConfigError::NoSlave));
    }

    #[test]
    fn validation_checks_region_topology() {
        let ok = ClusterConfig::simulation(32, PolicyKind::MasterSlave)
            .with_masters(6)
            .with_regions(RegionTopology::even(32, 6, 3));
        assert!(ok.validate().is_ok());
        // Topology built for a different master count than the config
        // resolves: the ranges no longer partition [0, m).
        let bad = ClusterConfig::simulation(32, PolicyKind::MasterSlave)
            .with_masters(5)
            .with_regions(RegionTopology::even(32, 6, 3));
        match bad.validate() {
            Err(ConfigError::Region(msg)) => assert!(!msg.is_empty()),
            other => panic!("expected ConfigError::Region, got {other:?}"),
        }
    }

    #[test]
    fn typed_errors_render_and_compose() {
        let err = ClusterConfig::simulation(0, PolicyKind::Flat)
            .validate()
            .unwrap_err();
        assert_eq!(err, ConfigError::NoNodes);
        assert!(err.to_string().contains("at least one node"));
        let err = ClusterConfig::simulation(4, PolicyKind::Flat)
            .with_master_reserve(1.5)
            .validate()
            .unwrap_err();
        assert_eq!(err, ConfigError::MasterReserveOutOfRange(1.5));
        // ConfigError is a std error, so it boxes cleanly.
        let boxed: Box<dyn std::error::Error> = Box::new(err);
        assert!(boxed.to_string().contains("1.5"));
        let err = ClusterConfig::simulation(4, PolicyKind::Flat)
            .with_dns_skew(-0.1)
            .validate()
            .unwrap_err();
        assert_eq!(err, ConfigError::DnsSkewOutOfRange(-0.1));
        let err = ClusterConfig::simulation(4, PolicyKind::Flat)
            .with_monitor_period(SimDuration::ZERO)
            .validate()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroMonitorPeriod);
        let err = ClusterConfig::simulation(4, PolicyKind::Flat)
            .with_os(OsParams {
                estcpu_decay: 1.0,
                ..OsParams::default()
            })
            .validate()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::Os(OsParamsError::EstcpuDecayOutOfRange(1.0))
        );
        assert_eq!(
            err.to_string(),
            "invalid OS parameters: estcpu decay 1 not in [0,1)"
        );
    }

    #[test]
    fn builder_matches_direct_construction() {
        let built = ClusterConfig::simulation(16, PolicyKind::MasterSlave)
            .with_masters(4)
            .with_monitor_period(SimDuration::from_millis(100))
            .with_master_reserve(0.25)
            .with_dns_skew(0.3)
            .with_remote_latency(SimDuration::from_millis(2))
            .with_seed(99);
        assert_eq!(built.masters, 4);
        assert_eq!(built.monitor_period, SimDuration::from_millis(100));
        assert_eq!(built.master_reserve, 0.25);
        assert_eq!(built.dns_skew, 0.3);
        assert_eq!(built.remote_latency, SimDuration::from_millis(2));
        assert_eq!(built.seed, 99);
        assert!(built.validate().is_ok());
    }

    #[test]
    fn table2_grid_shape() {
        let grid = table2_grid();
        // 3 traces x 4 ratios x 4 rates, minus the six analytically
        // unstable heavy cells (each trace's top rate with 1/r=160).
        assert_eq!(grid.len(), 42);
        assert!(grid
            .iter()
            .any(|c| c.trace == "UCB" && c.p == 32 && c.lambda == 1000.0));
        assert!(grid
            .iter()
            .any(|c| c.trace == "ADL" && c.p == 128 && c.lambda == 4000.0));
        assert!(grid
            .iter()
            .all(|c| [20.0, 40.0, 80.0, 160.0].contains(&c.inv_r)));
        // Dropped: the overloaded combinations.
        assert!(!grid
            .iter()
            .any(|c| c.trace == "KSU" && c.lambda == 1000.0 && c.inv_r == 160.0));
        assert!(!grid
            .iter()
            .any(|c| c.trace == "ADL" && c.lambda == 1000.0 && c.inv_r == 160.0));
        // Every kept cell is comfortably replayable.
        for c in &grid {
            let a = match c.trace {
                "UCB" => 11.2 / 88.8,
                "KSU" => 29.1 / 70.9,
                _ => 44.3 / 55.7,
            };
            let w =
                msweb_queueing::Workload::from_ratios(c.lambda, a, 1200.0, 1.0 / c.inv_r).unwrap();
            assert!(w.offered_load() / c.p as f64 <= 0.95);
        }
    }
}
