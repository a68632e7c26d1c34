//! Synthetic trace generators calibrated to the paper's Table 1.
//!
//! The real logs (DEC, UCB Home-IP, KSU library, ADL) are proprietary and
//! partly scrambled; the paper itself replays them with *replaced*
//! request bodies (SPECweb96 files for static requests, synthetic CGI for
//! dynamic ones). We generate traces whose published characteristics —
//! class mix, mean inter-arrival interval, mean static and CGI transfer
//! sizes — match Table 1, then attach demands per the experiment's demand
//! ratio `r`, exactly as §5.1 describes.
//!
//! | trace | year | requests | %CGI | interval | HTML bytes | CGI bytes |
//! |-------|------|----------|------|----------|------------|-----------|
//! | DEC   | 1996 | 24.5 M   |  8.7 | 0.09 s   | 8821       | 5735      |
//! | UCB   | 1996 |  9.2 M   | 11.2 | 0.139 s  | 7519       | 4591      |
//! | KSU   | 1998 | 47 364   | 29.1 | 18.48 s  |  482       | 8730      |
//! | ADL   | 1997 | 73 610   | 44.3 | 22.4 s   | 2186       | 2027      |

use msweb_simcore::{Distribution, LogNormal, ShiftedExponential, SimDuration, SimRng, SimTime};

use serde::Serialize;

use crate::cgi::{CgiKind, CgiModel};
use crate::fileset::FileSet;
use crate::request::{Request, RequestClass, ServiceDemand};
use crate::source::RequestSource;
use crate::trace::Trace;

/// Published characteristics of one source log (a Table 1 row).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceSpec {
    /// Log name.
    pub name: &'static str,
    /// Year the log was gathered.
    pub year: u16,
    /// Request count of the full original log.
    pub paper_requests: u64,
    /// Percentage of CGI requests.
    pub cgi_pct: f64,
    /// Mean inter-arrival interval in seconds.
    pub mean_interval_s: f64,
    /// Mean static (HTML) transfer size in bytes.
    pub mean_html_bytes: u64,
    /// Mean CGI transfer size in bytes.
    pub mean_cgi_bytes: u64,
    /// Which synthetic CGI load replays this trace's dynamic requests.
    pub cgi_kind: CgiKind,
}

/// The UC Berkeley Home-IP log (CPU-intensive CGI replay).
pub fn ucb() -> TraceSpec {
    TraceSpec {
        name: "UCB",
        year: 1996,
        paper_requests: 9_200_000,
        cgi_pct: 11.2,
        mean_interval_s: 0.139,
        mean_html_bytes: 7519,
        mean_cgi_bytes: 4591,
        cgi_kind: CgiKind::CpuIntensive,
    }
}

/// The Kansas State University online-library log (WebGlimpse replay).
pub fn ksu() -> TraceSpec {
    TraceSpec {
        name: "KSU",
        year: 1998,
        paper_requests: 47_364,
        cgi_pct: 29.1,
        mean_interval_s: 18.48,
        mean_html_bytes: 482,
        mean_cgi_bytes: 8730,
        cgi_kind: CgiKind::MixedIndexSearch,
    }
}

/// The Alexandria Digital Library testbed log (I/O-intensive replay).
pub fn adl() -> TraceSpec {
    TraceSpec {
        name: "ADL",
        year: 1997,
        paper_requests: 73_610,
        cgi_pct: 44.3,
        mean_interval_s: 22.4,
        mean_html_bytes: 2186,
        mean_cgi_bytes: 2027,
        cgi_kind: CgiKind::IoIntensive,
    }
}

/// The DEC proxy log (characterised in Table 1 but not replayed by the
/// paper because its CGI mix resembles UCB's).
pub fn dec() -> TraceSpec {
    TraceSpec {
        name: "DEC",
        year: 1996,
        paper_requests: 24_500_000,
        cgi_pct: 8.7,
        mean_interval_s: 0.09,
        mean_html_bytes: 8821,
        mean_cgi_bytes: 5735,
        cgi_kind: CgiKind::CpuIntensive,
    }
}

/// The three traces the paper replays, in its reporting order.
pub fn replayed_traces() -> Vec<TraceSpec> {
    vec![ucb(), ksu(), adl()]
}

/// All four characterised traces (Table 1 order).
pub fn all_traces() -> Vec<TraceSpec> {
    vec![dec(), ucb(), ksu(), adl()]
}

/// Arrival-process shape for generated traces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalModel {
    /// Memoryless arrivals at the trace's mean rate — the §3 analysis
    /// regime and the default.
    Poisson,
    /// Two-state Markov-modulated Poisson process: ON phases arrive at
    /// `burst_mult ×` the base rate, OFF phases at a reduced rate chosen
    /// so the long-run mean equals the base rate. Models flash-crowd
    /// peaks, the situation the paper's adaptive reservation targets.
    OnOff {
        /// Rate multiplier during ON phases (must satisfy
        /// `burst_mult ≤ 1 / on_fraction`).
        burst_mult: f64,
        /// Long-run fraction of time spent in the ON phase, in (0, 1).
        on_fraction: f64,
        /// Mean ON+OFF cycle length in seconds.
        mean_cycle_s: f64,
    },
}

impl ArrivalModel {
    fn validate(&self) {
        if let ArrivalModel::OnOff {
            burst_mult,
            on_fraction,
            mean_cycle_s,
        } = *self
        {
            assert!((0.0..1.0).contains(&on_fraction) && on_fraction > 0.0);
            assert!(burst_mult >= 1.0, "bursts must not be slower than the mean");
            assert!(
                burst_mult <= 1.0 / on_fraction + 1e-12,
                "burst_mult {burst_mult} leaves a negative OFF rate at on_fraction {on_fraction}"
            );
            assert!(mean_cycle_s > 0.0 && mean_cycle_s.is_finite());
        }
    }
}

/// Client-origin region mix for multi-region workloads: a
/// piecewise-constant schedule of per-region arrival weights.
///
/// The phase active at arrival time `t` is
/// `(t / phase_len_s) % phases.len()`; each arriving request draws its
/// origin from that phase's weights, from a dedicated RNG stream
/// (split label 6) so enabling a mix perturbs none of the other
/// generator streams — region-free traces stay byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionMix {
    /// Per-phase origin weights; every row is one phase, `regions()`
    /// long, nonnegative with a positive sum.
    phases: Vec<Vec<f64>>,
    /// Phase length in seconds.
    phase_len_s: f64,
}

impl RegionMix {
    /// A mix with explicit phase weights. Panics on an empty schedule,
    /// ragged rows, negative weights or a non-positive row sum.
    pub fn new(phases: Vec<Vec<f64>>, phase_len_s: f64) -> Self {
        assert!(!phases.is_empty(), "region mix needs at least one phase");
        let k = phases[0].len();
        assert!(k > 0, "region mix needs at least one region");
        assert!(
            phase_len_s > 0.0 && phase_len_s.is_finite(),
            "bad phase length {phase_len_s}"
        );
        for row in &phases {
            assert_eq!(row.len(), k, "ragged region-mix phase");
            assert!(
                row.iter().all(|w| *w >= 0.0 && w.is_finite()),
                "negative or non-finite region weight"
            );
            assert!(row.iter().sum::<f64>() > 0.0, "all-zero region-mix phase");
        }
        RegionMix {
            phases,
            phase_len_s,
        }
    }

    /// A time-invariant uniform mix over `k` regions.
    pub fn uniform(k: usize) -> Self {
        RegionMix::new(vec![vec![1.0; k]], 1.0)
    }

    /// A diurnal rotation: `k` phases of `phase_len_s` seconds, phase
    /// `i` sending `hot_weight` from region `i` and weight 1 from each
    /// other region — traffic's centre of gravity walks around the
    /// region ring.
    pub fn rotating(k: usize, hot_weight: f64, phase_len_s: f64) -> Self {
        assert!(hot_weight >= 1.0 && hot_weight.is_finite());
        let phases = (0..k)
            .map(|hot| {
                (0..k)
                    .map(|r| if r == hot { hot_weight } else { 1.0 })
                    .collect()
            })
            .collect();
        RegionMix::new(phases, phase_len_s)
    }

    /// Number of origin regions.
    pub fn regions(&self) -> usize {
        self.phases[0].len()
    }

    /// Draw the origin for an arrival at `t_s` seconds.
    pub fn origin_at(&self, t_s: f64, rng: &mut SimRng) -> usize {
        let phase = ((t_s / self.phase_len_s).max(0.0) as usize) % self.phases.len();
        let weights = &self.phases[phase];
        let total: f64 = weights.iter().sum();
        let mut u = rng.next_f64() * total;
        for (r, w) in weights.iter().enumerate() {
            u -= w;
            if u < 0.0 {
                return r;
            }
        }
        weights.len() - 1
    }
}

/// How much of a request's demand the *scheduler* is allowed to see.
///
/// Generation always attaches the true demand to every request — the
/// simulated OS needs it to execute the work. Visibility describes what
/// the scheduling pipeline is *told* about that demand; the cluster
/// driver applies it when it declares each request to the scheduler
/// (see `msweb-cluster`'s `RunOptions`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DemandVisibility {
    /// Declarations are the true per-request values (the paper's
    /// idealised off-line sampling). The default.
    #[default]
    Exact,
    /// Declarations are corrupted by uniform relative noise of the
    /// given half-width (e.g. `Noisy(0.5)` = ±50% mis-estimation).
    Noisy(f64),
    /// No per-request declaration at all: the scheduler sees only
    /// population fallbacks (`w = 0.5`, the class mean demand).
    Hidden,
}

/// How demands are attached to generated requests.
#[derive(Debug, Clone)]
pub struct DemandModel {
    /// Nominal mean static service demand (paper: 1/1200 s in simulation,
    /// 1/110 s on the Sun cluster).
    pub static_mean: SimDuration,
    /// CGI demand ratio `1/r`: mean CGI demand = `static_mean × inv_r`.
    pub inv_r: f64,
    /// CPU weight of static requests (parse + send vs file read).
    pub static_w: f64,
    /// Whether CGI service times are exponential (the analysis regime) or
    /// constant (WebSTONE controlled-time mode).
    pub cgi_exponential: bool,
    /// Query-popularity model for dynamic requests: `Some((q, s))` draws
    /// each CGI's content key Zipf(s)-distributed over `q` distinct
    /// queries (enabling dynamic-content caching experiments); `None`
    /// leaves requests keyless.
    pub query_popularity: Option<(usize, f64)>,
    /// Arrival-process shape.
    pub arrivals: ArrivalModel,
    /// Client-origin region mix; `None` (the default) tags every
    /// request with origin 0 and draws nothing from the region stream.
    pub region_mix: Option<RegionMix>,
}

impl DemandModel {
    /// The simulation default: 1200 req/s static capability and the given
    /// demand ratio.
    pub fn simulation(inv_r: f64) -> Self {
        DemandModel {
            static_mean: SimDuration::from_secs_f64(1.0 / 1200.0),
            inv_r,
            static_w: 0.5,
            cgi_exponential: true,
            query_popularity: None,
            arrivals: ArrivalModel::Poisson,
            region_mix: None,
        }
    }

    /// The live-emulation default: Ultra-1-class 110 req/s static
    /// capability (§5.2.2) and the given demand ratio.
    pub fn sun_cluster(inv_r: f64) -> Self {
        DemandModel {
            static_mean: SimDuration::from_secs_f64(1.0 / 110.0),
            inv_r,
            static_w: 0.5,
            cgi_exponential: true,
            query_popularity: None,
            arrivals: ArrivalModel::Poisson,
            region_mix: None,
        }
    }

    /// Mean CGI demand implied by this model.
    pub fn cgi_mean(&self) -> SimDuration {
        self.static_mean.mul_f64(self.inv_r)
    }

    /// Enable Zipf(`s`) query popularity over `q` distinct queries
    /// (builder style).
    pub fn with_query_popularity(mut self, q: usize, s: f64) -> Self {
        assert!(q > 0, "need at least one distinct query");
        assert!(s >= 0.0 && s.is_finite(), "bad Zipf exponent {s}");
        self.query_popularity = Some((q, s));
        self
    }

    /// Tag generated requests with client-origin regions drawn from
    /// `mix` (builder style).
    pub fn with_region_mix(mut self, mix: RegionMix) -> Self {
        self.region_mix = Some(mix);
        self
    }

    /// Use a bursty ON/OFF arrival process (builder style).
    pub fn with_bursty_arrivals(
        mut self,
        burst_mult: f64,
        on_fraction: f64,
        mean_cycle_s: f64,
    ) -> Self {
        let m = ArrivalModel::OnOff {
            burst_mult,
            on_fraction,
            mean_cycle_s,
        };
        m.validate();
        self.arrivals = m;
        self
    }
}

/// Stateful arrival-interval sampler for [`ArrivalModel`].
struct ArrivalSampler {
    model: ArrivalModel,
    base_rate: f64,
    /// Current phase: true = ON.
    on: bool,
    /// Absolute end of the current phase, seconds.
    phase_end_s: f64,
}

impl ArrivalSampler {
    fn new(model: ArrivalModel, mean_interval_s: f64) -> Self {
        model.validate();
        ArrivalSampler {
            model,
            base_rate: 1.0 / mean_interval_s,
            on: false,
            phase_end_s: 0.0,
        }
    }

    fn phase_rate(&self) -> f64 {
        match self.model {
            ArrivalModel::Poisson => self.base_rate,
            ArrivalModel::OnOff {
                burst_mult,
                on_fraction,
                ..
            } => {
                if self.on {
                    self.base_rate * burst_mult
                } else {
                    self.base_rate * (1.0 - on_fraction * burst_mult).max(0.0) / (1.0 - on_fraction)
                }
            }
        }
    }

    fn phase_mean_s(&self) -> f64 {
        match self.model {
            ArrivalModel::Poisson => f64::INFINITY,
            ArrivalModel::OnOff {
                on_fraction,
                mean_cycle_s,
                ..
            } => {
                if self.on {
                    on_fraction * mean_cycle_s
                } else {
                    (1.0 - on_fraction) * mean_cycle_s
                }
            }
        }
    }

    /// Next arrival time (absolute seconds) after `t_s`. Memorylessness
    /// lets us re-draw the interval whenever a phase boundary is crossed.
    fn next_after(&mut self, mut t_s: f64, rng: &mut SimRng) -> f64 {
        if matches!(self.model, ArrivalModel::Poisson) {
            let u = rng.next_f64_open();
            return t_s - u.ln() / self.base_rate;
        }
        loop {
            if t_s >= self.phase_end_s {
                self.on = !self.on;
                let u = rng.next_f64_open();
                self.phase_end_s = t_s - u.ln() * self.phase_mean_s();
            }
            let rate = self.phase_rate();
            if rate <= 0.0 {
                // Silent OFF phase: jump to its end.
                t_s = self.phase_end_s;
                continue;
            }
            let u = rng.next_f64_open();
            let candidate = t_s - u.ln() / rate;
            if candidate <= self.phase_end_s {
                return candidate;
            }
            t_s = self.phase_end_s;
        }
    }
}

/// Draw a Zipf(s)-distributed rank in `[0, q)` by inverse CDF over
/// precomputed cumulative weights.
struct ZipfKeys {
    cumulative: Vec<f64>,
}

impl ZipfKeys {
    fn new(q: usize, s: f64) -> Self {
        let mut cumulative = Vec::with_capacity(q);
        let mut acc = 0.0;
        for k in 1..=q {
            acc += 1.0 / (k as f64).powf(s);
            cumulative.push(acc);
        }
        let total = acc;
        for c in &mut cumulative {
            *c /= total;
        }
        ZipfKeys { cumulative }
    }

    fn sample(&self, rng: &mut SimRng) -> u64 {
        let u = rng.next_f64();
        self.cumulative.partition_point(|&c| c <= u) as u64
    }
}

impl TraceSpec {
    /// Arrival ratio `a = λ_c/λ_h` implied by the class mix.
    pub fn arrival_ratio_a(&self) -> f64 {
        let f = self.cgi_pct / 100.0;
        f / (1.0 - f)
    }

    /// Generate `n` requests with demands from `demand`, deterministically
    /// from `seed`.
    ///
    /// Arrivals follow [`DemandModel::arrivals`] at the log's native rate
    /// (scale afterwards with [`Trace::scaled_to_rate`]). Static sizes are
    /// drawn log-normally around the log's mean HTML size and snapped to
    /// the closest SPECweb96 file (the paper's replay rule); CGI sizes are
    /// drawn log-normally around the mean CGI size.
    ///
    /// ```
    /// use msweb_workload::{ksu, DemandModel};
    ///
    /// let trace = ksu()
    ///     .generate(1_000, &DemandModel::simulation(40.0), 42)
    ///     .scaled_to_rate(500.0);
    /// assert_eq!(trace.len(), 1_000);
    /// assert!((trace.mean_rate() - 500.0).abs() < 5.0);
    /// ```
    pub fn generate(&self, n: usize, demand: &DemandModel, seed: u64) -> Trace {
        Trace::new(self.name, self.stream(n, demand, seed).collect())
    }

    /// Stream `n` requests without materializing them: the same sequence
    /// [`TraceSpec::generate`] produces (`generate` is defined as
    /// `stream(...).collect()`), but in O(1) memory. Use this for runs
    /// too long to hold in RAM; see [`RequestSource`] for the contract.
    pub fn stream(&self, n: usize, demand: &DemandModel, seed: u64) -> GenSource {
        let mut master = SimRng::seed_from_u64(seed ^ 0x6d73_7765_625f_7472);
        let arrivals_rng = master.split(1);
        let class_rng = master.split(2);
        let size_rng = master.split(3);
        let demand_rng = master.split(4);

        let fileset = FileSet::specweb96();
        let arrivals = ArrivalSampler::new(demand.arrivals, self.mean_interval_s);
        // Web transfer sizes are heavy-tailed; CV ~ 1.5 is typical of the
        // era's logs.
        let html_size = LogNormal::from_mean_cv(self.mean_html_bytes as f64, 1.5);
        let cgi_size = LogNormal::from_mean_cv(self.mean_cgi_bytes as f64, 1.0);
        let cgi_frac = self.cgi_pct / 100.0;

        let cgi_model = if demand.cgi_exponential {
            CgiModel::exponential(self.cgi_kind, demand.cgi_mean())
        } else {
            CgiModel::constant(self.cgi_kind, demand.cgi_mean())
        };
        // Per-request floor: 30% of the mean is fixed protocol/syscall
        // cost. Without the floor, exponential demands put mass near zero
        // where the stretch metric (response/demand) is unboundedly
        // sensitive to any queueing delay.
        let static_service = ShiftedExponential::from_mean(demand.static_mean.as_secs_f64(), 0.3);

        let zipf = demand
            .query_popularity
            .map(|(q, s_exp)| ZipfKeys::new(q, s_exp));
        let key_rng = master.split(5);
        // Split unconditionally (splitting costs one master draw after
        // every other stream is already fixed), draw only when a mix is
        // configured — so region-free traces stay byte-identical.
        let region_rng = master.split(6);

        GenSource {
            name: self.name,
            arrivals_rng,
            class_rng,
            size_rng,
            demand_rng,
            key_rng,
            fileset,
            arrivals,
            html_size,
            cgi_size,
            cgi_frac,
            cgi_model,
            static_service,
            static_w: demand.static_w,
            zipf,
            region_mix: demand.region_mix.clone(),
            region_rng,
            t: SimTime::ZERO,
            t_s: 0.0,
            next_id: 0,
            remaining: n,
        }
    }
}

/// The streaming generator behind [`TraceSpec::stream`]: a few hundred
/// bytes of RNG and sampler state standing in for the whole request
/// vector. Yields exactly the sequence `generate` would collect.
pub struct GenSource {
    name: &'static str,
    arrivals_rng: SimRng,
    class_rng: SimRng,
    size_rng: SimRng,
    demand_rng: SimRng,
    key_rng: SimRng,
    fileset: FileSet,
    arrivals: ArrivalSampler,
    html_size: LogNormal,
    cgi_size: LogNormal,
    cgi_frac: f64,
    cgi_model: CgiModel,
    static_service: ShiftedExponential,
    static_w: f64,
    zipf: Option<ZipfKeys>,
    region_mix: Option<RegionMix>,
    region_rng: SimRng,
    t: SimTime,
    t_s: f64,
    next_id: u64,
    remaining: usize,
}

impl Iterator for GenSource {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let id = self.next_id;
        self.next_id += 1;

        if id > 0 {
            self.t_s = self.arrivals.next_after(self.t_s, &mut self.arrivals_rng);
            self.t = SimTime::from_secs_f64(self.t_s);
        }
        let is_cgi = self.class_rng.gen_bool(self.cgi_frac);
        let (class, bytes, dem) = if is_cgi {
            let bytes = self.cgi_size.sample(&mut self.size_rng).max(64.0) as u64;
            let service = self.cgi_model.sample_service(&mut self.demand_rng);
            (
                RequestClass::Dynamic,
                bytes,
                ServiceDemand {
                    service,
                    cpu_fraction: self.cgi_model.cpu_weight(),
                    memory_bytes: self.cgi_model.sample_memory(&mut self.demand_rng),
                },
            )
        } else {
            let raw = self.html_size.sample(&mut self.size_rng).max(64.0) as u64;
            let bytes = self.fileset.closest(raw);
            let service = SimDuration::from_secs_f64(
                self.static_service.sample(&mut self.demand_rng).max(1e-6),
            );
            (
                RequestClass::Static,
                bytes,
                ServiceDemand {
                    service,
                    cpu_fraction: self.static_w,
                    memory_bytes: bytes,
                },
            )
        };
        let mut req = Request::new(id, self.t, class, bytes, dem);
        if is_cgi {
            if let Some(z) = &self.zipf {
                req = req.with_cache_key(z.sample(&mut self.key_rng));
            }
        }
        if let Some(mix) = &self.region_mix {
            req = req.with_origin(mix.origin_at(self.t_s, &mut self.region_rng));
        }
        Some(req)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl RequestSource for GenSource {
    fn source_name(&self) -> &str {
        self.name
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_match_table1_constants() {
        let rows = all_traces();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].name, "DEC");
        assert!((ucb().cgi_pct - 11.2).abs() < 1e-9);
        assert!((ksu().mean_interval_s - 18.48).abs() < 1e-9);
        assert_eq!(adl().mean_html_bytes, 2186);
        assert!((adl().arrival_ratio_a() - 0.443 / 0.557).abs() < 1e-3);
    }

    #[test]
    fn generated_trace_matches_spec() {
        let spec = ksu();
        let t = spec.generate(20_000, &DemandModel::simulation(40.0), 7);
        let s = t.summary();
        assert_eq!(s.requests, 20_000);
        assert!(
            (s.cgi_pct - spec.cgi_pct).abs() < 1.5,
            "CGI% {} vs {}",
            s.cgi_pct,
            spec.cgi_pct
        );
        assert!(
            (s.mean_interval_s - spec.mean_interval_s).abs() / spec.mean_interval_s < 0.05,
            "interval {} vs {}",
            s.mean_interval_s,
            spec.mean_interval_s
        );
        // CGI sizes are drawn directly around the target mean.
        assert!(
            ((s.mean_cgi_bytes - spec.mean_cgi_bytes as f64).abs() / spec.mean_cgi_bytes as f64)
                < 0.15,
            "CGI bytes {} vs {}",
            s.mean_cgi_bytes,
            spec.mean_cgi_bytes
        );
        // Static sizes pass through the SPECweb96 snap, which distorts the
        // mean some; stay within 40%.
        assert!(
            ((s.mean_static_bytes - spec.mean_html_bytes as f64).abs()
                / spec.mean_html_bytes as f64)
                < 0.4,
            "HTML bytes {} vs {}",
            s.mean_static_bytes,
            spec.mean_html_bytes
        );
    }

    /// A zero mean size is the 64-byte floor every smaller draw gets:
    /// each CGI reply is 64 bytes and each static fetch the SPECweb96
    /// file closest to 64 bytes.
    #[test]
    fn zero_mean_sizes_take_the_64_byte_floor() {
        let spec = TraceSpec {
            mean_html_bytes: 0,
            mean_cgi_bytes: 0,
            ..ucb()
        };
        let d = DemandModel::simulation(40.0);
        let smallest_file = FileSet::specweb96().closest(64);
        let streamed: Vec<Request> = spec.stream(2_000, &d, 7).collect();
        assert_eq!(streamed, spec.generate(2_000, &d, 7).requests);
        assert!(streamed.iter().any(|r| r.class == RequestClass::Dynamic));
        for r in &streamed {
            let floor = match r.class {
                RequestClass::Dynamic => 64,
                RequestClass::Static => smallest_file,
            };
            assert_eq!(r.bytes, floor, "{r:?}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = ucb();
        let d = DemandModel::simulation(80.0);
        let a = spec.generate(1000, &d, 42);
        let b = spec.generate(1000, &d, 42);
        assert_eq!(a.requests, b.requests);
        let c = spec.generate(1000, &d, 43);
        assert_ne!(a.requests, c.requests);
    }

    #[test]
    fn demand_means_track_inv_r() {
        let spec = adl();
        let d = DemandModel::simulation(40.0);
        let t = spec.generate(30_000, &d, 11);
        let (mut cgi_sum, mut cgi_n, mut st_sum, mut st_n) = (0.0, 0u64, 0.0, 0u64);
        for r in &t.requests {
            if r.class.is_dynamic() {
                cgi_sum += r.demand.service.as_secs_f64();
                cgi_n += 1;
            } else {
                st_sum += r.demand.service.as_secs_f64();
                st_n += 1;
            }
        }
        let cgi_mean = cgi_sum / cgi_n as f64;
        let st_mean = st_sum / st_n as f64;
        let measured_inv_r = cgi_mean / st_mean;
        assert!(
            (measured_inv_r - 40.0).abs() / 40.0 < 0.1,
            "measured 1/r = {measured_inv_r}"
        );
        assert!((st_mean - 1.0 / 1200.0).abs() / (1.0 / 1200.0) < 0.05);
    }

    #[test]
    fn cgi_weights_assigned_per_kind() {
        let t = adl().generate(5_000, &DemandModel::simulation(20.0), 3);
        for r in &t.requests {
            if r.class.is_dynamic() {
                assert!((r.demand.cpu_fraction - 0.10).abs() < 1e-12);
            } else {
                assert!((r.demand.cpu_fraction - 0.5).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn static_bytes_come_from_fileset() {
        let fs = FileSet::specweb96();
        let t = ucb().generate(2_000, &DemandModel::simulation(20.0), 9);
        for r in &t.requests {
            if !r.class.is_dynamic() {
                assert!(
                    fs.sizes().contains(&r.bytes),
                    "unknown file size {}",
                    r.bytes
                );
            }
        }
    }

    #[test]
    fn query_popularity_assigns_zipf_keys() {
        let d = DemandModel::simulation(40.0).with_query_popularity(100, 0.9);
        let t = adl().generate(10_000, &d, 4);
        let mut counts = std::collections::HashMap::new();
        for r in &t.requests {
            match (r.class.is_dynamic(), r.cache_key) {
                (true, Some(k)) => {
                    assert!(k < 100);
                    *counts.entry(k).or_insert(0u32) += 1;
                }
                (true, None) => panic!("dynamic request without key"),
                (false, k) => assert!(k.is_none(), "static request with key {k:?}"),
            }
        }
        // Zipf: rank 0 much more popular than rank 50.
        let top = counts.get(&0).copied().unwrap_or(0);
        let mid = counts.get(&50).copied().unwrap_or(0);
        assert!(top > mid * 5, "Zipf skew missing: top {top}, mid {mid}");
    }

    #[test]
    fn no_popularity_means_no_keys() {
        let t = ucb().generate(500, &DemandModel::simulation(40.0), 4);
        assert!(t.requests.iter().all(|r| r.cache_key.is_none()));
    }

    #[test]
    fn bursty_arrivals_conserve_mean_rate() {
        let spec = ucb();
        let d = DemandModel::simulation(40.0).with_bursty_arrivals(3.0, 0.2, 30.0);
        let t = spec.generate(60_000, &d, 9);
        let measured = t.mean_rate();
        let base = 1.0 / spec.mean_interval_s;
        assert!(
            ((measured - base) / base).abs() < 0.1,
            "bursty mean rate {measured} vs base {base}"
        );
    }

    #[test]
    fn bursty_arrivals_are_burstier_than_poisson() {
        // Index of dispersion of per-bucket counts: ~1 for Poisson,
        // substantially larger for the ON/OFF process.
        let spec = ucb();
        let dispersion = |trace: &crate::trace::Trace| {
            let bucket_s = 5.0;
            let mut counts = std::collections::HashMap::new();
            for r in &trace.requests {
                *counts
                    .entry((r.arrival.as_secs_f64() / bucket_s) as u64)
                    .or_insert(0u32) += 1;
            }
            let n = counts.len() as f64;
            let mean = counts.values().map(|&c| c as f64).sum::<f64>() / n;
            let var = counts
                .values()
                .map(|&c| (c as f64 - mean) * (c as f64 - mean))
                .sum::<f64>()
                / n;
            var / mean
        };
        let poisson = spec.generate(40_000, &DemandModel::simulation(40.0), 10);
        let bursty = spec.generate(
            40_000,
            &DemandModel::simulation(40.0).with_bursty_arrivals(4.0, 0.2, 60.0),
            10,
        );
        let dp = dispersion(&poisson);
        let db = dispersion(&bursty);
        assert!(dp < 2.0, "Poisson dispersion {dp}");
        assert!(db > dp * 2.0, "bursty dispersion {db} vs poisson {dp}");
    }

    #[test]
    #[should_panic(expected = "negative OFF rate")]
    fn bursty_validation_rejects_impossible_mult() {
        let _ = DemandModel::simulation(40.0).with_bursty_arrivals(10.0, 0.5, 30.0);
    }

    #[test]
    fn region_mix_draws_origins_without_perturbing_the_trace() {
        let spec = ucb();
        let plain = spec.generate(5_000, &DemandModel::simulation(40.0), 21);
        assert!(plain.requests.iter().all(|r| r.origin == 0));

        let mixed = spec.generate(
            5_000,
            &DemandModel::simulation(40.0).with_region_mix(RegionMix::uniform(3)),
            21,
        );
        // Everything except the origin tag is byte-identical: the mix
        // draws only from its own dedicated stream.
        for (a, b) in plain.requests.iter().zip(&mixed.requests) {
            assert_eq!(a, &Request { origin: 0, ..*b });
        }
        let mut seen = [0u32; 3];
        for r in &mixed.requests {
            seen[r.origin] += 1;
        }
        assert!(
            seen.iter().all(|&c| c > 1_000),
            "uniform mix skewed: {seen:?}"
        );
    }

    #[test]
    fn rotating_mix_walks_the_hot_region() {
        let mix = RegionMix::rotating(3, 50.0, 10.0);
        let mut rng = SimRng::seed_from_u64(5);
        for phase in 0..3 {
            let t_s = phase as f64 * 10.0 + 5.0;
            let mut counts = [0u32; 3];
            for _ in 0..500 {
                counts[mix.origin_at(t_s, &mut rng)] += 1;
            }
            let hot = counts[phase];
            assert!(
                counts
                    .iter()
                    .enumerate()
                    .all(|(r, &c)| r == phase || hot > c * 5),
                "phase {phase}: {counts:?}"
            );
        }
        // The schedule wraps around.
        let mut rng2 = SimRng::seed_from_u64(5);
        let mut counts = [0u32; 3];
        for _ in 0..500 {
            counts[mix.origin_at(35.0, &mut rng2)] += 1;
        }
        assert!(counts[0] > counts[1] * 5 && counts[0] > counts[2] * 5);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn region_mix_rejects_ragged_phases() {
        let _ = RegionMix::new(vec![vec![1.0, 1.0], vec![1.0]], 10.0);
    }

    #[test]
    fn sun_cluster_demand_model() {
        let d = DemandModel::sun_cluster(40.0);
        // Microsecond clock resolution bounds the error.
        assert!((d.static_mean.as_secs_f64() - 1.0 / 110.0).abs() < 1e-6);
        // The rounding of static_mean is amplified by inv_r.
        assert!((d.cgi_mean().as_secs_f64() - 40.0 / 110.0).abs() < 40e-6);
    }
}
