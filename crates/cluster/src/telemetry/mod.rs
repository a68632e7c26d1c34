//! Live telemetry: counters, gauges and log-bucketed histograms over
//! the scheduling pipeline, the reservation controller and the node
//! fleet — zero-cost when disabled, byte-deterministic when snapshotted.
//!
//! Two pieces cooperate:
//!
//! * [`SchedTelemetry`] rides *inside* a
//!   [`Scheduler`](crate::sched::Scheduler) (behind an `Option`, so the
//!   hot path pays one pointer check when disabled) and counts every
//!   `place` outcome, per-stage call, per-node charge, plus sampled
//!   wall-clock span timings (1 in [`SPAN_SAMPLE_EVERY`] decisions) of
//!   the `entry → admission → candidates → scorer → charge` pipeline.
//! * [`TelemetrySnapshot`] folds it together with what the
//!   [`DriverCore`](crate::DriverCore) already keeps: the last
//!   [`WINDOW_RING_CAP`] [`WindowSample`]s of the reservation controller
//!   and the per-node busy gauges, both recorded at each monitor window
//!   close from the refreshed load view on either substrate, and
//!   response-time histograms built at snapshot time from the run
//!   metrics' exact per-class response counts. It has three derived
//!   views: a byte-deterministic JSON encoding
//!   ([`TelemetrySnapshot::to_value`] — wall-clock span durations are
//!   deliberately *excluded* so fixed seed + spec ⇒ identical bytes),
//!   a Prometheus text exposition
//!   ([`TelemetrySnapshot::to_prometheus`] — spans included), and the
//!   `top`-style table ([`render_top`]) live runs print to stderr.
//!
//! Metric names in the Prometheus dump cross-reference the v2
//! decision-log event vocabulary (see [`crate::sched::trace`]): e.g.
//! `msweb_place_decisions_total` counts exactly the `"ev":"decision"`
//! lines a traced run would emit, and the `msweb_reservation_*` gauges
//! are the `tick`-event fields sampled as a time series.
//!
//! Two submodules build on the snapshot layer:
//!
//! * [`series`] — the windowed time-series recorder: one JSONL record
//!   per monitor window carrying counter/histogram *deltas*, streamed
//!   to a sink in O(1) memory (`--telemetry-series`);
//! * [`slo`] — the declarative SLO engine: multi-window burn-rate
//!   rules over the per-window signals, emitting typed
//!   [`AlertEvent`](slo::AlertEvent)s and re-derivable from a decision
//!   log alone (`msweb slo-check`).

pub mod series;
pub mod slo;

use std::time::Instant;

use msweb_simcore::hist::LogHistogram;
use serde::{ParseError, Value};

/// One in how many decisions gets wall-clock span timing. Sampling
/// keeps the `place()` overhead bounded (an `Instant::now()` pair per
/// stage costs more than an un-contended placement) while long runs
/// still accumulate thousands of samples per stage.
pub const SPAN_SAMPLE_EVERY: u64 = 64;

/// Bitmask form of [`SPAN_SAMPLE_EVERY`] (which is a power of two).
pub const SPAN_SAMPLE_MASK: u64 = SPAN_SAMPLE_EVERY - 1;

/// Number of pipeline stages instrumented.
pub const STAGE_COUNT: usize = 5;

/// A pipeline stage, used to index the per-stage counter arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Front-end entry selection.
    Entry = 0,
    /// Reservation admission.
    Admission = 1,
    /// Candidate-set formation.
    Candidates = 2,
    /// RSRC scoring.
    Scorer = 3,
    /// Expected-demand charge-back.
    Charge = 4,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Entry,
        Stage::Admission,
        Stage::Candidates,
        Stage::Scorer,
        Stage::Charge,
    ];

    /// The stage's label, as used in metric label values.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Entry => "entry",
            Stage::Admission => "admission",
            Stage::Candidates => "candidates",
            Stage::Scorer => "scorer",
            Stage::Charge => "charge",
        }
    }
}

/// Wall-clock timer for one sampled `place()` call: `mark(stage)`
/// attributes the time since the previous mark to that stage.
#[derive(Debug)]
pub struct SpanTimer {
    last: Instant,
    ns: [u64; STAGE_COUNT],
    hits: [u64; STAGE_COUNT],
}

impl SpanTimer {
    /// Start timing now.
    pub fn start() -> SpanTimer {
        SpanTimer {
            last: Instant::now(),
            ns: [0; STAGE_COUNT],
            hits: [0; STAGE_COUNT],
        }
    }

    /// Attribute the time since the last mark (or start) to `stage`.
    #[inline]
    pub fn mark(&mut self, stage: Stage) {
        let now = Instant::now();
        self.ns[stage as usize] += now.duration_since(self.last).as_nanos() as u64;
        self.hits[stage as usize] += 1;
        self.last = now;
    }
}

/// Cumulative counts of which internal path [`MinRsrcScorer`] resolved
/// each `choose` call through: the O(log p) decision index, or one of
/// the dense-scan fallbacks.
///
/// [`MinRsrcScorer`]: crate::sched::stages::MinRsrcScorer
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScorerPaths {
    /// Answered by the decision index.
    pub indexed: u64,
    /// Dense scan: the scorer was built without an index.
    pub dense_unindexed: u64,
    /// Dense scan: candidate set below the index cut-over size.
    pub dense_small: u64,
    /// Always 0: the exact per-weight index has no degenerate windows.
    /// Kept so reports and dashboards reading the field stay valid.
    pub dense_degenerate: u64,
    /// Dense scan: the candidate set was not a contiguous level range.
    pub dense_no_range: u64,
    /// Dense scan: the request's effective weight found no per-weight
    /// tree (more distinct weights than the index's cap; only `Noisy`
    /// demand visibility produces them).
    pub dense_w_overflow: u64,
}

impl ScorerPaths {
    /// Total `choose` calls that fell back to the dense scan.
    pub fn dense_total(&self) -> u64 {
        self.dense_unindexed
            + self.dense_small
            + self.dense_degenerate
            + self.dense_no_range
            + self.dense_w_overflow
    }

    /// `(label, count)` pairs for every path, in a fixed order.
    pub fn entries(&self) -> [(&'static str, u64); 6] {
        [
            ("indexed", self.indexed),
            ("dense_unindexed", self.dense_unindexed),
            ("dense_small", self.dense_small),
            ("dense_degenerate", self.dense_degenerate),
            ("dense_no_range", self.dense_no_range),
            ("dense_w_overflow", self.dense_w_overflow),
        ]
    }
}

/// Hot-path telemetry carried inside a scheduler. All plain integer
/// adds — the scheduler is single-threaded in both substrates, so no
/// atomics are needed, and histograms record in a handful of
/// instructions.
#[derive(Debug, Clone)]
pub struct SchedTelemetry {
    /// Total `place` calls that produced a placement.
    pub place_calls: u64,
    /// Placements that stayed on the entry node (no scoring).
    pub stay_local: u64,
    /// Placements that ran the scorer over a remote candidate set.
    pub remote: u64,
    /// `place` calls that failed with `NoLiveNodes`.
    pub no_live_nodes: u64,
    /// Placements made on the post-failure restart path.
    pub restarts: u64,
    /// Per-stage invocation counts, indexed by [`Stage`].
    pub stage_calls: [u64; STAGE_COUNT],
    /// Per-stage sampled wall-clock nanoseconds, indexed by [`Stage`].
    /// Nondeterministic; excluded from the deterministic snapshot JSON.
    pub stage_ns: [u64; STAGE_COUNT],
    /// How many sampled timings each `stage_ns` entry aggregates.
    pub stage_samples: [u64; STAGE_COUNT],
    /// Per-node successful-placement (charge) counts; length `p`.
    pub node_charges: Vec<u64>,
    /// Per-region successful-placement counts when a region stage is
    /// installed; empty otherwise (sized lazily on the first charge so
    /// regionless runs serialise byte-identically to older snapshots).
    pub region_charges: Vec<u64>,
    /// Candidate-set size per scored (remote) decision.
    pub candidates_hist: LogHistogram,
    /// Transfer latency per placement, microseconds.
    pub latency_us_hist: LogHistogram,
}

impl SchedTelemetry {
    /// Fresh telemetry for a cluster of `p` nodes.
    pub fn new(p: usize) -> SchedTelemetry {
        SchedTelemetry {
            place_calls: 0,
            stay_local: 0,
            remote: 0,
            no_live_nodes: 0,
            restarts: 0,
            stage_calls: [0; STAGE_COUNT],
            stage_ns: [0; STAGE_COUNT],
            stage_samples: [0; STAGE_COUNT],
            node_charges: vec![0; p],
            region_charges: Vec::new(),
            candidates_hist: LogHistogram::new(),
            latency_us_hist: LogHistogram::new(),
        }
    }

    /// Fold one sampled span timing into the totals.
    pub fn fold_spans(&mut self, timer: &SpanTimer) {
        for i in 0..STAGE_COUNT {
            self.stage_ns[i] += timer.ns[i];
            self.stage_samples[i] += timer.hits[i];
        }
    }
}

/// One monitor-window sample of the reservation controller, recorded
/// by [`DriverCore::close_window`](crate::DriverCore::close_window)
/// right after it feeds ρ to
/// [`ReservationController::update`](crate::ReservationController::update).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSample {
    /// Window end, microseconds of substrate time.
    pub at_us: u64,
    /// The Theorem 1 bound θ2* for the measured (a, r).
    pub theta2_star: f64,
    /// Measured arrival ratio `a` (EWMA).
    pub a_hat: f64,
    /// Measured demand-ratio proxy `r` (EWMA).
    pub r_hat: f64,
    /// Mean node utilisation ρ over the window.
    pub rho: f64,
    /// Measured fraction of dynamic requests on masters (θ̂).
    pub theta_hat: f64,
    /// Cumulative controller clamp events up to this window.
    pub clamp_events: u64,
}

/// How many controller windows the driver retains for the telemetry
/// snapshot. Older samples are evicted ring-buffer style so a
/// million-window `msweb scale` run stays O(1) in telemetry memory (the
/// full series is available by streaming it: see
/// [`series::SeriesRecorder`]); runs shorter than the cap — every
/// golden-fixture run — retain everything and serialise exactly as
/// before the cap existed.
pub const WINDOW_RING_CAP: usize = 4096;

/// Identity and totals of one telemetered run: the scheduler-side
/// counters, the controller time series and the node gauges, folded
/// into a single serialisable value.
///
/// Equality and the [`serde::Serialize`] impl both go through
/// [`TelemetrySnapshot::to_value`], so two snapshots compare equal
/// exactly when their deterministic JSON encodings are byte-identical
/// (wall-clock span durations are excluded; see the module docs).
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Which substrate drove the run: `"sim"` or `"live"`.
    pub substrate: String,
    /// Policy slug (or registry spec) the scheduler ran.
    pub policy: String,
    /// Cluster size `p`.
    pub p: usize,
    /// Master count `m`.
    pub m: usize,
    /// Dispatch RNG seed.
    pub seed: u64,
    /// Scheduler-side counters and histograms.
    pub sched: SchedTelemetry,
    /// Scorer path counts, when the scorer tracks them.
    pub scorer_paths: Option<ScorerPaths>,
    /// Cumulative reservation-controller clamp events.
    pub clamp_events: u64,
    /// Controller time series, one sample per monitor window.
    pub windows: Vec<WindowSample>,
    /// Latest per-node busy gauges (fraction of the last window busy).
    pub node_busy: Vec<f64>,
    /// Response-time histogram for static requests, microseconds.
    pub response_static_us: LogHistogram,
    /// Response-time histogram for dynamic requests, microseconds.
    pub response_dynamic_us: LogHistogram,
}

pub(crate) fn u(n: u64) -> Value {
    Value::UInt(n)
}

pub(crate) fn fnum(x: f64) -> Value {
    Value::Float(x)
}

pub(crate) fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Escape a string for use as a Prometheus label *value*: the text
/// exposition format requires `\`, `"` and newline escaped inside the
/// quoted value. Registry spec slugs, scenario names and trace names
/// are caller-supplied, so the run-identity labels must go through
/// this.
pub fn prom_label_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn hist_value(h: &LogHistogram) -> Value {
    let buckets: Vec<Value> = h
        .nonzero_buckets()
        .into_iter()
        .map(|(i, _, _, c)| Value::Array(vec![u(i as u64), u(c)]))
        .collect();
    obj(vec![
        ("count", u(h.count())),
        ("sum", u(h.sum())),
        ("min", u(h.min())),
        ("max", u(h.max())),
        ("buckets", Value::Array(buckets)),
    ])
}

fn hist_from_value(v: &Value, what: &str) -> Result<LogHistogram, String> {
    let field = |k: &str| -> Result<u64, String> {
        v.get(k)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("{what}: missing or non-integer '{k}'"))
    };
    let sum = field("sum")?;
    let min = field("min")?;
    let max = field("max")?;
    let mut pairs = Vec::new();
    for b in v
        .get("buckets")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{what}: missing 'buckets' array"))?
    {
        let pair = b
            .as_array()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| format!("{what}: bucket is not an [index, count] pair"))?;
        let i = pair[0]
            .as_u64()
            .ok_or_else(|| format!("{what}: non-integer bucket index"))?;
        let c = pair[1]
            .as_u64()
            .ok_or_else(|| format!("{what}: non-integer bucket count"))?;
        pairs.push((i as usize, c));
    }
    let h = LogHistogram::from_sparse(&pairs, sum, min, max);
    if h.count() != field("count")? {
        return Err(format!("{what}: bucket counts disagree with 'count'"));
    }
    Ok(h)
}

/// Version tag of the snapshot JSON encoding.
pub const TELEMETRY_SCHEMA_VERSION: u64 = 1;

/// Why a telemetry snapshot did not decode.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The text is not JSON.
    Json(ParseError),
    /// The snapshot's `schema` tag is newer than this build reads.
    UnsupportedSchema(u64),
    /// A field is missing or mistyped, or disagrees with another.
    Field(String),
}

impl From<String> for SnapshotError {
    fn from(msg: String) -> Self {
        SnapshotError::Field(msg)
    }
}

impl From<&str> for SnapshotError {
    fn from(msg: &str) -> Self {
        SnapshotError::Field(msg.to_string())
    }
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Json(e) => write!(f, "invalid JSON: {e}"),
            SnapshotError::UnsupportedSchema(v) => write!(f, "unsupported telemetry schema {v}"),
            SnapshotError::Field(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl TelemetrySnapshot {
    /// The deterministic value-tree encoding: every field except the
    /// wall-clock span durations (`stage_ns`), which vary run to run.
    /// For a fixed seed and spec this encodes to byte-identical JSON
    /// across runs and machines.
    pub fn to_value(&self) -> Value {
        let stages: Vec<Value> = Stage::ALL
            .iter()
            .map(|&s| {
                obj(vec![
                    ("stage", Value::Str(s.as_str().to_string())),
                    ("calls", u(self.sched.stage_calls[s as usize])),
                    ("span_samples", u(self.sched.stage_samples[s as usize])),
                ])
            })
            .collect();
        let windows: Vec<Value> = self
            .windows
            .iter()
            .map(|w| {
                obj(vec![
                    ("at_us", u(w.at_us)),
                    ("theta2_star", fnum(w.theta2_star)),
                    ("a", fnum(w.a_hat)),
                    ("r", fnum(w.r_hat)),
                    ("rho", fnum(w.rho)),
                    ("theta_hat", fnum(w.theta_hat)),
                    ("clamp_events", u(w.clamp_events)),
                ])
            })
            .collect();
        let scorer_paths = match &self.scorer_paths {
            Some(paths) => obj(paths
                .entries()
                .iter()
                .map(|&(k, v)| (k, u(v)))
                .collect::<Vec<_>>()),
            None => Value::Null,
        };
        obj(vec![
            ("schema", u(TELEMETRY_SCHEMA_VERSION)),
            ("substrate", Value::Str(self.substrate.clone())),
            ("policy", Value::Str(self.policy.clone())),
            ("p", u(self.p as u64)),
            ("m", u(self.m as u64)),
            ("seed", u(self.seed)),
            (
                "place",
                obj(vec![
                    ("calls", u(self.sched.place_calls)),
                    ("stay_local", u(self.sched.stay_local)),
                    ("remote", u(self.sched.remote)),
                    ("no_live_nodes", u(self.sched.no_live_nodes)),
                    ("restarts", u(self.sched.restarts)),
                ]),
            ),
            ("stages", Value::Array(stages)),
            ("scorer_paths", scorer_paths),
            (
                "reservation",
                obj(vec![
                    ("clamp_events", u(self.clamp_events)),
                    ("series", Value::Array(windows)),
                ]),
            ),
            ("nodes", {
                let mut nodes = vec![
                    (
                        "busy",
                        Value::Array(self.node_busy.iter().map(|&b| fnum(b)).collect()),
                    ),
                    (
                        "charges",
                        Value::Array(self.sched.node_charges.iter().map(|&c| u(c)).collect()),
                    ),
                ];
                if !self.sched.region_charges.is_empty() {
                    nodes.push((
                        "region_charges",
                        Value::Array(self.sched.region_charges.iter().map(|&c| u(c)).collect()),
                    ));
                }
                obj(nodes)
            }),
            (
                "hists",
                obj(vec![
                    ("candidates", hist_value(&self.sched.candidates_hist)),
                    ("latency_us", hist_value(&self.sched.latency_us_hist)),
                    ("response_static_us", hist_value(&self.response_static_us)),
                    ("response_dynamic_us", hist_value(&self.response_dynamic_us)),
                ]),
            ),
        ])
    }

    /// The deterministic JSON encoding of [`to_value`](Self::to_value),
    /// pretty-printed with a trailing newline (the `--telemetry` file
    /// format).
    pub fn to_json(&self) -> String {
        let mut s = self.to_value().to_json_pretty();
        s.push('\n');
        s
    }

    /// Parse a snapshot back from the text [`to_json`](Self::to_json)
    /// wrote (`msweb metrics-dump --from`).
    pub fn from_json(text: &str) -> Result<TelemetrySnapshot, SnapshotError> {
        let v = Value::parse(text).map_err(SnapshotError::Json)?;
        TelemetrySnapshot::from_value(&v)
    }

    /// Parse a snapshot back from its [`to_value`](Self::to_value)
    /// encoding. Wall-clock span durations come back as zero (they are
    /// not encoded).
    pub fn from_value(v: &Value) -> Result<TelemetrySnapshot, SnapshotError> {
        let version = v
            .get("schema")
            .and_then(Value::as_u64)
            .ok_or("missing 'schema' tag")?;
        if version > TELEMETRY_SCHEMA_VERSION {
            return Err(SnapshotError::UnsupportedSchema(version));
        }
        let text = |k: &str| -> Result<String, String> {
            Ok(v.get(k)
                .and_then(Value::as_str)
                .ok_or_else(|| format!("missing '{k}'"))?
                .to_string())
        };
        let int = |node: &Value, k: &str| -> Result<u64, String> {
            node.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing or non-integer '{k}'"))
        };
        let float = |node: &Value, k: &str| -> Result<f64, String> {
            match node.get(k) {
                Some(Value::Null) => Ok(f64::NAN),
                Some(x) => x.as_f64().ok_or_else(|| format!("non-numeric '{k}'")),
                None => Err(format!("missing '{k}'")),
            }
        };

        let p = int(v, "p")? as usize;
        let place = v.get("place").ok_or("missing 'place'")?;
        let mut sched = SchedTelemetry::new(p);
        sched.place_calls = int(place, "calls")?;
        sched.stay_local = int(place, "stay_local")?;
        sched.remote = int(place, "remote")?;
        sched.no_live_nodes = int(place, "no_live_nodes")?;
        sched.restarts = int(place, "restarts")?;

        let stages = v
            .get("stages")
            .and_then(Value::as_array)
            .ok_or("missing 'stages'")?;
        for s in stages {
            let name = s
                .get("stage")
                .and_then(Value::as_str)
                .ok_or("stage entry without a name")?;
            let Some(stage) = Stage::ALL.iter().find(|k| k.as_str() == name) else {
                continue; // tolerate stages from a newer schema
            };
            sched.stage_calls[*stage as usize] = int(s, "calls")?;
            sched.stage_samples[*stage as usize] = int(s, "span_samples")?;
        }

        let scorer_paths = match v.get("scorer_paths") {
            None | Some(Value::Null) => None,
            Some(sp) => Some(ScorerPaths {
                indexed: int(sp, "indexed")?,
                dense_unindexed: int(sp, "dense_unindexed")?,
                dense_small: int(sp, "dense_small")?,
                dense_degenerate: int(sp, "dense_degenerate")?,
                dense_no_range: int(sp, "dense_no_range")?,
                // Absent from snapshots written before the counter existed.
                dense_w_overflow: match sp.get("dense_w_overflow") {
                    None => 0,
                    Some(_) => int(sp, "dense_w_overflow")?,
                },
            }),
        };

        let reservation = v.get("reservation").ok_or("missing 'reservation'")?;
        let clamp_events = int(reservation, "clamp_events")?;
        let mut windows = Vec::new();
        for w in reservation
            .get("series")
            .and_then(Value::as_array)
            .ok_or("missing reservation 'series'")?
        {
            windows.push(WindowSample {
                at_us: int(w, "at_us")?,
                theta2_star: float(w, "theta2_star")?,
                a_hat: float(w, "a")?,
                r_hat: float(w, "r")?,
                rho: float(w, "rho")?,
                theta_hat: float(w, "theta_hat")?,
                clamp_events: int(w, "clamp_events")?,
            });
        }

        let nodes = v.get("nodes").ok_or("missing 'nodes'")?;
        let mut node_busy = Vec::new();
        for b in nodes
            .get("busy")
            .and_then(Value::as_array)
            .ok_or("missing node 'busy'")?
        {
            node_busy.push(b.as_f64().ok_or("non-numeric node busy gauge")?);
        }
        let charges = nodes
            .get("charges")
            .and_then(Value::as_array)
            .ok_or("missing node 'charges'")?;
        if charges.len() != p {
            return Err(SnapshotError::Field(format!(
                "node charges length {} disagrees with p={p}",
                charges.len()
            )));
        }
        for (i, c) in charges.iter().enumerate() {
            sched.node_charges[i] = c.as_u64().ok_or("non-integer node charge count")?;
        }
        if let Some(region_charges) = nodes.get("region_charges").and_then(Value::as_array) {
            for c in region_charges {
                sched
                    .region_charges
                    .push(c.as_u64().ok_or("non-integer region charge count")?);
            }
        }

        let hists = v.get("hists").ok_or("missing 'hists'")?;
        let hist = |k: &str| -> Result<LogHistogram, String> {
            hist_from_value(
                hists.get(k).ok_or_else(|| format!("missing hist '{k}'"))?,
                k,
            )
        };
        sched.candidates_hist = hist("candidates")?;
        sched.latency_us_hist = hist("latency_us")?;

        Ok(TelemetrySnapshot {
            substrate: text("substrate")?,
            policy: text("policy")?,
            p,
            m: int(v, "m")? as usize,
            seed: int(v, "seed")?,
            sched,
            scorer_paths,
            clamp_events,
            windows,
            node_busy,
            response_static_us: hist("response_static_us")?,
            response_dynamic_us: hist("response_dynamic_us")?,
        })
    }

    /// Render the snapshot in the Prometheus text exposition format.
    /// Unlike the JSON encoding this *does* include the sampled
    /// wall-clock span totals (`msweb_stage_span_ns_total`), which are
    /// inherently nondeterministic.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let w = &mut out;

        let _ = writeln!(w, "# HELP msweb_run_info Identity of the telemetered run.");
        let _ = writeln!(w, "# TYPE msweb_run_info gauge");
        let _ = writeln!(
            w,
            "msweb_run_info{{substrate=\"{}\",policy=\"{}\",p=\"{}\",m=\"{}\",seed=\"{}\"}} 1",
            prom_label_escape(&self.substrate),
            prom_label_escape(&self.policy),
            self.p,
            self.m,
            self.seed
        );

        let _ = writeln!(
            w,
            "# HELP msweb_place_decisions_total Placement decisions by outcome \
             (matches the v2 decision-log 'decision'/'drop' events)."
        );
        let _ = writeln!(w, "# TYPE msweb_place_decisions_total counter");
        for (outcome, n) in [
            ("stay_local", self.sched.stay_local),
            ("remote", self.sched.remote),
            ("no_live_nodes", self.sched.no_live_nodes),
        ] {
            let _ = writeln!(
                w,
                "msweb_place_decisions_total{{outcome=\"{outcome}\"}} {n}"
            );
        }
        let _ = writeln!(
            w,
            "# HELP msweb_place_restarts_total Post-failure re-placements."
        );
        let _ = writeln!(w, "# TYPE msweb_place_restarts_total counter");
        let _ = writeln!(w, "msweb_place_restarts_total {}", self.sched.restarts);

        let _ = writeln!(
            w,
            "# HELP msweb_stage_calls_total Pipeline stage invocations."
        );
        let _ = writeln!(w, "# TYPE msweb_stage_calls_total counter");
        for &s in &Stage::ALL {
            let _ = writeln!(
                w,
                "msweb_stage_calls_total{{stage=\"{}\"}} {}",
                s.as_str(),
                self.sched.stage_calls[s as usize]
            );
        }
        let _ = writeln!(
            w,
            "# HELP msweb_stage_span_ns_total Sampled wall-clock nanoseconds \
             per stage (1 in {SPAN_SAMPLE_EVERY} decisions is timed)."
        );
        let _ = writeln!(w, "# TYPE msweb_stage_span_ns_total counter");
        for &s in &Stage::ALL {
            let _ = writeln!(
                w,
                "msweb_stage_span_ns_total{{stage=\"{}\"}} {}",
                s.as_str(),
                self.sched.stage_ns[s as usize]
            );
        }
        let _ = writeln!(
            w,
            "# HELP msweb_stage_span_samples_total Timed invocations per stage."
        );
        let _ = writeln!(w, "# TYPE msweb_stage_span_samples_total counter");
        for &s in &Stage::ALL {
            let _ = writeln!(
                w,
                "msweb_stage_span_samples_total{{stage=\"{}\"}} {}",
                s.as_str(),
                self.sched.stage_samples[s as usize]
            );
        }

        if let Some(paths) = &self.scorer_paths {
            let _ = writeln!(
                w,
                "# HELP msweb_scorer_path_total RSRC scorer resolution path: \
                 decision index vs dense-scan fallbacks."
            );
            let _ = writeln!(w, "# TYPE msweb_scorer_path_total counter");
            for (path, n) in paths.entries() {
                let _ = writeln!(w, "msweb_scorer_path_total{{path=\"{path}\"}} {n}");
            }
        }

        let _ = writeln!(
            w,
            "# HELP msweb_reservation_clamp_total Admission-cap clamp events \
             (θ interval midpoint clamped or cap forced degenerate)."
        );
        let _ = writeln!(w, "# TYPE msweb_reservation_clamp_total counter");
        let _ = writeln!(w, "msweb_reservation_clamp_total {}", self.clamp_events);
        let _ = writeln!(
            w,
            "# HELP msweb_monitor_windows_total Monitor windows sampled."
        );
        let _ = writeln!(w, "# TYPE msweb_monitor_windows_total counter");
        let _ = writeln!(w, "msweb_monitor_windows_total {}", self.windows.len());
        if let Some(last) = self.windows.last() {
            for (name, help, value) in [
                (
                    "msweb_reservation_theta2_star",
                    "Theorem 1 admission cap θ2* (latest window).",
                    last.theta2_star,
                ),
                (
                    "msweb_reservation_arrival_ratio_a",
                    "Measured arrival ratio a (EWMA, latest window).",
                    last.a_hat,
                ),
                (
                    "msweb_reservation_demand_ratio_r",
                    "Measured demand-ratio proxy r (EWMA, latest window).",
                    last.r_hat,
                ),
                (
                    "msweb_reservation_rho",
                    "Mean node utilisation ρ (latest window).",
                    last.rho,
                ),
                (
                    "msweb_reservation_theta_hat",
                    "Measured master-local dynamic fraction θ̂ (latest window).",
                    last.theta_hat,
                ),
            ] {
                let _ = writeln!(w, "# HELP {name} {help}");
                let _ = writeln!(w, "# TYPE {name} gauge");
                let _ = writeln!(w, "{name} {value}");
            }
        }

        let _ = writeln!(
            w,
            "# HELP msweb_node_busy_ratio Per-node busy fraction over the \
             latest monitor window."
        );
        let _ = writeln!(w, "# TYPE msweb_node_busy_ratio gauge");
        for (i, b) in self.node_busy.iter().enumerate() {
            let _ = writeln!(w, "msweb_node_busy_ratio{{node=\"{i}\"}} {b}");
        }
        let _ = writeln!(
            w,
            "# HELP msweb_node_charges_total Placements charged to each node \
             (matches the 'chosen' field of decision-log events)."
        );
        let _ = writeln!(w, "# TYPE msweb_node_charges_total counter");
        for (i, c) in self.sched.node_charges.iter().enumerate() {
            let _ = writeln!(w, "msweb_node_charges_total{{node=\"{i}\"}} {c}");
        }
        if !self.sched.region_charges.is_empty() {
            let _ = writeln!(
                w,
                "# HELP msweb_region_charges_total Placements charged to each \
                 front-tier region by the region-selector stage."
            );
            let _ = writeln!(w, "# TYPE msweb_region_charges_total counter");
            for (i, c) in self.sched.region_charges.iter().enumerate() {
                let _ = writeln!(w, "msweb_region_charges_total{{region=\"{i}\"}} {c}");
            }
        }

        prom_histogram(
            w,
            "msweb_scorer_candidates",
            "Candidate-set size per scored decision.",
            "",
            &self.sched.candidates_hist,
        );
        prom_histogram(
            w,
            "msweb_transfer_latency_us",
            "Transfer latency per placement, microseconds.",
            "",
            &self.sched.latency_us_hist,
        );
        prom_histogram(
            w,
            "msweb_response_us",
            "End-to-end response time, microseconds (matches the \
             decision-log 'complete' events).",
            "class=\"static\"",
            &self.response_static_us,
        );
        prom_histogram(
            w,
            "msweb_response_us",
            "",
            "class=\"dynamic\"",
            &self.response_dynamic_us,
        );
        out
    }
}

impl PartialEq for TelemetrySnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.to_value() == other.to_value()
    }
}

impl serde::Serialize for TelemetrySnapshot {
    fn to_value(&self) -> Value {
        TelemetrySnapshot::to_value(self)
    }
}

/// Append one histogram in Prometheus exposition form: cumulative
/// `_bucket{le=...}` lines over the occupied buckets, then `_sum` and
/// `_count`. `extra_label` ("" or `key="value"`) is merged into every
/// label set; pass the HELP text only on the first class of a metric.
fn prom_histogram(out: &mut String, name: &str, help: &str, extra_label: &str, h: &LogHistogram) {
    use std::fmt::Write as _;
    if !help.is_empty() {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} histogram");
    }
    let sep = if extra_label.is_empty() { "" } else { "," };
    let mut cumulative = 0u64;
    for (_, _, hi, c) in h.nonzero_buckets() {
        cumulative += c;
        let _ = writeln!(
            out,
            "{name}_bucket{{{extra_label}{sep}le=\"{hi}\"}} {cumulative}"
        );
    }
    let _ = writeln!(
        out,
        "{name}_bucket{{{extra_label}{sep}le=\"+Inf\"}} {}",
        h.count()
    );
    if extra_label.is_empty() {
        let _ = writeln!(out, "{name}_sum {}", h.sum());
        let _ = writeln!(out, "{name}_count {}", h.count());
    } else {
        let _ = writeln!(out, "{name}_sum{{{extra_label}}} {}", h.sum());
        let _ = writeln!(out, "{name}_count{{{extra_label}}} {}", h.count());
    }
}

/// Render the `msweb top`-style table live runs print to stderr: the
/// latest controller window plus a per-node busy/in-flight/finished
/// row. `in_flight` and `finished` may be empty when the caller has no
/// per-node counters.
pub fn render_top(
    window: Option<&WindowSample>,
    busy: &[f64],
    in_flight: &[u64],
    finished: &[u64],
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    match window {
        Some(s) => {
            let _ = writeln!(
                out,
                "[msweb top] t={:>8.2}s  θ2*={:.3}  θ̂={:.3}  a={:.3}  r={:.4}  ρ={:.2}  clamps={}",
                s.at_us as f64 / 1e6,
                s.theta2_star,
                s.theta_hat,
                s.a_hat,
                s.r_hat,
                s.rho,
                s.clamp_events
            );
        }
        None => {
            let _ = writeln!(out, "[msweb top] warming up (no monitor window yet)");
        }
    }
    let _ = writeln!(out, "  node   busy       bar              in-flight  done");
    for (i, &b) in busy.iter().enumerate() {
        let filled = (b.clamp(0.0, 1.0) * 16.0).round() as usize;
        let bar: String = "#".repeat(filled) + &".".repeat(16 - filled);
        let inflight = in_flight.get(i).copied().unwrap_or(0);
        let done = finished.get(i).copied().unwrap_or(0);
        let _ = writeln!(
            out,
            "  {i:>4}   {b:>5.2}  [{bar}]  {inflight:>9}  {done:>5}"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> TelemetrySnapshot {
        let mut sched = SchedTelemetry::new(4);
        sched.place_calls = 100;
        sched.stay_local = 40;
        sched.remote = 60;
        sched.stage_calls = [100, 100, 100, 60, 100];
        sched.stage_ns = [5, 4, 3, 2, 1]; // excluded from JSON
        sched.stage_samples = [2, 2, 2, 1, 2];
        sched.node_charges = vec![30, 25, 25, 20];
        sched.candidates_hist.record_n(3, 60);
        sched.latency_us_hist.record_n(200, 60);
        sched.latency_us_hist.record_n(0, 40);
        let mut response_static_us = LogHistogram::new();
        response_static_us.record(12_000);
        let mut response_dynamic_us = LogHistogram::new();
        response_dynamic_us.record(90_000);
        TelemetrySnapshot {
            substrate: "sim".to_string(),
            policy: "ms".to_string(),
            p: 4,
            m: 2,
            seed: 42,
            sched,
            scorer_paths: Some(ScorerPaths {
                indexed: 55,
                dense_small: 5,
                ..ScorerPaths::default()
            }),
            clamp_events: 1,
            windows: vec![WindowSample {
                at_us: 500_000,
                theta2_star: 0.42,
                a_hat: 0.25,
                r_hat: 0.025,
                rho: 0.8,
                theta_hat: 0.3,
                clamp_events: 1,
            }],
            node_busy: vec![0.5, 0.25, 0.75, 1.0],
            response_static_us,
            response_dynamic_us,
        }
    }

    #[test]
    fn json_round_trip() {
        let snap = sample_snapshot();
        let json = snap.to_json();
        let parsed = Value::parse(&json).expect("snapshot JSON parses");
        let back = TelemetrySnapshot::from_value(&parsed).expect("snapshot decodes");
        assert_eq!(back, snap);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn region_charges_round_trip_and_stay_off_regionless_snapshots() {
        let regionless = sample_snapshot();
        assert!(!regionless.to_json().contains("region_charges"));
        assert!(!regionless
            .to_prometheus()
            .contains("msweb_region_charges_total"));

        let mut snap = sample_snapshot();
        snap.sched.region_charges = vec![70, 30];
        let json = snap.to_json();
        assert!(json.contains("region_charges"));
        let back = TelemetrySnapshot::from_json(&json).expect("snapshot decodes");
        assert_eq!(back.sched.region_charges, [70, 30]);
        assert_eq!(back, snap);
        assert!(snap
            .to_prometheus()
            .contains("msweb_region_charges_total{region=\"1\"} 30"));
    }

    #[test]
    fn decode_errors_are_typed() {
        let err = TelemetrySnapshot::from_json("{").expect_err("not JSON");
        assert!(matches!(err, SnapshotError::Json(_)));
        assert!(err.to_string().starts_with("invalid JSON: "), "{err}");
        let newer = sample_snapshot()
            .to_json()
            .replacen("\"schema\": 1", "\"schema\": 99", 1);
        let err = TelemetrySnapshot::from_json(&newer).expect_err("newer schema");
        assert_eq!(err, SnapshotError::UnsupportedSchema(99));
        assert_eq!(err.to_string(), "unsupported telemetry schema 99");
        let err = TelemetrySnapshot::from_json(r#"{"schema": 1}"#).expect_err("no fields");
        assert_eq!(err.to_string(), "missing or non-integer 'p'");
    }

    #[test]
    fn span_ns_is_not_encoded() {
        let mut snap = sample_snapshot();
        let before = snap.to_json();
        snap.sched.stage_ns = [999; STAGE_COUNT];
        assert_eq!(snap.to_json(), before);
        assert!(!before.contains("span_ns"));
    }

    #[test]
    fn prometheus_has_the_headline_metrics() {
        let prom = sample_snapshot().to_prometheus();
        for needle in [
            "msweb_run_info{substrate=\"sim\",policy=\"ms\",p=\"4\",m=\"2\",seed=\"42\"} 1",
            "msweb_place_decisions_total{outcome=\"remote\"} 60",
            "msweb_stage_span_ns_total{stage=\"scorer\"} 2",
            "msweb_scorer_path_total{path=\"indexed\"} 55",
            "msweb_reservation_theta2_star 0.42",
            "msweb_reservation_clamp_total 1",
            "msweb_node_busy_ratio{node=\"3\"} 1",
            "msweb_node_charges_total{node=\"0\"} 30",
            "msweb_response_us_bucket{class=\"dynamic\",le=\"+Inf\"} 1",
            "msweb_transfer_latency_us_count 100",
        ] {
            assert!(prom.contains(needle), "missing {needle:?} in:\n{prom}");
        }
    }

    #[test]
    fn run_info_labels_are_escaped() {
        let mut snap = sample_snapshot();
        snap.policy = "spec\"with\\quotes\nand newline".to_string();
        let prom = snap.to_prometheus();
        assert!(
            prom.contains("policy=\"spec\\\"with\\\\quotes\\nand newline\""),
            "{prom}"
        );
        assert!(!prom.contains("policy=\"spec\"with"), "{prom}");
    }

    #[test]
    fn region_charge_gauges_carry_help_and_type() {
        let mut snap = sample_snapshot();
        snap.sched.region_charges = vec![70, 30];
        let prom = snap.to_prometheus();
        let charges = prom
            .find("msweb_region_charges_total{")
            .expect("region charge series present");
        let help = prom
            .find("# HELP msweb_region_charges_total")
            .expect("HELP line present");
        let typ = prom
            .find("# TYPE msweb_region_charges_total")
            .expect("TYPE line present");
        assert!(help < typ && typ < charges, "header lines precede series");
    }

    #[test]
    fn top_table_renders_every_node() {
        let snap = sample_snapshot();
        let top = render_top(
            snap.windows.last(),
            &snap.node_busy,
            &[1, 0, 2, 0],
            &[10, 11, 12, 13],
        );
        assert!(top.contains("θ2*=0.420"), "{top}");
        for node in 0..4 {
            assert!(top.contains(&format!("\n  {node:>4}   ")), "{top}");
        }
    }
}
