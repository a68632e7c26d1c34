//! Per-decision observability: the [`DecisionObserver`] hook, the
//! [`TraceEvent`] stream (schema v3) emitted for every placement,
//! completion, monitor tick and failure event, and sinks.
//!
//! Both execution substrates — the event-driven simulator and the live
//! emulation — thread the observer through the *same* `Scheduler`
//! value, so the JSONL a [`JsonlSink`] writes is schema-identical
//! regardless of which substrate drove the run.
//!
//! # JSONL schema
//!
//! The log is *event-sourced*: every line is one JSON object with a
//! version tag `"v"` and an event tag `"ev"`, and the line sequence
//! records every scheduler-state mutation in call order. That makes a
//! log a complete replay input: [`crate::sched::replay`] re-drives any
//! scheduler composition over it and diffs the placements.
//!
//! | `ev` | emitted on | payload |
//! |---|---|---|
//! | `meta` | run start | substrate, cluster shape, policy, seed, priors |
//! | `decision` | every placement | the [`DecisionRecord`] fields |
//! | `complete` | request completion | request, node, class, response |
//! | `tick` | monitor tick | cumulative per-node busy counters, ρ |
//! | `node-down` / `node-up` | liveness change | node index |
//! | `drop` | request dropped | request, class, whether the scheduler ran |
//! | `alert` | SLO burn-rate rule fired (only when rules attached) | rule, signal, observed vs budget |
//!
//! Schema v3 writes a decision's candidate set as a range descriptor,
//! `"candidates":{"lo":L,"hi":H,"dead":[…]}` (the nodes of `[L, H)`
//! other than `dead`), or as a list when it is no such range (see
//! [`Candidates`]), and writes no per-candidate scores: a score is a
//! function of the last `tick` line and the decisions since, so replay
//! recomputes it. A v3 decision line therefore does not grow with `p`.
//! Schema-v2 lines, which list every candidate and its `scores`, still
//! parse; readers ignore the recorded scores.
//!
//! Unknown fields and newer schema versions degrade to warnings. A line
//! without an `"ev"` tag — such as a bare schema-v1 [`DecisionRecord`],
//! which lacks the fields replay needs — is a
//! [`ParseLineError::Untagged`] error.
//!
//! # Encoding
//!
//! One writer appends an event's fields as bytes straight into a line
//! buffer in a fixed key order; no JSON value tree is built per event.
//! Integers are written as digits, floats as `serde` renders them
//! (`{:?}`, non-finite as `null`), and strings go through
//! `serde::to_json_string`, so each line is byte for byte what `serde`
//! renders for the same fields. Every piece of a line is a fixed-width
//! copy: each key is one `,"key":` constant, an integer is rendered
//! left-aligned into 20 bytes that are appended whole and then cut back
//! to its digit count, and a memoised float likewise appends its
//! 24-byte slot.
//!
//! RSRC costs move only when a placement charges a node or a monitor
//! tick refreshes the load view, so a log repeats the same few floats.
//! The encoder state therefore holds, next to the line buffer, a
//! 1024-slot direct-mapped memo of rendered float text keyed by bit
//! pattern: a hit copies the stored bytes, a miss renders with std's
//! `{:?}` and takes the slot. [`JsonlSink`] owns one encoder for its
//! lifetime, so its memo warms up over the run; [`encode_event`] uses a
//! fresh one and checks its line as UTF-8 once.

use super::region::RegionTopology;
use super::replay::ReplayError;
use serde::{Serialize, Value};
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;

/// Current version written into every line's `"v"` field.
pub const TRACE_SCHEMA_VERSION: u64 = 3;

/// The candidate set of one decision.
///
/// A [`JsonlSink`] log writes the set in one canonical form, whichever
/// path the scheduler took to it: a `Range` whose `lo` and `hi - 1` are
/// candidates, unless its excluded nodes would outnumber its
/// candidates (a region-masked placement, say) or the set is empty, in
/// which case an ascending `List`. A record built for an observer that
/// [wants scores](DecisionObserver::wants_scores) holds a `List` in
/// collection order instead, aligned with its `scores`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Candidates {
    /// The candidate nodes (empty when the request stayed on its entry
    /// node).
    List(Vec<usize>),
    /// The nodes of `[lo, hi)` other than `dead`, which is ascending
    /// and inside the range. Excluded nodes are dead, or outside the
    /// placement's region.
    Range {
        /// First node of the range.
        lo: usize,
        /// One past the last node of the range.
        hi: usize,
        /// The range's nodes that are not candidates, ascending.
        dead: Vec<usize>,
    },
}

impl Default for Candidates {
    fn default() -> Self {
        Candidates::List(Vec::new())
    }
}

impl Candidates {
    /// Number of candidate nodes.
    pub fn len(&self) -> usize {
        match self {
            Candidates::List(nodes) => nodes.len(),
            Candidates::Range { lo, hi, dead } => hi.saturating_sub(*lo + dead.len()),
        }
    }

    /// Whether the set holds no node (the request stayed on its entry
    /// node).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The candidate nodes, ascending and without repeats: the set
    /// either form stands for.
    pub fn sorted(&self) -> Vec<usize> {
        match self {
            Candidates::List(nodes) => {
                let mut nodes = nodes.clone();
                nodes.sort_unstable();
                nodes.dedup();
                nodes
            }
            Candidates::Range { lo, hi, dead } => {
                let mut dead = dead.iter().copied().peekable();
                (*lo..*hi)
                    .filter(|&n| dead.next_if_eq(&n).is_none())
                    .collect()
            }
        }
    }

    /// Empty the set and hand back its buffer, so a record refilled in
    /// place keeps the capacity.
    pub fn take_buffer(&mut self) -> Vec<usize> {
        let mut buf = match std::mem::take(self) {
            Candidates::List(nodes) => nodes,
            Candidates::Range { dead, .. } => dead,
        };
        buf.clear();
        buf
    }
}

/// Everything the scheduler knew (and decided) for one placement.
///
/// Serialised one-per-line by [`JsonlSink`]. `candidates` is the
/// candidate set the scorer saw (empty when the request stayed on its
/// entry node). `scores` holds the per-candidate scorer values sampled
/// *before* the charge-back debit, aligned with a `List` in collection
/// order, only when the observer asked for them
/// ([`DecisionObserver::wants_scores`]) or a schema-v2 line carried
/// them; no line writes them.
///
/// The fields after `latency_us` capture the *inputs* of the decision
/// (`req`, `at_us`, `demand_us`, `w`, `expected_us`, `restart`) and the
/// admission verdict (`masters_ok`), which is what lets
/// [`crate::sched::replay`] re-drive the decision and attribute a
/// disagreement to a pipeline stage; every decision line must carry
/// them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecisionRecord {
    /// 1-based decision sequence number within the scheduler.
    pub seq: u64,
    /// Whether the request was dynamic (CGI-class).
    pub dynamic: bool,
    /// Entry node chosen by the front end.
    pub entry: usize,
    /// Candidate nodes considered.
    pub candidates: Candidates,
    /// Per-candidate scores aligned with a `List` of `candidates` (RSRC
    /// cost for the built-in policies; lower is better); empty unless
    /// the observer asked for them.
    pub scores: Vec<f64>,
    /// Measured fraction of dynamic requests routed to masters (θ̂).
    pub theta_hat: f64,
    /// Current reservation admission cap (θ2*, Theorem 1).
    pub theta2_star: f64,
    /// Node the request was placed on.
    pub chosen: usize,
    /// Whether the placement counts toward the master level.
    pub on_master: bool,
    /// Whether the move was an HTTP redirection (client round trip)
    /// rather than an in-cluster transfer.
    pub redirected: bool,
    /// Transfer latency paid, in microseconds.
    pub latency_us: u64,
    /// Driver request id (trace index); equals `seq` when the driver
    /// did not annotate the request.
    pub req: u64,
    /// Decision time in microseconds of substrate time.
    pub at_us: u64,
    /// The request's actual service demand in microseconds (0 when the
    /// driver did not annotate it).
    pub demand_us: u64,
    /// The sampled CPU weight `w` passed to `place`.
    pub w: f64,
    /// The expected-demand charge passed to `place`, in microseconds.
    pub expected_us: u64,
    /// The admission stage's verdict: whether masters were eligible for
    /// this request.
    pub masters_ok: bool,
    /// Whether this decision re-placed a request lost to a node failure
    /// (`replace_after_failure`).
    pub restart: bool,
    /// Client origin region index the driver tagged the request with.
    /// Only meaningful (and only serialised) when `region` is `Some`;
    /// region-free logs parse it back as 0.
    pub origin: usize,
    /// Region chosen by the region stage, `None` when the pipeline has
    /// no region front tier. `origin` and `region` are serialised only
    /// when this is `Some`, so region-free logs keep the exact pre-
    /// region field set.
    pub region: Option<usize>,
}

/// One node's cumulative load counters as sampled at a monitor tick —
/// the recorded form of an `ossim` `LoadSnapshot`, sufficient to replay
/// `LoadMonitor::tick` exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSample {
    /// Cumulative CPU busy time, microseconds.
    pub cpu_busy_us: u64,
    /// Cumulative disk busy time, microseconds.
    pub disk_busy_us: u64,
    /// Fraction of memory free at the tick.
    pub mem_free_ratio: f64,
    /// CPU ready-queue length at the tick.
    pub ready_len: usize,
    /// Disk queue length at the tick.
    pub disk_queue_len: usize,
    /// Live processes at the tick.
    pub processes: usize,
}

impl NodeSample {
    /// Record an `ossim` snapshot (drops the timestamp, which the tick
    /// event carries once for all nodes).
    pub fn from_snapshot(s: &msweb_ossim::LoadSnapshot) -> Self {
        NodeSample {
            cpu_busy_us: s.cpu_busy.as_micros(),
            disk_busy_us: s.disk_busy.as_micros(),
            mem_free_ratio: s.mem_free_ratio,
            ready_len: s.ready_len,
            disk_queue_len: s.disk_queue_len,
            processes: s.processes,
        }
    }

    /// Rebuild the `ossim` snapshot at tick time `at_us`.
    pub fn to_snapshot(self, at_us: u64) -> msweb_ossim::LoadSnapshot {
        msweb_ossim::LoadSnapshot {
            at: msweb_simcore::SimTime(at_us),
            cpu_busy: msweb_simcore::SimDuration::from_micros(self.cpu_busy_us),
            disk_busy: msweb_simcore::SimDuration::from_micros(self.disk_busy_us),
            mem_free_ratio: self.mem_free_ratio,
            ready_len: self.ready_len,
            disk_queue_len: self.disk_queue_len,
            processes: self.processes,
        }
    }
}

/// Run-level identity emitted once at the head of a traced run: enough
/// to rebuild the scheduler (and its deterministic RNG) for replay.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMeta {
    /// Which substrate drove the run: `"sim"` or `"live"`.
    pub substrate: String,
    /// Cluster size `p`.
    pub p: usize,
    /// Resolved master count `m`.
    pub m: usize,
    /// Policy slug (`PolicyKind::slug`) the scheduler was built for.
    pub policy: String,
    /// Registry stage spec, when the run used a custom composition
    /// rather than the built-in policy factory.
    pub spec: Option<String>,
    /// Dispatch RNG seed.
    pub seed: u64,
    /// Arrival-ratio prior seeding the reservation controller.
    pub a0: f64,
    /// Demand-ratio prior seeding the reservation controller.
    pub r0: f64,
    /// Master capacity reserve.
    pub master_reserve: f64,
    /// DNS cache skew of the front end.
    pub dns_skew: f64,
    /// Monitor period, microseconds.
    pub monitor_period_us: u64,
    /// Remote dispatch latency, microseconds.
    pub remote_latency_us: u64,
    /// Redirect round-trip penalty, microseconds.
    pub redirect_rtt_us: u64,
    /// Per-node speed factors (`None` = homogeneous).
    pub speeds: Option<Vec<f64>>,
    /// Region topology, when the run used a region front tier.
    /// Serialised only when `Some`, so region-free logs keep the exact
    /// pre-region field set.
    pub regions: Option<RegionTopology>,
}

/// A dropped request: either the front end found no live node (the
/// scheduler ran and consumed RNG draws before failing) or fail-over
/// bookkeeping discarded it without consulting the scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct DropRecord {
    /// Driver request id.
    pub req: u64,
    /// Drop time in microseconds of substrate time.
    pub at_us: u64,
    /// Whether the request was dynamic.
    pub dynamic: bool,
    /// The sampled CPU weight that was (or would have been) passed to
    /// the scheduler.
    pub w: f64,
    /// The expected-demand charge, microseconds.
    pub expected_us: u64,
    /// Whether the scheduler was actually invoked (and advanced its
    /// RNG) before the drop — replay must re-drive such calls to stay
    /// in lockstep.
    pub redrive: bool,
    /// Whether the drop happened on the fail-over path (a lost request
    /// that was not restarted) rather than at the front end.
    pub restart: bool,
    /// Client origin region of the dropped request; 0 for regionless
    /// workloads (serialised only when non-zero, so regionless logs are
    /// byte-identical to older ones). Replay re-drives the drop with
    /// the same origin to stay in lockstep under region outages.
    pub origin: usize,
}

/// One line of a decision log; see the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Run identity; first line of every traced run.
    Meta(RunMeta),
    /// One placement decision.
    Decision(DecisionRecord),
    /// A request completed on `node`.
    Complete {
        /// Driver request id.
        req: u64,
        /// Node the request completed on.
        node: usize,
        /// Whether the request's *class* was dynamic (note: a cached
        /// CGI hit is placed as static but completes as dynamic here,
        /// matching the reservation controller's response feed).
        dynamic: bool,
        /// Response time, microseconds.
        response_us: u64,
    },
    /// A load-monitor tick.
    Tick {
        /// Tick time, microseconds.
        at_us: u64,
        /// Mean cluster utilisation fed to the reservation controller.
        rho: f64,
        /// Per-node cumulative counters, in node order.
        nodes: Vec<NodeSample>,
    },
    /// A node was marked dead.
    NodeDown {
        /// Node index.
        node: usize,
    },
    /// A node was revived.
    NodeUp {
        /// Node index.
        node: usize,
    },
    /// A request was dropped.
    Drop(DropRecord),
    /// An SLO burn-rate alert fired by the telemetry SLO engine
    /// (see [`crate::telemetry::slo`]). Emitted only when a run is
    /// driven with SLO rules attached, so logs from rule-less runs stay
    /// byte-identical to older ones; replay skips it (the alert is
    /// derived data, re-computable from the surrounding events by
    /// `msweb slo-check`).
    Alert {
        /// Window end the alert fired at, microseconds.
        at_us: u64,
        /// Name of the rule that fired.
        rule: String,
        /// Signal the rule watches (`stretch`, `drop_rate`, `clamp_rate`).
        signal: String,
        /// Rolling-window length, in monitor windows.
        windows: u64,
        /// Burn-rate threshold (multiple of the budget).
        burn_rate: f64,
        /// Observed rolling mean of the signal.
        observed: f64,
        /// The rule's budget for the signal.
        budget: f64,
    },
    /// An event tag this version does not know (a newer schema);
    /// parsed for forward compatibility, skipped by replay.
    Unknown {
        /// The unrecognised `"ev"` tag.
        ev: String,
    },
}

// ------------------------------------------------------------- encoding

/// log2 of the number of slots in the encoder's float memo (1024 slots
/// of 40 bytes). `float_memo_survives_collisions_and_evictions` writes
/// more distinct floats than that, so collisions and evictions are
/// covered.
const FLOAT_MEMO_BITS: u32 = 10;
const FLOAT_MEMO_SLOTS: usize = 1 << FLOAT_MEMO_BITS;

/// Longest `{:?}` text of a finite `f64`: `-1.2345678901234567e-308`.
const FLOAT_TEXT_MAX: usize = 24;

/// One float-memo slot: a float's bit pattern and its rendered text.
#[derive(Clone, Copy)]
struct MemoSlot {
    bits: u64,
    /// Length of `text`; 0 marks an empty slot (no float renders empty).
    len: u8,
    text: [u8; FLOAT_TEXT_MAX],
}

const EMPTY_SLOT: MemoSlot = MemoSlot {
    bits: 0,
    len: 0,
    text: [0; FLOAT_TEXT_MAX],
};

/// The encoder's state: the line being written, and a direct-mapped
/// memo of rendered float text keyed by bit pattern that persists
/// across the lines one encoder writes.
///
/// Between monitor ticks a node's cost moves only when a placement
/// charges it, so a log writes the same few floats again and again. A
/// memo hit copies the stored bytes; a miss renders with `{:?}` and
/// evicts whatever held the slot.
struct Encoder {
    line: Vec<u8>,
    floats: Box<[MemoSlot; FLOAT_MEMO_SLOTS]>,
}

impl Encoder {
    fn new() -> Self {
        Encoder {
            line: Vec::new(),
            floats: Box::new([EMPTY_SLOT; FLOAT_MEMO_SLOTS]),
        }
    }

    /// Append `bytes`, whose length the caller fixes at compile time.
    fn bytes<const N: usize>(&mut self, bytes: &[u8; N]) {
        self.line.extend_from_slice(bytes);
    }

    fn byte(&mut self, b: u8) {
        self.line.push(b);
    }

    /// Append the first `len` bytes of `text`: all of `text` is copied,
    /// a fixed-width copy, and the tail then cut off.
    fn prefix<const N: usize>(&mut self, text: &[u8; N], len: usize) {
        let end = self.line.len() + len;
        self.line.extend_from_slice(text);
        self.line.truncate(end);
    }

    /// Append `n` in decimal.
    fn u64(&mut self, n: u64) {
        let len = n.checked_ilog10().map_or(1, |d| d as usize + 1);
        let mut digits = [0u8; 20];
        let mut rest = n;
        for digit in digits[..len].iter_mut().rev() {
            *digit = b'0' + (rest % 10) as u8;
            rest /= 10;
        }
        self.prefix(&digits, len);
    }

    fn bool(&mut self, b: bool) {
        if b {
            self.prefix(b"true ", 4);
        } else {
            self.bytes(b"false");
        }
    }

    /// Append `x` as `serde` renders a float: `{:?}` (which keeps a
    /// decimal point or exponent, so the number parses back as a float),
    /// or `null` when it is not finite.
    fn f64(&mut self, x: f64) {
        if !x.is_finite() {
            self.bytes(b"null");
            return;
        }
        let bits = x.to_bits();
        // Fibonacci hashing: round values such as 0.5 differ only in
        // their high bits, so the top bits of the product pick the slot.
        let slot = &mut self.floats
            [(bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - FLOAT_MEMO_BITS)) as usize];
        if slot.len != 0 && slot.bits == bits {
            let (text, len) = (slot.text, usize::from(slot.len));
            self.prefix(&text, len);
            return;
        }
        let start = self.line.len();
        // Writing into a `Vec<u8>` cannot fail.
        let _ = write!(self.line, "{x:?}");
        let text = &self.line[start..];
        if let Some(stored) = slot.text.get_mut(..text.len()) {
            stored.copy_from_slice(text);
            slot.bits = bits;
            slot.len = text.len() as u8;
        }
    }

    /// Append a string, or anything else, as `serde` renders it: the
    /// rare strings (so escaping lives in one place) and the
    /// once-per-run meta payloads.
    fn json<T: Serialize + ?Sized>(&mut self, value: &T) {
        self.line
            .extend_from_slice(serde::to_json_string(value).as_bytes());
    }

    /// Append `[a,b,…]`, each item written by `push`.
    fn array<I: IntoIterator>(&mut self, items: I, push: fn(&mut Encoder, I::Item)) {
        self.byte(b'[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                self.byte(b',');
            }
            push(self, item);
        }
        self.byte(b']');
    }
}

/// `{"v":3,"ev":`, the opening every line shares.
const OPEN: [u8; 12] = {
    assert!(TRACE_SCHEMA_VERSION < 10, "the version is one digit");
    let mut open = *b"{\"v\":0,\"ev\":";
    open[5] = b'0' + TRACE_SCHEMA_VERSION as u8;
    open
};

/// One line's JSON object, written field by field straight into the
/// encoder's line buffer. Every key is passed as its whole `,"key":`
/// text.
struct Fields<'a>(&'a mut Encoder);

impl<'a> Fields<'a> {
    /// Open the object with its `"v"` version and `ev_json`, the event
    /// tag already rendered as a JSON string.
    fn open<const N: usize>(enc: &'a mut Encoder, ev_json: &[u8; N]) -> Self {
        enc.bytes(&OPEN);
        enc.bytes(ev_json);
        Fields(enc)
    }

    fn uint<const N: usize>(&mut self, key: &[u8; N], n: u64) {
        self.0.bytes(key);
        self.0.u64(n);
    }

    fn float<const N: usize>(&mut self, key: &[u8; N], x: f64) {
        self.0.bytes(key);
        self.0.f64(x);
    }

    fn bool<const N: usize>(&mut self, key: &[u8; N], b: bool) {
        self.0.bytes(key);
        self.0.bool(b);
    }

    fn json<const N: usize, T: Serialize + ?Sized>(&mut self, key: &[u8; N], value: &T) {
        self.0.bytes(key);
        self.0.json(value);
    }

    fn array<const N: usize, I: IntoIterator>(
        &mut self,
        key: &[u8; N],
        items: I,
        push: fn(&mut Encoder, I::Item),
    ) {
        self.0.bytes(key);
        self.0.array(items, push);
    }

    fn close(self) {
        self.0.byte(b'}');
    }
}

fn push_node(enc: &mut Encoder, &n: &usize) {
    enc.u64(n as u64);
}

fn write_decision(enc: &mut Encoder, r: &DecisionRecord) {
    let mut f = Fields::open(enc, b"\"decision\"");
    f.uint(b",\"seq\":", r.seq);
    f.bool(b",\"dynamic\":", r.dynamic);
    f.uint(b",\"entry\":", r.entry as u64);
    match &r.candidates {
        Candidates::List(nodes) => f.array(b",\"candidates\":", nodes, push_node),
        Candidates::Range { lo, hi, dead } => {
            f.uint(b",\"candidates\":{\"lo\":", *lo as u64);
            f.uint(b",\"hi\":", *hi as u64);
            f.array(b",\"dead\":", dead, push_node);
            f.0.byte(b'}');
        }
    }
    f.float(b",\"theta_hat\":", r.theta_hat);
    f.float(b",\"theta2_star\":", r.theta2_star);
    f.uint(b",\"chosen\":", r.chosen as u64);
    f.bool(b",\"on_master\":", r.on_master);
    f.bool(b",\"redirected\":", r.redirected);
    f.uint(b",\"latency_us\":", r.latency_us);
    f.uint(b",\"req\":", r.req);
    f.uint(b",\"at_us\":", r.at_us);
    f.uint(b",\"demand_us\":", r.demand_us);
    f.float(b",\"w\":", r.w);
    f.uint(b",\"expected_us\":", r.expected_us);
    f.bool(b",\"masters_ok\":", r.masters_ok);
    f.bool(b",\"restart\":", r.restart);
    if let Some(region) = r.region {
        f.uint(b",\"origin\":", r.origin as u64);
        f.uint(b",\"region\":", region as u64);
    }
    f.close();
}

fn push_node_sample(enc: &mut Encoder, n: &NodeSample) {
    enc.byte(b'[');
    enc.u64(n.cpu_busy_us);
    enc.byte(b',');
    enc.u64(n.disk_busy_us);
    enc.byte(b',');
    enc.f64(n.mem_free_ratio);
    for count in [n.ready_len, n.disk_queue_len, n.processes] {
        enc.byte(b',');
        enc.u64(count as u64);
    }
    enc.byte(b']');
}

/// Append one event as a compact single-line JSON object (no trailing
/// newline) to the encoder's line: the one writer behind
/// [`encode_event`] and [`JsonlSink`].
fn write_event(enc: &mut Encoder, event: &TraceEvent) {
    match event {
        TraceEvent::Decision(r) => write_decision(enc, r),
        TraceEvent::Meta(m) => {
            let mut f = Fields::open(enc, b"\"meta\"");
            f.json(b",\"substrate\":", &m.substrate);
            f.uint(b",\"p\":", m.p as u64);
            f.uint(b",\"m\":", m.m as u64);
            f.json(b",\"policy\":", &m.policy);
            f.json(b",\"spec\":", &m.spec);
            f.uint(b",\"seed\":", m.seed);
            f.float(b",\"a0\":", m.a0);
            f.float(b",\"r0\":", m.r0);
            f.float(b",\"master_reserve\":", m.master_reserve);
            f.float(b",\"dns_skew\":", m.dns_skew);
            f.uint(b",\"monitor_period_us\":", m.monitor_period_us);
            f.uint(b",\"remote_latency_us\":", m.remote_latency_us);
            f.uint(b",\"redirect_rtt_us\":", m.redirect_rtt_us);
            f.json(b",\"speeds\":", &m.speeds);
            if let Some(regions) = &m.regions {
                f.0.bytes(b",\"regions\":");
                f.0.line
                    .extend_from_slice(regions.to_value().to_json().as_bytes());
            }
            f.close();
        }
        TraceEvent::Complete {
            req,
            node,
            dynamic,
            response_us,
        } => {
            let mut f = Fields::open(enc, b"\"complete\"");
            f.uint(b",\"req\":", *req);
            f.uint(b",\"node\":", *node as u64);
            f.bool(b",\"dynamic\":", *dynamic);
            f.uint(b",\"response_us\":", *response_us);
            f.close();
        }
        TraceEvent::Tick { at_us, rho, nodes } => {
            let mut f = Fields::open(enc, b"\"tick\"");
            f.uint(b",\"at_us\":", *at_us);
            f.float(b",\"rho\":", *rho);
            f.array(b",\"nodes\":", nodes, push_node_sample);
            f.close();
        }
        TraceEvent::NodeDown { node } => {
            let mut f = Fields::open(enc, b"\"node-down\"");
            f.uint(b",\"node\":", *node as u64);
            f.close();
        }
        TraceEvent::NodeUp { node } => {
            let mut f = Fields::open(enc, b"\"node-up\"");
            f.uint(b",\"node\":", *node as u64);
            f.close();
        }
        TraceEvent::Drop(d) => {
            let mut f = Fields::open(enc, b"\"drop\"");
            f.uint(b",\"req\":", d.req);
            f.uint(b",\"at_us\":", d.at_us);
            f.bool(b",\"dynamic\":", d.dynamic);
            f.float(b",\"w\":", d.w);
            f.uint(b",\"expected_us\":", d.expected_us);
            f.bool(b",\"redrive\":", d.redrive);
            f.bool(b",\"restart\":", d.restart);
            if d.origin != 0 {
                f.uint(b",\"origin\":", d.origin as u64);
            }
            f.close();
        }
        TraceEvent::Alert {
            at_us,
            rule,
            signal,
            windows,
            burn_rate,
            observed,
            budget,
        } => {
            let mut f = Fields::open(enc, b"\"alert\"");
            f.uint(b",\"at_us\":", *at_us);
            f.json(b",\"rule\":", rule);
            f.json(b",\"signal\":", signal);
            f.uint(b",\"windows\":", *windows);
            f.float(b",\"burn_rate\":", *burn_rate);
            f.float(b",\"observed\":", *observed);
            f.float(b",\"budget\":", *budget);
            f.close();
        }
        TraceEvent::Unknown { ev } => {
            enc.bytes(&OPEN);
            enc.json(ev);
            enc.byte(b'}');
        }
    }
}

/// Encode one event as a compact single-line JSON object (no trailing
/// newline). [`parse_line`] inverts this exactly.
pub fn encode_event(event: &TraceEvent) -> String {
    let mut enc = Encoder::new();
    write_event(&mut enc, event);
    String::from_utf8(enc.line).expect("the encoder writes UTF-8")
}

// -------------------------------------------------------------- parsing

/// Typed view over a parsed JSON object with field-level error messages.
struct Obj<'a> {
    ev: &'a str,
    fields: &'a [(String, Value)],
}

impl<'a> Obj<'a> {
    fn get(&self, key: &str) -> Result<&'a Value, String> {
        self.opt(key)
            .ok_or_else(|| format!("{} event missing field {key:?}", self.ev))
    }

    /// Optional field lookup for fields written conditionally (the
    /// region extensions): absence is `None`, not an error.
    fn opt(&self, key: &str) -> Option<&'a Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Field `key` converted by `conv`, or an error saying it is not
    /// `what`.
    fn typed<T>(
        &self,
        key: &str,
        what: &str,
        conv: impl Fn(&'a Value) -> Option<T>,
    ) -> Result<T, String> {
        conv(self.get(key)?).ok_or_else(|| format!("{} field {key:?} is not {what}", self.ev))
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        self.typed(key, "an unsigned integer", Value::as_u64)
    }

    fn usize(&self, key: &str) -> Result<usize, String> {
        Ok(self.u64(key)? as usize)
    }

    fn f64(&self, key: &str) -> Result<f64, String> {
        self.typed(key, "a number", Value::as_f64)
    }

    fn bool(&self, key: &str) -> Result<bool, String> {
        self.typed(key, "a boolean", Value::as_bool)
    }

    fn str(&self, key: &str) -> Result<String, String> {
        self.typed(key, "a string", |v| v.as_str().map(str::to_string))
    }

    /// An array field whose items `conv` converts; `item` names what
    /// each must be.
    fn array<T>(
        &self,
        key: &str,
        item: &str,
        conv: impl Fn(&Value) -> Option<T>,
    ) -> Result<Vec<T>, String> {
        self.typed(key, "an array", Value::as_array)?
            .iter()
            .map(|v| {
                conv(v).ok_or_else(|| format!("{} field {key:?} has a non-{item} item", self.ev))
            })
            .collect()
    }

    /// The client origin, written only next to a region tag; 0 when
    /// absent.
    fn origin(&self) -> Result<usize, String> {
        self.opt("origin").map_or(Ok(0), |_| self.usize("origin"))
    }

    /// Collect warnings for fields outside the event's row of
    /// [`EVENT_FIELDS`] (forward compat: a newer writer added fields this
    /// version does not understand).
    fn warn_unknown(&self, warnings: &mut Vec<String>) {
        let known = event_fields(self.ev).unwrap_or_default();
        let legacy: &[&str] = if self.ev == "decision" {
            &["scores"]
        } else {
            &[]
        };
        for (k, _) in self.fields {
            let k = k.as_str();
            if k != "v" && k != "ev" && !known.contains(&k) && !legacy.contains(&k) {
                warnings.push(format!("{} event has unknown field {k:?}", self.ev));
            }
        }
    }
}

/// Every field each event kind writes, in the encoder's key order after
/// the leading `"v"` and `"ev"`: the one schema table the parser checks
/// lines against. A line may omit the region extensions (a decision's
/// `origin` and `region`, a drop's `origin`, the meta `regions`), which
/// the encoder writes only when set. A decision may also carry the
/// schema-v2 `scores`, which is read but never written; any other key is
/// unknown and parses with a warning.
#[rustfmt::skip] // one row per event kind
const EVENT_FIELDS: [(&str, &[&str]); 8] = [
    ("meta", &["substrate", "p", "m", "policy", "spec", "seed", "a0", "r0", "master_reserve",
        "dns_skew", "monitor_period_us", "remote_latency_us", "redirect_rtt_us", "speeds",
        "regions"]),
    ("decision", &["seq", "dynamic", "entry", "candidates", "theta_hat", "theta2_star",
        "chosen", "on_master", "redirected", "latency_us", "req", "at_us", "demand_us", "w",
        "expected_us", "masters_ok", "restart", "origin", "region"]),
    ("complete", &["req", "node", "dynamic", "response_us"]),
    ("tick", &["at_us", "rho", "nodes"]),
    ("node-down", &["node"]),
    ("node-up", &["node"]),
    ("drop", &["req", "at_us", "dynamic", "w", "expected_us", "redrive", "restart", "origin"]),
    ("alert", &["at_us", "rule", "signal", "windows", "burn_rate", "observed", "budget"]),
];

/// The [`EVENT_FIELDS`] row of event tag `ev`.
fn event_fields(ev: &str) -> Option<&'static [&'static str]> {
    EVENT_FIELDS
        .iter()
        .find(|(tag, _)| *tag == ev)
        .map(|&(_, fields)| fields)
}

/// Parse a decision's `candidates`: a schema-v2 list (which comes with
/// `scores`), or either v3 form. A range must have `lo ≤ hi` and an
/// ascending `dead` inside `[lo, hi)`, and comes without `scores`.
fn parse_candidates(o: &Obj<'_>) -> Result<Candidates, String> {
    let field = "decision field \"candidates\"";
    if o.fields.iter().filter(|(k, _)| k == "candidates").count() > 1 {
        return Err(format!("{field} appears twice"));
    }
    let Some(range) = o.get("candidates")?.as_object() else {
        let node = |v: &Value| v.as_u64().map(|n| n as usize);
        return o.array("candidates", "integer", node).map(Candidates::List);
    };
    if o.opt("scores").is_some() {
        return Err(format!(
            "{field} is a range, but the line also carries the list form's \"scores\""
        ));
    }
    let r = Obj {
        ev: "decision candidates",
        fields: range,
    };
    let (lo, hi) = (r.usize("lo")?, r.usize("hi")?);
    if lo > hi {
        return Err(format!("{field} has lo {lo} > hi {hi}"));
    }
    let dead = r.array("dead", "integer", |v| v.as_u64().map(|n| n as usize))?;
    if let Some(&n) = dead.iter().find(|&&n| n < lo || n >= hi) {
        return Err(format!("{field} has dead node {n} outside [{lo}, {hi})"));
    }
    if let Some(pair) = dead.windows(2).find(|pair| pair[0] >= pair[1]) {
        return Err(format!(
            "{field} has dead nodes out of order or repeated: {} then {}",
            pair[0], pair[1]
        ));
    }
    Ok(Candidates::Range { lo, hi, dead })
}

/// Parse a decision object.
fn parse_decision(o: &Obj<'_>) -> Result<DecisionRecord, String> {
    Ok(DecisionRecord {
        seq: o.u64("seq")?,
        dynamic: o.bool("dynamic")?,
        entry: o.usize("entry")?,
        candidates: parse_candidates(o)?,
        scores: match o.opt("scores") {
            None => Vec::new(),
            Some(_) => o.array("scores", "number", Value::as_f64)?,
        },
        theta_hat: o.f64("theta_hat")?,
        theta2_star: o.f64("theta2_star")?,
        chosen: o.usize("chosen")?,
        on_master: o.bool("on_master")?,
        redirected: o.bool("redirected")?,
        latency_us: o.u64("latency_us")?,
        req: o.u64("req")?,
        at_us: o.u64("at_us")?,
        demand_us: o.u64("demand_us")?,
        w: o.f64("w")?,
        expected_us: o.u64("expected_us")?,
        masters_ok: o.bool("masters_ok")?,
        restart: o.bool("restart")?,
        origin: o.origin()?,
        region: match o.opt("region") {
            None | Some(Value::Null) => None,
            Some(_) => Some(o.usize("region")?),
        },
    })
}

/// Parse one tick node row, `[cpu_busy_us, disk_busy_us,
/// mem_free_ratio, ready_len, disk_queue_len, processes]`.
fn parse_node_sample(row: &Value) -> Result<NodeSample, String> {
    let cols = row
        .as_array()
        .filter(|c| c.len() == 6)
        .ok_or_else(|| "tick node row is not a 6-element array".to_string())?;
    let int = |i: usize, name: &str| {
        cols[i]
            .as_u64()
            .ok_or_else(|| format!("tick {name} not an integer"))
    };
    Ok(NodeSample {
        cpu_busy_us: int(0, "cpu_busy_us")?,
        disk_busy_us: int(1, "disk_busy_us")?,
        mem_free_ratio: cols[2]
            .as_f64()
            .ok_or_else(|| "tick mem_free_ratio not a number".to_string())?,
        ready_len: int(3, "ready_len")? as usize,
        disk_queue_len: int(4, "disk_queue_len")? as usize,
        processes: int(5, "processes")? as usize,
    })
}

/// Why one decision-log line did not parse.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseLineError {
    /// A JSON object without an `"ev"` event tag, e.g. a bare schema-v1
    /// decision record.
    Untagged,
    /// Malformed JSON, a line that is not an object, or a known event
    /// with a missing or mistyped field.
    Invalid(String),
}

impl From<String> for ParseLineError {
    fn from(msg: String) -> Self {
        ParseLineError::Invalid(msg)
    }
}

impl std::error::Error for ParseLineError {}

impl std::fmt::Display for ParseLineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseLineError::Untagged => write!(
                f,
                "line has no \"ev\" event tag (schema-v1 logs are not readable; \
                 re-record with --trace-decisions)"
            ),
            ParseLineError::Invalid(msg) => f.write_str(msg),
        }
    }
}

/// Parse one JSONL line into a [`TraceEvent`].
///
/// Returns the event plus any warnings: unknown fields, unknown event
/// tags and newer-than-supported versions parse with a warning instead
/// of failing, so future logs stay readable. Malformed JSON, an untagged
/// line, or a known event missing a required field is an error.
pub fn parse_line(line: &str) -> Result<(TraceEvent, Vec<String>), ParseLineError> {
    let value = Value::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
    let fields = value
        .as_object()
        .ok_or_else(|| "line is not a JSON object".to_string())?;
    let mut warnings = Vec::new();

    let ev = value
        .get("ev")
        .and_then(Value::as_str)
        .ok_or(ParseLineError::Untagged)?;

    match value.get("v").and_then(Value::as_u64) {
        Some(v) if v > TRACE_SCHEMA_VERSION => warnings.push(format!(
            "schema v{v} is newer than supported v{TRACE_SCHEMA_VERSION}; parsing best-effort"
        )),
        Some(_) => {}
        None => warnings.push("tagged event without a \"v\" version field".to_string()),
    }

    let o = Obj { ev, fields };
    let event = match ev {
        "decision" => TraceEvent::Decision(parse_decision(&o)?),
        "meta" => TraceEvent::Meta(RunMeta {
            substrate: o.str("substrate")?,
            p: o.usize("p")?,
            m: o.usize("m")?,
            policy: o.str("policy")?,
            spec: match o.get("spec")? {
                Value::Null => None,
                _ => Some(o.str("spec")?),
            },
            seed: o.u64("seed")?,
            a0: o.f64("a0")?,
            r0: o.f64("r0")?,
            master_reserve: o.f64("master_reserve")?,
            dns_skew: o.f64("dns_skew")?,
            monitor_period_us: o.u64("monitor_period_us")?,
            remote_latency_us: o.u64("remote_latency_us")?,
            redirect_rtt_us: o.u64("redirect_rtt_us")?,
            speeds: match o.get("speeds")? {
                Value::Null => None,
                _ => Some(o.array("speeds", "number", Value::as_f64)?),
            },
            regions: match o.opt("regions") {
                None | Some(Value::Null) => None,
                Some(v) => Some(
                    RegionTopology::from_value(v)
                        .map_err(|e| format!("meta field \"regions\": {e}"))?,
                ),
            },
        }),
        "complete" => TraceEvent::Complete {
            req: o.u64("req")?,
            node: o.usize("node")?,
            dynamic: o.bool("dynamic")?,
            response_us: o.u64("response_us")?,
        },
        // `nodes` before `at_us` and `rho`: of several bad fields, the
        // node rows are reported.
        "tick" => TraceEvent::Tick {
            nodes: o
                .get("nodes")?
                .as_array()
                .ok_or_else(|| "tick field \"nodes\" is not an array".to_string())?
                .iter()
                .map(parse_node_sample)
                .collect::<Result<_, _>>()?,
            at_us: o.u64("at_us")?,
            rho: o.f64("rho")?,
        },
        "node-down" => TraceEvent::NodeDown {
            node: o.usize("node")?,
        },
        "node-up" => TraceEvent::NodeUp {
            node: o.usize("node")?,
        },
        "drop" => TraceEvent::Drop(DropRecord {
            req: o.u64("req")?,
            at_us: o.u64("at_us")?,
            dynamic: o.bool("dynamic")?,
            w: o.f64("w")?,
            expected_us: o.u64("expected_us")?,
            redrive: o.bool("redrive")?,
            restart: o.bool("restart")?,
            origin: o.origin()?,
        }),
        "alert" => TraceEvent::Alert {
            at_us: o.u64("at_us")?,
            rule: o.str("rule")?,
            signal: o.str("signal")?,
            windows: o.u64("windows")?,
            burn_rate: o.f64("burn_rate")?,
            observed: o.f64("observed")?,
            budget: o.f64("budget")?,
        },
        other => {
            warnings.push(format!("unknown event tag {other:?}: skipped"));
            return Ok((
                TraceEvent::Unknown {
                    ev: other.to_string(),
                },
                warnings,
            ));
        }
    };
    o.warn_unknown(&mut warnings);
    Ok((event, warnings))
}

/// One parsed line of a decision log.
#[derive(Debug, Clone, PartialEq)]
pub struct LogLine {
    /// The line's event.
    pub event: TraceEvent,
    /// Its parse warnings, each prefixed with the 1-based line number.
    pub warnings: Vec<String>,
}

/// [`parse_line`] for a line of a run whose `meta` line said the cluster
/// has `p` nodes: a `meta` line sets `p`, and a decision whose range
/// descriptor reaches past it is an error.
fn parse_run_line(
    line: &str,
    p: &mut Option<usize>,
) -> Result<(TraceEvent, Vec<String>), ParseLineError> {
    let parsed = parse_line(line)?;
    match &parsed.0 {
        TraceEvent::Meta(meta) => *p = Some(meta.p),
        TraceEvent::Decision(DecisionRecord {
            candidates: Candidates::Range { hi, .. },
            ..
        }) => {
            if let Some(p) = p.filter(|&p| *hi > p) {
                return Err(ParseLineError::Invalid(format!(
                    "decision field \"candidates\" has hi {hi} past the meta line's p = {p}"
                )));
            }
        }
        _ => {}
    }
    Ok(parsed)
}

/// Read a JSONL decision log one line at a time: the line reader behind
/// [`LogReplay`](super::replay::LogReplay) and [`TraceLog::parse`].
///
/// Blank lines are skipped but counted, so warnings and errors name the
/// line as an editor numbers it; `\n` and `\r\n` both end a line. See
/// [`parse_line`] for the warning-vs-error contract; on top of it, a
/// decision whose range reaches past its run's `p` is an error.
pub fn read_log(reader: impl BufRead) -> impl Iterator<Item = Result<LogLine, ReplayError>> {
    // The cluster size of the run being read, from its `meta` line.
    let mut p = None;
    reader.lines().zip(1..).filter_map(move |(text, line)| {
        let text = match text {
            Ok(text) if text.trim().is_empty() => return None,
            Ok(text) => text,
            Err(e) => return Some(Err(ReplayError::Read(e))),
        };
        Some(match parse_run_line(&text, &mut p) {
            Ok((event, warnings)) => Ok(LogLine {
                event,
                warnings: warnings
                    .into_iter()
                    .map(|w| format!("line {line}: {w}"))
                    .collect(),
            }),
            Err(error) => Err(ReplayError::Line { line, error }),
        })
    })
}

/// A whole decision log in memory, for callers that need random access
/// to its events, or that built the events in memory. Streaming readers
/// use [`read_log`] instead.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    /// The events, in file order.
    pub events: Vec<TraceEvent>,
    /// Parse warnings, each prefixed with its 1-based line number.
    pub warnings: Vec<String>,
}

impl TraceLog {
    /// Collect every line [`read_log`] reads from `text`.
    pub fn parse(text: &str) -> Result<TraceLog, ReplayError> {
        let mut log = TraceLog::default();
        for line in read_log(text.as_bytes()) {
            let line = line?;
            log.events.push(line.event);
            log.warnings.extend(line.warnings);
        }
        Ok(log)
    }
}

/// Walk an in-memory log as [`read_log`] would read its text back: its
/// events in order, with all its parse warnings on the first event.
impl<'a> IntoIterator for &'a TraceLog {
    type Item = Result<LogLine, ReplayError>;
    type IntoIter = Box<dyn Iterator<Item = Self::Item> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        let mut warnings = Some(self.warnings.clone());
        Box::new(self.events.iter().map(move |event| {
            Ok(LogLine {
                event: event.clone(),
                warnings: warnings.take().unwrap_or_default(),
            })
        }))
    }
}

// ------------------------------------------------------------ observers

/// Observer invoked once per successful placement and once per
/// scheduler-state event (completion, tick, liveness change, drop).
///
/// Implementations should be cheap: the scheduler calls this on the
/// per-request path (though only when an observer is installed).
pub trait DecisionObserver {
    /// Handle one decision record.
    fn observe(&mut self, record: &DecisionRecord);

    /// Whether the records handed to [`DecisionObserver::observe`]
    /// should carry per-candidate `scores`, with the candidates as a
    /// `List` in collection order. The scheduler then collects and
    /// scores every candidate of a remote placement, which costs O(p);
    /// otherwise it answers a range candidate set without a list, as
    /// when no observer is installed. Read once, when the observer is
    /// installed. The default asks for none.
    fn wants_scores(&self) -> bool {
        false
    }

    /// Handle one non-decision event. The default ignores it, so
    /// pre-existing observers that only care about placements keep
    /// working unchanged.
    fn event(&mut self, event: &TraceEvent) {
        let _ = event;
    }
}

/// In-memory observer collecting every record; useful for tests and
/// programmatic analysis.
#[derive(Debug, Default)]
pub struct CollectingObserver {
    /// Records observed so far, in decision order.
    pub records: Vec<DecisionRecord>,
    /// Non-decision events observed so far, in emission order.
    pub events: Vec<TraceEvent>,
}

/// Asks for scores: the collected records are the ones replay compares
/// stage by stage.
impl DecisionObserver for CollectingObserver {
    fn observe(&mut self, record: &DecisionRecord) {
        self.records.push(record.clone());
    }
    fn wants_scores(&self) -> bool {
        true
    }
    fn event(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }
}

/// Shared-handle observer: lets a test (or analysis code) keep a clone
/// of the collector while the scheduler owns the installed copy.
impl DecisionObserver for std::rc::Rc<std::cell::RefCell<CollectingObserver>> {
    fn observe(&mut self, record: &DecisionRecord) {
        self.borrow_mut().observe(record);
    }
    fn wants_scores(&self) -> bool {
        self.borrow().wants_scores()
    }
    fn event(&mut self, event: &TraceEvent) {
        self.borrow_mut().event(event);
    }
}

/// JSONL sink: one [`TraceEvent`] serialised per line (schema v3). It
/// asks for no scores, so its records hold candidate ranges.
///
/// Each line is written into one reused byte buffer and handed to the
/// writer whole. Once the buffer has grown to the longest line, only the
/// rare string-bearing `meta`, `alert` and unknown-tag lines allocate.
/// The sink's encoder keeps its float memo across lines, so a float the
/// log has just written is copied rather than rendered again.
///
/// Write errors after creation, including a failed flush when the sink
/// is dropped, are reported once to stderr and further records are
/// discarded — tracing must never abort an experiment.
pub struct JsonlSink<W: Write> {
    writer: W,
    enc: Encoder,
    errored: bool,
}

impl JsonlSink<BufWriter<File>> {
    /// Create (truncate) the JSONL file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }

    /// Open the JSONL file at `path` for appending, creating it if
    /// missing — lets several runs trace into one file.
    pub fn append(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(JsonlSink::new(BufWriter::new(file)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wrap an arbitrary writer.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            enc: Encoder::new(),
            errored: false,
        }
    }

    /// Refill the line buffer with `write` and one `\n`, then write it.
    fn write_line(&mut self, write: impl FnOnce(&mut Encoder)) {
        if self.errored {
            return;
        }
        self.enc.line.clear();
        write(&mut self.enc);
        self.enc.line.push(b'\n');
        let written = self.writer.write_all(&self.enc.line);
        self.report(written);
    }

    /// Report the first failed write or flush and disable the sink.
    fn report(&mut self, result: io::Result<()>) {
        if let Err(e) = result {
            if !self.errored {
                eprintln!("trace-decisions: write failed, disabling sink: {e}");
                self.errored = true;
            }
        }
    }
}

impl<W: Write> DecisionObserver for JsonlSink<W> {
    fn observe(&mut self, record: &DecisionRecord) {
        self.write_line(|enc| write_decision(enc, record));
    }
    fn event(&mut self, event: &TraceEvent) {
        self.write_line(|enc| write_event(enc, event));
    }
}

impl<W: Write> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        let flushed = self.writer.flush();
        self.report(flushed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> DecisionRecord {
        DecisionRecord {
            seq: 7,
            dynamic: true,
            entry: 2,
            candidates: Candidates::List(vec![3, 1, 4]),
            scores: Vec::new(),
            theta_hat: 0.125,
            theta2_star: 0.5,
            chosen: 1,
            on_master: false,
            redirected: false,
            latency_us: 1000,
            req: 42,
            at_us: 123_456,
            demand_us: 8_000,
            w: 0.85,
            expected_us: 16_000,
            masters_ok: true,
            restart: false,
            origin: 0,
            region: None,
        }
    }

    #[test]
    fn decision_round_trips() {
        let event = TraceEvent::Decision(sample_record());
        let line = encode_event(&event);
        let (parsed, warnings) = parse_line(&line).unwrap();
        assert_eq!(parsed, event);
        assert!(warnings.is_empty(), "{warnings:?}");
    }

    #[test]
    fn every_event_kind_round_trips() {
        let events = vec![
            TraceEvent::Meta(RunMeta {
                substrate: "sim".into(),
                p: 8,
                m: 3,
                policy: "ms".into(),
                spec: Some(
                    "rotation-masters/reservation/level-split/rsrc-indexed-reserve/split-demand"
                        .into(),
                ),
                seed: 42,
                a0: 0.13,
                r0: 0.025,
                master_reserve: 0.5,
                dns_skew: 0.0,
                monitor_period_us: 500_000,
                remote_latency_us: 1000,
                redirect_rtt_us: 80_000,
                speeds: Some(vec![1.0, 2.0]),
                regions: None,
            }),
            TraceEvent::Complete {
                req: 9,
                node: 4,
                dynamic: true,
                response_us: 52_000,
            },
            TraceEvent::Tick {
                at_us: 500_000,
                rho: 0.75,
                nodes: vec![NodeSample {
                    cpu_busy_us: 40_000,
                    disk_busy_us: 10_000,
                    mem_free_ratio: 0.9,
                    ready_len: 2,
                    disk_queue_len: 1,
                    processes: 3,
                }],
            },
            TraceEvent::NodeDown { node: 5 },
            TraceEvent::NodeUp { node: 5 },
            TraceEvent::Drop(DropRecord {
                req: 11,
                at_us: 900_000,
                dynamic: true,
                w: 0.6,
                expected_us: 16_000,
                redrive: true,
                restart: false,
                origin: 0,
            }),
            TraceEvent::Alert {
                at_us: 2_500_000,
                rule: "stretch-burn".into(),
                signal: "stretch".into(),
                windows: 6,
                burn_rate: 2.0,
                observed: 3.25,
                budget: 1.5,
            },
        ];
        for event in events {
            let line = encode_event(&event);
            let (parsed, warnings) = parse_line(&line).unwrap();
            assert_eq!(parsed, event, "line: {line}");
            assert!(warnings.is_empty(), "{warnings:?}");
        }
    }

    #[test]
    fn region_fields_round_trip_and_stay_off_regionless_lines() {
        // Regionless decisions must not grow the origin/region keys —
        // the 20-key line schema is a fixture contract.
        let plain = encode_event(&TraceEvent::Decision(sample_record()));
        assert!(!plain.contains("\"origin\""), "{plain}");
        assert!(!plain.contains("\"region\""), "{plain}");

        let mut tagged = sample_record();
        tagged.origin = 2;
        tagged.region = Some(1);
        let event = TraceEvent::Decision(tagged);
        let line = encode_event(&event);
        let (parsed, warnings) = parse_line(&line).unwrap();
        assert_eq!(parsed, event);
        assert!(warnings.is_empty(), "{warnings:?}");

        let meta = TraceEvent::Meta(RunMeta {
            substrate: "sim".into(),
            p: 12,
            m: 3,
            policy: "ms".into(),
            spec: Some("region-nearest/rotation-masters/reservation/level-split/rsrc-indexed-reserve/split-demand".into()),
            seed: 7,
            a0: 0.13,
            r0: 0.025,
            master_reserve: 0.5,
            dns_skew: 0.0,
            monitor_period_us: 500_000,
            remote_latency_us: 1000,
            redirect_rtt_us: 80_000,
            speeds: None,
            regions: Some(RegionTopology::even(12, 3, 3)),
        });
        let line = encode_event(&meta);
        let (parsed, warnings) = parse_line(&line).unwrap();
        assert_eq!(parsed, meta);
        assert!(warnings.is_empty(), "{warnings:?}");

        // Drops carry the origin only when it is non-zero.
        let mut drop = DropRecord {
            req: 11,
            at_us: 900_000,
            dynamic: true,
            w: 0.6,
            expected_us: 16_000,
            redrive: true,
            restart: false,
            origin: 0,
        };
        let plain = encode_event(&TraceEvent::Drop(drop.clone()));
        assert!(!plain.contains("\"origin\""), "{plain}");
        drop.origin = 3;
        let event = TraceEvent::Drop(drop);
        let line = encode_event(&event);
        assert!(line.contains("\"origin\":3"), "{line}");
        let (parsed, warnings) = parse_line(&line).unwrap();
        assert_eq!(parsed, event);
        assert!(warnings.is_empty(), "{warnings:?}");
    }

    /// Every kind of event with its optional fields set, so each line
    /// carries its kind's whole row of [`EVENT_FIELDS`].
    fn one_event_of_each_kind() -> Vec<TraceEvent> {
        let mut decision = sample_record();
        decision.origin = 1;
        decision.region = Some(2);
        vec![
            TraceEvent::Meta(RunMeta {
                substrate: "sim".into(),
                p: 12,
                m: 3,
                policy: "ms".into(),
                spec: None,
                seed: 7,
                a0: 0.13,
                r0: 0.025,
                master_reserve: 0.5,
                dns_skew: 0.0,
                monitor_period_us: 500_000,
                remote_latency_us: 1000,
                redirect_rtt_us: 80_000,
                speeds: None,
                regions: Some(RegionTopology::even(12, 3, 3)),
            }),
            TraceEvent::Decision(decision),
            TraceEvent::Complete {
                req: 9,
                node: 4,
                dynamic: true,
                response_us: 52_000,
            },
            TraceEvent::Tick {
                at_us: 500_000,
                rho: 0.75,
                nodes: Vec::new(),
            },
            TraceEvent::NodeDown { node: 5 },
            TraceEvent::NodeUp { node: 5 },
            TraceEvent::Drop(DropRecord {
                req: 11,
                at_us: 900_000,
                dynamic: true,
                w: 0.6,
                expected_us: 16_000,
                redrive: true,
                restart: false,
                origin: 3,
            }),
            TraceEvent::Alert {
                at_us: 2_500_000,
                rule: "stretch-burn".into(),
                signal: "stretch".into(),
                windows: 6,
                burn_rate: 2.0,
                observed: 3.25,
                budget: 1.5,
            },
        ]
    }

    #[test]
    fn encoder_key_order_matches_the_field_table() {
        let events = one_event_of_each_kind();
        assert_eq!(events.len(), EVENT_FIELDS.len(), "one sample per kind");
        for event in events {
            let line = encode_event(&event);
            let value = Value::parse(&line).unwrap();
            let keys: Vec<&str> = value
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            let ev = value.get("ev").and_then(Value::as_str).unwrap();
            let row = event_fields(ev).unwrap_or_else(|| panic!("{ev} has no row"));
            assert_eq!(keys[..2], ["v", "ev"], "{line}");
            assert_eq!(keys[2..], *row, "{ev} keys drift from EVENT_FIELDS");
        }
    }

    #[test]
    fn line_reader_numbers_lines_and_strips_line_ends() {
        let up = encode_event(&TraceEvent::NodeUp { node: 1 });
        let odd = r#"{"v":2,"ev":"node-down","node":2,"flux":1}"#;
        let text = format!("{up}\r\n\n  \n{odd}");
        let lines: Vec<LogLine> = read_log(text.as_bytes()).map(Result::unwrap).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].event, TraceEvent::NodeUp { node: 1 });
        assert!(lines[0].warnings.is_empty());
        assert_eq!(lines[1].event, TraceEvent::NodeDown { node: 2 });
        assert_eq!(
            lines[1].warnings,
            ["line 4: node-down event has unknown field \"flux\""]
        );
        let bad = format!("{up}\n\nnot json\n{up}\n");
        let mut reader = read_log(bad.as_bytes());
        assert!(reader.next().unwrap().is_ok());
        let err = reader.next().unwrap().unwrap_err();
        assert!(matches!(err, ReplayError::Line { line: 3, .. }), "{err}");
        assert!(
            err.to_string().starts_with("line 3: malformed JSON"),
            "{err}"
        );
    }

    #[test]
    fn v1_line_is_rejected() {
        // A bare DecisionRecord object exactly as the v1 sink wrote it.
        let line = r#"{"seq":3,"dynamic":true,"entry":1,"candidates":[2,0],"scores":[1.5,2.5],"theta_hat":0.1,"theta2_star":0.4,"chosen":2,"on_master":false,"redirected":false,"latency_us":1000}"#;
        assert_eq!(parse_line(line), Err(ParseLineError::Untagged));
        let err = TraceLog::parse(line).unwrap_err().to_string();
        assert!(err.starts_with("line 1: "), "{err}");
        assert!(err.contains("\"ev\""), "{err}");
    }

    #[test]
    fn unknown_field_warns_but_parses() {
        let mut line = encode_event(&TraceEvent::NodeDown { node: 1 });
        line.truncate(line.len() - 1);
        line.push_str(",\"flux\":9}");
        let (event, warnings) = parse_line(&line).unwrap();
        assert_eq!(event, TraceEvent::NodeDown { node: 1 });
        assert!(warnings.iter().any(|w| w.contains("flux")), "{warnings:?}");
    }

    #[test]
    fn newer_version_warns_but_parses() {
        let line = r#"{"v":99,"ev":"node-up","node":2}"#;
        let (event, warnings) = parse_line(line).unwrap();
        assert_eq!(event, TraceEvent::NodeUp { node: 2 });
        assert!(warnings.iter().any(|w| w.contains("newer")), "{warnings:?}");
    }

    #[test]
    fn unknown_event_becomes_unknown_with_warning() {
        let line = r#"{"v":2,"ev":"wormhole","x":1}"#;
        let (event, warnings) = parse_line(line).unwrap();
        assert_eq!(
            event,
            TraceEvent::Unknown {
                ev: "wormhole".into()
            }
        );
        assert!(!warnings.is_empty());
    }

    #[test]
    fn malformed_lines_error() {
        assert!(parse_line("not json").is_err());
        assert!(parse_line("[1,2]").is_err());
        assert!(parse_line(r#"{"x":1}"#).is_err());
        // Known event missing a required field is an error, not a warning.
        assert!(parse_line(r#"{"v":2,"ev":"complete","req":1}"#).is_err());
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        let mut r = sample_record();
        r.theta_hat = f64::NAN;
        r.theta2_star = f64::INFINITY;
        r.w = f64::NEG_INFINITY;
        let line = encode_event(&TraceEvent::Decision(r));
        assert!(
            line.contains(r#""theta_hat":null,"theta2_star":null"#),
            "{line}"
        );
        assert!(line.contains(r#""w":null"#), "{line}");
    }

    #[test]
    fn negative_zero_and_u64_max_render_as_serde_does() {
        let mut r = sample_record();
        r.seq = u64::MAX;
        r.w = -0.0;
        r.theta_hat = 1e-300;
        r.theta2_star = 1e21;
        let line = encode_event(&TraceEvent::Decision(r));
        assert!(line.contains(r#""seq":18446744073709551615"#), "{line}");
        assert!(line.contains(r#""w":-0.0"#), "{line}");
        for (key, x) in [("theta_hat", 1e-300), ("theta2_star", 1e21)] {
            let field = format!(r#""{key}":{}"#, Value::Float(x).to_json());
            assert!(line.contains(&field), "{field} not in {line}");
        }
    }

    /// The fixed-width integer writer at both ends of every digit count.
    #[test]
    fn integers_render_at_every_digit_count() {
        let mut enc = Encoder::new();
        let mut want = String::new();
        let mut n = 1u64;
        for _ in 0..20 {
            for x in [n - 1, n, n.saturating_add(1)] {
                enc.u64(x);
                enc.byte(b' ');
                want.push_str(&format!("{x} "));
            }
            n = n.saturating_mul(10);
        }
        enc.u64(u64::MAX);
        want.push_str(&u64::MAX.to_string());
        assert_eq!(String::from_utf8(enc.line).unwrap(), want);
    }

    #[test]
    fn range_candidates_round_trip_and_write_no_scores() {
        let mut r = sample_record();
        r.candidates = Candidates::Range {
            lo: 3,
            hi: 9,
            dead: vec![4, 7],
        };
        let line = encode_event(&TraceEvent::Decision(r.clone()));
        assert!(
            line.contains(r#","entry":2,"candidates":{"lo":3,"hi":9,"dead":[4,7]},"theta_hat":"#),
            "{line}"
        );
        assert!(!line.contains("scores"), "{line}");
        let (parsed, warnings) = parse_line(&line).unwrap();
        assert_eq!(parsed, TraceEvent::Decision(r.clone()));
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(r.candidates.len(), 4);
        assert_eq!(r.candidates.sorted(), [3, 5, 6, 8]);
    }

    /// A schema-v2 line, its candidate list next to per-candidate
    /// scores, parses without a warning; the scores are kept in the
    /// record, and its v3 re-encoding drops them.
    #[test]
    fn v2_decision_line_parses() {
        let line = r#"{"v":2,"ev":"decision","seq":7,"dynamic":true,"entry":2,"candidates":[3,1,4],"scores":[0.5,0.25,1.75],"theta_hat":0.125,"theta2_star":0.5,"chosen":1,"on_master":false,"redirected":false,"latency_us":1000,"req":42,"at_us":123456,"demand_us":8000,"w":0.85,"expected_us":16000,"masters_ok":true,"restart":false}"#;
        let (parsed, warnings) = parse_line(line).unwrap();
        assert!(warnings.is_empty(), "{warnings:?}");
        let mut want = sample_record();
        want.scores = vec![0.5, 0.25, 1.75];
        assert_eq!(parsed, TraceEvent::Decision(want));
        let v3 = encode_event(&parsed);
        let v2 = line.replace(r#""scores":[0.5,0.25,1.75],"#, "");
        assert_eq!(v3, v2.replacen(r#"{"v":2,"#, r#"{"v":3,"#, 1));
    }

    /// `sample_record`'s line with its candidates replaced by `json`.
    fn with_candidates(json: &str) -> String {
        encode_event(&TraceEvent::Decision(sample_record())).replace(
            r#""candidates":[3,1,4]"#,
            &format!(r#""candidates":{json}"#),
        )
    }

    /// The error `parse_line` gives for `line`, which must name the
    /// `candidates` field.
    fn candidates_error(line: &str) -> String {
        match parse_line(line) {
            Err(ParseLineError::Invalid(msg)) => {
                assert!(msg.contains("\"candidates\""), "{msg}");
                msg
            }
            other => panic!("{line} parsed as {other:?}"),
        }
    }

    #[test]
    fn range_with_lo_above_hi_is_an_error() {
        let msg = candidates_error(&with_candidates(r#"{"lo":5,"hi":4,"dead":[]}"#));
        assert!(msg.contains("lo 5 > hi 4"), "{msg}");
    }

    #[test]
    fn range_past_the_meta_p_is_an_error() {
        let meta = one_event_of_each_kind().swap_remove(0);
        let TraceEvent::Meta(RunMeta { p, .. }) = meta else {
            panic!("the first sample is the meta line")
        };
        let inside = with_candidates(&format!(r#"{{"lo":0,"hi":{p},"dead":[]}}"#));
        let past = with_candidates(&format!(r#"{{"lo":0,"hi":{},"dead":[]}}"#, p + 1));
        let meta = encode_event(&meta);
        // Without a meta line there is no p to check against.
        assert!(parse_line(&past).is_ok());
        assert!(TraceLog::parse(&format!("{meta}\n{inside}\n")).is_ok());
        let err = TraceLog::parse(&format!("{meta}\n{inside}\n{past}\n")).unwrap_err();
        let ReplayError::Line {
            line: 3,
            error: ParseLineError::Invalid(msg),
        } = &err
        else {
            panic!("{err}")
        };
        assert!(
            msg.contains("\"candidates\"") && msg.contains(&format!("p = {p}")),
            "{msg}"
        );
    }

    #[test]
    fn dead_node_outside_the_range_is_an_error() {
        for dead in ["2", "9"] {
            let line = with_candidates(&format!(r#"{{"lo":3,"hi":9,"dead":[{dead}]}}"#));
            let msg = candidates_error(&line);
            assert!(msg.contains("outside [3, 9)"), "{msg}");
        }
    }

    #[test]
    fn unsorted_or_repeated_dead_nodes_are_an_error() {
        for dead in ["5,4", "4,4"] {
            let line = with_candidates(&format!(r#"{{"lo":3,"hi":9,"dead":[{dead}]}}"#));
            let msg = candidates_error(&line);
            assert!(msg.contains("out of order or repeated"), "{msg}");
        }
    }

    #[test]
    fn a_line_with_both_forms_is_an_error() {
        let range = r#"{"lo":3,"hi":9,"dead":[]}"#;
        // A range next to the list form's scores.
        let scored = with_candidates(range).replace(
            r#","theta_hat":"#,
            r#","scores":[0.5,0.25,1.75],"theta_hat":"#,
        );
        assert!(candidates_error(&scored).contains("is a range"));
        // A range and a list under one key, in either order.
        for both in [
            format!(r#"{range},"candidates":[3,1,4]"#),
            format!(r#"[3,1,4],"candidates":{range}"#),
        ] {
            assert!(candidates_error(&with_candidates(&both)).contains("twice"));
        }
    }

    #[test]
    fn strings_are_escaped_as_serde_escapes_them() {
        let odd = "q\"b\\c\u{1}\n";
        let line = encode_event(&TraceEvent::Unknown { ev: odd.into() });
        assert_eq!(line, r#"{"v":3,"ev":"q\"b\\c\u0001\n"}"#);
        assert_eq!(
            line,
            format!(r#"{{"v":3,"ev":{}}}"#, serde::to_json_string(odd))
        );

        let meta = RunMeta {
            substrate: odd.into(),
            p: 1,
            m: 0,
            policy: format!("{odd}policy"),
            spec: Some(format!("spec{odd}")),
            seed: 0,
            a0: 0.5,
            r0: 0.05,
            master_reserve: 0.5,
            dns_skew: 0.0,
            monitor_period_us: 1,
            remote_latency_us: 1,
            redirect_rtt_us: 1,
            speeds: None,
            regions: None,
        };
        let line = encode_event(&TraceEvent::Meta(meta.clone()));
        for (key, value) in [
            ("substrate", &meta.substrate),
            ("policy", &meta.policy),
            ("spec", meta.spec.as_ref().unwrap()),
        ] {
            let field = format!(r#""{key}":{}"#, serde::to_json_string(value));
            assert!(line.contains(&field), "{field} not in {line}");
        }
        let (parsed, _) = parse_line(&line).unwrap();
        assert_eq!(parsed, TraceEvent::Meta(meta));
    }

    #[test]
    fn reused_sink_buffer_leaks_nothing_between_lines() {
        let mut long = sample_record();
        long.candidates = Candidates::List((0..64).collect());
        let mut range = sample_record();
        range.candidates = Candidates::Range {
            lo: 0,
            hi: 64,
            dead: (0..63).skip(1).collect(),
        };
        let short = TraceEvent::NodeUp { node: 3 };
        let mut buf = Vec::new();
        {
            let mut sink = JsonlSink::new(&mut buf);
            sink.observe(&long);
            sink.event(&short);
            sink.observe(&range);
            sink.observe(&sample_record());
        }
        let want = [
            encode_event(&TraceEvent::Decision(long)),
            encode_event(&short),
            encode_event(&TraceEvent::Decision(range)),
            encode_event(&TraceEvent::Decision(sample_record())),
        ]
        .map(|line| line + "\n")
        .concat();
        assert_eq!(String::from_utf8(buf).unwrap(), want);
    }

    /// More distinct floats than the memo has slots, each written
    /// twice: slots collide and evict, and the sink's bytes still equal
    /// `encode_event`'s, line by line.
    #[test]
    fn float_memo_survives_collisions_and_evictions() {
        let floats: Vec<f64> = (0..3 * FLOAT_MEMO_SLOTS)
            .map(|i| i as f64 / 7.0 + 0.5)
            .collect();
        let ticks: Vec<TraceEvent> = floats
            .chunks(64)
            .map(|chunk| TraceEvent::Tick {
                at_us: 0,
                rho: chunk[0],
                nodes: chunk
                    .iter()
                    .map(|&mem_free_ratio| NodeSample {
                        cpu_busy_us: 1,
                        disk_busy_us: 2,
                        mem_free_ratio,
                        ready_len: 3,
                        disk_queue_len: 4,
                        processes: 5,
                    })
                    .collect(),
            })
            .collect();
        let mut buf = Vec::new();
        {
            let mut sink = JsonlSink::new(&mut buf);
            for tick in ticks.iter().chain(&ticks) {
                sink.event(tick);
            }
        }
        let want: String = ticks.iter().map(|t| encode_event(t) + "\n").collect();
        assert_eq!(String::from_utf8(buf).unwrap(), want.repeat(2));
    }

    #[test]
    fn sink_writes_parseable_lines() {
        let mut buf = Vec::new();
        {
            let mut sink = JsonlSink::new(&mut buf);
            sink.event(&TraceEvent::NodeDown { node: 0 });
            sink.observe(&sample_record());
        }
        let text = String::from_utf8(buf).unwrap();
        let log = TraceLog::parse(&text).unwrap();
        assert_eq!(log.events.len(), 2);
        assert!(log.warnings.is_empty());
        assert_eq!(
            log.events[1],
            TraceEvent::Decision(sample_record()),
            "sink decision line must round-trip"
        );
    }
}
