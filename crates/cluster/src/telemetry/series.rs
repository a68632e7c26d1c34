//! Windowed telemetry time-series: one JSONL record per monitor
//! window, streamed to a sink as the run executes.
//!
//! Where [`TelemetrySnapshot`](super::TelemetrySnapshot) is a single
//! end-of-run aggregate, the series recorder emits what happened
//! *inside each monitor window*: the reservation-controller sample,
//! per-stage call and placement-outcome **deltas**, the window's mean
//! stretch, per-region charge deltas, per-node busy gauges, and the
//! candidate-set / transfer-latency histogram deltas (exact per-bucket
//! subtraction of the cumulative [`LogHistogram`]s — see
//! [`HistDelta`]). Records are keyed by substrate time (`at_us`), so a
//! fixed seed + spec produces byte-identical JSONL on the simulator;
//! on the live substrate the timestamps and busy gauges are wall-clock
//! measurements, but the *schema* is identical (tested) and a given
//! log re-derives deterministically.
//!
//! Memory discipline: the recorder keeps only the previous window's
//! cumulative counters (O(p) baseline, no per-window retention) and
//! writes each record straight to the sink, following the O(in-flight)
//! rule the streaming event loop established.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use msweb_simcore::hist::{HistDelta, LogHistogram};
use serde::Value;

use super::{fnum, obj, u, SchedTelemetry, WindowSample, STAGE_COUNT};

/// Version tag of the series JSONL encoding (the header line's
/// `schema` field).
pub const SERIES_SCHEMA_VERSION: u64 = 1;

/// Run identity written as the first JSONL line, mirroring the
/// snapshot's identity fields.
#[derive(Debug, Clone)]
pub struct SeriesMeta<'a> {
    /// Which substrate drives the run: `"sim"` or `"live"`.
    pub substrate: &'a str,
    /// Policy slug (or registry spec).
    pub policy: &'a str,
    /// Cluster size `p`.
    pub p: usize,
    /// Master count `m`.
    pub m: usize,
    /// Dispatch RNG seed.
    pub seed: u64,
}

/// Everything the driving substrate hands the recorder at one monitor
/// tick. The scheduler counters are *cumulative* (the recorder diffs
/// them against its retained baseline); the window stretch and drops
/// come from the driver's per-window fold.
#[derive(Debug)]
pub struct SeriesWindowInput<'a> {
    /// The reservation-controller sample for this window.
    pub window: &'a WindowSample,
    /// The scheduler's cumulative telemetry, when enabled.
    pub sched: Option<&'a SchedTelemetry>,
    /// Per-node busy fractions over the window.
    pub node_busy: &'a [f64],
    /// Mean stretch of the completions inside this window; `None` when
    /// the window completed nothing.
    pub window_stretch: Option<f64>,
    /// Requests dropped in this window.
    pub drops: u64,
}

/// Cumulative counters as of the previous window, retained so each
/// record carries exact deltas.
#[derive(Debug, Default)]
struct Baseline {
    place_calls: u64,
    stay_local: u64,
    remote: u64,
    no_live_nodes: u64,
    restarts: u64,
    stage_calls: [u64; STAGE_COUNT],
    region_charges: Vec<u64>,
    candidates: LogHistogram,
    latency_us: LogHistogram,
}

/// Streams one JSONL record per monitor window to a sink.
///
/// Follows the [`JsonlSink`](crate::sched::JsonlSink) error policy:
/// the first failed write or flush is reported to stderr, later records are
/// discarded, and the run continues (telemetry must never kill a run).
pub struct SeriesRecorder {
    writer: Box<dyn Write + Send>,
    errored: bool,
    began: bool,
    records: u64,
    baseline: Baseline,
}

impl std::fmt::Debug for SeriesRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeriesRecorder")
            .field("records", &self.records)
            .field("errored", &self.errored)
            .finish_non_exhaustive()
    }
}

impl SeriesRecorder {
    /// A recorder streaming to an arbitrary sink.
    pub fn to_writer(writer: Box<dyn Write + Send>) -> SeriesRecorder {
        SeriesRecorder {
            writer,
            errored: false,
            began: false,
            records: 0,
            baseline: Baseline::default(),
        }
    }

    /// A recorder streaming to a (buffered) file at `path`.
    pub fn create(path: &str) -> io::Result<SeriesRecorder> {
        let f = std::fs::File::create(path)?;
        Ok(SeriesRecorder::to_writer(Box::new(io::BufWriter::new(f))))
    }

    /// Records written so far (excluding the header line).
    pub fn records(&self) -> u64 {
        self.records
    }

    fn write_line(&mut self, v: &Value) {
        if self.errored {
            return;
        }
        let line = v.to_json();
        let written = self
            .writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"));
        self.report(written);
    }

    /// Report the first failed write or flush and discard the rest.
    fn report(&mut self, result: io::Result<()>) {
        if let Err(e) = result {
            eprintln!("telemetry series: write failed, discarding rest: {e}");
            self.errored = true;
        }
    }

    /// Write the run-identity header line. Called once by the driving
    /// substrate at run start; later calls are ignored.
    pub fn begin(&mut self, meta: &SeriesMeta<'_>) {
        if self.began {
            return;
        }
        self.began = true;
        let header = obj(vec![
            ("schema", u(SERIES_SCHEMA_VERSION)),
            ("kind", Value::Str("series".to_string())),
            ("substrate", Value::Str(meta.substrate.to_string())),
            ("policy", Value::Str(meta.policy.to_string())),
            ("p", u(meta.p as u64)),
            ("m", u(meta.m as u64)),
            ("seed", u(meta.seed)),
        ]);
        self.write_line(&header);
    }

    /// Fold one monitor window into a record: diff the cumulative
    /// counters against the baseline, write the JSONL line, advance the
    /// baseline.
    pub fn record(&mut self, input: &SeriesWindowInput<'_>) {
        let w = input.window;
        let b = &mut self.baseline;

        let (place, stages, region_charges, cand_delta, lat_delta) = match input.sched {
            Some(s) => {
                let place = obj(vec![
                    ("calls", u(s.place_calls - b.place_calls)),
                    ("stay_local", u(s.stay_local - b.stay_local)),
                    ("remote", u(s.remote - b.remote)),
                    ("no_live_nodes", u(s.no_live_nodes - b.no_live_nodes)),
                    ("restarts", u(s.restarts - b.restarts)),
                ]);
                let stages = Value::Array(
                    (0..STAGE_COUNT)
                        .map(|i| u(s.stage_calls[i] - b.stage_calls[i]))
                        .collect(),
                );
                let regions = if s.region_charges.is_empty() {
                    None
                } else {
                    Some(Value::Array(
                        s.region_charges
                            .iter()
                            .enumerate()
                            .map(|(i, &c)| u(c - b.region_charges.get(i).copied().unwrap_or(0)))
                            .collect(),
                    ))
                };
                let cand = s.candidates_hist.delta_since(&b.candidates);
                let lat = s.latency_us_hist.delta_since(&b.latency_us);
                b.place_calls = s.place_calls;
                b.stay_local = s.stay_local;
                b.remote = s.remote;
                b.no_live_nodes = s.no_live_nodes;
                b.restarts = s.restarts;
                b.stage_calls = s.stage_calls;
                b.region_charges = s.region_charges.clone();
                b.candidates = s.candidates_hist.clone();
                b.latency_us = s.latency_us_hist.clone();
                (place, stages, regions, cand, lat)
            }
            None => (
                Value::Null,
                Value::Null,
                None,
                HistDelta::new(),
                HistDelta::new(),
            ),
        };
        let mut fields = vec![
            ("at_us", u(w.at_us)),
            ("theta2_star", fnum(w.theta2_star)),
            ("a", fnum(w.a_hat)),
            ("r", fnum(w.r_hat)),
            ("rho", fnum(w.rho)),
            ("theta_hat", fnum(w.theta_hat)),
            ("clamp_events", u(w.clamp_events)),
            ("place", place),
            ("stages", stages),
            ("drops", u(input.drops)),
            (
                "window_stretch",
                match input.window_stretch {
                    Some(s) => fnum(s),
                    None => Value::Null,
                },
            ),
            (
                "node_busy",
                Value::Array(input.node_busy.iter().map(|&x| fnum(x)).collect()),
            ),
        ];
        if let Some(r) = region_charges {
            fields.push(("region_charges", r));
        }
        fields.push((
            "hists",
            obj(vec![
                ("candidates", delta_value(&cand_delta)),
                ("latency_us", delta_value(&lat_delta)),
            ]),
        ));
        let record = obj(fields);
        self.write_line(&record);
        self.records += 1;
    }

    /// Flush the sink; a failure is reported like a failed write.
    pub fn flush(&mut self) {
        if !self.errored {
            let flushed = self.writer.flush();
            self.report(flushed);
        }
    }
}

impl Drop for SeriesRecorder {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A histogram delta as `{count, sum, buckets: [[index, n], ...]}`.
/// Windows carry no min/max: those are not recoverable by subtraction
/// of cumulative histograms.
fn delta_value(d: &HistDelta) -> Value {
    let buckets: Vec<Value> = d
        .buckets
        .iter()
        .map(|&(i, c)| Value::Array(vec![u(i as u64), u(c)]))
        .collect();
    obj(vec![
        ("count", u(d.count)),
        ("sum", u(d.sum)),
        ("buckets", Value::Array(buckets)),
    ])
}

/// An in-memory series sink that can be read back after the run — the
/// clone handed to the recorder and the clone kept by the caller share
/// one buffer. Used by the experiment runner and the tests.
#[derive(Debug, Clone, Default)]
pub struct SharedSeriesBuffer {
    buf: Arc<Mutex<Vec<u8>>>,
}

impl SharedSeriesBuffer {
    /// A fresh, empty buffer.
    pub fn new() -> SharedSeriesBuffer {
        SharedSeriesBuffer::default()
    }

    /// The buffered JSONL as a string.
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&self.buf.lock().unwrap()).into_owned()
    }
}

impl Write for SharedSeriesBuffer {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.buf.lock().unwrap().extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse a histogram delta back from its series-record encoding
    /// (`{count, sum, buckets}`).
    fn delta_from_value(v: &Value) -> Result<HistDelta, String> {
        let int = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("delta: missing or non-integer '{k}'"))
        };
        let mut buckets = Vec::new();
        for b in v
            .get("buckets")
            .and_then(Value::as_array)
            .ok_or("delta: missing 'buckets'")?
        {
            let pair = b
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or("delta: bucket is not an [index, count] pair")?;
            let i = pair[0].as_u64().ok_or("delta: non-integer bucket index")?;
            let c = pair[1].as_u64().ok_or("delta: non-integer bucket count")?;
            buckets.push((i as usize, c));
        }
        Ok(HistDelta {
            buckets,
            count: int("count")?,
            sum: int("sum")?,
        })
    }

    fn sample_window(at_us: u64, clamps: u64) -> WindowSample {
        WindowSample {
            at_us,
            theta2_star: 0.42,
            a_hat: 0.25,
            r_hat: 0.025,
            rho: 0.8,
            theta_hat: 0.3,
            clamp_events: clamps,
        }
    }

    #[test]
    fn records_carry_exact_deltas() {
        let buf = SharedSeriesBuffer::new();
        let mut rec = SeriesRecorder::to_writer(Box::new(buf.clone()));
        rec.begin(&SeriesMeta {
            substrate: "sim",
            policy: "ms",
            p: 4,
            m: 2,
            seed: 42,
        });
        let mut sched = SchedTelemetry::new(4);
        sched.place_calls = 10;
        sched.remote = 6;
        sched.stay_local = 4;
        sched.stage_calls = [10, 10, 6, 6, 10];
        sched.candidates_hist.record_n(3, 6);
        rec.record(&SeriesWindowInput {
            window: &sample_window(500_000, 0),
            sched: Some(&sched),
            node_busy: &[0.5, 0.25, 0.75, 1.0],
            window_stretch: Some(1.5),
            drops: 1,
        });
        sched.place_calls = 25;
        sched.remote = 15;
        sched.stay_local = 10;
        sched.stage_calls = [25, 25, 15, 15, 25];
        sched.candidates_hist.record_n(3, 9);
        rec.record(&SeriesWindowInput {
            window: &sample_window(1_000_000, 2),
            sched: Some(&sched),
            node_busy: &[0.5, 0.25, 0.75, 1.0],
            window_stretch: None,
            drops: 0,
        });
        drop(rec);

        let lines: Vec<Value> = buf
            .contents()
            .lines()
            .map(|l| Value::parse(l).expect("line parses"))
            .collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].get("kind").and_then(Value::as_str), Some("series"));
        let w1 = &lines[1];
        assert_eq!(
            w1.get("place")
                .unwrap()
                .get("calls")
                .and_then(Value::as_u64),
            Some(10)
        );
        assert_eq!(w1.get("drops").and_then(Value::as_u64), Some(1));
        let w2 = &lines[2];
        assert_eq!(
            w2.get("place")
                .unwrap()
                .get("calls")
                .and_then(Value::as_u64),
            Some(15)
        );
        assert_eq!(w2.get("drops").and_then(Value::as_u64), Some(0));
        assert!(matches!(w2.get("window_stretch"), Some(Value::Null)));
        let d = delta_from_value(w2.get("hists").unwrap().get("candidates").unwrap()).unwrap();
        assert_eq!(d.count, 9);
        assert_eq!(d.buckets, vec![(3, 9)]);
    }

    #[test]
    fn header_is_written_once() {
        let buf = SharedSeriesBuffer::new();
        let mut rec = SeriesRecorder::to_writer(Box::new(buf.clone()));
        let meta = SeriesMeta {
            substrate: "sim",
            policy: "ms",
            p: 2,
            m: 1,
            seed: 1,
        };
        rec.begin(&meta);
        rec.begin(&meta);
        rec.flush();
        assert_eq!(buf.contents().lines().count(), 1);
    }
}
