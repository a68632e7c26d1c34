//! Streaming request sources.
//!
//! A [`RequestSource`] is a seeded, deterministic iterator of
//! time-ordered [`Request`]s. It replaces the materialize-everything
//! `Vec<Request>` contract for consumers that only need one pass: the
//! simulator, the live emulation and the benchmark sweeps all accept
//! sources, so what a consumer holds per request lives only while the
//! request is *in flight*, not for the run length. A 10-million-request
//! run streams through a few kilobytes of generator state instead of
//! ~800 MB of materialized trace. (The simulator's run summary keeps its
//! response-time quantiles as counts per distinct microsecond, so that
//! does not grow with the run length either.)
//!
//! ## Contract
//!
//! * **Ordering** — `next()` yields requests in non-decreasing arrival
//!   order. Consumers may rely on this (the simulator admits each request
//!   the moment it is drawn).
//! * **Determinism** — a source built from the same constructor arguments
//!   (spec, demand model, seed) yields the identical request sequence on
//!   every run and platform. [`TraceSpec::generate`] is defined as
//!   `stream(...).collect()`, so the streamed and materialized paths are
//!   request-for-request equal by construction.
//! * **`len_hint`** — the number of requests still to be yielded, when
//!   known (`None` for open-ended sources). When `Some(n)` it is exact,
//!   not an estimate; consumers may use it to pre-size buffers but must
//!   still terminate on `next() == None`.
//!
//! [`TraceSpec::generate`]: crate::generators::TraceSpec::generate
//! [`TraceSpec`]: crate::generators::TraceSpec

use msweb_simcore::{SimDuration, SimTime};

use crate::request::Request;
use crate::trace::Trace;

/// A seeded, deterministic stream of time-ordered requests.
///
/// See the [module docs](self) for the ordering/seeding/`len_hint`
/// contract.
pub trait RequestSource: Iterator<Item = Request> {
    /// Human-readable provenance ("UCB", "KSU", an imported log name...).
    fn source_name(&self) -> &str;

    /// Exact number of requests still to be yielded, when known.
    fn len_hint(&self) -> Option<usize>;
}

/// The replay-rate transform from §5.1, factored out so the materialized
/// ([`Trace::scaled_to_rate`]) and streamed ([`ScaledSource`]) paths apply
/// the byte-identical arithmetic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateScaling {
    /// Leave arrivals untouched.
    Identity,
    /// Multiply each arrival's offset from `t0` by `factor`
    /// (`factor = current_rate / target_rate`).
    Factor {
        /// Interval scale factor.
        factor: f64,
        /// First arrival of the unscaled stream.
        t0: SimTime,
    },
    /// Zero-span input: space arrivals uniformly at the target rate.
    UniformGap {
        /// Gap between consecutive arrivals.
        gap: SimDuration,
    },
}

impl RateScaling {
    /// The transform that takes a stream whose measured mean rate is
    /// `current_rate` (first arrival `t0`) to mean rate `lambda`.
    pub fn to_rate(current_rate: f64, t0: SimTime, lambda: f64) -> RateScaling {
        assert!(
            lambda > 0.0 && lambda.is_finite(),
            "bad target rate {lambda}"
        );
        if current_rate <= 0.0 {
            RateScaling::UniformGap {
                gap: SimDuration::from_secs_f64(1.0 / lambda),
            }
        } else {
            RateScaling::Factor {
                factor: current_rate / lambda,
                t0,
            }
        }
    }

    /// Measure a stream's mean rate by draining it (O(1) memory), then
    /// build the transform to `lambda`. The caller re-constructs the
    /// source for the actual replay pass — sources are cheap to build
    /// and deterministic, so two passes cost only CPU.
    pub fn measure<S: RequestSource>(source: S, lambda: f64) -> RateScaling {
        let mut first: Option<SimTime> = None;
        let mut last = SimTime::ZERO;
        let mut n = 0usize;
        for r in source {
            if first.is_none() {
                first = Some(r.arrival);
            }
            last = r.arrival;
            n += 1;
        }
        let t0 = first.unwrap_or(SimTime::ZERO);
        // Same arithmetic as Trace::mean_rate: n arrivals span n-1
        // intervals.
        let span = (last - t0).as_secs_f64();
        let current = if span <= 0.0 {
            0.0
        } else {
            (n.saturating_sub(1)) as f64 / span
        };
        RateScaling::to_rate(current, t0, lambda)
    }

    /// Apply the transform to the `index`-th request of the stream.
    pub fn apply(&self, index: u64, r: Request) -> Request {
        match *self {
            RateScaling::Identity => r,
            RateScaling::Factor { factor, t0 } => Request {
                arrival: SimTime::ZERO + (r.arrival - t0).mul_f64(factor),
                ..r
            },
            RateScaling::UniformGap { gap } => Request {
                arrival: SimTime::ZERO + gap.mul(index),
                ..r
            },
        }
    }
}

/// A source with the §5.1 replay-rate transform applied on the fly.
#[derive(Debug, Clone)]
pub struct ScaledSource<S> {
    inner: S,
    scaling: RateScaling,
    index: u64,
}

impl<S: RequestSource> ScaledSource<S> {
    /// Wrap `inner`, applying `scaling` to each yielded request.
    pub fn new(inner: S, scaling: RateScaling) -> Self {
        ScaledSource {
            inner,
            scaling,
            index: 0,
        }
    }
}

impl<S: RequestSource> Iterator for ScaledSource<S> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let r = self.inner.next()?;
        let i = self.index;
        self.index += 1;
        Some(self.scaling.apply(i, r))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<S: RequestSource> RequestSource for ScaledSource<S> {
    fn source_name(&self) -> &str {
        self.inner.source_name()
    }

    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }
}

/// A source that borrows a materialized [`Trace`] — the zero-copy
/// backward-compatibility adapter.
#[derive(Debug, Clone)]
pub struct SliceSource<'a> {
    name: &'a str,
    iter: std::iter::Copied<std::slice::Iter<'a, Request>>,
}

impl<'a> SliceSource<'a> {
    /// Borrow `trace`'s requests as a source.
    pub fn new(trace: &'a Trace) -> Self {
        SliceSource {
            name: &trace.name,
            iter: trace.requests.iter().copied(),
        }
    }
}

impl Iterator for SliceSource<'_> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        self.iter.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.iter.size_hint()
    }
}

impl RequestSource for SliceSource<'_> {
    fn source_name(&self) -> &str {
        self.name
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.iter.len())
    }
}

/// A source that owns a materialized [`Trace`] (no clone of the request
/// vector — the trace is consumed).
#[derive(Debug)]
pub struct TraceSource {
    name: String,
    iter: std::vec::IntoIter<Request>,
}

impl TraceSource {
    /// Consume `trace` into a source.
    pub fn new(trace: Trace) -> Self {
        TraceSource {
            name: trace.name,
            iter: trace.requests.into_iter(),
        }
    }
}

impl Iterator for TraceSource {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        self.iter.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.iter.size_hint()
    }
}

impl RequestSource for TraceSource {
    fn source_name(&self) -> &str {
        &self.name
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.iter.len())
    }
}

impl Trace {
    /// Borrow this trace as a [`RequestSource`] (no copy).
    pub fn source(&self) -> SliceSource<'_> {
        SliceSource::new(self)
    }

    /// Consume this trace into an owning [`RequestSource`] (no copy of
    /// the request vector).
    pub fn into_source(self) -> TraceSource {
        TraceSource::new(self)
    }

    /// Stream this trace rescaled to mean rate `lambda` without cloning
    /// the request vector — the streaming twin of
    /// [`Trace::scaled_to_rate`]; the two produce identical requests.
    pub fn scaled_source(&self, lambda: f64) -> ScaledSource<SliceSource<'_>> {
        let t0 = self
            .requests
            .first()
            .map(|r| r.arrival)
            .unwrap_or(SimTime::ZERO);
        let scaling = RateScaling::to_rate(self.mean_rate(), t0, lambda);
        ScaledSource::new(self.source(), scaling)
    }
}

impl IntoIterator for Trace {
    type Item = Request;
    type IntoIter = TraceSource;

    fn into_iter(self) -> TraceSource {
        self.into_source()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Request;
    type IntoIter = std::slice::Iter<'a, Request>;

    fn into_iter(self) -> Self::IntoIter {
        self.requests.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{ucb, DemandModel};
    use crate::request::{RequestClass, ServiceDemand};

    fn small_trace() -> Trace {
        let mk = |id: u64, ms: u64| {
            Request::new(
                id,
                SimTime::from_millis(ms),
                RequestClass::Static,
                100,
                ServiceDemand::ZERO,
            )
        };
        Trace::new("T", vec![mk(0, 0), mk(1, 100), mk(2, 250)])
    }

    #[test]
    fn slice_source_yields_all_requests() {
        let t = small_trace();
        let s = t.source();
        assert_eq!(s.source_name(), "T");
        assert_eq!(s.len_hint(), Some(3));
        let collected: Vec<Request> = s.collect();
        assert_eq!(collected, t.requests);
    }

    #[test]
    fn trace_source_consumes_without_clone() {
        let t = small_trace();
        let expect = t.requests.clone();
        let mut s = t.into_source();
        assert_eq!(s.len_hint(), Some(3));
        s.next();
        assert_eq!(s.len_hint(), Some(2), "len_hint tracks remaining");
        let rest: Vec<Request> = s.collect();
        assert_eq!(rest, expect[1..]);
    }

    #[test]
    fn into_iterator_sugar() {
        let t = small_trace();
        let ids: Vec<u64> = (&t).into_iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        let ids: Vec<u64> = t.into_iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn scaled_source_matches_scaled_to_rate() {
        let t = ucb().generate(500, &DemandModel::simulation(40.0), 9);
        for lambda in [50.0, 300.0, 1200.0] {
            let materialized = t.scaled_to_rate(lambda);
            let streamed: Vec<Request> = t.scaled_source(lambda).collect();
            assert_eq!(materialized.requests, streamed, "lambda {lambda}");
        }
    }

    #[test]
    fn scaled_source_zero_span_matches() {
        let mk = |id: u64| {
            Request::new(
                id,
                SimTime::ZERO,
                RequestClass::Static,
                1,
                ServiceDemand::ZERO,
            )
        };
        let t = Trace::new("Z", vec![mk(0), mk(1), mk(2)]);
        let materialized = t.scaled_to_rate(10.0);
        let streamed: Vec<Request> = t.scaled_source(10.0).collect();
        assert_eq!(materialized.requests, streamed);
    }

    #[test]
    fn measure_agrees_with_trace_mean_rate() {
        let t = ucb().generate(300, &DemandModel::simulation(40.0), 4);
        let measured = RateScaling::measure(t.source(), 500.0);
        let direct = RateScaling::to_rate(t.mean_rate(), t.requests[0].arrival, 500.0);
        assert_eq!(measured, direct);
    }
}
