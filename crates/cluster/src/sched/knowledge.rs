//! The demand-knowledge layer: what the scheduler is *told* about a
//! request, kept separate from what is *true*.
//!
//! The paper assumes per-class CPU weights `w` from off-line sampling
//! (§3, Eq. 5) and an expected demand for charge-back — both treated as
//! reliable. That assumption used to be baked into every stage
//! signature as a bare `sampled_w: f64` plus an `expected` duration.
//! [`ReqKnowledge`] replaces those loose parameters with a single
//! *declared* estimate, so a composition
//! can be honestly size-oblivious: ground truth (the request's actual
//! service demand) stays private to the driving substrate and reaches
//! the scheduler only through the channels that legitimately need it —
//! [`Scheduler::note_request`](super::Scheduler::note_request) for the
//! decision log's `demand_us` field, and
//! [`Schedule::note_service_end`](super::Schedule::note_service_end)
//! for closing the attained-service books at completion.
//!
//! [`AttainedService`] is the size-oblivious counterweight: per
//! in-flight request it accounts the service already received (fed from
//! tick accounting by both substrates), which is the only demand signal
//! the Gittins/SERPT/LAS scorers in [`super::stages`] consult.

use msweb_simcore::time::SimDuration;
use std::collections::BTreeMap;

/// Everything the scheduling pipeline is allowed to know about one
/// request: the declared CPU weight and the declared expected demand.
///
/// This is a *declaration*, not a measurement. How it relates to the
/// truth is the driver's choice (`DemandVisibility`): under the default
/// `Exact` regime it coincides with the truth, which is the paper's
/// operating point and what the golden fixtures pin down.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReqKnowledge {
    /// Declared CPU cost share `w` of Eq. 5. Clamping and the
    /// no-sampling fallback are applied by
    /// [`RsrcPredictor::effective_w`](crate::rsrc::RsrcPredictor::effective_w),
    /// not here.
    pub w: f64,
    /// Declared expected service demand, used for charge-back and as
    /// the population prior of the size-oblivious scorers.
    pub expected: SimDuration,
}

impl ReqKnowledge {
    /// A declared weight `w` and expected demand `expected`.
    pub fn new(w: f64, expected: SimDuration) -> Self {
        ReqKnowledge { w, expected }
    }

    /// Hidden declaration: the per-request size is unknown. `w` falls
    /// back to the paper's "if a value for w cannot be obtained, we
    /// assume w = 0.5"; `expected` should be a population mean so the
    /// charge-back stays calibrated in aggregate.
    pub fn hidden(expected: SimDuration) -> Self {
        ReqKnowledge::new(0.5, expected)
    }

    /// Copy of this knowledge with `w` replaced — used by the scheduler
    /// to hand the charge-back stage the *effective* weight
    /// (post-clamp, post-no-sampling-fallback) while scorers keep
    /// seeing the raw declaration.
    pub fn with_w(self, w: f64) -> Self {
        ReqKnowledge { w, ..self }
    }
}

/// Per-in-flight attained-service accounting, fed by the driving
/// substrate and read by size-oblivious stages through
/// [`StageCtx::attained`](super::StageCtx::attained).
///
/// The substrate — which alone knows the truth — feeds three calls per
/// request: [`start`](AttainedService::start) when service begins on a
/// node, [`progress`](AttainedService::progress) from its tick
/// accounting (values already capped at the true demand by the caller),
/// and [`finish`](AttainedService::finish) at completion with the true
/// total, which closes the books for that request. Attained time is
/// monotone by construction: `progress` never lowers a value, and
/// `finish` counts an overrun instead of exceeding the declared total.
///
/// All bookkeeping is integer microseconds and per-tag, so the
/// aggregates are independent of feed order within a tick.
#[derive(Debug, Clone)]
pub struct AttainedService {
    /// Per node: in-flight tag → attained microseconds.
    jobs: Vec<BTreeMap<u64, u64>>,
    /// Per node: sum of in-flight attained microseconds (kept in sync
    /// with `jobs` so scorers read totals in O(1)).
    totals: Vec<u64>,
    /// Requests finished via [`AttainedService::finish`].
    completed: u64,
    /// Sum of true totals over finished requests, microseconds.
    completed_us: u64,
    /// Finishes whose tracked attained exceeded the true total — an
    /// accounting bug in the feeding substrate if ever nonzero.
    overruns: u64,
}

impl AttainedService {
    /// Empty tracker for a `p`-node cluster.
    pub fn new(p: usize) -> Self {
        AttainedService {
            jobs: vec![BTreeMap::new(); p],
            totals: vec![0; p],
            completed: 0,
            completed_us: 0,
            overruns: 0,
        }
    }

    /// Begin tracking `tag` on `node` with zero attained service.
    /// Re-starting a live tag (a request re-placed after a failure)
    /// resets its attained time — the restart loses its progress.
    pub fn start(&mut self, node: usize, tag: u64) {
        if let Some(old) = self.jobs[node].insert(tag, 0) {
            self.totals[node] -= old;
        }
    }

    /// Raise `tag`'s attained service to `attained` (monotone: lower
    /// values are ignored). Unknown tags are ignored — the substrate
    /// may tick between admission and service start.
    pub fn progress(&mut self, node: usize, tag: u64, attained: SimDuration) {
        let Some(slot) = self.jobs[node].get_mut(&tag) else {
            return;
        };
        let new = attained.as_micros();
        if new > *slot {
            self.totals[node] += new - *slot;
            *slot = new;
        }
    }

    /// Close the books for `tag`: the request completed having received
    /// exactly `total` service. Removes the job and folds it into the
    /// completion counters. Unknown tags are ignored (a completion for
    /// a request lost to a crash).
    pub fn finish(&mut self, node: usize, tag: u64, total: SimDuration) {
        let Some(attained) = self.jobs[node].remove(&tag) else {
            return;
        };
        self.totals[node] -= attained;
        if attained > total.as_micros() {
            self.overruns += 1;
        }
        self.completed += 1;
        self.completed_us += total.as_micros();
    }

    /// Drop `tag` without completing it (the request was lost to a node
    /// failure; a restart calls [`AttainedService::start`] afresh).
    pub fn forget(&mut self, node: usize, tag: u64) {
        if let Some(attained) = self.jobs[node].remove(&tag) {
            self.totals[node] -= attained;
        }
    }

    /// Drop every in-flight job on `node` (whole-node failure).
    pub fn forget_node(&mut self, node: usize) {
        self.jobs[node].clear();
        self.totals[node] = 0;
    }

    /// Number of jobs currently tracked on `node`.
    pub fn jobs(&self, node: usize) -> usize {
        self.jobs[node].len()
    }

    /// Total attained service currently in flight on `node`.
    pub fn total(&self, node: usize) -> SimDuration {
        SimDuration::from_micros(self.totals[node])
    }

    /// Iterate the attained service of each in-flight job on `node`.
    pub fn per_job(&self, node: usize) -> impl Iterator<Item = SimDuration> + '_ {
        self.jobs[node]
            .values()
            .map(|&us| SimDuration::from_micros(us))
    }

    /// Jobs currently tracked across the whole cluster.
    pub fn in_flight(&self) -> usize {
        self.jobs.iter().map(BTreeMap::len).sum()
    }

    /// Requests closed via [`AttainedService::finish`].
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Sum of true totals over completed requests.
    pub fn completed_time(&self) -> SimDuration {
        SimDuration::from_micros(self.completed_us)
    }

    /// Finishes whose tracked attained exceeded the true total. Always
    /// zero when the feeding substrate caps progress at the truth.
    pub fn overruns(&self) -> u64 {
        self.overruns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn progress_is_monotone_and_totals_track() {
        let mut a = AttainedService::new(2);
        a.start(1, 7);
        a.progress(1, 7, us(100));
        a.progress(1, 7, us(50)); // lower: ignored
        assert_eq!(a.total(1), us(100));
        a.progress(1, 7, us(250));
        assert_eq!(a.total(1), us(250));
        assert_eq!(a.jobs(1), 1);
        assert_eq!(a.jobs(0), 0);
    }

    #[test]
    fn finish_closes_books() {
        let mut a = AttainedService::new(1);
        a.start(0, 1);
        a.progress(0, 1, us(300));
        a.finish(0, 1, us(400));
        assert_eq!(a.jobs(0), 0);
        assert_eq!(a.total(0), us(0));
        assert_eq!(a.completed(), 1);
        assert_eq!(a.completed_time(), us(400));
        assert_eq!(a.overruns(), 0);
        // Completing an unknown tag is a no-op.
        a.finish(0, 99, us(1));
        assert_eq!(a.completed(), 1);
    }

    #[test]
    fn overfed_finish_counts_an_overrun() {
        let mut a = AttainedService::new(1);
        a.start(0, 1);
        a.progress(0, 1, us(500));
        a.finish(0, 1, us(400));
        assert_eq!(a.overruns(), 1);
    }

    #[test]
    fn restart_resets_attained() {
        let mut a = AttainedService::new(2);
        a.start(0, 1);
        a.progress(0, 1, us(200));
        a.forget(0, 1);
        assert_eq!(a.total(0), us(0));
        a.start(1, 1);
        assert_eq!(a.total(1), us(0));
        a.start(1, 1); // double-start keeps totals consistent
        assert_eq!(a.jobs(1), 1);
        assert_eq!(a.total(1), us(0));
    }

    #[test]
    fn hidden_knowledge_falls_back_to_half_weight() {
        let k = ReqKnowledge::hidden(us(1000));
        assert_eq!(k.w, 0.5);
        let e = ReqKnowledge::new(0.9, us(1000));
        assert_eq!(e.with_w(0.3).w, 0.3);
        assert_eq!(e.with_w(0.3).expected, us(1000));
    }
}
