//! Incremental reservation planning: the persistent per-partition planner
//! behind the conservative/EASY hot paths.
//!
//! Before this layer, every decision point rebuilt its planning state from
//! scratch: `conservative_pass` re-derived the whole reservation plan from
//! `running()` + `queue()`, `easy_pass` rebuilt the release profile for one
//! shadow query, and `backfill()` rebuilt a ground-truth profile per action
//! — quadratic work per pass at real queue depths, multiplied again by the
//! decision-point re-routing pass.
//!
//! `Planner` instead keeps **long-lived profiles per partition**, updated
//! in O(edge-op) as the simulation evolves:
//!
//! * `actual` — ground-truth release profiles (actual runtimes), consulted
//!   by `would_delay_reserved` on every backfill action. Completions always
//!   land exactly on their release edge, so this profile never invalidates
//!   anything.
//! * `releases` — estimated release profiles under the scheduler's
//!   [`RuntimeEstimator`], the EASY shadow/extra source.
//! * `cons` — the conservative state: a *combined* profile
//!   (releases + granted reservations) plus the reservation plan aligned
//!   with the partition queue, and `dirty_from`, the first queue position
//!   whose reservation is no longer trustworthy.
//!
//! A conservative pass then becomes "repair the suffix of the plan that
//! this event batch invalidated" instead of a full rebuild:
//!
//! * **arrival at queue position k** → positions ≥ k replan (under FCFS
//!   that is just the new tail job);
//! * **on-time or late completion** (estimated end ≤ now) → nothing
//!   replans: retiring the release edge and crediting the baseline is
//!   query-equivalent to the clamped rebuild;
//! * **early completion** (estimated end still in the future) → the whole
//!   partition plan replans, exactly like a from-scratch pass would see;
//! * **job start at its planned instant** → its reservation is retired in
//!   place (usage → release is availability-neutral at and after `now`)
//!   and every later reservation stays valid;
//! * **migration / queue re-sort** → the affected suffix (or the whole
//!   partition) replans.
//!
//! The invalidation rules are *exact*, not heuristic: repaired plans are
//! bitwise identical to a from-scratch replan, which
//! `Planner::conservative_starts` re-checks against
//! [`from_scratch_conservative_starts`] under `cfg(debug_assertions)` (the
//! debug oracle — every debug-mode test run of every scenario doubles as a
//! differential test of this module), and
//! `tests/proptest_plan.rs` pins under random arrival/completion/migration
//! interleavings.

use crate::cluster::Partition;
use crate::estimator::RuntimeEstimator;
use crate::observe::{PlanStats, ProfileStats, RepairCause};
use crate::profile::AvailabilityProfile;
use crate::state::BackfillSim;
use swf::Job;

/// Time slack when deciding whether a planned start is "now" (must match
/// the conservative pass's epsilon).
const EPS: f64 = 1e-9;

/// One granted reservation, aligned with a queue position.
#[derive(Debug, Clone, Copy)]
struct PlanEntry {
    id: usize,
    start: f64,
    est: f64,
    procs: u32,
}

/// Placeholder for positions at or beyond `dirty_from` — never read as a
/// reservation.
const UNPLANNED: PlanEntry = PlanEntry {
    id: usize::MAX,
    start: f64::INFINITY,
    est: 0.0,
    procs: 0,
};

/// Conservative planning state of one partition.
#[derive(Debug, Clone)]
struct ConsPlan {
    /// releases + usages of every reservation in `plan[..dirty_from]`.
    combined: AvailabilityProfile,
    /// Reservation per queue position; valid only below `dirty_from`.
    plan: Vec<PlanEntry>,
    /// First queue position whose reservation must be re-derived.
    dirty_from: usize,
    /// Most disruptive invalidation cause accumulated since the last
    /// repair pass; the pass attributes its whole suffix repair to it.
    pending_cause: Option<RepairCause>,
}

impl ConsPlan {
    /// Retires the reservations of positions `k..dirty_from` from the
    /// combined profile and marks them for replanning.
    fn invalidate_from(&mut self, k: usize) {
        if k >= self.dirty_from {
            return;
        }
        // simlint: allow(panic-path) — partition/queue indices come from ensure_est-built state; in-bounds by construction
        for e in &self.plan[k..self.dirty_from] {
            self.combined
                .remove_usage(e.start, e.start + e.est, e.procs);
        }
        self.dirty_from = k;
    }

    /// Accumulates an invalidation cause; between two passes the most
    /// disruptive one wins ([`RepairCause`] orders by disruption).
    fn note(&mut self, cause: RepairCause) {
        self.pending_cause = Some(match self.pending_cause {
            Some(prev) => prev.max(cause),
            None => cause,
        });
    }

    /// The queue's order changed wholesale (a policy re-sort): nothing
    /// about the positional alignment survives.
    fn resorted(&mut self) {
        self.invalidate_from(0);
        self.plan.clear();
        self.note(RepairCause::Resort);
    }
}

/// Estimated planning state (releases + conservative plans) under one
/// estimator.
#[derive(Debug, Clone)]
struct EstState {
    estimator: RuntimeEstimator,
    parts: Vec<PartPlan>,
}

#[derive(Debug, Clone)]
struct PartPlan {
    /// Baseline-free + release edges of the partition's running jobs under
    /// `EstState::estimator`. Release edges are inserted *unclamped*
    /// (`start + estimate`); edges the clock has passed are
    /// query-equivalent to a clamped rebuild and are removed bitwise when
    /// the job completes.
    releases: AvailabilityProfile,
    /// Conservative state; materialized the first time a conservative
    /// pass consults this partition.
    cons: Option<ConsPlan>,
}

impl EstState {
    fn build(parts: &[Partition], estimator: RuntimeEstimator, now: f64) -> Self {
        let parts = parts
            .iter()
            .map(|p| {
                let mut releases = AvailabilityProfile::new(now, p.free());
                for r in p.running() {
                    releases.add_release_raw(r.start + estimator.estimate(&r.job), r.job.procs);
                }
                PartPlan {
                    releases,
                    cons: None,
                }
            })
            .collect(); // simlint: allow(hot-alloc) — cold from-scratch ConsPlan build; steady state uses incremental repair
        Self { estimator, parts }
    }
}

/// The persistent planning layer owned by `state::Simulation`. All hooks
/// are O(1) no-ops until a consumer (a conservative pass, an EASY shadow
/// query, or a backfill-delay check) first consults the corresponding
/// state, which is then maintained incrementally for the rest of the run.
#[derive(Debug, Clone, Default)]
pub(crate) struct Planner {
    /// Ground-truth release profiles (actual runtimes), estimator-free.
    actual: Option<Vec<AvailabilityProfile>>,
    /// Estimated planning state, keyed by the estimator of the first
    /// consumer; a consult under a different estimator rebuilds it.
    est: Option<EstState>,
    /// Passive suffix-repair accounting (see [`crate::observe`]).
    stats: PlanStats,
    /// The repair performed by the most recent [`Planner::conservative_starts`]
    /// call, for the audit log's `plan_repaired` records; `None` when the
    /// last pass repaired nothing. Overwritten every pass, consumed by
    /// [`Planner::take_last_repair`].
    last_repair: Option<(RepairCause, usize)>,
}

impl Planner {
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of the planner's suffix-repair accounting.
    pub fn stats(&self) -> PlanStats {
        self.stats.clone() // simlint: allow(hot-alloc) — stats snapshot is probe-gated diagnostics, not the scheduling path
    }

    /// The (cause, entries) repair of the most recent conservative pass,
    /// if it repaired anything. Consuming — a second call returns `None`.
    pub fn take_last_repair(&mut self) -> Option<(RepairCause, usize)> {
        self.last_repair.take()
    }

    /// Sums the passive profile counters of every persistent profile the
    /// planner owns (ground truth, estimated releases, conservative
    /// combined). Debug-oracle scratch profiles never land here.
    pub fn profile_stats(&self) -> ProfileStats {
        let mut total = ProfileStats::default();
        if let Some(actual) = &self.actual {
            for prof in actual {
                total.absorb(&prof.stats());
            }
        }
        if let Some(est) = &self.est {
            for pp in &est.parts {
                total.absorb(&pp.releases.stats());
                if let Some(cons) = &pp.cons {
                    total.absorb(&cons.combined.stats());
                }
            }
        }
        total
    }

    /// A job entered partition `p`'s queue at `pos` (`None`: appended with
    /// a deferred re-sort pending — positional alignment is gone).
    pub fn on_enqueue(&mut self, p: usize, pos: Option<usize>) {
        let Some(cons) = self.cons_mut(p) else { return };
        match pos {
            Some(k) => {
                cons.invalidate_from(k);
                cons.note(RepairCause::Arrival);
                let at = k.min(cons.plan.len());
                cons.plan.insert(at, UNPLANNED);
            }
            None => cons.resorted(),
        }
    }

    /// A still-waiting job left partition `p`'s queue at `pos` (migration).
    pub fn on_dequeue(&mut self, p: usize, pos: usize) {
        let Some(cons) = self.cons_mut(p) else { return };
        cons.invalidate_from(pos);
        cons.note(RepairCause::Migration);
        if pos < cons.plan.len() {
            cons.plan.remove(pos);
        }
    }

    /// Partition `p`'s queue was re-sorted in place.
    pub fn on_resort(&mut self, p: usize) {
        if let Some(cons) = self.cons_mut(p) {
            cons.resorted();
        }
    }

    /// The job at queue position `pos` of partition `p` started now.
    pub fn on_start(&mut self, p: usize, pos: usize, job: &Job, now: f64) {
        let procs = job.procs;
        if let Some(actual) = &mut self.actual {
            let prof = &mut actual[p]; // simlint: allow(panic-path) — partition/queue indices come from ensure_est-built state; in-bounds by construction
            prof.shift_baseline(-(procs as i64));
            prof.add_release_raw(now + job.runtime, procs);
        }
        let Some(est) = &mut self.est else { return };
        let e = est.estimator.estimate(job);
        let pp = &mut est.parts[p]; // simlint: allow(panic-path) — partition/queue indices come from ensure_est-built state; in-bounds by construction
        pp.releases.shift_baseline(-(procs as i64));
        pp.releases.add_release_raw(now + e, procs);
        let Some(cons) = pp.cons.as_mut() else { return };
        cons.combined.shift_baseline(-(procs as i64));
        cons.combined.add_release_raw(now + e, procs);
        if pos < cons.dirty_from {
            let entry = cons.plan[pos]; // simlint: allow(panic-path) — partition/queue indices come from ensure_est-built state; in-bounds by construction
            debug_assert_eq!(entry.id, job.id, "plan/queue alignment lost");
            if entry.start.to_bits() == now.to_bits() {
                // The job starts exactly at its reserved instant: swapping
                // its usage [now, now+est) for the release just added is
                // availability-neutral at every queryable time, so every
                // later reservation stays valid.
                cons.combined
                    .remove_usage(entry.start, entry.start + entry.est, entry.procs);
                cons.plan.remove(pos);
                cons.dirty_from -= 1;
            } else {
                // Started off-plan (epsilon-slack backfill or a start the
                // plan predates): later reservations saw a different
                // profile than a rebuild would — replan them.
                cons.invalidate_from(pos);
                cons.note(RepairCause::OffPlanStart);
                cons.plan.remove(pos);
            }
        } else if pos < cons.plan.len() {
            cons.plan.remove(pos);
        }
    }

    /// The running job `r` of partition `p` completed now.
    pub fn on_complete(&mut self, p: usize, r: &crate::state::RunningJob, now: f64) {
        let procs = r.job.procs;
        if let Some(actual) = &mut self.actual {
            let prof = &mut actual[p]; // simlint: allow(panic-path) — partition/queue indices come from ensure_est-built state; in-bounds by construction
            prof.remove_release(r.start + r.job.runtime, procs);
            prof.shift_baseline(procs as i64);
        }
        let Some(est) = &mut self.est else { return };
        let est_end = r.start + est.estimator.estimate(&r.job);
        let pp = &mut est.parts[p]; // simlint: allow(panic-path) — partition/queue indices come from ensure_est-built state; in-bounds by construction
        pp.releases.remove_release(est_end, procs);
        pp.releases.shift_baseline(procs as i64);
        let Some(cons) = pp.cons.as_mut() else { return };
        cons.combined.remove_release(est_end, procs);
        cons.combined.shift_baseline(procs as i64);
        if est_end > now {
            // Early completion: availability genuinely moved left of what
            // the plan assumed — a from-scratch pass would re-derive every
            // reservation, so the whole partition replans.
            cons.invalidate_from(0);
            cons.note(RepairCause::EarlyCompletion);
        }
    }

    /// Partition `p`'s live capacity changed by `delta` processors
    /// (positive: repair / resize growth; negative: failure / shrink).
    /// The simulation has already moved `part.free` by the same delta, so
    /// every persistent baseline shifts to match — the PR-5 exact-removal
    /// counterpart for capacity — and the conservative plan fully replans:
    /// a capacity change moves availability at every future instant, the
    /// same ripple as an early completion (and is attributed to that
    /// cause, keeping the repair-cause vocabulary closed).
    pub fn on_capacity(&mut self, p: usize, delta: i64) {
        if delta == 0 {
            return;
        }
        if let Some(actual) = &mut self.actual {
            actual[p].shift_baseline(delta); // simlint: allow(panic-path) — partition/queue indices come from ensure_est-built state; in-bounds by construction
        }
        let Some(est) = &mut self.est else { return };
        let pp = &mut est.parts[p]; // simlint: allow(panic-path) — partition/queue indices come from ensure_est-built state; in-bounds by construction
        pp.releases.shift_baseline(delta);
        let Some(cons) = pp.cons.as_mut() else { return };
        cons.combined.shift_baseline(delta);
        cons.invalidate_from(0);
        cons.note(RepairCause::EarlyCompletion);
    }

    fn cons_mut(&mut self, p: usize) -> Option<&mut ConsPlan> {
        self.est.as_mut()?.parts[p].cons.as_mut() // simlint: allow(panic-path) — partition/queue indices come from ensure_est-built state; in-bounds by construction
    }

    fn ensure_est(&mut self, parts: &[Partition], estimator: RuntimeEstimator, now: f64) {
        let stale = self.est.as_ref().is_none_or(|e| e.estimator != estimator);
        if stale {
            self.est = Some(EstState::build(parts, estimator, now));
        }
    }

    /// Runs the incremental conservative planning pass for partition `p`:
    /// repairs the invalidated suffix of the reservation plan and returns
    /// the queue positions (ascending, head excluded) whose reservation
    /// start is "now" — the backfill set of the pass.
    pub fn conservative_starts(
        &mut self,
        parts: &[Partition],
        p: usize,
        estimator: RuntimeEstimator,
        now: f64,
    ) -> Vec<usize> {
        self.ensure_est(parts, estimator, now);
        let part = &parts[p]; // simlint: allow(panic-path) — partition/queue indices come from ensure_est-built state; in-bounds by construction
        let pp = &mut self.est.as_mut().expect("just ensured").parts[p]; // simlint: allow(panic-path) — ensure_est on the preceding line guarantees est is Some
        pp.releases.advance_to(now);
        let cons = pp.cons.get_or_insert_with(|| {
            // The clone would carry the release profile's op history into
            // a second harvested profile — wipe it so ops count once.
            let mut combined = pp.releases.clone(); // simlint: allow(hot-alloc) — one-time ConsPlan build; amortized away by incremental suffix repair
            combined.clear_stats();
            ConsPlan {
                combined,
                plan: Vec::new(), // simlint: allow(hot-alloc) — Vec::new allocates nothing; the plan grows during the cold rebuild
                dirty_from: 0,
                pending_cause: None,
            }
        });
        cons.combined.advance_to(now);
        debug_assert_eq!(cons.combined.baseline(), part.free() as i64);
        if cons.plan.len() != part.queue().len() {
            // Only a re-sort desyncs the lengths, and it dirties
            // everything, so the stale entries are never read.
            debug_assert_eq!(cons.dirty_from, 0, "plan desynced outside a re-sort");
            cons.plan.resize(part.queue().len(), UNPLANNED);
        }
        // Reservations the clock ran past are stale: a fresh pass can only
        // return starts ≥ now, so repair from the first such position.
        if let Some(k) = cons.plan[..cons.dirty_from] // simlint: allow(panic-path) — partition/queue indices come from ensure_est-built state; in-bounds by construction
            .iter()
            .position(|e| e.start < now)
        {
            cons.invalidate_from(k);
            cons.note(RepairCause::Stale);
        }
        let repair_len = part.queue().len() - cons.dirty_from;
        if repair_len > 0 {
            // A freshly materialized plan has no noted cause; its first
            // full derivation is attributed to arrivals.
            let cause = cons.pending_cause.unwrap_or(RepairCause::Arrival);
            self.stats.record_repair(cause, repair_len);
            self.last_repair = Some((cause, repair_len));
        } else {
            self.last_repair = None;
        }
        cons.pending_cause = None;
        for j in cons.dirty_from..part.queue().len() {
            let job = &part.queue()[j]; // simlint: allow(panic-path) — partition/queue indices come from ensure_est-built state; in-bounds by construction
            let e = estimator.estimate(job);
            let t = cons.combined.earliest_fit(job.procs, e, now);
            debug_assert!(t.is_finite(), "every queued job fits an empty partition");
            cons.combined.add_usage(t, t + e, job.procs);
            // simlint: allow(panic-path) — partition/queue indices come from ensure_est-built state; in-bounds by construction
            cons.plan[j] = PlanEntry {
                id: job.id,
                start: t,
                est: e,
                procs: job.procs,
            };
        }
        cons.dirty_from = part.queue().len();
        #[cfg(debug_assertions)]
        assert_plan_matches_scratch(part, estimator, now, &cons.plan);
        cons.plan
            .iter()
            .enumerate()
            .skip(1)
            .filter(|(_, e)| e.start <= now + EPS)
            .map(|(i, _)| i)
            .collect() // simlint: allow(hot-alloc) — the due-starts action set is an owned Vec by BackfillSim contract
    }

    /// The EASY shadow time and extra-processor count for partition `p`'s
    /// reserved job, from the persistent release profile.
    pub fn shadow_extra(
        &mut self,
        parts: &[Partition],
        p: usize,
        estimator: RuntimeEstimator,
        now: f64,
        reserved: &Job,
    ) -> (f64, u32) {
        self.ensure_est(parts, estimator, now);
        let pp = &mut self.est.as_mut().expect("just ensured").parts[p]; // simlint: allow(panic-path) — ensure_est on the preceding line guarantees est is Some
        pp.releases.advance_to(now);
        debug_assert_eq!(pp.releases.baseline(), parts[p].free() as i64); // simlint: allow(panic-path) — partition/queue indices come from ensure_est-built state; in-bounds by construction
        let shadow = pp.releases.earliest_fit(reserved.procs, 0.0, now);
        let extra = (pp.releases.avail_at(shadow) - reserved.procs as i64).max(0) as u32;
        #[cfg(debug_assertions)]
        {
            // simlint: allow(panic-path) — partition/queue indices come from ensure_est-built state; in-bounds by construction
            let part = &parts[p];
            let mut prof = AvailabilityProfile::new(now, part.free());
            for r in part.running() {
                prof.add_release((r.start + estimator.estimate(&r.job)).max(now), r.job.procs);
            }
            let s = prof.earliest_avail(reserved.procs);
            let x = (prof.avail_at(s) - reserved.procs as i64).max(0) as u32;
            assert!(
                shadow.to_bits() == s.to_bits() && extra == x,
                "persistent shadow ({shadow}, {extra}) diverged from scratch ({s}, {x})"
            );
        }
        (shadow, extra)
    }

    /// Whether starting `job` now on partition `p` would push back the
    /// reserved job's ground-truth earliest start (actual runtimes). The
    /// trial usage is applied to the persistent profile and retracted —
    /// removal is exact, so the profile is unchanged afterwards.
    pub fn would_delay(
        &mut self,
        parts: &[Partition],
        p: usize,
        job: &Job,
        reserved_procs: u32,
        now: f64,
    ) -> bool {
        let actual = self.actual.get_or_insert_with(|| {
            parts
                .iter()
                .map(|pt| {
                    let mut prof = AvailabilityProfile::new(now, pt.free());
                    for r in pt.running() {
                        prof.add_release_raw(r.start + r.job.runtime, r.job.procs);
                    }
                    prof
                })
                .collect() // simlint: allow(hot-alloc) — one-time ground-truth profile build, cached for the whole run
        });
        let prof = &mut actual[p]; // simlint: allow(panic-path) — partition/queue indices come from ensure_est-built state; in-bounds by construction
        prof.advance_to(now);
        debug_assert_eq!(prof.baseline(), parts[p].free() as i64); // simlint: allow(panic-path) — partition/queue indices come from ensure_est-built state; in-bounds by construction
        let before = prof.earliest_fit(reserved_procs, 0.0, now);
        prof.add_usage(now, now + job.runtime, job.procs);
        let after = prof.earliest_fit(reserved_procs, 0.0, now);
        prof.remove_usage(now, now + job.runtime, job.procs);
        #[cfg(debug_assertions)]
        {
            // simlint: allow(panic-path) — partition/queue indices come from ensure_est-built state; in-bounds by construction
            let part = &parts[p];
            let mut scratch = AvailabilityProfile::new(now, part.free());
            for r in part.running() {
                scratch.add_release(r.end().max(now), r.job.procs);
            }
            let b = scratch.earliest_avail(reserved_procs);
            scratch.add_usage(now, now + job.runtime, job.procs);
            let a = scratch.earliest_avail(reserved_procs);
            assert!(
                before.to_bits() == b.to_bits() && after.to_bits() == a.to_bits(),
                "persistent delay check ({before}, {after}) diverged from scratch ({b}, {a})"
            );
        }
        after > before + EPS
    }
}

/// The from-scratch conservative planning pass over any [`BackfillSim`]:
/// plans a reservation for every queued job in priority order against a
/// freshly built availability profile and returns the queue positions
/// (head excluded) whose planned start is "now". This is the seed-pinned
/// semantics, the default for engines without a persistent planner, and
/// the planner's debug oracle.
pub fn from_scratch_conservative_starts<S: BackfillSim + ?Sized>(
    sim: &S,
    estimator: RuntimeEstimator,
) -> Vec<usize> {
    let now = sim.now();
    let mut prof = AvailabilityProfile::new(now, sim.free_procs());
    for r in sim.running() {
        prof.add_release((r.start + estimator.estimate(&r.job)).max(now), r.job.procs);
    }
    let mut starts = Vec::new(); // simlint: allow(hot-alloc) — Vec::new allocates nothing; the buffer grows once and is reused
    for (i, job) in sim.queue().iter().enumerate() {
        let est = estimator.estimate(job);
        let t = prof.earliest_fit(job.procs, est, now);
        debug_assert!(t.is_finite(), "every queued job fits an empty cluster");
        prof.add_usage(t, t + est, job.procs);
        // Index 0 is the reserved head job: if it could start now the
        // simulator would have started it already, so only later jobs
        // (true backfills) are collected.
        if i > 0 && t <= now + EPS {
            starts.push(i);
        }
    }
    starts
}

/// The from-scratch EASY shadow/extra computation over any
/// [`BackfillSim`] — the default for engines without a persistent
/// planner.
pub fn from_scratch_shadow_extra<S: BackfillSim + ?Sized>(
    sim: &S,
    estimator: RuntimeEstimator,
) -> Option<(f64, u32)> {
    let reserved = *sim.reserved_job()?;
    let now = sim.now();
    let mut prof = AvailabilityProfile::new(now, sim.free_procs());
    for r in sim.running() {
        prof.add_release((r.start + estimator.estimate(&r.job)).max(now), r.job.procs);
    }
    let shadow = prof.earliest_avail(reserved.procs);
    let extra = (prof.avail_at(shadow) - reserved.procs as i64).max(0) as u32;
    Some((shadow, extra))
}

/// Debug oracle: the repaired plan must equal a from-scratch replan, job
/// by job, bitwise.
#[cfg(debug_assertions)]
fn assert_plan_matches_scratch(
    part: &Partition,
    estimator: RuntimeEstimator,
    now: f64,
    plan: &[PlanEntry],
) {
    let mut prof = AvailabilityProfile::new(now, part.free());
    for r in part.running() {
        prof.add_release((r.start + estimator.estimate(&r.job)).max(now), r.job.procs);
    }
    for (j, job) in part.queue().iter().enumerate() {
        let est = estimator.estimate(job);
        let t = prof.earliest_fit(job.procs, est, now);
        prof.add_usage(t, t + est, job.procs);
        assert!(
            plan[j].id == job.id && plan[j].start.to_bits() == t.to_bits(), // simlint: allow(panic-path) — divergence oracle — this fn exists to panic when the incremental plan drifts
            "incremental plan diverged from scratch at queue[{j}] (job {}): \
             incremental ({}, {}), scratch ({}, {t})",
            job.id,
            plan[j].id, // simlint: allow(panic-path) — divergence oracle — this fn exists to panic when the incremental plan drifts
            plan[j].start, // simlint: allow(panic-path) — divergence oracle — this fn exists to panic when the incremental plan drifts
            job.id,
        );
    }
}
