//! The seed stepping simulator, kept as a differential-testing oracle.
//!
//! This is the original linear-scan implementation of the simulation state
//! machine: time advances by scanning the running set for the minimum
//! completion and the arrival list for the next submission (`O(running)`
//! per event, `O(events × running)` per schedule). The production
//! [`crate::state::Simulation`] replaced these scans with the `desim`
//! event kernel; this module preserves the old engine byte-for-byte so the
//! equivalence suite ([`equivalence`]) can assert the kernel port produces
//! *identical* schedules. It is compiled for tests only.
//!
//! The decision-point protocol is the same as [`crate::state::Simulation`];
//! see that module's docs. Do not grow features here — it exists to stay
//! equal to the seed behavior.

mod equivalence;

use crate::policy::Policy;
use crate::state::{
    BackfillError, BackfillOutcome, BackfillSim, CompletedJob, RunningJob, SimEvent,
};
use swf::{Job, Trace};

/// Time-comparison slack for completion processing (same as the kernel's).
const EPS: f64 = 1e-9;

/// The seed (pre-kernel) simulation state machine.
#[derive(Debug, Clone)]
pub struct ReferenceSimulation {
    policy: Policy,
    cluster_procs: u32,
    free: u32,
    now: f64,
    arrivals: Vec<Job>,
    next_arrival: usize,
    queue: Vec<Job>,
    running: Vec<RunningJob>,
    completed: Vec<CompletedJob>,
    opportunity_armed: bool,
}

impl ReferenceSimulation {
    /// Starts a fresh simulation of `trace` under `policy`.
    pub fn new(trace: &Trace, policy: Policy) -> Self {
        Self {
            policy,
            cluster_procs: trace.cluster_procs(),
            free: trace.cluster_procs(),
            now: 0.0,
            arrivals: trace.jobs().to_vec(),
            next_arrival: 0,
            queue: Vec::new(),
            running: Vec::new(),
            completed: Vec::new(),
            opportunity_armed: true,
        }
    }
}

// The seed engine keeps the trait's from-scratch planning paths and its
// zero counters: it exists to stay byte-equal to the seed behavior, and the
// kernel engine's incremental planner is differentially tested against it.
impl BackfillSim for ReferenceSimulation {
    fn now(&self) -> f64 {
        self.now
    }

    fn free_procs(&self) -> u32 {
        self.free
    }

    fn cluster_procs(&self) -> u32 {
        self.cluster_procs
    }

    fn policy(&self) -> Policy {
        self.policy
    }

    fn queue(&self) -> &[Job] {
        &self.queue
    }

    fn running(&self) -> &[RunningJob] {
        &self.running
    }

    fn advance(&mut self) -> SimEvent {
        loop {
            self.ingest_arrivals();
            self.start_ready_jobs();
            if self.opportunity_armed && !self.queue.is_empty() && self.has_backfill_candidate() {
                self.opportunity_armed = false;
                return SimEvent::BackfillOpportunity;
            }
            if !self.advance_time() {
                debug_assert!(self.queue.is_empty() && self.running.is_empty());
                return SimEvent::Done;
            }
        }
    }

    fn backfill(&mut self, queue_idx: usize) -> Result<BackfillOutcome, BackfillError> {
        let delays_reserved = self.start_backfill_checked(queue_idx, true)?;
        Ok(BackfillOutcome { delays_reserved })
    }

    fn start_backfill(&mut self, queue_idx: usize) -> Result<(), BackfillError> {
        self.start_backfill_checked(queue_idx, false).map(drop)
    }

    fn completed(&self) -> &[CompletedJob] {
        &self.completed
    }

    fn take_completed(&mut self) -> Vec<CompletedJob> {
        std::mem::take(&mut self.completed)
    }
}

impl ReferenceSimulation {
    /// The one backfill start: validates `queue_idx`, runs the from-scratch
    /// delay check only when `check` asks for it (the heuristic passes'
    /// [`BackfillSim::start_backfill`] does not), and starts the job.
    /// Returns the check's answer (`false` when it did not run).
    fn start_backfill_checked(
        &mut self,
        queue_idx: usize,
        check: bool,
    ) -> Result<bool, BackfillError> {
        if queue_idx >= self.queue.len() {
            return Err(BackfillError::BadIndex);
        }
        if queue_idx == 0 {
            return Err(BackfillError::ReservedJob);
        }
        let job = self.queue[queue_idx];
        if job.procs > self.free {
            return Err(BackfillError::DoesNotFit);
        }
        let delays_reserved = check && self.would_delay_reserved(&job);
        self.queue.remove(queue_idx);
        self.start_job(job);
        self.opportunity_armed = true;
        Ok(delays_reserved)
    }

    fn actual_profile(&self) -> crate::profile::AvailabilityProfile {
        let mut prof = crate::profile::AvailabilityProfile::new(self.now, self.free);
        for r in &self.running {
            prof.add_release(r.end().max(self.now), r.job.procs);
        }
        prof
    }

    fn would_delay_reserved(&self, job: &Job) -> bool {
        let Some(reserved) = self.reserved_job() else {
            return false;
        };
        let mut prof = self.actual_profile();
        let shadow_before = prof.earliest_avail(reserved.procs);
        let mut after = prof;
        after.add_usage(self.now, self.now + job.runtime, job.procs);
        let shadow_after = after.earliest_avail(reserved.procs);
        shadow_after > shadow_before + EPS
    }

    fn ingest_arrivals(&mut self) {
        while self
            .arrivals
            .get(self.next_arrival)
            .is_some_and(|j| j.submit <= self.now + EPS)
        {
            self.queue.push(self.arrivals[self.next_arrival]);
            self.next_arrival += 1;
        }
    }

    fn start_ready_jobs(&mut self) {
        while !self.queue.is_empty() {
            self.policy.sort_queue(&mut self.queue, self.now);
            if self.queue[0].procs <= self.free {
                let job = self.queue.remove(0);
                self.start_job(job);
                self.opportunity_armed = true;
            } else {
                break;
            }
        }
    }

    fn start_job(&mut self, job: Job) {
        debug_assert!(job.procs <= self.free, "start_job overcommits the cluster");
        self.free -= job.procs;
        self.running.push(RunningJob {
            job,
            start: self.now,
        });
    }

    fn has_backfill_candidate(&self) -> bool {
        self.queue.iter().skip(1).any(|j| j.procs <= self.free)
    }

    /// Moves time to the next arrival or completion by linear scan.
    fn advance_time(&mut self) -> bool {
        let next_arrival = self.arrivals.get(self.next_arrival).map(|j| j.submit);
        let next_completion = self
            .running
            .iter()
            .map(RunningJob::end)
            .min_by(f64::total_cmp);
        let target = match (next_arrival, next_completion) {
            (Some(a), Some(c)) => a.min(c),
            (Some(a), None) => a,
            (None, Some(c)) => c,
            (None, None) => return false,
        };
        debug_assert!(
            target >= self.now - EPS,
            "time must not go backwards: {} -> {target}",
            self.now
        );
        self.now = target.max(self.now);
        self.process_completions();
        self.opportunity_armed = true;
        true
    }

    fn process_completions(&mut self) {
        let now = self.now;
        let mut freed = 0u32;
        let mut i = 0;
        while i < self.running.len() {
            if self.running[i].end() <= now + EPS {
                let r = self.running.swap_remove(i);
                freed += r.job.procs;
                self.completed.push(CompletedJob {
                    job: r.job,
                    start: r.start,
                });
            } else {
                i += 1;
            }
        }
        self.free += freed;
        debug_assert!(
            self.free <= self.cluster_procs,
            "released more than claimed"
        );
    }
}

/// Schedules `trace` to completion with the reference engine — the seed's
/// `run_scheduler` for the `None` backfill case. Heuristic passes work on
/// the reference engine through [`run_scheduler_reference`].
pub fn run_reference_no_backfill(trace: &Trace, policy: Policy) -> Vec<CompletedJob> {
    let mut sim = ReferenceSimulation::new(trace, policy);
    while sim.advance() != SimEvent::Done {}
    sim.completed
}

/// The seed's availability profile: an *unsorted* `(time, delta)` list that
/// re-sums itself on every query — `O(n)` per `avail_at`, `O(n²)` per
/// `earliest_fit`. Preserved (together with [`naive_easy_pass`] /
/// [`naive_conservative_pass`]) as the seed's own pass logic, which the
/// equivalence suite holds to the kernel's schedules. The production
/// replacement is the sorted sweep in [`crate::profile::AvailabilityProfile`].
#[derive(Debug, Clone)]
pub struct NaiveAvailabilityProfile {
    now: f64,
    free: i64,
    events: Vec<(f64, i64)>,
}

impl NaiveAvailabilityProfile {
    /// A profile with `free` processors available from `now` on.
    pub fn new(now: f64, free: u32) -> Self {
        Self {
            now,
            free: free as i64,
            events: Vec::new(),
        }
    }

    /// Records a release of `procs` processors at `time`.
    pub fn add_release(&mut self, time: f64, procs: u32) {
        self.events.push((time.max(self.now), procs as i64));
    }

    /// Records a planned occupation of `procs` on `[start, end)`.
    pub fn add_usage(&mut self, start: f64, end: f64, procs: u32) {
        let start = start.max(self.now);
        if end <= start {
            return;
        }
        self.events.push((start, -(procs as i64)));
        self.events.push((end, procs as i64));
    }

    /// Availability just after `time`, by full rescan.
    pub fn avail_at(&self, time: f64) -> i64 {
        let mut avail = self.free;
        for &(t, d) in &self.events {
            if t <= time {
                avail += d;
            }
        }
        avail
    }

    /// Seed `earliest_fit`: candidate scan with an inner rescan per
    /// breakpoint.
    pub fn earliest_fit(&self, procs: u32, duration: f64, not_before: f64) -> f64 {
        let not_before = not_before.max(self.now);
        let mut times: Vec<f64> = self
            .events
            .iter()
            .map(|&(t, _)| t)
            .filter(|&t| t > not_before)
            .collect();
        times.push(not_before);
        times.sort_by(f64::total_cmp);
        times.dedup();

        'candidate: for &start in &times {
            if self.avail_at(start) < procs as i64 {
                continue;
            }
            let end = start + duration;
            for &(t, _) in &self.events {
                if t > start && t < end && self.avail_at(t) < procs as i64 {
                    continue 'candidate;
                }
            }
            return start;
        }
        f64::INFINITY
    }

    /// Seed shadow-time query.
    pub fn earliest_avail(&self, procs: u32) -> f64 {
        self.earliest_fit(procs, 0.0, self.now)
    }
}

/// The seed EASY pass, verbatim logic over [`NaiveAvailabilityProfile`].
/// Production code uses [`crate::easy::easy_pass`]. Equivalence of the two
/// is pinned by [`equivalence`].
pub fn naive_easy_pass(
    sim: &mut ReferenceSimulation,
    estimator: crate::estimator::RuntimeEstimator,
) -> usize {
    let order = sim.policy();
    let Some(&reserved) = sim.reserved_job() else {
        return 0;
    };
    let now = sim.now();

    let mut prof = NaiveAvailabilityProfile::new(now, sim.free_procs());
    for r in sim.running() {
        let est_end = (r.start + estimator.estimate(&r.job)).max(now);
        prof.add_release(est_end, r.job.procs);
    }
    let shadow = prof.earliest_avail(reserved.procs);
    let mut extra = (prof.avail_at(shadow) - reserved.procs as i64).max(0) as u32;

    let mut backfilled = 0;
    loop {
        let pick = sim
            .queue()
            .iter()
            .enumerate()
            .skip(1)
            .filter(|(_, j)| {
                if j.procs > sim.free_procs() {
                    return false;
                }
                let est_end = now + estimator.estimate(j);
                est_end <= shadow || j.procs <= extra
            })
            .min_by(|(_, a), (_, b)| {
                order
                    .score(a, now)
                    .total_cmp(&order.score(b, now))
                    .then(a.submit.total_cmp(&b.submit))
                    .then(a.id.cmp(&b.id))
            })
            .map(|(i, j)| (i, *j));
        let Some((idx, job)) = pick else { break };
        let uses_extra = now + estimator.estimate(&job) > shadow;
        sim.backfill(idx)
            .expect("candidate was validated against free procs");
        if uses_extra {
            extra -= job.procs;
        }
        backfilled += 1;
    }
    backfilled
}

/// The seed conservative pass over [`NaiveAvailabilityProfile`]; the seed
/// counterpart of [`crate::conservative::conservative_pass`].
pub fn naive_conservative_pass(
    sim: &mut ReferenceSimulation,
    estimator: crate::estimator::RuntimeEstimator,
) -> usize {
    let now = sim.now();
    let mut prof = NaiveAvailabilityProfile::new(now, sim.free_procs());
    for r in sim.running() {
        let est_end = (r.start + estimator.estimate(&r.job)).max(now);
        prof.add_release(est_end, r.job.procs);
    }

    let mut start_now = Vec::new();
    for (i, job) in sim.queue().iter().enumerate() {
        let est = estimator.estimate(job);
        let t = prof.earliest_fit(job.procs, est, now);
        debug_assert!(t.is_finite(), "every queued job fits an empty cluster");
        prof.add_usage(t, t + est, job.procs);
        if i > 0 && t <= now + EPS {
            start_now.push(job.id);
        }
    }

    let mut started = 0;
    for id in start_now {
        if let Some(idx) = sim.queue().iter().position(|j| j.id == id) {
            if idx > 0 && sim.backfill(idx).is_ok() {
                started += 1;
            }
        }
    }
    started
}

/// [`crate::run_scheduler`] on the preserved seed stepping engine
/// ([`ReferenceSimulation`]) with the shared backfilling passes — the
/// differential-testing oracle. Same inputs, same schedule (pinned by
/// [`equivalence`]), linear-scan time advancement.
pub fn run_scheduler_reference(
    trace: &Trace,
    policy: Policy,
    backfill: crate::runner::Backfill,
) -> crate::runner::ScheduleResult {
    let mut sim = ReferenceSimulation::new(trace, policy);
    crate::runner::drive_to_completion(&mut sim, backfill)
}

/// The full seed cost model: reference engine + naive profile + seed pass
/// logic. This is what "the seed implementation" means in the speedup
/// table of ARCHITECTURE.md's "Performance" section.
pub fn run_seed_scheduler(
    trace: &Trace,
    policy: Policy,
    backfill: crate::runner::Backfill,
) -> crate::runner::ScheduleResult {
    use crate::runner::Backfill;
    let mut sim = ReferenceSimulation::new(trace, policy);
    while sim.advance() == SimEvent::BackfillOpportunity {
        match backfill {
            Backfill::None => {}
            Backfill::Easy(est) => {
                naive_easy_pass(&mut sim, est);
            }
            Backfill::EasyOrdered(est, order) => {
                // The seed had no naive variant with explicit order beyond
                // the shared pass; order only changes the scan key, not the
                // profile cost, so reuse the shared pass here.
                crate::easy::easy_pass_with_order(&mut sim, est, order);
            }
            Backfill::Conservative(est) => {
                naive_conservative_pass(&mut sim, est);
            }
        }
    }
    let metrics = crate::metrics::Metrics::of(sim.completed(), sim.cluster_procs());
    crate::runner::ScheduleResult {
        completed: sim.completed,
        metrics,
        dropped_jobs: 0,
        migrations: 0,
        kills: 0,
        resubmits: 0,
        wasted_node_seconds: 0.0,
    }
}

mod tests {
    use super::*;

    #[test]
    fn reference_schedules_every_job() {
        let t = swf::TracePreset::Lublin1.generate(300, 3);
        let completed = run_reference_no_backfill(&t, Policy::Fcfs);
        assert_eq!(completed.len(), t.len());
    }

    #[test]
    fn reference_decision_protocol_matches_docs() {
        let t = Trace::new(
            "s",
            4,
            vec![
                Job::new(0, 0.0, 3, 100.0, 100.0),
                Job::new(1, 10.0, 4, 100.0, 100.0),
                Job::new(2, 20.0, 1, 10.0, 10.0),
            ],
        );
        let mut sim = ReferenceSimulation::new(&t, Policy::Fcfs);
        assert_eq!(sim.advance(), SimEvent::BackfillOpportunity);
        assert_eq!(sim.reserved_job().unwrap().id, 1);
        assert_eq!(sim.backfill_candidates(), vec![1]);
        assert!(sim.backfill(1).is_ok());
        while sim.advance() != SimEvent::Done {}
        assert_eq!(sim.completed().len(), 3);
    }
}
