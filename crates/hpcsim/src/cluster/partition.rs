//! Per-partition runtime state: free processors, the priority queue, and
//! the running set — the unit the multi-partition [`crate::Simulation`]
//! schedules independently.

use super::spec::PartitionSpec;
use crate::policy::Policy;
use crate::state::RunningJob;
use swf::Job;

/// The mutable scheduling state of one partition.
///
/// Invariants (checked by `debug_assert`s in the simulation and pinned by
/// `tests/proptest_cluster.rs`):
///
/// * `free <= capacity` at all times;
/// * `free + Σ running.procs == capacity`;
/// * every queued or running job fits the partition's width when admitted
///   (`procs <= capacity` at admission; a later shrink evicts queued jobs
///   that no longer fit).
///
/// `capacity` starts at `spec.procs` and only platform events
/// ([`crate::platform::PlatformEvent`]) move it; without them it is
/// constant and the invariants reduce to the historical
/// `free + Σ running.procs == spec.procs`.
///
/// Only this file writes the queue, running set, free count, capacity,
/// drain flag and sort flag: each edit is one method that also bumps the
/// mutation stamp, so the router's plan cache can never miss a change.
#[derive(Debug, Clone)]
pub struct Partition {
    pub(crate) spec: PartitionSpec,
    /// Live capacity: `spec.procs` minus failed processors plus any
    /// resize growth. Equal to `spec.procs` unless platform events fired.
    pub(crate) capacity: u32,
    /// True while a maintenance drain is in effect: the partition admits
    /// no jobs (routing, head starts and backfill all skip it) and the
    /// reroute pass evacuates its queue.
    pub(crate) draining: bool,
    pub(crate) free: u32,
    pub(crate) queue: Vec<Job>,
    pub(crate) running: Vec<RunningJob>,
    /// Whether the queue's policy order may be stale. Only time-dependent
    /// policies (WFP3) dirty it wholesale; time-independent arrivals are
    /// merged in order (see [`Partition::enqueue`]).
    pub(crate) needs_sort: bool,
    /// Re-arm flag: a backfill opportunity in this partition is only
    /// reported after its state changed (time advanced or a job started
    /// here), so a driver that declines is never re-asked about the
    /// identical state.
    pub(crate) opportunity_armed: bool,
    /// Mutation stamp: bumped whenever the queue, running set or free
    /// count changes. Shared planning caches (the router's
    /// [`super::RouterPlanCache`]) compare it to decide whether their
    /// per-partition scratch state is still current.
    pub(crate) version: u64,
}

impl Partition {
    pub(crate) fn new(spec: PartitionSpec) -> Self {
        let free = spec.procs;
        Self {
            capacity: spec.procs,
            draining: false,
            spec,
            free,
            queue: Vec::new(),
            running: Vec::new(),
            needs_sort: false,
            opportunity_armed: true,
            version: 1,
        }
    }

    /// Marks the partition's scheduling state as changed (see `version`).
    /// Only this file's edit methods call it, so no edit can skip it.
    fn touch(&mut self) {
        self.version = self.version.wrapping_add(1);
    }

    /// The current mutation stamp (never 0, so caches can use 0 as
    /// "never built").
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// The partition's static description.
    pub fn spec(&self) -> &PartitionSpec {
        &self.spec
    }

    /// Partition name.
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// Total processors in this partition as specified (the static
    /// width; see [`Partition::capacity`] for the live value).
    pub fn procs(&self) -> u32 {
        self.spec.procs
    }

    /// Live capacity: `spec.procs` adjusted by platform events (node
    /// failures/repairs, resizes). Equal to [`Partition::procs`] unless a
    /// scenario's [`crate::platform::PlatformEventSpec`] changed it.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// True while a maintenance drain is in effect (the partition admits
    /// no new jobs).
    pub fn draining(&self) -> bool {
        self.draining
    }

    /// Whether a job of width `procs` may be admitted right now: the
    /// partition is not draining and the live capacity covers the width.
    /// Without platform events this is the historical `procs <=
    /// spec.procs` check, bitwise.
    pub fn admits(&self, procs: u32) -> bool {
        !self.draining && procs <= self.capacity
    }

    /// Relative speed factor.
    pub fn speed(&self) -> f64 {
        self.spec.speed
    }

    /// Free processors right now.
    pub fn free(&self) -> u32 {
        self.free
    }

    /// The partition's waiting queue, priority-sorted as of the last
    /// scheduling pass.
    pub fn queue(&self) -> &[Job] {
        &self.queue
    }

    /// Jobs currently executing on this partition.
    pub fn running(&self) -> &[RunningJob] {
        &self.running
    }

    /// Processors currently in use.
    pub fn used(&self) -> u32 {
        self.capacity - self.free
    }

    /// Queue backlog in processor units (the least-loaded router's load
    /// signal alongside `used`).
    pub fn queued_procs(&self) -> u32 {
        self.queue.iter().map(|j| j.procs).sum()
    }

    /// Rescales a routed job's durations to this partition's wall-clock:
    /// `runtime / speed`, `request_time / speed`. At speed 1.0 the job is
    /// returned untouched (bitwise — the degenerate path must not even
    /// round-trip through a division).
    pub(crate) fn scale_job(&self, job: Job) -> Job {
        if self.spec.speed == 1.0 {
            return job;
        }
        Job {
            runtime: job.runtime / self.spec.speed,
            request_time: job.request_time / self.spec.speed,
            ..job
        }
    }

    /// Inverse of [`Partition::scale_job`]: maps a queued job's durations
    /// back to reference hardware (`runtime * speed`), which is how a
    /// migrating job leaves this partition before being re-scaled to its
    /// target. At speed 1.0 the job is returned untouched (bitwise, like
    /// `scale_job` — a reference-speed hop must not round-trip through
    /// floating-point multiplication); exact for power-of-two speeds, and
    /// accurate to an ulp for other speed factors (1.35, 0.8, …) — the
    /// per-job move budget bounds how often that rounding can accumulate,
    /// and the drift is deterministic either way.
    pub(crate) fn unscale_job(&self, job: Job) -> Job {
        if self.spec.speed == 1.0 {
            return job;
        }
        Job {
            runtime: job.runtime * self.spec.speed,
            request_time: job.request_time * self.spec.speed,
            ..job
        }
    }

    /// Merges a job (reference durations, stored scaled to this partition's
    /// speed) into the queue, preserving the policy order without a full
    /// re-sort when the policy is time-independent (see
    /// `Policy::time_dependent`): the queue is already sorted by the total
    /// order `(score, submit, id)` and scores cannot drift with time, so a
    /// binary-search insert lands the job exactly where a full re-sort
    /// would. Time-dependent policies (WFP3) fall back to the deferred
    /// full re-sort, as scores must be recomputed at the next pass anyway.
    ///
    /// Returns the insertion position, or `None` on the deferred-sort
    /// path (the caller's planner needs to know where positional
    /// alignment changed).
    pub(crate) fn enqueue(&mut self, job: Job, policy: Policy, now: f64) -> Option<usize> {
        debug_assert!(
            job.procs <= self.capacity,
            "job {} overflows {}",
            job.id,
            self.spec.name
        );
        let job = self.scale_job(job);
        self.touch();
        if policy.time_dependent() || self.needs_sort {
            self.queue.push(job);
            self.needs_sort = true;
            return None;
        }
        let pos = self
            .queue
            .partition_point(|q| policy.order(q, &job, now).is_lt());
        self.queue.insert(pos, job);
        Some(pos)
    }

    /// Removes the queued job at `pos` (a migration or a displacement) and
    /// returns it in reference durations.
    pub(crate) fn dequeue(&mut self, pos: usize) -> Job {
        self.touch();
        let job = self.queue.remove(pos);
        self.unscale_job(job)
    }

    /// Starts the queued job at `pos` at time `now`: it leaves the queue,
    /// claims its processors and joins the running set.
    pub(crate) fn start(&mut self, pos: usize, now: f64) -> Job {
        let job = self.queue.remove(pos);
        debug_assert!(job.procs <= self.free, "start overcommits the partition");
        self.free -= job.procs;
        self.running.push(RunningJob { job, start: now });
        self.touch();
        job
    }

    /// Releases the running job at index `i` (a completion or a kill): its
    /// processors return to the free pool.
    pub(crate) fn release(&mut self, i: usize) -> RunningJob {
        let r = self.running.swap_remove(i);
        self.free += r.job.procs;
        debug_assert!(self.free <= self.capacity, "released more than claimed");
        self.touch();
        r
    }

    /// Moves the live capacity and the free pool together by `delta`
    /// processors (a shrink needs `free >= -delta`; zero changes nothing).
    /// Every delta is a difference of `u32` processor counts.
    pub(crate) fn resize(&mut self, delta: i64) {
        let procs = delta.unsigned_abs() as u32;
        if delta > 0 {
            self.capacity += procs;
            self.free += procs;
        } else if delta < 0 {
            self.free -= procs;
            self.capacity -= procs;
        } else {
            return;
        }
        self.touch();
    }

    /// Starts or ends a maintenance drain (a no-op when already so).
    pub(crate) fn set_draining(&mut self, draining: bool) {
        if self.draining != draining {
            self.draining = draining;
            self.touch();
        }
    }

    /// Re-sorts the queue into `policy` order at `now` if it may be stale;
    /// returns whether it sorted (the planner's queue alignment is gone).
    pub(crate) fn sort_if_stale(&mut self, policy: Policy, now: f64) -> bool {
        if !self.needs_sort {
            return false;
        }
        policy.sort_queue(&mut self.queue, now);
        self.needs_sort = false;
        self.touch();
        true
    }

    /// The clock moved: re-arm the opportunity and, when `reorder` (a
    /// time-dependent policy's scores moved), mark the order stale. Queue
    /// contents, running set and free count are unchanged: no stamp bump.
    pub(crate) fn clock_moved(&mut self, reorder: bool) {
        self.needs_sort |= reorder;
        self.opportunity_armed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn part(procs: u32, speed: f64) -> Partition {
        Partition::new(PartitionSpec::new("p", procs, speed))
    }

    fn job(id: usize, submit: f64, procs: u32, rt: f64) -> Job {
        Job::new(id, submit, procs, rt, rt)
    }

    #[test]
    fn scale_job_divides_durations_by_speed() {
        let p = part(8, 2.0);
        let j = p.scale_job(job(0, 5.0, 4, 100.0));
        assert_eq!(j.runtime, 50.0);
        assert_eq!(j.request_time, 50.0);
        assert_eq!(j.submit, 5.0);
    }

    #[test]
    fn scale_job_at_reference_speed_is_identity() {
        let p = part(8, 1.0);
        let j = job(0, 5.0, 4, 100.0);
        assert_eq!(p.scale_job(j), j);
    }

    #[test]
    fn unscale_inverts_scale() {
        // Power-of-two speeds round-trip exactly; speed 1.0 is bitwise
        // identity by construction.
        let fast = part(8, 2.0);
        let j = job(0, 5.0, 4, 100.0);
        assert_eq!(fast.unscale_job(fast.scale_job(j)), j);
        let reference = part(8, 1.0);
        assert_eq!(reference.unscale_job(j), j);
        // Non-dyadic speeds (the preset layouts use 1.35 / 0.8 / 1.6) are
        // inverse only to an ulp — the reroute pass's move budget bounds
        // the accumulated drift.
        let express = part(8, 1.35);
        let back = express.unscale_job(express.scale_job(j));
        assert!((back.runtime - j.runtime).abs() <= f64::EPSILON * j.runtime);
        assert!((back.request_time - j.request_time).abs() <= f64::EPSILON * j.request_time);
    }

    #[test]
    fn enqueue_matches_full_sort_for_time_independent_policies() {
        for policy in [Policy::Fcfs, Policy::Sjf, Policy::F1] {
            let jobs = [
                job(3, 40.0, 2, 500.0),
                job(1, 10.0, 1, 50.0),
                job(2, 10.0, 4, 50.0),
                job(0, 0.0, 8, 5000.0),
            ];
            let mut p = part(8, 1.0);
            for j in jobs {
                p.enqueue(j, policy, 100.0);
                assert!(!p.needs_sort, "{policy}: insert must keep order");
            }
            let mut sorted = jobs.to_vec();
            policy.sort_queue(&mut sorted, 100.0);
            assert_eq!(p.queue(), sorted.as_slice(), "{policy}");
        }
    }

    #[test]
    fn enqueue_defers_sort_for_wfp3() {
        let mut p = part(8, 1.0);
        p.enqueue(job(0, 0.0, 1, 10.0), Policy::Wfp3, 50.0);
        assert!(p.needs_sort, "WFP3 must take the full re-sort path");
    }

    #[test]
    fn enqueue_falls_back_when_queue_is_dirty() {
        let mut p = part(8, 1.0);
        p.needs_sort = true;
        p.enqueue(job(1, 0.0, 1, 10.0), Policy::Sjf, 0.0);
        assert!(p.needs_sort);
        assert_eq!(p.queue().len(), 1);
    }

    #[test]
    fn every_edit_bumps_the_stamp_and_conserves_processors() {
        fn edit<T>(p: &mut Partition, what: &str, f: impl FnOnce(&mut Partition) -> T) -> T {
            let before = p.version();
            let out = f(p);
            assert_ne!(p.version(), before, "{what} must bump the stamp");
            let busy: u32 = p.running().iter().map(|r| r.job.procs).sum();
            assert_eq!(p.free() + busy, p.capacity(), "{what} broke conservation");
            out
        }
        // A double-speed partition: queued copies are stored at half the
        // durations and leave again in reference durations.
        let mut p = part(8, 2.0);
        for (id, t, procs) in [(0, 0.0, 4), (1, 5.0, 2), (2, 9.0, 6)] {
            edit(&mut p, "enqueue", |p| {
                p.enqueue(job(id, t, procs, 10.0), Policy::Wfp3, t)
            });
        }
        assert_eq!(p.queue()[0].runtime, 5.0);
        let sorted = edit(&mut p, "sort_if_stale", |p| {
            p.sort_if_stale(Policy::Wfp3, 20.0)
        });
        assert!(sorted);
        let started = edit(&mut p, "start", |p| p.start(0, 20.0));
        assert_eq!((started.id, p.free()), (0, 4));
        let dequeued = edit(&mut p, "dequeue", |p| p.dequeue(1));
        assert_eq!(dequeued, job(1, 5.0, 2, 10.0));
        edit(&mut p, "resize +", |p| p.resize(4));
        edit(&mut p, "resize -", |p| p.resize(-6));
        assert_eq!((p.capacity(), p.free()), (6, 2));
        edit(&mut p, "set_draining", |p| p.set_draining(true));
        assert!(!p.admits(1));
        edit(&mut p, "set_draining", |p| p.set_draining(false));
        let released = edit(&mut p, "release", |p| p.release(0));
        assert_eq!((released.job.id, released.start), (0, 20.0));
        assert_eq!(p.free(), p.capacity());
        // The no-op forms and the clock mark leave the stamp alone.
        let stamp = p.version();
        assert!(!p.sort_if_stale(Policy::Wfp3, 30.0));
        p.set_draining(false);
        p.resize(0);
        p.clock_moved(true);
        assert_eq!(p.version(), stamp);
        assert!(p.needs_sort && p.opportunity_armed);
    }

    #[test]
    fn load_accessors() {
        let mut p = part(8, 1.0);
        p.free = 3;
        p.queue.push(job(0, 0.0, 2, 10.0));
        p.queue.push(job(1, 0.0, 3, 10.0));
        assert_eq!(p.used(), 5);
        assert_eq!(p.queued_procs(), 5);
    }
}
