//! Meta-scheduler routing: which partition a job queues on — decided at
//! submission, and (optionally) revisited at every decision point.
//!
//! The [`Router`] decides where an arriving job queues **at submission**,
//! before the job enters a partition's queue. Under the default
//! [`ReroutePolicy::AtSubmission`] that decision is final — jobs never
//! migrate afterwards, matching how real multi-partition systems bind a
//! job to the queue it was submitted to. Under
//! [`ReroutePolicy::AtDecisionPoints`] the simulation calls the router's
//! [`Router::reroute`] hook for every still-waiting job whenever an
//! arrival/completion batch settles, and migrates jobs whose estimated
//! start would be strictly earlier elsewhere — the Moab-style
//! meta-scheduler that spans clusters. Routers see a read-only
//! [`ClusterView`] of every partition's current state and must return the
//! index of a partition the job fits (`job.procs <= partition.procs()`).
//!
//! Three built-in strategies cover the classic design space:
//!
//! * [`StaticAffinity`] — state-independent size classes: the narrowest
//!   partition that fits the job (ties to the earlier partition). Mirrors
//!   per-queue width limits on production machines.
//! * [`LeastLoaded`] — joins the fitting partition with the lowest
//!   committed load (used + queued processors, normalized by size).
//! * [`EarliestStart`] — full meta-scheduling: per fitting partition,
//!   plans a conservative-style reservation chain under a runtime
//!   estimator and picks the partition with the earliest estimated start.

use super::partition::Partition;
use crate::estimator::RuntimeEstimator;
use crate::observe::{ProfileStats, RouterStats};
use crate::policy::Policy;
use crate::profile::AvailabilityProfile;
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell}; // simlint: allow(sync-audit) — single-threaded plan-cache interior mutability: routers receive `&ClusterView`, so the shared cache updates through a shared reference
use swf::Job;

/// When (if ever) the meta-scheduler revisits a waiting job's partition.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum ReroutePolicy {
    /// Route once at submission and never migrate — the classic binding
    /// and the default; bitwise-identical to the pre-migration engine.
    #[default]
    AtSubmission,
    /// Re-evaluate every still-waiting, non-reserved job at each decision
    /// point (settled arrival/completion batch) and migrate it when the
    /// router estimates a strictly earlier start elsewhere.
    AtDecisionPoints {
        /// Migration budget per job: a job moves at most this many times
        /// over its queueing lifetime (0 disables migration outright).
        max_moves_per_job: u32,
        /// Minimum estimated start-time gain, in seconds, for a move to be
        /// worth taking. Gains below this keep the job where it is.
        min_gain_secs: f64,
    },
}

impl ReroutePolicy {
    /// Short label used in experiment tables (`"at-submission"` /
    /// `"decision-points"`).
    pub fn label(&self) -> &'static str {
        match self {
            ReroutePolicy::AtSubmission => "at-submission",
            ReroutePolicy::AtDecisionPoints { .. } => "decision-points",
        }
    }
}

/// A proposed migration for one waiting job: the target partition and the
/// estimated start-time gain (seconds, always positive).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RerouteDecision {
    /// Index of the partition the job should move to.
    pub to: usize,
    /// Estimated start-time improvement of the move, in seconds.
    pub gain: f64,
}

/// Read-only snapshot of the cluster a router decides against.
#[derive(Debug)]
pub struct ClusterView<'a> {
    /// Current simulation time, seconds.
    pub now: f64,
    /// The base policy the partitions serve their queues under — routing
    /// estimates must plan queues in *policy* order, not storage order.
    pub policy: Policy,
    /// Every partition's live state.
    pub parts: &'a [Partition],
    /// Shared planning scratch for [`EarliestStart`] estimates, reused
    /// across every candidate of a routing/re-routing batch. `None`
    /// (standalone views, tests) computes each estimate from scratch —
    /// the two paths are bitwise identical (asserted against each other
    /// in debug builds).
    pub plans: Option<&'a RouterPlanCache>,
}

/// Per-partition scratch shared by [`EarliestStart`] estimates within a
/// routing batch: the partition's release profile, its policy-sorted
/// queue, and the conservative reservation chain over that order —
/// extended lazily rank by rank and rewound exactly (usage removal is
/// bitwise) as candidates of different ranks are evaluated.
///
/// Rebuilt per partition whenever the partition's mutation stamp or the
/// batch time moves, reusing the allocations (profile buckets, sort and
/// chain buffers). Owned by `state::Simulation`, handed to routers
/// through [`ClusterView::plans`].
#[derive(Debug, Clone, Default)]
pub struct RouterPlanCache {
    parts: RefCell<Vec<PartRouterPlan>>, // simlint: allow(sync-audit) — single-threaded plan-cache interior mutability: routers receive `&ClusterView`, so the shared cache updates through a shared reference
    /// Passive reuse/rebuild counters (see [`crate::observe`]); only the
    /// shared-plan path increments them, so debug builds (whose oracle
    /// calls the scratch path directly) count the same as release.
    stats: Cell<RouterStats>, // simlint: allow(sync-audit) — single-threaded plan-cache interior mutability: routers receive `&ClusterView`, so the shared cache updates through a shared reference
}

impl RouterPlanCache {
    /// An empty cache; entries materialize on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of the cache's passive counters.
    pub fn stats(&self) -> RouterStats {
        self.stats.get()
    }

    /// Sums the passive profile counters of every cached per-partition
    /// plan (the cache's profiles accumulate across rebuilds — `reset_to_running`
    /// keeps stats — so this is the cache's whole history).
    pub fn profile_stats(&self) -> ProfileStats {
        let mut total = ProfileStats::default();
        for entry in self.parts.borrow().iter() {
            total.absorb(entry.profile.stats());
        }
        total
    }

    fn bump(&self, f: impl FnOnce(&mut RouterStats)) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }
}

#[derive(Debug, Clone)]
struct PartRouterPlan {
    /// `Partition::version` this entry reflects; 0 = never built.
    stamp: u64,
    /// Batch time this entry reflects.
    now: f64,
    estimator: RuntimeEstimator,
    /// The policy `sorted`/`chain` were built under.
    policy: Policy,
    /// The partition queue in policy order.
    sorted: Vec<Job>,
    /// Conservative reservation chain over `sorted`, extended lazily;
    /// `chain[r]` only depends on `sorted[..r]`, so it stays valid when
    /// the applied depth is rewound.
    chain: Vec<ChainLink>,
    /// How many chain links are currently applied to `profile`.
    depth: usize,
    /// Release profile + the usages of `chain[..depth]`.
    profile: AvailabilityProfile,
}

#[derive(Debug, Clone, Copy)]
struct ChainLink {
    start: f64,
    est: f64,
    procs: u32,
}

impl Default for PartRouterPlan {
    fn default() -> Self {
        Self {
            stamp: 0,
            now: f64::NAN,
            estimator: RuntimeEstimator::RequestTime,
            policy: Policy::Fcfs,
            sorted: Vec::new(), // simlint: allow(hot-alloc) — Vec::new allocates nothing; the buffer grows once and is reused
            chain: Vec::new(), // simlint: allow(hot-alloc) — Vec::new allocates nothing; the buffer grows once and is reused
            depth: 0,
            profile: AvailabilityProfile::new(0.0, 0),
        }
    }
}

impl PartRouterPlan {
    fn rebuild(&mut self, p: &Partition, now: f64, policy: Policy, estimator: RuntimeEstimator) {
        self.sorted.clear();
        self.sorted.extend_from_slice(p.queue());
        policy.sort_queue(&mut self.sorted, now);
        self.profile
            .reset_to_running(now, p.free(), p.running(), |r| {
                r.start + estimator.estimate(&r.job)
            });
        self.chain.clear();
        self.depth = 0;
        self.stamp = p.version();
        self.now = now;
        self.estimator = estimator;
        self.policy = policy;
    }

    /// Moves the applied reservation-chain depth to exactly `rank`,
    /// planning chain links on first need and retracting usages exactly
    /// when rewinding.
    fn seek(&mut self, rank: usize, now: f64, estimator: RuntimeEstimator) {
        while self.depth > rank {
            let l = self.chain[self.depth - 1]; // simlint: allow(panic-path) — indices are the walker's own cursors / fitting() results; in-bounds by construction
            self.profile.remove_usage(l.start, l.start + l.est, l.procs);
            self.depth -= 1;
        }
        while self.depth < rank {
            let r = self.depth;
            if r == self.chain.len() {
                let q = self.sorted[r]; // simlint: allow(panic-path) — indices are the walker's own cursors / fitting() results; in-bounds by construction
                let est = estimator.estimate(&q);
                let start = self.profile.earliest_fit(q.procs, est, now);
                self.chain.push(ChainLink {
                    start,
                    est,
                    procs: q.procs,
                });
            }
            let l = self.chain[r]; // simlint: allow(panic-path) — indices are the walker's own cursors / fitting() results; in-bounds by construction
            self.profile.add_usage(l.start, l.start + l.est, l.procs);
            self.depth = r + 1;
        }
    }
}

impl ClusterView<'_> {
    /// Indices of partitions the job may join right now: wide enough for
    /// the job at live capacity and not draining. Without platform events
    /// this is the historical static width check (capacity never moves,
    /// nothing drains).
    pub fn fitting(&self, job: &Job) -> impl Iterator<Item = usize> + '_ {
        let procs = job.procs;
        self.parts
            .iter()
            .enumerate()
            .filter(move |(_, p)| p.admits(procs))
            .map(|(i, _)| i)
    }
}

/// A meta-scheduling strategy mapping jobs to partitions.
///
/// Implementations must be deterministic (same job + same view → same
/// partition) — the simulator's reproducibility depends on it — and must
/// only return indices from [`ClusterView::fitting`].
pub trait Router: std::fmt::Debug + Send + Sync {
    /// Short label used in experiment tables.
    fn name(&self) -> &'static str;

    /// The partition `job` joins at submission. Panics allowed if no
    /// partition fits (the simulation sets unroutable jobs aside up front
    /// and reports them as dropped).
    fn route(&self, job: &Job, view: &ClusterView<'_>) -> usize;

    /// Proposes migrating a still-waiting job off partition `from` — the
    /// decision-point hook behind [`ReroutePolicy::AtDecisionPoints`].
    ///
    /// `job` carries reference-hardware durations (the simulation
    /// unscales it from its current partition before asking); the view is
    /// the live cluster with the job still queued on `from`. Returns the
    /// strictly-better target and estimated gain, or `None` to stay. The
    /// default implementation plans [`EarliestStart`] reservation chains
    /// under the request-time estimator, so every router participates in
    /// migration without re-deriving the gain geometry; `EarliestStart`
    /// itself overrides this to reuse its configured estimator.
    ///
    /// The simulation does not ask about every waiting job. An unprobed
    /// run skips the call for a job that no other unfrozen partition
    /// admits, because the answer could only be `None` or a target the
    /// pass rejects. A counting probe (`Recorder`, `AuditProbe`) asks
    /// about every candidate. Implementations must therefore be pure
    /// functions of `(job, view, from)`: the skipped calls may not
    /// change any later answer.
    fn reroute(&self, job: &Job, view: &ClusterView<'_>, from: usize) -> Option<RerouteDecision> {
        EarliestStart::default().best_move(job, view, from)
    }
}

/// Routes by size class: the narrowest fitting partition, ties to the
/// earlier one. State-independent.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticAffinity;

impl Router for StaticAffinity {
    fn name(&self) -> &'static str {
        "affinity"
    }

    fn route(&self, job: &Job, view: &ClusterView<'_>) -> usize {
        view.fitting(job)
            .min_by_key(|&i| view.parts[i].procs()) // simlint: allow(panic-path) — indices are the walker's own cursors / fitting() results; in-bounds by construction
            .expect("job fits no partition") // simlint: allow(panic-path) — router contract: submit admits only jobs that fit at least one partition
    }
}

/// Routes to the fitting partition with the lowest committed load:
/// `(used + queued) / procs`, ties to the earlier partition.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastLoaded;

impl Router for LeastLoaded {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn route(&self, job: &Job, view: &ClusterView<'_>) -> usize {
        view.fitting(job)
            .min_by(|&a, &b| {
                let load = |i: usize| {
                    let p = &view.parts[i]; // simlint: allow(panic-path) — indices are the walker's own cursors / fitting() results; in-bounds by construction
                    (p.used() + p.queued_procs()) as f64 / p.procs() as f64
                };
                load(a).total_cmp(&load(b)).then(a.cmp(&b))
            })
            .expect("job fits no partition") // simlint: allow(panic-path) — router contract: submit admits only jobs that fit at least one partition
    }
}

/// Full meta-scheduling: estimates, per fitting partition, when the job
/// could start if it joined the partition's queue at its policy position
/// (running jobs release at their estimated ends; every higher-priority
/// queued job is granted a conservative-style reservation first), and
/// joins the partition with the earliest estimated start. Ties break to
/// faster, then earlier partitions.
#[derive(Debug, Clone, Copy)]
pub struct EarliestStart {
    /// The runtime estimator the plan is built under (the scheduler-side
    /// knowledge; [`RuntimeEstimator::RequestTime`] matches what EASY sees).
    pub estimator: RuntimeEstimator,
}

impl Default for EarliestStart {
    fn default() -> Self {
        Self {
            estimator: RuntimeEstimator::RequestTime,
        }
    }
}

impl EarliestStart {
    /// The estimated earliest start of `job` on partition `i` of `view`,
    /// in wall-clock seconds (partition speed already applied).
    ///
    /// The scheduler serves each queue in **policy** order, so the
    /// reservation chain is planned over a policy-sorted copy of the
    /// queue (storage order can lag for time-dependent policies, and is
    /// simply wrong for SJF/F1 candidates that outrank queued work): jobs
    /// ranked ahead of the candidate are granted reservations first, jobs
    /// ranked behind it cannot block it. A job already queued on the
    /// partition (re-route estimation) is excluded by id so it is not
    /// planned against itself.
    ///
    /// When the view carries a [`RouterPlanCache`] (every view the
    /// simulation hands out), the release profile, the policy-sorted
    /// queue and the reservation chain are **shared scratch**, rebuilt
    /// once per partition per batch and re-wound/extended per candidate
    /// instead of rebuilt per call; candidates evaluated in policy order
    /// (the re-route pass's scan order) extend the chain monotonically.
    /// Standalone views compute from scratch; both paths are bitwise
    /// identical (cross-asserted in debug builds).
    pub fn estimated_start(&self, job: &Job, view: &ClusterView<'_>, i: usize) -> f64 {
        if let Some(cache) = view.plans {
            cache.bump(|s| s.candidate_evals += 1);
            if let Some(t) = self.estimated_start_shared(job, view, i, cache) {
                debug_assert_eq!(
                    t.to_bits(),
                    self.estimated_start_scratch(job, view, i).to_bits(),
                    "shared-plan estimate diverged from scratch (job {}, partition {i})",
                    job.id,
                );
                return t;
            }
            cache.bump(|s| s.scratch_fallbacks += 1);
        }
        self.estimated_start_scratch(job, view, i)
    }

    /// The shared-scratch estimate. Returns `None` in one rare corner:
    /// the candidate is queued on this partition and speed-rescaling
    /// drift makes its stored copy rank *strictly ahead* of its
    /// re-scaled self — the chain prefix would then wrongly include the
    /// job's own reservation, so the caller falls back to scratch.
    fn estimated_start_shared(
        &self,
        job: &Job,
        view: &ClusterView<'_>,
        i: usize,
        cache: &RouterPlanCache,
    ) -> Option<f64> {
        let mut parts = cache.parts.borrow_mut();
        if parts.len() < view.parts.len() {
            parts.resize_with(view.parts.len(), Default::default);
        }
        let entry = &mut parts[i]; // simlint: allow(panic-path) — indices are the walker's own cursors / fitting() results; in-bounds by construction
        let p = &view.parts[i]; // simlint: allow(panic-path) — indices are the walker's own cursors / fitting() results; in-bounds by construction
        if entry.stamp != p.version()
            || entry.now.to_bits() != view.now.to_bits()
            || entry.estimator != self.estimator
            || entry.policy != view.policy
        {
            entry.rebuild(p, view.now, view.policy, self.estimator);
            cache.bump(|s| s.plan_rebuilds += 1);
        } else {
            cache.bump(|s| s.plan_reuses += 1);
        }
        let scaled = p.scale_job(*job);
        // The candidate's rank: how many queued jobs outrank it. Its own
        // stored copy (same id ⇒ the (score, submit, id) order makes them
        // compare equal when the scores match bitwise) is naturally
        // excluded from the strict-less count unless rescaling drift
        // skewed the stored score lower — the fallback corner.
        let rank = entry
            .sorted
            .partition_point(|q| view.policy.order(q, &scaled, view.now).is_lt());
        // At reference speed the stored copy is bitwise the candidate, so
        // it compares equal and lands exactly at `rank` — no scan needed.
        // simlint: allow(panic-path) — indices are the walker's own cursors / fitting() results; in-bounds by construction
        if p.speed() != 1.0 && entry.sorted[..rank].iter().any(|q| q.id == job.id) {
            return None;
        }
        entry.seek(rank, view.now, self.estimator);
        let est = self.estimator.estimate(&scaled);
        Some(entry.profile.earliest_fit(scaled.procs, est, view.now))
    }

    /// The from-scratch estimate: fresh profile, fresh policy-sorted
    /// queue copy, fresh reservation chain — the pre-sharing semantics
    /// both paths are pinned to.
    fn estimated_start_scratch(&self, job: &Job, view: &ClusterView<'_>, i: usize) -> f64 {
        let p = &view.parts[i]; // simlint: allow(panic-path) — indices are the walker's own cursors / fitting() results; in-bounds by construction
        let mut prof = AvailabilityProfile::of_running(view.now, p.free(), p.running(), |r| {
            r.start + self.estimator.estimate(&r.job)
        });
        // The candidate job's durations scale with the partition's speed —
        // both for its own fit and for its rank among the queued jobs
        // (which are stored already scaled).
        let scaled = p.scale_job(*job);
        let mut queued: Vec<Job> = p
            .queue()
            .iter()
            .filter(|q| q.id != job.id)
            .copied()
            .collect(); // simlint: allow(hot-alloc) — from-scratch fallback; runs only when no RouterPlanCache is shared
        view.policy.sort_queue(&mut queued, view.now);
        let ahead = queued.partition_point(|q| view.policy.order(q, &scaled, view.now).is_lt());
        // simlint: allow(panic-path) — indices are the walker's own cursors / fitting() results; in-bounds by construction
        for q in &queued[..ahead] {
            let est = self.estimator.estimate(q);
            let t = prof.earliest_fit(q.procs, est, view.now);
            prof.add_usage(t, t + est, q.procs);
        }
        let est = self.estimator.estimate(&scaled);
        prof.earliest_fit(scaled.procs, est, view.now)
    }

    /// The partition among `parts` with the earliest estimated start for
    /// `job` (ties to the faster, then the earlier one), with that start.
    /// Each estimate is computed once and the pairs stream: no allocation.
    fn earliest(
        &self,
        job: &Job,
        view: &ClusterView<'_>,
        parts: impl Iterator<Item = usize>,
    ) -> Option<(usize, f64)> {
        parts
            .map(|i| (i, self.estimated_start(job, view, i)))
            .min_by(|&(a, sa), &(b, sb)| {
                sa.total_cmp(&sb)
                    .then(view.parts[b].speed().total_cmp(&view.parts[a].speed())) // simlint: allow(panic-path) — indices are the walker's own cursors / fitting() results; in-bounds by construction
                    .then(a.cmp(&b))
            })
    }

    /// The best strictly-earlier partition for a job currently queued on
    /// `from`: compares the job's estimated start if it stays against its
    /// estimated start on every other fitting partition. Ties among
    /// targets break like [`Router::route`] (earliest start, then faster,
    /// then earlier partition); returns `None` when staying is at least
    /// as good everywhere.
    pub fn best_move(
        &self,
        job: &Job,
        view: &ClusterView<'_>,
        from: usize,
    ) -> Option<RerouteDecision> {
        let stay = self.estimated_start(job, view, from);
        let others = view.fitting(job).filter(|&i| i != from);
        let (to, start) = self.earliest(job, view, others)?;
        (start < stay).then_some(RerouteDecision {
            to,
            gain: stay - start,
        })
    }
}

impl Router for EarliestStart {
    fn name(&self) -> &'static str {
        "earliest-start"
    }

    fn route(&self, job: &Job, view: &ClusterView<'_>) -> usize {
        self.earliest(job, view, view.fitting(job))
            .map(|(i, _)| i)
            .expect("job fits no partition") // simlint: allow(panic-path) — router contract: submit admits only jobs that fit at least one partition
    }

    fn reroute(&self, job: &Job, view: &ClusterView<'_>, from: usize) -> Option<RerouteDecision> {
        self.best_move(job, view, from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::spec::PartitionSpec;
    use crate::state::RunningJob;

    fn parts(specs: &[(u32, f64)]) -> Vec<Partition> {
        specs
            .iter()
            .enumerate()
            .map(|(i, &(procs, speed))| {
                Partition::new(PartitionSpec::new(format!("p{i}"), procs, speed))
            })
            .collect()
    }

    fn view(parts: &[Partition]) -> ClusterView<'_> {
        ClusterView {
            now: 0.0,
            policy: Policy::Fcfs,
            parts,
            plans: None,
        }
    }

    fn job(id: usize, procs: u32, rt: f64) -> Job {
        Job::new(id, 0.0, procs, rt, rt)
    }

    #[test]
    fn affinity_picks_narrowest_fitting_partition() {
        let parts = parts(&[(96, 1.0), (32, 1.35), (16, 0.8)]);
        let view = view(&parts);
        assert_eq!(StaticAffinity.route(&job(0, 8, 100.0), &view), 2);
        assert_eq!(StaticAffinity.route(&job(1, 20, 100.0), &view), 1);
        assert_eq!(StaticAffinity.route(&job(2, 64, 100.0), &view), 0);
    }

    #[test]
    fn least_loaded_follows_the_load_signal() {
        let mut parts = parts(&[(32, 1.0), (32, 1.0)]);
        // Equal load: ties to the earlier partition.
        assert_eq!(LeastLoaded.route(&job(0, 4, 10.0), &view(&parts)), 0);
        // Load partition 0 (16 of 32 used) — partition 1 wins.
        parts[0].free = 16;
        assert_eq!(LeastLoaded.route(&job(1, 4, 10.0), &view(&parts)), 1);
        // Queue backlog counts too.
        parts[0].free = 32;
        parts[1].queue.push(job(9, 20, 100.0));
        assert_eq!(LeastLoaded.route(&job(2, 4, 10.0), &view(&parts)), 0);
    }

    #[test]
    fn earliest_start_avoids_the_busy_partition() {
        let mut parts = parts(&[(8, 1.0), (8, 1.0)]);
        // Partition 0 fully busy until t=1000.
        parts[0].free = 0;
        parts[0].running.push(RunningJob {
            job: job(7, 8, 1000.0),
            start: 0.0,
        });
        let view = view(&parts);
        let r = EarliestStart::default();
        assert_eq!(r.estimated_start(&job(0, 4, 10.0), &view, 0), 1000.0);
        assert_eq!(r.estimated_start(&job(0, 4, 10.0), &view, 1), 0.0);
        assert_eq!(r.route(&job(0, 4, 10.0), &view), 1);
    }

    #[test]
    fn earliest_start_accounts_for_queued_reservations() {
        let mut parts = parts(&[(8, 1.0), (8, 1.0)]);
        // Both idle, but partition 0 has a queued full-machine job (which
        // arrived earlier — lower id — so it outranks the candidate).
        parts[0].queue.push(job(5, 8, 500.0));
        let view = view(&parts);
        assert_eq!(EarliestStart::default().route(&job(9, 8, 10.0), &view), 1);
    }

    #[test]
    fn earliest_start_plans_in_policy_order_not_storage_order() {
        // Regression for the storage-order planning bug: under SJF a short
        // candidate outranks a long queued job, so the queued job's
        // reservation cannot block it.
        //
        // Partition 0: 8 procs, fully busy until t=100, queue holds a
        // 1000s full-machine job. Partition 1: fully busy until t=500,
        // empty queue. A 1-proc 10s SJF candidate starts at t=100 on
        // partition 0 (it is served before the queued long job) — the old
        // storage-order chain estimated t=1100 and misrouted it to
        // partition 1.
        let mut parts = parts(&[(8, 1.0), (8, 1.0)]);
        parts[0].free = 0;
        parts[0].running.push(RunningJob {
            job: job(1, 8, 100.0),
            start: 0.0,
        });
        parts[0].queue.push(job(2, 8, 1000.0));
        parts[1].free = 0;
        parts[1].running.push(RunningJob {
            job: job(3, 8, 500.0),
            start: 0.0,
        });
        let sjf_view = ClusterView {
            now: 0.0,
            policy: Policy::Sjf,
            parts: &parts,
            plans: None,
        };
        let r = EarliestStart::default();
        let candidate = job(9, 1, 10.0);
        assert_eq!(r.estimated_start(&candidate, &sjf_view, 0), 100.0);
        assert_eq!(r.estimated_start(&candidate, &sjf_view, 1), 500.0);
        assert_eq!(r.route(&candidate, &sjf_view), 0);
        // The same state under FCFS keeps the old chain: the queued job
        // outranks the newcomer, so partition 1 wins — the two orders
        // disagree, which is exactly what the bug hid.
        let fcfs_view = view(&parts);
        assert_eq!(r.estimated_start(&candidate, &fcfs_view, 0), 1100.0);
        assert_eq!(r.route(&candidate, &fcfs_view), 1);
    }

    #[test]
    fn earliest_start_ties_break_to_faster_partition() {
        let parts = parts(&[(8, 1.0), (8, 2.0)]);
        assert_eq!(
            EarliestStart::default().route(&job(0, 4, 100.0), &view(&parts)),
            1
        );
    }

    #[test]
    fn routers_only_pick_fitting_partitions() {
        let parts = parts(&[(16, 1.0), (64, 1.0)]);
        let view = view(&parts);
        let wide = job(0, 32, 100.0);
        assert_eq!(StaticAffinity.route(&wide, &view), 1);
        assert_eq!(LeastLoaded.route(&wide, &view), 1);
        assert_eq!(EarliestStart::default().route(&wide, &view), 1);
    }

    #[test]
    fn best_move_targets_a_strictly_earlier_start() {
        let mut parts = parts(&[(8, 1.0), (8, 1.0)]);
        // The job waits on partition 0 behind a 1000s blocker; partition 1
        // is idle — moving gains the full 1000 seconds.
        parts[0].free = 0;
        parts[0].running.push(RunningJob {
            job: job(1, 8, 1000.0),
            start: 0.0,
        });
        parts[0].queue.push(job(5, 4, 10.0));
        let view = view(&parts);
        let d = EarliestStart::default()
            .best_move(&job(5, 4, 10.0), &view, 0)
            .expect("idle partition must attract the job");
        assert_eq!(d.to, 1);
        assert_eq!(d.gain, 1000.0);
        // Every router proposes the same move through the default hook.
        assert_eq!(StaticAffinity.reroute(&job(5, 4, 10.0), &view, 0), Some(d));
        assert_eq!(LeastLoaded.reroute(&job(5, 4, 10.0), &view, 0), Some(d));
    }

    #[test]
    fn best_move_stays_put_without_strict_gain() {
        let parts = parts(&[(8, 1.0), (8, 1.0)]);
        // Both partitions idle: the job could start now either way — no
        // strictly earlier start exists, so it stays.
        let mut parts = parts;
        parts[0].queue.push(job(5, 4, 10.0));
        let view = view(&parts);
        assert_eq!(
            EarliestStart::default().best_move(&job(5, 4, 10.0), &view, 0),
            None
        );
    }

    #[test]
    fn best_move_excludes_itself_from_the_stay_estimate() {
        let mut parts = parts(&[(8, 1.0), (4, 1.0)]);
        // The job is the only queued work on an idle partition 0: its stay
        // estimate must be "now", not "behind its own reservation".
        parts[0].queue.push(job(5, 8, 500.0));
        let view = view(&parts);
        let r = EarliestStart::default();
        assert_eq!(r.estimated_start(&job(5, 8, 500.0), &view, 0), 0.0);
        assert_eq!(r.best_move(&job(5, 8, 500.0), &view, 0), None);
    }

    #[test]
    fn reroute_policy_labels_and_default() {
        assert_eq!(ReroutePolicy::default(), ReroutePolicy::AtSubmission);
        assert_eq!(ReroutePolicy::AtSubmission.label(), "at-submission");
        assert_eq!(
            ReroutePolicy::AtDecisionPoints {
                max_moves_per_job: 3,
                min_gain_secs: 60.0
            }
            .label(),
            "decision-points"
        );
    }
}
