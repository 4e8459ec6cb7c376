//! The event-driven simulation state machine.
//!
//! [`Simulation`] advances a trace through submission, queueing, start and
//! completion events under a base [`Policy`]. Whenever the policy-selected
//! head job cannot start (insufficient free processors) **and** at least one
//! other queued job would fit, the machine pauses and reports a
//! [`SimEvent::BackfillOpportunity`] — the decision points at which EASY,
//! conservative, or the RL agent act. The driver then calls
//! [`Simulation::backfill`] zero or more times and resumes with
//! [`Simulation::advance`].
//!
//! The machine never takes backfilling decisions itself, which is what lets
//! heuristics and the learning agent share one simulator (paper §3.4: "RL
//! decision points occur at specific, distinct moments").
//!
//! # Event-kernel internals
//!
//! Time no longer advances by scanning job vectors for minima (the seed
//! implementation, preserved as [`crate::reference::ReferenceSimulation`]).
//! Job arrivals and completions are events on a [`desim::EventQueue`]: the
//! next instant is a heap peek, arrivals are a chained event stream (one
//! pending arrival event at a time, so the heap stays `O(running)` deep),
//! and a completion carries its job id. Decision points remain *derived*
//! conditions checked between events — they depend on the mutable queue
//! state, so scheduling them as heap events would go stale the moment a
//! driver backfills.
//!
//! Equivalence with the reference engine (identical realized schedules for
//! every policy × backfill combination) is pinned by
//! `tests/event_equivalence.rs`; throughput is compared by the `kernel`
//! criterion bench.

use crate::cluster::{
    ClusterSpec, ClusterView, Partition, ReroutePolicy, Router, RouterPlanCache, StaticAffinity,
};
use crate::estimator::RuntimeEstimator;
use crate::observe::audit::{SkipReason, StartKind};
use crate::observe::{NoopProbe, Phase, Probe};
use crate::plan::Planner;
use crate::platform::{FailurePolicy, PlatformEvent, PlatformEventSpec};
use crate::policy::Policy;
use desim::{EventQueue, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;
use swf::{Job, Trace};

/// Time-comparison slack for completion processing.
const EPS: f64 = 1e-9;

/// A job currently executing on the cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningJob {
    /// The job being executed.
    pub job: Job,
    /// Absolute start time.
    pub start: f64,
}

impl RunningJob {
    /// Actual completion time (known to the simulator, not the scheduler).
    pub fn end(&self) -> f64 {
        self.start + self.job.runtime
    }
}

/// A finished job together with its realized start time.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CompletedJob {
    /// The job that ran.
    pub job: Job,
    /// Absolute start time.
    pub start: f64,
}

impl CompletedJob {
    /// Time spent waiting in the queue.
    pub fn wait(&self) -> f64 {
        (self.start - self.job.submit).max(0.0)
    }

    /// Absolute completion time.
    pub fn end(&self) -> f64 {
        self.start + self.job.runtime
    }
}

/// What the simulation paused on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// The head job cannot start and at least one other queued job fits the
    /// free processors: a backfilling decision is required.
    BackfillOpportunity,
    /// Every job in the trace has completed.
    Done,
}

/// Outcome of a single backfill action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackfillOutcome {
    /// Whether starting this job pushed back the reserved (head) job's
    /// ground-truth earliest start time — the violation the paper punishes
    /// with a large negative reward (§3.4).
    pub delays_reserved: bool,
}

/// Errors from misusing the backfill API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackfillError {
    /// Index out of range of the waiting queue.
    BadIndex,
    /// Attempted to backfill the reserved head job (always masked, §3.2).
    ReservedJob,
    /// The job does not fit the currently free processors.
    DoesNotFit,
}

impl std::fmt::Display for BackfillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackfillError::BadIndex => write!(f, "queue index out of range"),
            BackfillError::ReservedJob => write!(f, "the reserved job cannot be backfilled"),
            BackfillError::DoesNotFit => write!(f, "job does not fit the free processors"),
        }
    }
}

impl std::error::Error for BackfillError {}

/// The decision-point protocol shared by the kernel [`Simulation`] and the
/// seed [`crate::reference::ReferenceSimulation`].
///
/// The EASY and conservative passes are generic over this trait, so the
/// same backfilling logic drives both engines — which is what makes the
/// differential tests in `tests/event_equivalence.rs` meaningful: any
/// schedule difference is attributable to the engine, not the heuristic.
pub trait BackfillSim {
    /// Current simulation time, seconds.
    fn now(&self) -> f64;
    /// Free processors right now.
    fn free_procs(&self) -> u32;
    /// The base policy driving head-of-queue selection.
    fn policy(&self) -> Policy;
    /// The waiting queue, priority-sorted; index 0 is the reserved job.
    fn queue(&self) -> &[Job];
    /// Jobs currently executing.
    fn running(&self) -> &[RunningJob];
    /// Advances to the next decision point or to completion.
    fn advance(&mut self) -> SimEvent;
    /// Starts the queued job at `queue_idx` immediately.
    fn backfill(&mut self, queue_idx: usize) -> Result<BackfillOutcome, BackfillError>;
    /// Jobs that finished, in completion order.
    fn completed(&self) -> &[CompletedJob];

    /// Jobs set aside as unroutable before the run started (always 0 on
    /// flat machines — [`swf::Trace::new`] sanitizes against them).
    fn dropped_jobs(&self) -> usize {
        0
    }

    /// Queue migrations performed so far (always 0 without
    /// [`ReroutePolicy::AtDecisionPoints`]).
    fn migrations(&self) -> usize {
        0
    }

    /// Running jobs killed by platform events so far (always 0 without a
    /// [`crate::platform::PlatformEventSpec`]).
    fn kills(&self) -> usize {
        0
    }

    /// Killed or displaced jobs rerouted back into a queue by platform
    /// events (always 0 without a platform-event stream).
    fn resubmits(&self) -> usize {
        0
    }

    /// Node-seconds of work destroyed by platform-event kills, in
    /// reference-hardware units: the elapsed run under kill-and-resubmit,
    /// or the restart overhead under checkpoint-restart.
    fn wasted_node_seconds(&self) -> f64 {
        0.0
    }

    /// The reserved job (head of the sorted queue), if any.
    fn reserved_job(&self) -> Option<&Job> {
        self.queue().first()
    }

    /// Runs one conservative *planning* pass: (re-)derives the reservation
    /// plan for the current queue and returns the queue positions
    /// (ascending, head excluded) whose planned start is "now" — the jobs
    /// the conservative pass should backfill.
    ///
    /// The default derivation is from scratch (the seed-pinned semantics);
    /// engines with a persistent planner override it with incremental
    /// suffix repair — bitwise the same plan, checked by the planner's
    /// debug oracle and `tests/proptest_plan.rs`.
    fn plan_conservative_starts(&mut self, estimator: RuntimeEstimator) -> Vec<usize> {
        crate::plan::from_scratch_conservative_starts(self, estimator)
    }

    /// The EASY shadow time and extra-processor count for the reserved
    /// job under `estimator`, or `None` with an empty queue. Default:
    /// from scratch; the kernel engine serves it from its persistent
    /// release profile.
    fn shadow_extra(&mut self, estimator: RuntimeEstimator) -> Option<(f64, u32)> {
        crate::plan::from_scratch_shadow_extra(self, estimator)
    }

    /// Marks the start of an instrumentable scheduling phase. Engines
    /// without a probe ignore it; [`ProbedSimulation`] forwards to its
    /// [`Probe`] so the conservative/EASY passes show up in span traces.
    fn phase_begin(&mut self, _phase: crate::observe::Phase) {}

    /// Marks the end of the phase opened by [`BackfillSim::phase_begin`].
    fn phase_end(&mut self, _phase: crate::observe::Phase) {}

    /// Whether decision forensics are being collected — the EASY and
    /// conservative passes only pay for their skip-reason scans when this
    /// is true. Default (and [`NoopProbe`]): no.
    fn audit_enabled(&self) -> bool {
        false
    }

    /// Reports that the current backfill scan passed over the queued job
    /// at `queue_idx` for `reason`. No-op without an auditing probe.
    fn audit_backfill_skip(&mut self, _queue_idx: usize, _reason: SkipReason) {}

    /// Marks the next successful [`BackfillSim::backfill`] call as the
    /// start of a planned conservative reservation, so the audit log
    /// distinguishes on-plan starts from opportunistic backfills.
    fn audit_mark_reservation_start(&mut self) {}
}

macro_rules! forward_backfill_sim {
    ($ty:ty) => {
        fn now(&self) -> f64 {
            <$ty>::now(self)
        }
        fn free_procs(&self) -> u32 {
            <$ty>::free_procs(self)
        }
        fn policy(&self) -> Policy {
            <$ty>::policy(self)
        }
        fn queue(&self) -> &[Job] {
            <$ty>::queue(self)
        }
        fn running(&self) -> &[RunningJob] {
            <$ty>::running(self)
        }
        fn advance(&mut self) -> SimEvent {
            <$ty>::advance(self)
        }
        fn backfill(&mut self, queue_idx: usize) -> Result<BackfillOutcome, BackfillError> {
            <$ty>::backfill(self, queue_idx)
        }
        fn completed(&self) -> &[CompletedJob] {
            <$ty>::completed(self)
        }
        fn dropped_jobs(&self) -> usize {
            <$ty>::dropped_jobs(self)
        }
        fn migrations(&self) -> usize {
            <$ty>::migrations(self)
        }
    };
}

impl<P: Probe> BackfillSim for ProbedSimulation<P> {
    forward_backfill_sim!(Self);

    fn kills(&self) -> usize {
        Self::kills(self)
    }

    fn resubmits(&self) -> usize {
        Self::resubmits(self)
    }

    fn wasted_node_seconds(&self) -> f64 {
        Self::wasted_node_seconds(self)
    }

    fn plan_conservative_starts(&mut self, estimator: RuntimeEstimator) -> Vec<usize> {
        let p = self.active;
        let starts = self
            .planner
            .conservative_starts(&self.parts, p, estimator, self.now);
        if P::ENABLED {
            if let Some((cause, entries)) = self.planner.take_last_repair() {
                self.probe.on_plan_repaired(self.now, p, cause, entries);
            }
        }
        starts
    }

    fn shadow_extra(&mut self, estimator: RuntimeEstimator) -> Option<(f64, u32)> {
        let reserved = *self.parts[self.active].queue.first()?; // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
        Some(
            self.planner
                .shadow_extra(&self.parts, self.active, estimator, self.now, &reserved),
        )
    }

    fn phase_begin(&mut self, phase: Phase) {
        if P::ENABLED {
            self.probe.span_begin(phase);
        }
    }

    fn phase_end(&mut self, phase: Phase) {
        if P::ENABLED {
            self.probe.span_end(phase);
        }
    }

    fn audit_enabled(&self) -> bool {
        P::ENABLED && self.probe.audit_on()
    }

    fn audit_backfill_skip(&mut self, queue_idx: usize, reason: SkipReason) {
        if P::ENABLED {
            // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
            if let Some(job) = self.parts[self.active].queue.get(queue_idx) {
                let id = job.id;
                self.probe
                    .on_backfill_skipped(self.now, self.active, id, reason);
            }
        }
    }

    fn audit_mark_reservation_start(&mut self) {
        self.audit_next_reservation = true;
    }
}

// The seed engine keeps the default from-scratch planning paths: it exists
// to stay byte-equal to the seed behavior, and the kernel engine's
// incremental planner is differentially tested against it.
impl BackfillSim for crate::reference::ReferenceSimulation {
    forward_backfill_sim!(crate::reference::ReferenceSimulation);
}

/// A kernel event: what happens at a scheduled instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClusterEvent {
    /// The job at this index of the arrival list is routed to a partition
    /// and enters its waiting queue (and schedules the next arrival,
    /// keeping one pending at a time).
    Arrival(usize),
    /// The job with this id releases its processors on partition `part`.
    /// `generation` is the job's incarnation stamp at start time: a
    /// platform-event kill bumps the live incarnation, turning the
    /// already-scheduled completion of the dead run into a stale event
    /// that is skipped when it pops (always 0 without platform events).
    Completion {
        part: usize,
        job: usize,
        generation: u32,
    },
    /// The platform event at this index of the materialized
    /// [`PlatformEventSpec`] stream fires (node failure/repair, drain
    /// boundary, or resize). Never scheduled when the stream is empty.
    Platform(usize),
}

/// The simulation state machine. See the module docs for the protocol.
///
/// Since the cluster subsystem landed, the machine schedules a
/// [`ClusterSpec`] — a list of partitions, each with its own free-processor
/// count, priority queue and running set. A [`Router`] assigns every
/// arriving job to a partition before it queues there; a backfilling
/// opportunity names an **active partition**, and the decision-point
/// accessors (`queue()`, `free_procs()`, `running()`, `backfill()`) operate
/// on it, so EASY, conservative and the RL agent drive partitioned machines
/// through the unchanged [`BackfillSim`] protocol. [`Simulation::new`]
/// builds the degenerate one-partition spec, which realizes
/// bitwise-identical schedules to the pre-cluster flat engine.
///
/// The engine is generic over a [`Probe`] — the observability hook of
/// [`crate::observe`]. [`Simulation`] is the [`NoopProbe`] instantiation:
/// every hook monomorphizes to an empty inline body, so the
/// uninstrumented engine compiles to exactly the pre-probe code. A
/// [`crate::observe::Recorder`] (via
/// [`ProbedSimulation::with_cluster_rerouted_probed`] or
/// [`crate::run_scheduler_probed`]) collects counters, histograms and span
/// traces instead.
#[derive(Debug, Clone)]
pub struct ProbedSimulation<P: Probe = NoopProbe> {
    policy: Policy,
    spec: ClusterSpec,
    router: Arc<dyn Router>, // simlint: allow(sync-audit) — Arc shares immutable scenario inputs (workload/spec/estimator); read-only after construction
    reroute: ReroutePolicy,
    parts: Vec<Partition>,
    /// The partition the current backfilling opportunity is in (always 0
    /// between opportunities on a one-partition cluster).
    active: usize,
    now: f64,
    arrivals: Vec<Job>,
    completed: Vec<CompletedJob>,
    /// Jobs wider than every partition, set aside before the run (the
    /// trace jobs `Metrics` would otherwise silently under-count).
    dropped: Vec<Job>,
    /// Per-job migration counts under [`ReroutePolicy::AtDecisionPoints`]
    /// (empty under the default at-submission routing). A `BTreeMap` so
    /// the container is order-deterministic by construction — access is
    /// keyed today, but the re-route pass must stay bitwise reproducible
    /// even if someone iterates it tomorrow.
    moves: BTreeMap<usize, u32>,
    /// Total queue migrations performed.
    migrations: usize,
    /// Reusable per-partition freeze flags for [`Self::reroute_pass`] —
    /// taken at pass entry, returned at exit, so the pass allocates only
    /// on first use (hot-path/alloc discipline).
    frozen_scratch: Vec<bool>,
    events: EventQueue<ClusterEvent>,
    /// The persistent per-partition planning layer (see [`crate::plan`]):
    /// long-lived availability profiles and reservation plans, updated
    /// incrementally on every arrival/start/completion/migration instead
    /// of rebuilt from `running()` at every decision point.
    planner: Planner,
    /// Shared scratch for router planning (see
    /// [`crate::cluster::RouterPlanCache`]): per-partition release
    /// profiles + policy-sorted reservation chains reused across the
    /// candidates of a routing/re-routing batch.
    router_cache: RouterPlanCache,
    /// The observability hook; [`NoopProbe`] costs nothing.
    probe: P,
    /// Set by [`BackfillSim::audit_mark_reservation_start`]; the next
    /// successful [`Self::backfill`] consumes it to label its start
    /// [`StartKind::Reservation`] instead of [`StartKind::Backfill`].
    audit_next_reservation: bool,
    /// The materialized platform-event stream (empty unless
    /// [`Self::install_platform_events`] installed a non-empty spec —
    /// and then the engine is bitwise the pre-platform one).
    pevents: Vec<PlatformEvent>,
    /// Fate of jobs running on failed processors.
    failure_policy: FailurePolicy,
    /// Per-job incarnation stamps, bumped on every platform-event kill so
    /// the dead run's scheduled completion is recognized as stale. Empty
    /// (never consulted) without platform events.
    incarnations: BTreeMap<usize, u32>,
    /// Jobs killed by platform events (failures / shrinking resizes).
    kills: usize,
    /// Killed jobs resubmitted (the remainder joined `dropped`).
    resubmits: usize,
    /// Node-seconds of work lost to kills, in reference-hardware units.
    wasted_node_seconds: f64,
}

/// The uninstrumented simulation — the [`NoopProbe`] instantiation of
/// [`ProbedSimulation`], bitwise-equal in behavior and (after
/// monomorphization) in machine code to the pre-probe engine.
pub type Simulation = ProbedSimulation<NoopProbe>;

impl<P: Probe + Default> ProbedSimulation<P> {
    /// Starts a fresh simulation of `trace` under `policy` on the
    /// degenerate homogeneous cluster (one partition, reference speed).
    pub fn new(trace: &Trace, policy: Policy) -> Self {
        Self::with_cluster_rerouted(
            trace,
            policy,
            ClusterSpec::homogeneous(trace.cluster_procs()),
            Arc::new(StaticAffinity), // simlint: allow(sync-audit) — Arc shares immutable scenario inputs (workload/spec/estimator); read-only after construction
            ReroutePolicy::AtSubmission,
        )
    }

    /// Starts a simulation of `trace` on an explicit cluster shape, with
    /// `router` assigning each arriving job to a partition at submission.
    /// Jobs wider than the widest partition are unroutable: they are set
    /// aside up front (the same sanitation [`Trace::new`] applies against
    /// a homogeneous machine) and counted in [`Simulation::dropped_jobs`].
    /// Under [`ReroutePolicy::AtDecisionPoints`], still-waiting jobs are
    /// re-evaluated whenever an arrival/completion batch settles and
    /// migrated to a partition with a strictly earlier estimated start
    /// (see [`Router::reroute`]); [`ReroutePolicy::AtSubmission`] never
    /// revisits an assignment.
    pub fn with_cluster_rerouted(
        trace: &Trace,
        policy: Policy,
        spec: ClusterSpec,
        router: Arc<dyn Router>, // simlint: allow(sync-audit) — Arc shares immutable scenario inputs (workload/spec/estimator); read-only after construction
        reroute: ReroutePolicy,
    ) -> Self {
        Self::with_cluster_rerouted_probed(trace, policy, spec, router, reroute, P::default())
    }
}

impl<P: Probe> ProbedSimulation<P> {
    /// [`Simulation::with_cluster_rerouted`] with an explicit probe
    /// instance — the fully general constructor every other one funnels
    /// into.
    pub fn with_cluster_rerouted_probed(
        trace: &Trace,
        policy: Policy,
        spec: ClusterSpec,
        router: Arc<dyn Router>, // simlint: allow(sync-audit) — Arc shares immutable scenario inputs (workload/spec/estimator); read-only after construction
        reroute: ReroutePolicy,
        probe: P,
    ) -> Self {
        let widest = spec.max_partition_procs();
        let (arrivals, dropped): (Vec<Job>, Vec<Job>) = trace
            .jobs()
            .iter()
            .copied()
            .partition(|j| j.procs <= widest);
        let mut events = EventQueue::new();
        if !arrivals.is_empty() {
            events.schedule(
                SimTime::new(arrivals[0].submit.max(0.0)),
                ClusterEvent::Arrival(0),
            );
        }
        let parts = spec
            .partitions()
            .iter()
            .map(|p| Partition::new(p.clone()))
            .collect();
        let mut sim = Self {
            policy,
            spec,
            router,
            reroute,
            parts,
            active: 0,
            now: 0.0,
            arrivals,
            completed: Vec::new(),
            dropped,
            moves: BTreeMap::new(),
            frozen_scratch: Vec::new(),
            migrations: 0,
            events,
            planner: Planner::new(),
            router_cache: RouterPlanCache::new(),
            probe,
            audit_next_reservation: false,
            pevents: Vec::new(),
            failure_policy: FailurePolicy::default(),
            incarnations: BTreeMap::new(),
            kills: 0,
            resubmits: 0,
            wasted_node_seconds: 0.0,
        };
        if P::ENABLED && sim.probe.audit_on() {
            for i in 0..sim.dropped.len() {
                let j = sim.dropped[i];
                sim.probe.on_job_dropped(&j);
            }
        }
        sim
    }

    /// The probe, for reading collected telemetry mid-run.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Consumes the simulation and hands back its probe (the usual way to
    /// extract a [`crate::observe::Recorder`] after `Done`).
    pub fn into_probe(self) -> P {
        self.probe
    }

    /// Current simulation time, seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Free processors of the **active partition** right now (the whole
    /// machine on a one-partition cluster).
    pub fn free_procs(&self) -> u32 {
        self.parts[self.active].free // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
    }

    /// Total processors across every partition.
    pub fn cluster_procs(&self) -> u32 {
        self.spec.total_procs()
    }

    /// The cluster's shape.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Every partition's live state, in spec order.
    pub fn partitions(&self) -> &[Partition] {
        &self.parts
    }

    /// Index of the partition the current backfilling opportunity is in.
    /// Meaningful while paused at a [`SimEvent::BackfillOpportunity`].
    pub fn active_partition(&self) -> usize {
        self.active
    }

    /// The base policy driving head-of-queue selection.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The active partition's waiting queue, sorted by the policy as of the
    /// last scheduling pass; index 0 is the reserved job during a backfill
    /// opportunity.
    pub fn queue(&self) -> &[Job] {
        &self.parts[self.active].queue // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
    }

    /// Jobs currently executing on the active partition.
    pub fn running(&self) -> &[RunningJob] {
        &self.parts[self.active].running // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
    }

    /// Jobs that finished (across all partitions), in completion order.
    pub fn completed(&self) -> &[CompletedJob] {
        &self.completed
    }

    /// Trace jobs set aside as unroutable (wider than every partition) —
    /// the jobs a [`crate::metrics::Metrics`] over [`Self::completed`]
    /// does **not** describe. Always empty on a flat machine.
    pub fn dropped(&self) -> &[Job] {
        &self.dropped
    }

    /// Number of unroutable jobs set aside up front.
    pub fn dropped_jobs(&self) -> usize {
        self.dropped.len()
    }

    /// Total queue migrations performed so far (0 unless the simulation
    /// runs under [`ReroutePolicy::AtDecisionPoints`]).
    pub fn migrations(&self) -> usize {
        self.migrations
    }

    /// Installs a scenario's dynamic-platform events: materializes `spec`
    /// against this cluster shape and schedules every event on the kernel
    /// heap next to arrivals and completions. Call once, right after
    /// construction. An empty spec installs nothing and the run is
    /// bitwise identical to an engine without the layer (pinned by
    /// `scenario_equivalence`).
    pub fn install_platform_events(&mut self, spec: &PlatformEventSpec) -> Result<(), String> {
        if spec.is_empty() {
            return Ok(());
        }
        let events = spec.materialize(self.parts.len())?;
        self.failure_policy = spec.failure_policy;
        for (i, ev) in events.iter().enumerate() {
            self.events.schedule(
                SimTime::new(ev.at()).max(self.events.now()),
                ClusterEvent::Platform(i),
            );
        }
        self.pevents = events;
        Ok(())
    }

    /// Jobs killed by platform events so far (node failures and shrinking
    /// resizes; always 0 without platform events).
    pub fn kills(&self) -> usize {
        self.kills
    }

    /// Killed or displaced jobs successfully requeued after a platform
    /// event (the rest are counted through [`Self::dropped_jobs`]).
    pub fn resubmits(&self) -> usize {
        self.resubmits
    }

    /// Node-seconds of work lost to platform-event kills, in
    /// reference-hardware units (elapsed wall-clock × partition speed ×
    /// processors under kill-and-resubmit; restart overhead × processors
    /// under checkpoint-restart).
    pub fn wasted_node_seconds(&self) -> f64 {
        self.wasted_node_seconds
    }

    /// The reserved job (head of the active partition's queue), if any.
    pub fn reserved_job(&self) -> Option<&Job> {
        self.parts[self.active].queue.first() // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
    }

    /// Advances the simulation until the next backfilling opportunity (in
    /// any partition — the lowest-indexed armed one wins, and becomes the
    /// active partition) or completion of the whole trace.
    pub fn advance(&mut self) -> SimEvent {
        loop {
            if self.apply_due_events() > 0 {
                // A decision point: the arrival/completion batch settled
                // and the cluster state changed. Re-evaluate waiting jobs
                // before start decisions (a job that can start right here
                // has no strictly earlier start elsewhere, so the pass
                // never steals immediately-startable work).
                self.reroute_pass();
            }
            self.start_ready_jobs();
            if P::ENABLED && self.probe.audit_on() {
                // The instant is settled: every waiting job's wait-cause
                // class is re-derived from the queues as they now stand.
                self.probe.on_settle(self.now, &self.parts);
            }
            if let Some(p) = self.next_opportunity() {
                self.parts[p].opportunity_armed = false; // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
                self.active = p;
                if P::ENABLED {
                    self.probe.on_queue_depth(self.parts[p].queue.len()); // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
                }
                return SimEvent::BackfillOpportunity;
            }
            // Advance the clock to the next event; the loop head then
            // applies everything due within the epsilon window at once
            // (simultaneous completions and arrivals).
            let Some(next) = self.events.peek_time() else {
                debug_assert!(self
                    .parts
                    .iter()
                    .all(|p| p.queue.is_empty() && p.running.is_empty()));
                self.active = 0;
                self.harvest_stats();
                return SimEvent::Done;
            };
            debug_assert!(
                next.as_secs() >= self.now - EPS,
                "time must not go backwards: {} -> {next}",
                self.now
            );
            let advanced = next.as_secs() > self.now;
            self.now = next.as_secs().max(self.now);
            for part in &mut self.parts {
                if advanced && self.policy.time_dependent() {
                    part.needs_sort = true;
                }
                part.opportunity_armed = true;
            }
        }
    }

    /// Queue indices (excluding the reserved head) of active-partition jobs
    /// that fit its free processors — the raw action space at an
    /// opportunity.
    pub fn backfill_candidates(&self) -> Vec<usize> {
        let part = &self.parts[self.active]; // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
        part.queue
            .iter()
            .enumerate()
            .skip(1)
            .filter(|(_, j)| j.procs <= part.free)
            .map(|(i, _)| i)
            .collect() // simlint: allow(hot-alloc) — RL action-space API returns an owned Vec once per opportunity
    }

    /// Starts the active partition's queued job at `queue_idx` immediately
    /// (a backfill).
    ///
    /// Reports whether the action delayed the reserved job's ground-truth
    /// earliest start (computed from *actual* runtimes — the simulator
    /// knows the truth even though schedulers only see estimates).
    pub fn backfill(&mut self, queue_idx: usize) -> Result<BackfillOutcome, BackfillError> {
        // The reservation mark applies to this call only, error or not.
        let next_reservation = std::mem::take(&mut self.audit_next_reservation);
        let part = &self.parts[self.active]; // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
        if queue_idx >= part.queue.len() {
            if P::ENABLED {
                self.probe.on_backfill(false);
            }
            return Err(BackfillError::BadIndex);
        }
        if queue_idx == 0 {
            if P::ENABLED {
                self.probe.on_backfill(false);
            }
            return Err(BackfillError::ReservedJob);
        }
        let job = part.queue[queue_idx]; // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
        if job.procs > part.free {
            if P::ENABLED {
                self.probe.on_backfill(false);
            }
            return Err(BackfillError::DoesNotFit);
        }
        let delays_reserved = self.would_delay_reserved(&job);
        if P::ENABLED {
            self.probe.on_backfill(true);
            if delays_reserved {
                self.probe.on_backfill_would_delay();
            }
        }
        let p = self.active;
        self.parts[p].queue.remove(queue_idx); // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
        self.parts[p].touch(); // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
        self.planner.on_start(p, queue_idx, &job, self.now);
        if P::ENABLED && self.probe.audit_on() {
            let kind = if next_reservation {
                StartKind::Reservation
            } else {
                StartKind::Backfill
            };
            self.probe.on_job_started(self.now, p, &job, kind);
        }
        self.start_job(p, job);
        self.parts[p].opportunity_armed = true; // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
        Ok(BackfillOutcome { delays_reserved })
    }

    /// Whether starting `job` now would push back the reserved job's
    /// earliest possible start under ground-truth runtimes — answered by
    /// the planner's persistent actual-runtime profile (a trial usage is
    /// applied and exactly retracted).
    fn would_delay_reserved(&mut self, job: &Job) -> bool {
        // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
        let Some(&reserved) = self.parts[self.active].queue.first() else {
            return false;
        };
        self.planner
            .would_delay(&self.parts, self.active, job, reserved.procs, self.now)
    }

    /// Pops and applies every event due at the current instant (within the
    /// epsilon window) — completions free processors on their partition,
    /// arrivals are routed and join a partition queue. Start decisions are
    /// *not* events; they follow in [`Self::start_ready_jobs`] once the
    /// instant's state is settled.
    ///
    /// Completions apply their freed processors **immediately**, so a
    /// router deciding later in the same batch sees a consistent partition
    /// view (a completed job is gone from `running` *and* its processors
    /// are back in `free` — `EarliestStart` profiles both). Nothing else
    /// reads `free` mid-batch, so the end-of-batch state (and the
    /// degenerate-path equivalence with the flat engine) is unchanged.
    ///
    /// Returns the number of events applied — the re-route pass only runs
    /// on settled batches that actually changed the cluster state.
    fn apply_due_events(&mut self) -> usize {
        let mut applied = 0;
        let deadline = SimTime::new(self.now + EPS);
        if P::ENABLED {
            self.probe.span_begin(Phase::ArrivalBatch);
        }
        while let Some((_, event)) = self.events.pop_until(deadline) {
            applied += 1;
            if P::ENABLED {
                self.probe.on_event(self.events.len());
            }
            match event {
                ClusterEvent::Arrival(idx) => {
                    let job = self.arrivals[idx]; // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
                    if let Some(next) = self.arrivals.get(idx + 1) {
                        self.events.schedule(
                            SimTime::new(next.submit).max(self.events.now()),
                            ClusterEvent::Arrival(idx + 1),
                        );
                    }
                    // Static sanitation only filtered jobs wider than the
                    // widest partition; under platform events a job can
                    // also arrive into a machine whose *current* capacity
                    // (or drain state) admits it nowhere. Route only what
                    // fits now — the rest joins the dropped count.
                    if !self.pevents.is_empty() {
                        let view = ClusterView {
                            now: self.now,
                            policy: self.policy,
                            parts: &self.parts,
                            plans: Some(&self.router_cache),
                        };
                        if view.fitting(&job).next().is_none() {
                            if P::ENABLED && self.probe.audit_on() {
                                self.probe.on_job_dropped(&job);
                            }
                            self.dropped.push(job);
                            continue;
                        }
                    }
                    let router = Arc::clone(&self.router); // simlint: allow(sync-audit) — Arc shares immutable scenario inputs (workload/spec/estimator); read-only after construction
                    let p = router.route(
                        &job,
                        &ClusterView {
                            now: self.now,
                            policy: self.policy,
                            parts: &self.parts,
                            plans: Some(&self.router_cache),
                        },
                    );
                    debug_assert!(
                        job.procs <= self.parts[p].capacity(), // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
                        "router sent a {}-proc job to partition {} ({} procs)",
                        job.procs,
                        p,
                        self.parts[p].capacity() // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
                    );
                    if P::ENABLED && self.probe.audit_on() {
                        // The routing evidence: the same estimated-start
                        // geometry `EarliestStart` routes by, one estimate
                        // per fitting partition (shared-cache reads are
                        // schedule-neutral, so the realized schedule is
                        // unchanged by collecting them).
                        let est = crate::cluster::EarliestStart::default();
                        let view = ClusterView {
                            now: self.now,
                            policy: self.policy,
                            parts: &self.parts,
                            plans: Some(&self.router_cache),
                        };
                        let cands: Vec<(usize, f64)> = view
                            .fitting(&job)
                            .map(|i| (i, est.estimated_start(&job, &view, i)))
                            .collect(); // simlint: allow(hot-alloc) — audit-only routing candidates; gated on audit_on()
                        self.probe.on_job_submitted(self.now, &job, p, &cands);
                    }
                    let scaled = self.parts[p].scale_job(job); // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
                    let pos = self.parts[p].enqueue(scaled, self.policy, self.now); // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
                    self.planner.on_enqueue(p, pos);
                }
                ClusterEvent::Completion {
                    part: p,
                    job,
                    generation,
                } => {
                    if !self.incarnations.is_empty()
                        && self.incarnations.get(&job).copied().unwrap_or(0) != generation
                    {
                        // A platform event killed this incarnation after
                        // its completion was scheduled: the event is
                        // stale. (The map is only populated by kills, so
                        // the check costs one branch without them.)
                        continue;
                    }
                    let part = &mut self.parts[p]; // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
                    let pos = part
                        .running
                        .iter()
                        .position(|r| r.job.id == job)
                        .expect("completion event for a job not running"); // simlint: allow(panic-path) — event-queue invariant: completions are scheduled only for running jobs
                    let r = part.running.swap_remove(pos);
                    part.free += r.job.procs;
                    part.touch();
                    debug_assert!(part.free <= part.capacity, "released more than claimed");
                    self.planner.on_complete(p, &r, self.now);
                    if P::ENABLED && self.probe.audit_on() {
                        self.probe.on_job_completed(self.now, p, &r.job, r.start);
                    }
                    self.completed.push(CompletedJob {
                        job: r.job,
                        start: r.start,
                    });
                }
                ClusterEvent::Platform(i) => self.apply_platform_event(i),
            }
        }
        if P::ENABLED {
            if applied > 0 {
                self.probe.span_end(Phase::ArrivalBatch);
            } else {
                // Nothing was due: don't clutter the trace with
                // zero-length batches.
                self.probe.span_cancel(Phase::ArrivalBatch);
            }
        }
        applied
    }

    /// The decision-point migration pass ([`ReroutePolicy::AtDecisionPoints`]).
    ///
    /// Runs once per settled arrival/completion batch, before start
    /// decisions. Every still-waiting job is offered to
    /// [`Router::reroute`] and moved when the router names a partition
    /// with a strictly earlier estimated start and the gain clears
    /// `min_gain_secs`, except:
    ///
    /// * **policy heads** (queue index 0) — the reserved job anchors the
    ///   partition's backfilling protocol and EASY/conservative shadow
    ///   geometry, so it never migrates;
    /// * jobs in, or moving into, **partitions holding an armed
    ///   backfilling opportunity** — those queues are about to be handed
    ///   to the decision-point driver, and migrating them would change
    ///   the action space between arming and acting (the `BackfillSim`
    ///   protocol stays untouched);
    /// * jobs whose **move budget** (`max_moves_per_job`) is spent.
    ///
    /// The scan order is deterministic: partitions by index, queues in
    /// policy order; a moved job re-enters its target queue at its policy
    /// position with durations re-scaled to the target's speed.
    fn reroute_pass(&mut self) {
        let ReroutePolicy::AtDecisionPoints {
            max_moves_per_job,
            min_gain_secs,
        } = self.reroute
        else {
            return;
        };
        if self.parts.len() < 2 || max_moves_per_job == 0 {
            return;
        }
        if P::ENABLED {
            self.probe.span_begin(Phase::ReroutePass);
        }
        // Establish policy order everywhere first, so "queue index 0" is
        // the policy head (the same sort `start_ready_jobs` would apply at
        // this instant — doing it here changes nothing downstream).
        for (p, part) in self.parts.iter_mut().enumerate() {
            if part.needs_sort {
                self.policy.sort_queue(&mut part.queue, self.now);
                part.needs_sort = false;
                part.touch();
                self.planner.on_resort(p);
            }
        }
        let mut frozen = std::mem::take(&mut self.frozen_scratch);
        frozen.clear();
        frozen.extend(self.parts.iter().map(Self::has_opportunity));
        let router = Arc::clone(&self.router); // simlint: allow(sync-audit) — Arc shares immutable scenario inputs (workload/spec/estimator); read-only after construction
                                               // Drain evacuation: queued jobs on a draining partition can never
                                               // start there, so they escape unconditionally — no gain threshold,
                                               // no per-job move budget, head included. (Without platform events
                                               // no partition drains and this loop is a no-op.)
        for p in 0..self.parts.len() {
            // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
            if !self.parts[p].draining {
                continue;
            }
            let mut pos = 0;
            // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
            while pos < self.parts[p].queue.len() {
                let stored = self.parts[p].queue[pos]; // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
                let reference = self.parts[p].unscale_job(stored); // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
                let view = ClusterView {
                    now: self.now,
                    policy: self.policy,
                    parts: &self.parts,
                    plans: Some(&self.router_cache),
                };
                // `fitting` excludes every draining partition (including
                // this one), so `route` lands on a live target when any
                // admits the job; otherwise it stays put until the drain
                // ends or capacity returns.
                if view.fitting(&reference).next().is_none() {
                    pos += 1;
                    continue;
                }
                let to = router.route(&reference, &view);
                // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
                if frozen[to] || to == p {
                    pos += 1;
                    continue;
                }
                let job = self.parts[p].queue.remove(pos); // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
                self.parts[p].touch(); // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
                self.planner.on_dequeue(p, pos);
                let moved = self.parts[to].scale_job(self.parts[p].unscale_job(job)); // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
                let to_pos = self.parts[to].enqueue(moved, self.policy, self.now); // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
                self.planner.on_enqueue(to, to_pos);
                self.parts[p].opportunity_armed = true; // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
                self.parts[to].opportunity_armed = true; // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
                self.migrations += 1;
                if P::ENABLED {
                    self.probe.on_migration_accepted();
                    self.probe.on_drain_evacuated(self.now, job.id, p, to);
                    if self.probe.audit_on() {
                        self.probe.on_migrated(self.now, job.id, p, to, 0.0);
                    }
                }
                // The vec shifted left — re-examine this position.
            }
        }
        for p in 0..self.parts.len() {
            // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
            if frozen[p] {
                continue;
            }
            let mut pos = 1;
            // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
            while pos < self.parts[p].queue.len() {
                let stored = self.parts[p].queue[pos]; // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
                if self.moves.get(&stored.id).copied().unwrap_or(0) >= max_moves_per_job {
                    pos += 1;
                    continue;
                }
                // The router reasons in reference-hardware durations; the
                // queued copy is scaled to its current partition.
                let reference = self.parts[p].unscale_job(stored); // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
                let view = ClusterView {
                    now: self.now,
                    policy: self.policy,
                    parts: &self.parts,
                    plans: Some(&self.router_cache),
                };
                let decision = router.reroute(&reference, &view, p);
                if P::ENABLED {
                    self.probe.on_migration_candidate();
                    if decision.is_some() {
                        self.probe.on_migration_proposed();
                    }
                }
                match decision {
                    // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
                    Some(d) if d.gain >= min_gain_secs && !frozen[d.to] && d.to != p => {
                        debug_assert!(
                            reference.procs <= self.parts[d.to].capacity(), // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
                            "router migrated a {}-proc job to partition {} ({} procs)",
                            reference.procs,
                            d.to,
                            self.parts[d.to].capacity() // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
                        );
                        let job = self.parts[p].queue.remove(pos); // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
                        self.parts[p].touch(); // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
                        self.planner.on_dequeue(p, pos);
                        let moved = self.parts[d.to].scale_job(self.parts[p].unscale_job(job)); // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
                        let to_pos = self.parts[d.to].enqueue(moved, self.policy, self.now); // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
                        self.planner.on_enqueue(d.to, to_pos);
                        // Both queues changed: re-arm their opportunities
                        // (state-change semantics, same as a job start).
                        self.parts[p].opportunity_armed = true; // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
                        self.parts[d.to].opportunity_armed = true; // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
                        *self.moves.entry(job.id).or_insert(0) += 1;
                        self.migrations += 1;
                        if P::ENABLED {
                            self.probe.on_migration_accepted();
                            if self.probe.audit_on() {
                                self.probe.on_migrated(self.now, job.id, p, d.to, d.gain);
                            }
                        }
                        // The vec shifted left — re-examine this position.
                    }
                    _ => pos += 1,
                }
            }
        }
        self.frozen_scratch = frozen;
        if P::ENABLED {
            self.probe.span_end(Phase::ReroutePass);
        }
    }

    /// Whether this partition currently holds an (armed) backfilling
    /// opportunity — the exact predicate [`Self::next_opportunity`] scans
    /// for. Draining partitions never do: they admit no starts, so there
    /// is nothing for a backfilling driver to decide there.
    fn has_opportunity(part: &Partition) -> bool {
        !part.draining
            && part.opportunity_armed
            && !part.queue.is_empty()
            && part.queue.iter().skip(1).any(|j| j.procs <= part.free)
    }

    /// Applies the materialized platform event at index `i` — the
    /// dynamic-machine counterpart of a completion: capacity moves, the
    /// planner's baselines shift via its exact-removal ops, and displaced
    /// jobs are requeued or dropped, never silently lost. Runs inside the
    /// settled-batch machinery, so the reroute pass and start decisions
    /// follow at the same instant.
    fn apply_platform_event(&mut self, i: usize) {
        let ev = self.pevents[i]; // simlint: allow(panic-path) — platform events are scheduled from the materialized stream; index in-bounds by construction
        if P::ENABLED {
            self.probe.on_platform_event(self.now, &ev);
        }
        match ev {
            PlatformEvent::NodeFail { part, procs, .. } => self.shrink_capacity(part, procs),
            PlatformEvent::NodeRepair { part, procs, .. } => self.grow_capacity(part, procs),
            PlatformEvent::DrainStart { part, .. } => {
                let p = &mut self.parts[part]; // simlint: allow(panic-path) — materialize() validated partition indices against parts.len()
                if !p.draining {
                    p.draining = true;
                    p.touch();
                }
            }
            PlatformEvent::DrainEnd { part, .. } => {
                let p = &mut self.parts[part]; // simlint: allow(panic-path) — materialize() validated partition indices against parts.len()
                if p.draining {
                    p.draining = false;
                    p.touch();
                }
            }
            PlatformEvent::Resize { part, procs, .. } => {
                let cap = self.parts[part].capacity; // simlint: allow(panic-path) — materialize() validated partition indices against parts.len()
                if procs < cap {
                    self.shrink_capacity(part, cap - procs);
                } else if procs > cap {
                    self.grow_capacity(part, procs - cap);
                }
            }
        }
    }

    /// Returns `delta` processors to partition `p` (a repair or a growing
    /// resize): capacity and the free pool grow together and the planner
    /// shifts every baseline to match.
    fn grow_capacity(&mut self, p: usize, delta: u32) {
        if delta == 0 {
            return;
        }
        let part = &mut self.parts[p]; // simlint: allow(panic-path) — materialize() validated partition indices against parts.len()
        part.capacity += delta;
        part.free += delta;
        part.touch();
        self.planner.on_capacity(p, delta as i64);
    }

    /// Removes `delta` processors from partition `p` (a failure or a
    /// shrinking resize). The free pool absorbs as much of the loss as it
    /// can; the remainder kills running jobs — latest start first, ties
    /// to the higher id, so the least-finished work dies first — whose
    /// fate follows the scenario's [`FailurePolicy`]. Queued jobs wider
    /// than the surviving capacity are displaced. Killed and displaced
    /// jobs are rerouted through the live cluster view; jobs no partition
    /// admits any more take the existing dropped path.
    fn shrink_capacity(&mut self, p: usize, delta: u32) {
        let take = delta.min(self.parts[p].capacity); // simlint: allow(panic-path) — materialize() validated partition indices against parts.len()
        if take == 0 {
            return;
        }
        // Phase 1: kill running jobs until the free pool covers the loss.
        // Each kill releases processors exactly like an early completion,
        // so the planner's baselines track `free` at every step.
        let mut requeue: Vec<Job> = Vec::new(); // simlint: allow(hot-alloc) — platform-event path: runs per capacity event, not per job event
                                                // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
        while self.parts[p].free < take {
            let part = &mut self.parts[p]; // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
            let victim = part
                .running
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| a.start.total_cmp(&b.start).then(a.job.id.cmp(&b.job.id)))
                .map(|(i, _)| i)
                .expect("capacity deficit with no running jobs"); // simlint: allow(panic-path) — invariant free + Σ running == capacity: a deficit implies a running job
            let r = part.running.swap_remove(victim);
            part.free += r.job.procs;
            part.touch();
            // The dead run's scheduled completion is now stale.
            *self.incarnations.entry(r.job.id).or_insert(0) += 1;
            self.planner.on_complete(p, &r, self.now);
            let speed = self.parts[p].speed(); // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
            let elapsed = (self.now - r.start).max(0.0);
            let reference = self.parts[p].unscale_job(r.job); // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
            let (resubmitted, wasted) = match self.failure_policy {
                FailurePolicy::KillResubmit => {
                    // From scratch: original submit, full runtime — the
                    // elapsed run is lost entirely.
                    (reference, elapsed * speed * r.job.procs as f64)
                }
                FailurePolicy::CheckpointRestart { overhead_secs } => {
                    let overhead = overhead_secs.max(0.0);
                    let remaining = (reference.runtime - elapsed * speed).max(0.0) + overhead;
                    (
                        Job {
                            runtime: remaining,
                            ..reference
                        },
                        overhead * r.job.procs as f64,
                    )
                }
            };
            self.kills += 1;
            self.wasted_node_seconds += wasted;
            if P::ENABLED {
                self.probe.on_job_killed(self.now, p, &r.job, wasted);
            }
            requeue.push(resubmitted);
        }
        // Phase 2: retract the capacity itself; the planner shifts every
        // baseline by the same delta (PR-5 exact removal, so the repaired
        // plan suffix sees the shrunken availability at every instant).
        {
            let part = &mut self.parts[p]; // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
            part.free -= take;
            part.capacity -= take;
            part.touch();
        }
        self.planner.on_capacity(p, -(take as i64));
        // Phase 3: displace queued jobs wider than the surviving capacity
        // — they could never start here again (until a repair, which may
        // never come), so they reroute now instead of deadlocking the
        // queue head.
        let cap = self.parts[p].capacity; // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
        let mut pos = 0;
        // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
        while pos < self.parts[p].queue.len() {
            // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
            if self.parts[p].queue[pos].procs > cap {
                let job = self.parts[p].queue.remove(pos); // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
                self.parts[p].touch(); // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
                self.planner.on_dequeue(p, pos);
                requeue.push(self.parts[p].unscale_job(job)); // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
            } else {
                pos += 1;
            }
        }
        // Phase 4: reroute the fallout against the post-shrink cluster.
        for job in requeue {
            self.requeue_job(job);
        }
    }

    /// Requeues a killed or displaced job (reference-hardware durations)
    /// through the router against the live cluster view, or — when no
    /// partition admits it any more — through the existing dropped path,
    /// so platform events never silently lose work.
    fn requeue_job(&mut self, job: Job) {
        let admitted = self.parts.iter().any(|part| part.admits(job.procs));
        if !admitted {
            if P::ENABLED && self.probe.audit_on() {
                self.probe.on_job_dropped(&job);
            }
            self.dropped.push(job);
            return;
        }
        let router = Arc::clone(&self.router); // simlint: allow(sync-audit) — Arc shares immutable scenario inputs (workload/spec/estimator); read-only after construction
        let p = router.route(
            &job,
            &ClusterView {
                now: self.now,
                policy: self.policy,
                parts: &self.parts,
                plans: Some(&self.router_cache),
            },
        );
        self.resubmits += 1;
        if P::ENABLED {
            self.probe.on_job_resubmitted(self.now, &job, p);
            if self.probe.audit_on() {
                let est = crate::cluster::EarliestStart::default();
                let view = ClusterView {
                    now: self.now,
                    policy: self.policy,
                    parts: &self.parts,
                    plans: Some(&self.router_cache),
                };
                let cands: Vec<(usize, f64)> = view
                    .fitting(&job)
                    .map(|i| (i, est.estimated_start(&job, &view, i)))
                    .collect(); // simlint: allow(hot-alloc) — audit-only routing candidates; gated on audit_on()
                self.probe.on_job_submitted(self.now, &job, p, &cands);
            }
        }
        let scaled = self.parts[p].scale_job(job); // simlint: allow(panic-path) — router contract: route() returns indices of admitting partitions
        let pos = self.parts[p].enqueue(scaled, self.policy, self.now); // simlint: allow(panic-path) — router contract: route() returns indices of admitting partitions
        self.planner.on_enqueue(p, pos);
    }

    /// Starts policy-selected head jobs in every partition while they fit.
    ///
    /// Each partition's queue is sorted at most once per call: removals
    /// preserve order, so (unlike the seed engine's sort-per-start) nothing
    /// changes between iterations at a fixed instant. The realized order is
    /// identical.
    fn start_ready_jobs(&mut self) {
        for p in 0..self.parts.len() {
            let part = &mut self.parts[p]; // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
            if part.draining || part.queue.is_empty() {
                continue;
            }
            if part.needs_sort {
                self.policy.sort_queue(&mut part.queue, self.now);
                part.needs_sort = false;
                part.touch();
                self.planner.on_resort(p);
            }
            while !self.parts[p].queue.is_empty() // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
                // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
                && self.parts[p].queue[0].procs <= self.parts[p].free
            {
                let job = self.parts[p].queue.remove(0); // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
                self.planner.on_start(p, 0, &job, self.now);
                if P::ENABLED && self.probe.audit_on() {
                    self.probe
                        .on_job_started(self.now, p, &job, StartKind::Head);
                }
                self.start_job(p, job);
                self.parts[p].opportunity_armed = true; // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
            }
        }
    }

    fn start_job(&mut self, p: usize, job: Job) {
        let part = &mut self.parts[p]; // simlint: allow(panic-path) — partition index tracked against parts.len(); OOB is corrupted sim state — fail fast
        debug_assert!(
            job.procs <= part.free,
            "start_job overcommits the partition"
        );
        part.free -= job.procs;
        part.touch();
        part.running.push(RunningJob {
            job,
            start: self.now,
        });
        // The incarnation stamp only matters (and the map is only
        // populated) when platform events can kill this run.
        let generation = if self.pevents.is_empty() {
            0
        } else {
            self.incarnations.get(&job.id).copied().unwrap_or(0)
        };
        self.events.schedule(
            SimTime::new(self.now + job.runtime).max(self.events.now()),
            ClusterEvent::Completion {
                part: p,
                job: job.id,
                generation,
            },
        );
    }

    /// The lowest-indexed partition with an armed backfilling opportunity:
    /// a non-empty queue whose head is blocked while some other queued job
    /// fits the partition's free processors.
    fn next_opportunity(&self) -> Option<usize> {
        self.parts.iter().position(Self::has_opportunity)
    }

    /// Hands the passive counters of the deep layers (planner profiles,
    /// suffix-repair accounting, router plan cache) to the probe. Runs at
    /// `Done`; the set-semantics hooks make repeated harvests idempotent.
    fn harvest_stats(&mut self) {
        if !P::ENABLED {
            return;
        }
        let mut prof = self.planner.profile_stats();
        prof.absorb(&self.router_cache.profile_stats());
        self.probe.set_profile_stats(prof);
        self.probe.set_plan_stats(self.planner.stats());
        self.probe.set_router_stats(self.router_cache.stats());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(cluster: u32, jobs: Vec<Job>) -> Trace {
        Trace::new("test", cluster, jobs)
    }

    /// Drives a simulation to completion without ever backfilling.
    fn run_no_backfill(mut sim: Simulation) -> Simulation {
        while sim.advance() != SimEvent::Done {}
        sim
    }

    #[test]
    fn single_job_runs_at_submission() {
        let t = trace(4, vec![Job::new(0, 100.0, 4, 50.0, 50.0)]);
        let sim = run_no_backfill(Simulation::new(&t, Policy::Fcfs));
        assert_eq!(sim.completed().len(), 1);
        assert_eq!(sim.completed()[0].start, 100.0);
        assert_eq!(sim.free_procs(), 4);
    }

    #[test]
    fn jobs_queue_when_cluster_full() {
        let t = trace(
            4,
            vec![
                Job::new(0, 0.0, 4, 100.0, 100.0),
                Job::new(1, 10.0, 4, 100.0, 100.0),
            ],
        );
        let sim = run_no_backfill(Simulation::new(&t, Policy::Fcfs));
        let second = sim.completed().iter().find(|c| c.job.id == 1).unwrap();
        assert_eq!(second.start, 100.0);
        assert_eq!(second.wait(), 90.0);
    }

    #[test]
    fn parallel_jobs_share_the_cluster() {
        let t = trace(
            8,
            vec![
                Job::new(0, 0.0, 4, 100.0, 100.0),
                Job::new(1, 0.0, 4, 100.0, 100.0),
            ],
        );
        let sim = run_no_backfill(Simulation::new(&t, Policy::Fcfs));
        assert!(sim.completed().iter().all(|c| c.start == 0.0));
    }

    #[test]
    fn opportunity_fires_when_head_blocked_and_candidate_fits() {
        // Job 0 occupies 3 of 4 procs; job 1 (4 procs) blocks; job 2 (1 proc) fits.
        let t = trace(
            4,
            vec![
                Job::new(0, 0.0, 3, 100.0, 100.0),
                Job::new(1, 10.0, 4, 100.0, 100.0),
                Job::new(2, 20.0, 1, 10.0, 10.0),
            ],
        );
        let mut sim = Simulation::new(&t, Policy::Fcfs);
        assert_eq!(sim.advance(), SimEvent::BackfillOpportunity);
        assert_eq!(sim.reserved_job().unwrap().id, 1);
        assert_eq!(sim.backfill_candidates(), vec![1]);
        assert_eq!(sim.queue()[1].id, 2);
    }

    #[test]
    fn declining_an_opportunity_does_not_loop() {
        let t = trace(
            4,
            vec![
                Job::new(0, 0.0, 3, 100.0, 100.0),
                Job::new(1, 10.0, 4, 100.0, 100.0),
                Job::new(2, 20.0, 1, 10.0, 10.0),
            ],
        );
        let mut sim = Simulation::new(&t, Policy::Fcfs);
        assert_eq!(sim.advance(), SimEvent::BackfillOpportunity);
        // Decline: simply advance again; the sim must make progress and
        // eventually finish with everyone scheduled.
        let mut guard = 0;
        while sim.advance() != SimEvent::Done {
            guard += 1;
            assert!(guard < 100, "simulation failed to make progress");
        }
        assert_eq!(sim.completed().len(), 3);
    }

    #[test]
    fn backfill_starts_job_immediately() {
        let t = trace(
            4,
            vec![
                Job::new(0, 0.0, 3, 100.0, 100.0),
                Job::new(1, 10.0, 4, 100.0, 100.0),
                Job::new(2, 20.0, 1, 10.0, 10.0),
            ],
        );
        let mut sim = Simulation::new(&t, Policy::Fcfs);
        assert_eq!(sim.advance(), SimEvent::BackfillOpportunity);
        let out = sim.backfill(1).unwrap();
        // Job 2 ends at now+10 = 30 < 100 (when job 0 releases), so the
        // reserved 4-proc job is not delayed.
        assert!(!out.delays_reserved);
        while sim.advance() != SimEvent::Done {}
        let c2 = sim.completed().iter().find(|c| c.job.id == 2).unwrap();
        assert_eq!(c2.start, 20.0);
        // Reserved job still starts at 100.
        let c1 = sim.completed().iter().find(|c| c.job.id == 1).unwrap();
        assert_eq!(c1.start, 100.0);
    }

    #[test]
    fn backfill_detects_delaying_the_reserved_job() {
        // Cluster 4. Job 0: 3 procs until t=100. Reserved job 1 needs 4.
        // Job 2: 1 proc, runtime 500 — backfilling it at t=20 delays job 1
        // from 100 to 520.
        let t = trace(
            4,
            vec![
                Job::new(0, 0.0, 3, 100.0, 100.0),
                Job::new(1, 10.0, 4, 100.0, 100.0),
                Job::new(2, 20.0, 1, 500.0, 500.0),
            ],
        );
        let mut sim = Simulation::new(&t, Policy::Fcfs);
        assert_eq!(sim.advance(), SimEvent::BackfillOpportunity);
        let out = sim.backfill(1).unwrap();
        assert!(out.delays_reserved);
        while sim.advance() != SimEvent::Done {}
        let c1 = sim.completed().iter().find(|c| c.job.id == 1).unwrap();
        assert_eq!(c1.start, 520.0);
    }

    #[test]
    fn backfill_error_cases() {
        let t = trace(
            4,
            vec![
                Job::new(0, 0.0, 3, 100.0, 100.0),
                Job::new(1, 10.0, 4, 100.0, 100.0),
                Job::new(2, 20.0, 2, 10.0, 10.0),
                Job::new(3, 21.0, 1, 10.0, 10.0),
            ],
        );
        let mut sim = Simulation::new(&t, Policy::Fcfs);
        assert_eq!(sim.advance(), SimEvent::BackfillOpportunity);
        assert_eq!(sim.backfill(0), Err(BackfillError::ReservedJob));
        assert_eq!(sim.backfill(9), Err(BackfillError::BadIndex));
        // Job 2 (queue index 1) needs 2 procs but only 1 is free; job 3
        // (queue index 2) is the fitting candidate that armed the event.
        assert_eq!(sim.backfill_candidates(), vec![2]);
        assert_eq!(sim.backfill(1), Err(BackfillError::DoesNotFit));
        assert!(sim.backfill(2).is_ok());
    }

    #[test]
    fn sjf_reorders_the_queue() {
        // Long job submitted first, short second; SJF runs the short one
        // first once the blocker finishes.
        let t = trace(
            4,
            vec![
                Job::new(0, 0.0, 4, 100.0, 100.0),
                Job::new(1, 1.0, 4, 900.0, 900.0),
                Job::new(2, 2.0, 4, 10.0, 10.0),
            ],
        );
        let sim = run_no_backfill(Simulation::new(&t, Policy::Sjf));
        let short = sim.completed().iter().find(|c| c.job.id == 2).unwrap();
        let long = sim.completed().iter().find(|c| c.job.id == 1).unwrap();
        assert!(short.start < long.start);
    }

    #[test]
    fn every_job_completes_exactly_once() {
        let t = swf::TracePreset::Lublin1.generate(300, 3);
        let sim = run_no_backfill(Simulation::new(&t, Policy::Fcfs));
        assert_eq!(sim.completed().len(), t.len());
        let mut ids: Vec<usize> = sim.completed().iter().map(|c| c.job.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), t.len());
        assert_eq!(sim.free_procs(), t.cluster_procs());
    }

    #[test]
    fn no_job_starts_before_submission() {
        let t = swf::TracePreset::Lublin2.generate(300, 4);
        let sim = run_no_backfill(Simulation::new(&t, Policy::F1));
        for c in sim.completed() {
            assert!(c.start + EPS >= c.job.submit);
        }
    }

    #[test]
    fn multi_partition_schedules_independently() {
        use crate::cluster::{ClusterSpec, LeastLoaded, PartitionSpec};
        // Two 4-proc partitions. Two 4-proc jobs at t=0: least-loaded must
        // spread them so both start immediately (a single 4-proc machine
        // would serialize them).
        let t = trace(
            8,
            vec![
                Job::new(0, 0.0, 4, 100.0, 100.0),
                Job::new(1, 0.0, 4, 100.0, 100.0),
            ],
        );
        let spec = ClusterSpec::new(vec![
            PartitionSpec::new("a", 4, 1.0),
            PartitionSpec::new("b", 4, 1.0),
        ]);
        let mut sim = Simulation::with_cluster_rerouted(
            &t,
            Policy::Fcfs,
            spec,
            std::sync::Arc::new(LeastLoaded),
            ReroutePolicy::AtSubmission,
        );
        while sim.advance() != SimEvent::Done {}
        assert_eq!(sim.completed().len(), 2);
        assert!(sim.completed().iter().all(|c| c.start == 0.0));
    }

    #[test]
    fn faster_partition_shrinks_runtimes() {
        use crate::cluster::{ClusterSpec, PartitionSpec, StaticAffinity};
        // One partition at double speed: the job's wall-clock runtime (and
        // request) halves.
        let t = trace(4, vec![Job::new(0, 0.0, 4, 100.0, 100.0)]);
        let spec = ClusterSpec::new(vec![PartitionSpec::new("turbo", 4, 2.0)]);
        let mut sim = Simulation::with_cluster_rerouted(
            &t,
            Policy::Fcfs,
            spec,
            std::sync::Arc::new(StaticAffinity),
            ReroutePolicy::AtSubmission,
        );
        while sim.advance() != SimEvent::Done {}
        assert_eq!(sim.completed()[0].end(), 50.0);
    }

    #[test]
    fn unroutable_jobs_are_dropped_up_front() {
        use crate::cluster::{ClusterSpec, PartitionSpec, StaticAffinity};
        let t = trace(
            8,
            vec![
                Job::new(0, 0.0, 8, 10.0, 10.0), // wider than any partition
                Job::new(1, 0.0, 4, 10.0, 10.0),
            ],
        );
        let spec = ClusterSpec::new(vec![
            PartitionSpec::new("a", 4, 1.0),
            PartitionSpec::new("b", 4, 1.0),
        ]);
        let mut sim = Simulation::with_cluster_rerouted(
            &t,
            Policy::Fcfs,
            spec,
            std::sync::Arc::new(StaticAffinity),
            ReroutePolicy::AtSubmission,
        );
        while sim.advance() != SimEvent::Done {}
        assert_eq!(sim.completed().len(), 1);
        assert_eq!(sim.completed()[0].job.id, 1);
        // The dropped job is counted, not silently lost.
        assert_eq!(sim.dropped_jobs(), 1);
        assert_eq!(sim.dropped()[0].id, 0);
        assert_eq!(sim.completed().len() + sim.dropped_jobs(), t.len());
    }

    mod reroute {
        use super::*;
        use crate::cluster::{ClusterSpec, PartitionSpec, ReroutePolicy, StaticAffinity};
        use std::sync::Arc;

        fn two_partitions(speed_b: f64) -> ClusterSpec {
            ClusterSpec::new(vec![
                PartitionSpec::new("a", 4, 1.0),
                PartitionSpec::new("b", 4, speed_b),
            ])
        }

        fn decision_points(max_moves: u32, min_gain: f64) -> ReroutePolicy {
            ReroutePolicy::AtDecisionPoints {
                max_moves_per_job: max_moves,
                min_gain_secs: min_gain,
            }
        }

        /// Affinity sends every 4-proc job to partition "a" (ties to the
        /// earlier partition), leaving "b" idle — the canonical misrouting
        /// migration repairs.
        fn congested_trace() -> Trace {
            trace(
                8,
                vec![
                    Job::new(0, 0.0, 4, 1000.0, 1000.0), // runs on a
                    Job::new(1, 1.0, 4, 1000.0, 1000.0), // head of a's queue
                    Job::new(2, 2.0, 4, 10.0, 10.0),     // queued behind it
                ],
            )
        }

        fn run(reroute: ReroutePolicy) -> Simulation {
            let mut sim = Simulation::with_cluster_rerouted(
                &congested_trace(),
                Policy::Fcfs,
                two_partitions(1.0),
                Arc::new(StaticAffinity),
                reroute,
            );
            while sim.advance() != SimEvent::Done {}
            sim
        }

        #[test]
        fn migration_moves_queued_job_to_the_idle_partition() {
            // At submission, job 2 queues on "a" behind jobs 0 and 1; the
            // settle of its own arrival batch re-evaluates it and moves it
            // to the idle "b", where it starts immediately.
            let sim = run(decision_points(3, 0.0));
            let c2 = sim.completed().iter().find(|c| c.job.id == 2).unwrap();
            assert_eq!(c2.start, 2.0);
            assert_eq!(sim.migrations(), 1);
            // The reserved chain on "a" is untouched.
            let c1 = sim.completed().iter().find(|c| c.job.id == 1).unwrap();
            assert_eq!(c1.start, 1000.0);
            assert_eq!(sim.completed().len(), 3);
        }

        #[test]
        fn at_submission_never_migrates() {
            let sim = run(ReroutePolicy::AtSubmission);
            assert_eq!(sim.migrations(), 0);
            // Job 2 serializes behind both 1000s jobs on "a".
            let c2 = sim.completed().iter().find(|c| c.job.id == 2).unwrap();
            assert_eq!(c2.start, 2000.0);
        }

        #[test]
        fn zero_move_budget_disables_migration() {
            let sim = run(decision_points(0, 0.0));
            assert_eq!(sim.migrations(), 0);
            let c2 = sim.completed().iter().find(|c| c.job.id == 2).unwrap();
            assert_eq!(c2.start, 2000.0);
        }

        #[test]
        fn moves_below_the_gain_threshold_are_not_taken() {
            // The move would gain 1998s; a 10000s threshold rejects it.
            let sim = run(decision_points(3, 10_000.0));
            assert_eq!(sim.migrations(), 0);
            let c2 = sim.completed().iter().find(|c| c.job.id == 2).unwrap();
            assert_eq!(c2.start, 2000.0);
        }

        #[test]
        fn policy_heads_never_migrate() {
            // Only jobs 0 and 1: job 1 is the head of "a"'s queue — it
            // holds the next reservation and must stay even though "b"
            // idles.
            let t = trace(
                8,
                vec![
                    Job::new(0, 0.0, 4, 1000.0, 1000.0),
                    Job::new(1, 1.0, 4, 1000.0, 1000.0),
                ],
            );
            let mut sim = Simulation::with_cluster_rerouted(
                &t,
                Policy::Fcfs,
                two_partitions(1.0),
                Arc::new(StaticAffinity),
                decision_points(3, 0.0),
            );
            while sim.advance() != SimEvent::Done {}
            assert_eq!(sim.migrations(), 0);
            let c1 = sim.completed().iter().find(|c| c.job.id == 1).unwrap();
            assert_eq!(c1.start, 1000.0);
        }

        #[test]
        fn armed_opportunity_partitions_are_frozen() {
            // Partition "a": 3-proc blocker leaves 1 free, a blocked
            // 4-proc head, and a fitting 1-proc candidate — an armed
            // backfilling opportunity. The candidate must NOT migrate to
            // the idle "b" at the settle that armed the opportunity: the
            // driver is about to act on this exact queue.
            let t = trace(
                8,
                vec![
                    Job::new(0, 0.0, 3, 1000.0, 1000.0),
                    Job::new(1, 1.0, 4, 1000.0, 1000.0),
                    Job::new(2, 2.0, 1, 50.0, 50.0),
                ],
            );
            let mut sim = Simulation::with_cluster_rerouted(
                &t,
                Policy::Fcfs,
                two_partitions(1.0),
                Arc::new(StaticAffinity),
                decision_points(3, 0.0),
            );
            assert_eq!(sim.advance(), SimEvent::BackfillOpportunity);
            assert_eq!(sim.active_partition(), 0);
            assert_eq!(sim.migrations(), 0, "frozen partition must keep its queue");
            assert_eq!(sim.queue().iter().map(|j| j.id).collect::<Vec<_>>(), [1, 2]);
            assert!(sim.backfill(1).is_ok());
            while sim.advance() != SimEvent::Done {}
            assert_eq!(sim.completed().len(), 3);
        }

        #[test]
        fn migration_rescales_durations_to_the_target_partition() {
            // "b" runs at double speed: the migrated 10s job executes in
            // 5 wall-clock seconds there.
            let mut sim = Simulation::with_cluster_rerouted(
                &congested_trace(),
                Policy::Fcfs,
                two_partitions(2.0),
                Arc::new(StaticAffinity),
                decision_points(3, 0.0),
            );
            while sim.advance() != SimEvent::Done {}
            assert_eq!(sim.migrations(), 1);
            let c2 = sim.completed().iter().find(|c| c.job.id == 2).unwrap();
            assert_eq!(c2.start, 2.0);
            assert_eq!(c2.end(), 7.0, "runtime must rescale to b's speed");
        }

        #[test]
        fn move_budget_bounds_total_migrations() {
            // A synthetic churn workload cannot migrate any job more than
            // the per-job budget allows.
            let t = swf::TracePreset::Lublin1.generate(300, 11);
            let spec = ClusterSpec::new(vec![
                PartitionSpec::new("a", 128, 1.0),
                PartitionSpec::new("b", 128, 1.0),
                PartitionSpec::new("c", 64, 1.35),
            ]);
            let budget = 2;
            let mut sim = Simulation::with_cluster_rerouted(
                &t,
                Policy::Fcfs,
                spec,
                Arc::new(crate::cluster::LeastLoaded),
                decision_points(budget, 0.0),
            );
            while sim.advance() != SimEvent::Done {}
            assert_eq!(
                sim.completed().len() + sim.dropped_jobs(),
                t.len(),
                "migration must conserve jobs"
            );
            assert!(
                sim.migrations() <= t.len() * budget as usize,
                "total moves exceed the per-job budget"
            );
        }
    }

    #[test]
    fn opportunity_names_the_active_partition() {
        use crate::cluster::{ClusterSpec, PartitionSpec, StaticAffinity};
        // Partition "small" (4p): blocker 3p, head 4p blocked, 1p fits —
        // an opportunity in partition index 1. Partition "big" (8p) idles.
        let t = trace(
            12,
            vec![
                Job::new(0, 0.0, 3, 100.0, 100.0),
                Job::new(1, 10.0, 4, 100.0, 100.0),
                Job::new(2, 20.0, 1, 10.0, 10.0),
            ],
        );
        let spec = ClusterSpec::new(vec![
            PartitionSpec::new("big", 8, 1.0),
            PartitionSpec::new("small", 4, 1.0),
        ]);
        let mut sim = Simulation::with_cluster_rerouted(
            &t,
            Policy::Fcfs,
            spec,
            std::sync::Arc::new(StaticAffinity),
            ReroutePolicy::AtSubmission,
        );
        assert_eq!(sim.advance(), SimEvent::BackfillOpportunity);
        assert_eq!(sim.active_partition(), 1);
        assert_eq!(sim.partitions()[1].name(), "small");
        assert_eq!(sim.reserved_job().unwrap().id, 1);
        assert_eq!(sim.backfill_candidates(), vec![1]);
        assert!(sim.backfill(1).is_ok());
        while sim.advance() != SimEvent::Done {}
        assert_eq!(sim.completed().len(), 3);
    }

    #[test]
    fn matches_reference_engine_without_backfilling() {
        // Spot-check against the preserved seed engine (the full sweep
        // lives in tests/event_equivalence.rs).
        let t = swf::TracePreset::SdscSp2.generate(400, 17);
        let kernel = run_no_backfill(Simulation::new(&t, Policy::Fcfs));
        let seed = crate::reference::run_reference_no_backfill(&t, Policy::Fcfs);
        let mut a: Vec<(usize, f64)> = kernel
            .completed()
            .iter()
            .map(|c| (c.job.id, c.start))
            .collect();
        let mut b: Vec<(usize, f64)> = seed.iter().map(|c| (c.job.id, c.start)).collect();
        a.sort_by_key(|x| x.0);
        b.sort_by_key(|x| x.0);
        assert_eq!(a, b);
    }
}
