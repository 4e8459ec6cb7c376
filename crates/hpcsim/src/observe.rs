//! `hpcsim::observe` — zero-cost simulation telemetry.
//!
//! The [`Probe`] trait is threaded through the decision-point engine
//! ([`crate::state::ProbedSimulation`] is generic over it) and observes
//! the event loop and all scheduling machinery: events and heap depths,
//! backfill attempts, migrations, and the phase structure of a decision
//! point (arrival batch → reroute pass → conservative/backfill pass).
//! The default [`NoopProbe`] has empty `#[inline]` hooks and
//! `ENABLED == false`, so the uninstrumented simulation monomorphizes to
//! exactly the pre-probe code — `Simulation` is an alias for
//! `ProbedSimulation<NoopProbe>` and pays nothing.
//!
//! [`Recorder`] is the collecting implementation. It produces:
//!
//! * [`Telemetry`] — **deterministic** counters and log₂ [`Histogram`]s,
//!   a pure function of the realized schedule (no clocks, no addresses),
//!   so a committed snapshot doubles as a differential oracle: behavioral
//!   drift moves a counter even when the metrics happen to agree.
//! * Wall-clock [`Span`]s of the simulation phases, exportable as
//!   Chrome-trace/Perfetto JSON ([`Recorder::chrome_trace_json`]). Spans
//!   are *not* part of [`Telemetry`]: they are timing, not behavior.
//!
//! Deep layers that the generic parameter cannot reach cheaply (the
//! availability profiles of [`crate::profile`], the planner of
//! [`crate::plan`], the router plan cache of [`crate::cluster::router`])
//! keep **passive stats** — plain integer counters defined here
//! ([`ProfileStats`], [`PlanStats`], [`RouterStats`]) that are always on
//! (a handful of integer adds on already-expensive paths) and harvested
//! into the probe once, when the simulation completes.
//!
//! The [`audit`] submodule builds the third output on the same trait: a
//! typed, wall-clock-free per-job decision log ([`audit::AuditLog`])
//! recorded by [`audit::AuditProbe`] through the lifecycle hooks below
//! (`on_job_submitted` … `on_job_completed`). Like the counters, the
//! lifecycle hooks default to empty `#[inline]` bodies, so the
//! `NoopProbe` simulation still monomorphizes to the pre-probe code.

pub mod audit;

use crate::cluster::Partition;
use audit::{SkipReason, StartKind};
use std::time::Instant;
use swf::Job;

/// A phase of one decision-point iteration, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Applying every event due at the current instant (arrivals and
    /// completions), including the jobs they start.
    ArrivalBatch,
    /// The decision-point re-routing (migration) pass over all queues.
    ReroutePass,
    /// One conservative plan-repair + start pass.
    ConservativePass,
    /// One EASY backfill scan over the active queue.
    BackfillScan,
}

impl Phase {
    /// The span name used in trace exports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::ArrivalBatch => "arrival_batch",
            Phase::ReroutePass => "reroute_pass",
            Phase::ConservativePass => "conservative_pass",
            Phase::BackfillScan => "backfill_scan",
        }
    }
}

/// Why a conservative reservation plan's suffix had to be repaired, in
/// ascending order of disruption (when several invalidations accumulate
/// between passes, the repair is attributed to the most disruptive one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RepairCause {
    /// New jobs extended the queue past the planned prefix.
    Arrival,
    /// A planned start drifted into the past (plan staleness at pass
    /// entry).
    Stale,
    /// A job started off its planned instant (backfilled ahead of plan).
    OffPlanStart,
    /// A migration removed or inserted a queued job.
    Migration,
    /// A job completed earlier than its planned release.
    EarlyCompletion,
    /// The queue order itself changed (time-dependent policy re-sort).
    Resort,
}

/// All repair causes, in the serialization order of
/// [`Telemetry::plan_repairs`].
pub const REPAIR_CAUSES: [RepairCause; 6] = [
    RepairCause::Arrival,
    RepairCause::Stale,
    RepairCause::OffPlanStart,
    RepairCause::Migration,
    RepairCause::EarlyCompletion,
    RepairCause::Resort,
];

impl RepairCause {
    /// Stable snake_case label (the serialized form).
    pub fn name(self) -> &'static str {
        match self {
            RepairCause::Arrival => "arrival",
            RepairCause::Stale => "stale",
            RepairCause::OffPlanStart => "off_plan_start",
            RepairCause::Migration => "migration",
            RepairCause::EarlyCompletion => "early_completion",
            RepairCause::Resort => "resort",
        }
    }

    fn index(self) -> usize {
        match self {
            RepairCause::Arrival => 0,
            RepairCause::Stale => 1,
            RepairCause::OffPlanStart => 2,
            RepairCause::Migration => 3,
            RepairCause::EarlyCompletion => 4,
            RepairCause::Resort => 5,
        }
    }
}

/// A log₂ histogram of non-negative integer samples: bucket 0 holds the
/// zeros, bucket *k* ≥ 1 holds values with bit length *k* (i.e. the range
/// `[2^(k-1), 2^k)`). Trailing empty buckets are trimmed, so two
/// histograms over the same data compare equal regardless of peak order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
}

impl Histogram {
    fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let b = Self::bucket_of(value);
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
    }

    /// Bucket counts, lowest bucket first (empty if nothing was recorded).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Total number of recorded samples.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Adds every bucket of `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += *theirs;
        }
    }
}

impl serde::Serialize for Histogram {
    fn to_value(&self) -> serde::Value {
        self.buckets.to_value()
    }
}

impl serde::Deserialize for Histogram {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Histogram {
            buckets: Vec::<u64>::from_value(v)?,
        })
    }
}

/// Passive counters of one [`crate::profile::AvailabilityProfile`]: edge
/// operations and `earliest_fit` bucket-walk lengths. Always on — each is
/// an integer add on a path that already splices vectors — and summed
/// across the simulation's persistent profiles at harvest time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileStats {
    /// Edge insertions (new or merged contributions).
    pub edge_inserts: u64,
    /// Edge removal operations (contribution retractions).
    pub edge_removes: u64,
    /// `earliest_fit` queries answered.
    pub fit_calls: u64,
    /// Bucket-summary steps taken across all `earliest_fit` queries.
    pub buckets_scanned: u64,
    /// Buckets scanned per `earliest_fit` query (log₂ buckets).
    pub scan_hist: Histogram,
}

impl ProfileStats {
    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: &ProfileStats) {
        self.edge_inserts += other.edge_inserts;
        self.edge_removes += other.edge_removes;
        self.fit_calls += other.fit_calls;
        self.buckets_scanned += other.buckets_scanned;
        self.scan_hist.merge(&other.scan_hist);
    }

    /// Resets every counter (used when a profile is cloned into a new
    /// role, so its history is not double-counted).
    pub fn clear(&mut self) {
        *self = ProfileStats::default();
    }
}

/// Passive counters of the conservative planner (`plan::Planner`):
/// suffix-repair passes broken down by dominant [`RepairCause`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Repair passes by cause (indexed like [`REPAIR_CAUSES`]).
    pub repairs: [u64; 6],
    /// Total plan entries (re)planned, by cause.
    pub repaired_entries: [u64; 6],
    /// Suffix length per repair pass (log₂ buckets).
    pub repair_len_hist: Histogram,
}

impl PlanStats {
    /// Records one repair pass of `len` entries attributed to `cause`.
    #[inline]
    pub fn record_repair(&mut self, cause: RepairCause, len: usize) {
        let i = cause.index();
        self.repairs[i] += 1;
        self.repaired_entries[i] += len as u64;
        self.repair_len_hist.record(len as u64);
    }

    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: &PlanStats) {
        for i in 0..REPAIR_CAUSES.len() {
            self.repairs[i] += other.repairs[i];
            self.repaired_entries[i] += other.repaired_entries[i];
        }
        self.repair_len_hist.merge(&other.repair_len_hist);
    }
}

/// Passive counters of the shared [`crate::cluster::RouterPlanCache`]:
/// how often the `EarliestStart` router reused, rebuilt, or abandoned its
/// per-partition reservation-chain plan, and how many candidate
/// placements it evaluated in total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Candidate `(job, partition)` placements evaluated.
    pub candidate_evals: u64,
    /// Evaluations answered from a current cached plan.
    pub plan_reuses: u64,
    /// Cached-plan rebuilds (stamp/now/estimator/policy drift).
    pub plan_rebuilds: u64,
    /// Evaluations that fell back to a from-scratch computation.
    pub scratch_fallbacks: u64,
}

impl RouterStats {
    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: &RouterStats) {
        self.candidate_evals += other.candidate_evals;
        self.plan_reuses += other.plan_reuses;
        self.plan_rebuilds += other.plan_rebuilds;
        self.scratch_fallbacks += other.scratch_fallbacks;
    }
}

/// Observer of the decision-point engine. Every hook defaults to an empty
/// `#[inline]` body; `ENABLED == false` additionally compiles out the
/// span bracketing and the end-of-run harvest at the call sites.
pub trait Probe: std::fmt::Debug + Clone {
    /// Whether the engine should execute probe-only code (span
    /// bracketing, passive-stat harvesting). `false` for [`NoopProbe`].
    const ENABLED: bool = true;

    /// One cluster event executed; `heap_depth` is the pending-event
    /// count after the pop.
    #[inline]
    fn on_event(&mut self, _heap_depth: usize) {}

    /// The active partition's queue depth at a reported backfill
    /// opportunity.
    #[inline]
    fn on_queue_depth(&mut self, _depth: usize) {}

    /// A backfill start was attempted; `hit` is whether the job started.
    #[inline]
    fn on_backfill(&mut self, _hit: bool) {}

    /// A backfill candidate was rejected because it would delay the
    /// reserved job.
    #[inline]
    fn on_backfill_would_delay(&mut self) {}

    /// The reroute pass considered one queued job for migration.
    #[inline]
    fn on_migration_candidate(&mut self) {}

    /// The router proposed a strictly-better placement for a candidate.
    #[inline]
    fn on_migration_proposed(&mut self) {}

    /// A proposed migration was executed.
    #[inline]
    fn on_migration_accepted(&mut self) {}

    /// A simulation phase begins.
    #[inline]
    fn span_begin(&mut self, _phase: Phase) {}

    /// The innermost open phase ends.
    #[inline]
    fn span_end(&mut self, _phase: Phase) {}

    /// The innermost open phase is abandoned without recording (the
    /// engine brackets speculatively and cancels empty batches).
    #[inline]
    fn span_cancel(&mut self, _phase: Phase) {}

    /// Whether the engine should pay for audit-only work (candidate-score
    /// collection at submission, backfill skip scans, settle passes).
    /// Separate from `ENABLED` so a telemetry [`Recorder`] does not drag
    /// the audit machinery along; only [`audit::AuditProbe`] returns true.
    #[inline]
    fn audit_on(&self) -> bool {
        false
    }

    /// A job was routed and enqueued at submission. `candidates` holds the
    /// router's estimated start per fitting partition (empty when the
    /// probe is not auditing); `chosen` is the partition it joined.
    #[inline]
    fn on_job_submitted(&mut self, _t: f64, _job: &Job, _chosen: usize, _cands: &[(usize, f64)]) {}

    /// A job fit no partition and was set aside before the run.
    #[inline]
    fn on_job_dropped(&mut self, _job: &Job) {}

    /// A queued job was passed over by a backfill scan for `reason`.
    #[inline]
    fn on_backfill_skipped(&mut self, _t: f64, _part: usize, _job_id: usize, _reason: SkipReason) {}

    /// A conservative pass repaired `entries` reservation-plan entries,
    /// attributed to the dominant invalidation `cause`.
    #[inline]
    fn on_plan_repaired(&mut self, _t: f64, _part: usize, _cause: RepairCause, _entries: usize) {}

    /// A queued job migrated between partitions with estimated `gain`.
    #[inline]
    fn on_migrated(&mut self, _t: f64, _job_id: usize, _from: usize, _to: usize, _gain: f64) {}

    /// A job left the queue and began executing.
    #[inline]
    fn on_job_started(&mut self, _t: f64, _part: usize, _job: &Job, _kind: StartKind) {}

    /// A running job released its processors.
    #[inline]
    fn on_job_completed(&mut self, _t: f64, _part: usize, _job: &Job, _start: f64) {}

    /// The event loop settled: all due events applied, ready jobs
    /// started. Audit probes reclassify waiting jobs here. Only called
    /// when [`Probe::audit_on`] is true.
    #[inline]
    fn on_settle(&mut self, _now: f64, _parts: &[Partition]) {}

    /// A platform event (node failure/repair, drain, resize) fired.
    #[inline]
    fn on_platform_event(&mut self, _t: f64, _event: &crate::platform::PlatformEvent) {}

    /// A running job was killed by a capacity retraction; `wasted` is the
    /// destroyed work in reference node-seconds.
    #[inline]
    fn on_job_killed(&mut self, _t: f64, _part: usize, _job: &Job, _wasted: f64) {}

    /// A killed or displaced job re-entered a queue on partition `to`.
    #[inline]
    fn on_job_resubmitted(&mut self, _t: f64, _job: &Job, _to: usize) {}

    /// A queued job escaped a draining partition via the reroute pass.
    #[inline]
    fn on_drain_evacuated(&mut self, _t: f64, _job_id: usize, _from: usize, _to: usize) {}

    /// End-of-run harvest of the summed persistent-profile stats.
    /// Idempotent set semantics: a later call replaces the value.
    #[inline]
    fn set_profile_stats(&mut self, _stats: ProfileStats) {}

    /// End-of-run harvest of the planner's repair stats (set semantics).
    #[inline]
    fn set_plan_stats(&mut self, _stats: PlanStats) {}

    /// End-of-run harvest of the router-cache stats (set semantics).
    #[inline]
    fn set_router_stats(&mut self, _stats: RouterStats) {}
}

/// The zero-cost default probe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopProbe;

impl Probe for NoopProbe {
    const ENABLED: bool = false;
}

/// One repair-cause row of [`Telemetry::plan_repairs`].
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RepairRow {
    /// [`RepairCause::name`] of this row.
    pub cause: String,
    /// Repair passes attributed to this cause.
    pub count: u64,
    /// Total plan entries (re)planned under this cause.
    pub entries: u64,
}

/// The deterministic half of a [`Recorder`]'s output: counters and
/// histograms that are a pure function of the schedule. Serialized into
/// `RunReport.telemetry` when a spec opts in, and pinnable byte-for-byte
/// (`results/telemetry_table3.json`).
///
/// Keys serialize in declaration order. The platform counters appended for
/// the dynamic-machine layer are omitted when zero (and zero when absent),
/// so a run without platform events serializes to exactly the pre-layer
/// bytes every committed pin holds.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Telemetry {
    /// Cluster events executed (arrivals + completions).
    pub events: u64,
    /// Peak pending-event count after any pop.
    pub heap_depth_peak: u64,
    /// Sum of pending-event counts over all pops (mean = sum / events).
    pub heap_depth_sum: u64,
    /// Backfill starts attempted.
    pub backfill_attempts: u64,
    /// Backfill starts that succeeded.
    pub backfill_hits: u64,
    /// Backfill candidates rejected for delaying the reserved job.
    pub backfill_would_delay: u64,
    /// Queued jobs considered by the reroute pass.
    pub migration_candidates: u64,
    /// Migrations proposed by the router.
    pub migrations_proposed: u64,
    /// Migrations executed.
    pub migrations_accepted: u64,
    /// Router candidate placements evaluated.
    pub router_candidate_evals: u64,
    /// Router evaluations answered from the shared plan cache.
    pub router_plan_reuses: u64,
    /// Shared-plan rebuilds.
    pub router_plan_rebuilds: u64,
    /// Router evaluations that fell back to scratch computation.
    pub router_scratch_fallbacks: u64,
    /// Availability-profile edge insertions (persistent profiles).
    pub profile_edge_inserts: u64,
    /// Availability-profile edge removals (persistent profiles).
    pub profile_edge_removes: u64,
    /// `earliest_fit` queries on persistent profiles.
    pub earliest_fit_calls: u64,
    /// Bucket-summary steps across all `earliest_fit` queries.
    pub earliest_fit_buckets_scanned: u64,
    /// Conservative suffix repairs by dominant cause.
    pub plan_repairs: Vec<RepairRow>,
    /// Event-heap depth per executed event (log₂ buckets).
    pub heap_depth_hist: Histogram,
    /// Active-queue depth per backfill opportunity (log₂ buckets).
    pub queue_depth_hist: Histogram,
    /// Conservative repair suffix length per pass (log₂ buckets).
    pub repair_len_hist: Histogram,
    /// Buckets scanned per `earliest_fit` query (log₂ buckets).
    pub bucket_scan_hist: Histogram,
    /// Platform events applied (failures + repairs + drains + resizes).
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub platform_events: u64,
    /// Running jobs killed by capacity retractions.
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub platform_kills: u64,
    /// Killed/displaced jobs rerouted back into a queue.
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub platform_resubmits: u64,
    /// Queued jobs evacuated from draining partitions.
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub platform_drain_evacuations: u64,
}

impl Telemetry {
    /// Mean event-heap depth per executed event.
    pub fn heap_depth_mean(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.heap_depth_sum as f64 / self.events as f64
        }
    }

    /// Merges `other` into `self` (sums and histogram merges; the peak is
    /// the max of the peaks). Used by the windows protocol to aggregate
    /// per-window telemetry into one report section.
    pub fn merge(&mut self, other: &Telemetry) {
        self.events += other.events;
        self.heap_depth_peak = self.heap_depth_peak.max(other.heap_depth_peak);
        self.heap_depth_sum += other.heap_depth_sum;
        self.backfill_attempts += other.backfill_attempts;
        self.backfill_hits += other.backfill_hits;
        self.backfill_would_delay += other.backfill_would_delay;
        self.migration_candidates += other.migration_candidates;
        self.migrations_proposed += other.migrations_proposed;
        self.migrations_accepted += other.migrations_accepted;
        self.router_candidate_evals += other.router_candidate_evals;
        self.router_plan_reuses += other.router_plan_reuses;
        self.router_plan_rebuilds += other.router_plan_rebuilds;
        self.router_scratch_fallbacks += other.router_scratch_fallbacks;
        self.profile_edge_inserts += other.profile_edge_inserts;
        self.profile_edge_removes += other.profile_edge_removes;
        self.earliest_fit_calls += other.earliest_fit_calls;
        self.earliest_fit_buckets_scanned += other.earliest_fit_buckets_scanned;
        if self.plan_repairs.is_empty() {
            self.plan_repairs = other.plan_repairs.clone();
        } else {
            for (mine, theirs) in self.plan_repairs.iter_mut().zip(&other.plan_repairs) {
                debug_assert_eq!(mine.cause, theirs.cause);
                mine.count += theirs.count;
                mine.entries += theirs.entries;
            }
        }
        self.heap_depth_hist.merge(&other.heap_depth_hist);
        self.queue_depth_hist.merge(&other.queue_depth_hist);
        self.repair_len_hist.merge(&other.repair_len_hist);
        self.bucket_scan_hist.merge(&other.bucket_scan_hist);
        self.platform_events += other.platform_events;
        self.platform_kills += other.platform_kills;
        self.platform_resubmits += other.platform_resubmits;
        self.platform_drain_evacuations += other.platform_drain_evacuations;
    }

    /// Pretty JSON (the committed-snapshot format).
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("telemetry serializes")
    }

    /// Parses the committed-snapshot format.
    pub fn from_json(json: &str) -> Result<Self, serde::Error> {
        serde_json::from_str(json)
    }
}

/// One recorded wall-clock phase span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Which phase this span covers.
    pub phase: Phase,
    /// Microseconds since the recorder's origin.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// The collecting [`Probe`]: deterministic counters/histograms plus
/// (optionally) wall-clock phase spans.
///
/// [`Recorder::default`] records counters only — span vectors grow with
/// the number of decision points, which is unbounded on 1M-job traces.
/// Use [`Recorder::with_spans`] for trace export.
#[derive(Debug, Clone)]
pub struct Recorder {
    origin: Instant,
    record_spans: bool,
    telemetry: Telemetry,
    spans: Vec<Span>,
    open: Vec<(Phase, Instant)>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new(false)
    }
}

impl Recorder {
    /// A recorder; `record_spans` additionally keeps wall-clock spans.
    // The observe layer is the sanctioned wall-clock boundary: it measures
    // the simulator from outside and never feeds time back into it (the
    // per-crate clippy.toml disallows Instant::now everywhere else).
    #[allow(clippy::disallowed_methods)]
    pub fn new(record_spans: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            record_spans,
            telemetry: Telemetry::default(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that keeps phase spans for trace export.
    pub fn with_spans() -> Self {
        Self::new(true)
    }

    /// The deterministic counters/histograms recorded so far.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Consumes the recorder, returning its [`Telemetry`].
    pub fn into_telemetry(self) -> Telemetry {
        self.telemetry
    }

    /// The recorded spans (empty unless built via [`Recorder::with_spans`]).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Serializes the recorded spans as Chrome-trace JSON (the
    /// `traceEvents` "X" complete-event format, loadable in
    /// `chrome://tracing` and Perfetto).
    pub fn chrome_trace_json(&self) -> String {
        use serde::Value;
        let events: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("name".into(), Value::String(s.phase.name().into())),
                    ("cat".into(), Value::String("sim".into())),
                    ("ph".into(), Value::String("X".into())),
                    ("ts".into(), s.start_us.to_value()),
                    ("dur".into(), s.dur_us.to_value()),
                    ("pid".into(), 1u32.to_value()),
                    ("tid".into(), 1u32.to_value()),
                ])
            })
            .collect();
        let root = Value::Object(vec![
            ("displayTimeUnit".into(), Value::String("ms".into())),
            ("traceEvents".into(), Value::Array(events)),
        ]);
        serde_json::to_string_pretty(&root).expect("trace serializes")
    }
}

use serde::Serialize as _;

impl Probe for Recorder {
    #[inline]
    fn on_event(&mut self, heap_depth: usize) {
        let d = heap_depth as u64;
        self.telemetry.events += 1;
        self.telemetry.heap_depth_peak = self.telemetry.heap_depth_peak.max(d);
        self.telemetry.heap_depth_sum += d;
        self.telemetry.heap_depth_hist.record(d);
    }

    #[inline]
    fn on_queue_depth(&mut self, depth: usize) {
        self.telemetry.queue_depth_hist.record(depth as u64);
    }

    #[inline]
    fn on_backfill(&mut self, hit: bool) {
        self.telemetry.backfill_attempts += 1;
        self.telemetry.backfill_hits += hit as u64;
    }

    #[inline]
    fn on_backfill_would_delay(&mut self) {
        self.telemetry.backfill_would_delay += 1;
    }

    #[inline]
    fn on_migration_candidate(&mut self) {
        self.telemetry.migration_candidates += 1;
    }

    #[inline]
    fn on_migration_proposed(&mut self) {
        self.telemetry.migrations_proposed += 1;
    }

    #[inline]
    fn on_migration_accepted(&mut self) {
        self.telemetry.migrations_accepted += 1;
    }

    #[inline]
    fn on_platform_event(&mut self, _t: f64, _event: &crate::platform::PlatformEvent) {
        self.telemetry.platform_events += 1;
    }

    #[inline]
    fn on_job_killed(&mut self, _t: f64, _part: usize, _job: &Job, _wasted: f64) {
        self.telemetry.platform_kills += 1;
    }

    #[inline]
    fn on_job_resubmitted(&mut self, _t: f64, _job: &Job, _to: usize) {
        self.telemetry.platform_resubmits += 1;
    }

    #[inline]
    fn on_drain_evacuated(&mut self, _t: f64, _job_id: usize, _from: usize, _to: usize) {
        self.telemetry.platform_drain_evacuations += 1;
    }

    // Sanctioned wall-clock read: span timing measures the simulator from
    // outside (see clippy.toml / ARCHITECTURE.md "static analysis").
    #[allow(clippy::disallowed_methods)]
    fn span_begin(&mut self, phase: Phase) {
        if self.record_spans {
            self.open.push((phase, Instant::now()));
        }
    }

    fn span_end(&mut self, phase: Phase) {
        if !self.record_spans {
            return;
        }
        let Some((opened, start)) = self.open.pop() else {
            return;
        };
        debug_assert_eq!(opened, phase, "mismatched span nesting");
        self.spans.push(Span {
            phase,
            start_us: start.duration_since(self.origin).as_micros() as u64, // simlint: allow(time-cast) — wall-clock span duration for the profiling report; observability only, never feeds sim state
            dur_us: start.elapsed().as_micros() as u64, // simlint: allow(time-cast) — wall-clock span duration for the profiling report; observability only, never feeds sim state
        });
    }

    fn span_cancel(&mut self, phase: Phase) {
        if self.record_spans {
            let popped = self.open.pop();
            debug_assert_eq!(popped.map(|(p, _)| p), Some(phase));
        }
    }

    fn set_profile_stats(&mut self, stats: ProfileStats) {
        self.telemetry.profile_edge_inserts = stats.edge_inserts;
        self.telemetry.profile_edge_removes = stats.edge_removes;
        self.telemetry.earliest_fit_calls = stats.fit_calls;
        self.telemetry.earliest_fit_buckets_scanned = stats.buckets_scanned;
        self.telemetry.bucket_scan_hist = stats.scan_hist;
    }

    fn set_plan_stats(&mut self, stats: PlanStats) {
        self.telemetry.plan_repairs = REPAIR_CAUSES
            .iter()
            .map(|&cause| RepairRow {
                cause: cause.name().to_string(),
                count: stats.repairs[cause.index()],
                entries: stats.repaired_entries[cause.index()],
            })
            .collect();
        self.telemetry.repair_len_hist = stats.repair_len_hist.clone();
    }

    fn set_router_stats(&mut self, stats: RouterStats) {
        self.telemetry.router_candidate_evals = stats.candidate_evals;
        self.telemetry.router_plan_reuses = stats.plan_reuses;
        self.telemetry.router_plan_rebuilds = stats.plan_rebuilds;
        self.telemetry.router_scratch_fallbacks = stats.scratch_fallbacks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = Histogram::default();
        for v in [0, 0, 1, 2, 3, 4, 7, 8, 1023, 1024] {
            h.record(v);
        }
        // zeros → bucket 0; 1 → bucket 1; 2,3 → bucket 2; 4..8 → bucket 3;
        // 8..16 → bucket 4; 1023 → bucket 10; 1024 → bucket 11.
        assert_eq!(h.buckets()[0], 2);
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[2], 2);
        assert_eq!(h.buckets()[3], 2);
        assert_eq!(h.buckets()[4], 1);
        assert_eq!(h.buckets()[10], 1);
        assert_eq!(h.buckets()[11], 1);
        assert_eq!(h.total(), 10);
    }

    #[test]
    fn histogram_merge_is_elementwise() {
        let mut a = Histogram::default();
        a.record(1);
        let mut b = Histogram::default();
        b.record(1);
        b.record(100);
        a.merge(&b);
        assert_eq!(a.buckets()[1], 2);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn telemetry_round_trips_through_json() {
        let mut rec = Recorder::default();
        rec.on_event(3);
        rec.on_event(5);
        rec.on_queue_depth(7);
        rec.on_backfill(true);
        rec.on_backfill(false);
        rec.set_plan_stats({
            let mut p = PlanStats::default();
            p.record_repair(RepairCause::Arrival, 4);
            p.record_repair(RepairCause::Resort, 9);
            p
        });
        rec.set_router_stats(RouterStats {
            candidate_evals: 10,
            plan_reuses: 8,
            plan_rebuilds: 1,
            scratch_fallbacks: 1,
        });
        let t = rec.into_telemetry();
        let back = Telemetry::from_json(&t.to_json_pretty()).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.events, 2);
        assert_eq!(back.heap_depth_peak, 5);
        assert_eq!(back.heap_depth_mean(), 4.0);
        assert_eq!(back.backfill_attempts, 2);
        assert_eq!(back.backfill_hits, 1);
        let arrival = &back.plan_repairs[0];
        assert_eq!((arrival.cause.as_str(), arrival.count), ("arrival", 1));
    }

    #[test]
    fn telemetry_merge_sums_and_maxes() {
        let mut rec1 = Recorder::default();
        rec1.on_event(10);
        let mut rec2 = Recorder::default();
        rec2.on_event(2);
        rec2.on_event(2);
        let mut t = rec1.into_telemetry();
        t.merge(&rec2.into_telemetry());
        assert_eq!(t.events, 3);
        assert_eq!(t.heap_depth_peak, 10);
        assert_eq!(t.heap_depth_sum, 14);
        assert_eq!(t.heap_depth_hist.total(), 3);
    }

    #[test]
    fn spans_export_as_chrome_trace() {
        let mut rec = Recorder::with_spans();
        rec.span_begin(Phase::ArrivalBatch);
        rec.span_end(Phase::ArrivalBatch);
        rec.span_begin(Phase::ReroutePass);
        rec.span_cancel(Phase::ReroutePass);
        assert_eq!(rec.spans().len(), 1, "cancelled spans are dropped");
        let json = rec.chrome_trace_json();
        let v: serde::Value = serde_json::from_str(&json).unwrap();
        let serde::Value::Object(entries) = &v else {
            panic!("trace root must be an object");
        };
        let events = entries
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| v)
            .unwrap();
        let serde::Value::Array(items) = events else {
            panic!("traceEvents must be an array");
        };
        assert_eq!(items.len(), 1);
    }

    #[test]
    fn default_recorder_skips_spans() {
        let mut rec = Recorder::default();
        rec.span_begin(Phase::BackfillScan);
        rec.span_end(Phase::BackfillScan);
        assert!(rec.spans().is_empty());
    }
}
