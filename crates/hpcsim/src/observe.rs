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
//! availability profiles of [`crate::profile`], the router plan cache of
//! [`crate::cluster::router`]) keep **passive stats** — plain integer
//! counters defined here ([`ProfileStats`], [`RouterStats`]) that are
//! always on (a handful of integer adds on already-expensive paths) and
//! harvested into the probe once, when the simulation completes. The
//! planner's suffix repairs are not passive stats: each conservative pass
//! reports its repair as an [`AuditRecord::PlanRepaired`], the one ledger
//! both [`Telemetry::plan_repairs`] and the audit log are built from.
//!
//! The [`audit`] submodule builds the third output on the same trait: a
//! typed, wall-clock-free per-job decision log ([`audit::AuditLog`]).
//! The engine hands every decision to the probe as one [`AuditRecord`]
//! through [`Probe::record`]; [`audit::AuditProbe`] stores them and
//! [`Recorder`] counts the few that feed [`Telemetry`]. Like the
//! counters, `record` defaults to an empty `#[inline]` body, so the
//! `NoopProbe` simulation still monomorphizes to the pre-probe code.

pub mod audit;

use crate::cluster::Partition;
use audit::AuditRecord;
use std::time::Instant;

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

    /// Position in [`REPAIR_CAUSES`] (declaration order).
    fn index(self) -> usize {
        self as usize
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

/// One event a counting probe tallies into [`Telemetry`], reported
/// through [`Probe::count`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Count {
    /// One event popped off the cluster event heap: arrivals,
    /// completions, platform events, and the stale completions of killed
    /// runs.
    Event {
        /// Events still pending after the pop.
        heap_depth: usize,
    },
    /// The active partition's queue depth at a reported backfill
    /// opportunity.
    QueueDepth(usize),
    /// A backfill start was attempted; `hit` is whether the job started.
    Backfill {
        /// Whether the job started.
        hit: bool,
    },
    /// A backfill start delays the reserved job's ground-truth earliest
    /// start. The engine runs this check for every backfill start when
    /// [`Probe::ENABLED`], and otherwise only when the caller asks for the
    /// outcome.
    BackfillWouldDelay,
    /// The reroute pass considered one queued job for migration (and,
    /// since the probe is enabled, asked the router about it).
    MigrationCandidate,
    /// The router proposed a strictly-better placement for a candidate.
    MigrationProposed,
    /// A proposed migration was executed.
    MigrationAccepted,
    /// A queued job escaped a draining partition via the reroute pass.
    DrainEvacuated,
}

/// Observer of the decision-point engine. Every hook defaults to an empty
/// `#[inline]` body; `ENABLED == false` additionally compiles out the
/// span bracketing and the end-of-run harvest at the call sites.
pub trait Probe: std::fmt::Debug + Clone {
    /// Whether the engine should execute probe-only code (span
    /// bracketing, passive-stat harvesting, the ground-truth delay check
    /// of heuristic backfill starts, the router estimates of reroute
    /// candidates that no other partition can take). `false` for
    /// [`NoopProbe`].
    const ENABLED: bool = true;

    /// One counted engine event. Only called when `ENABLED`.
    #[inline]
    fn count(&mut self, _c: Count) {}

    /// End-of-run harvest of the summed persistent-profile stats and the
    /// router-cache stats. Set semantics: a later call replaces the
    /// values.
    #[inline]
    fn harvest(&mut self, _profile: ProfileStats, _router: RouterStats) {}

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

    /// One scheduling decision, built by the engine where it made it.
    /// Plan repairs, platform events, kills and resubmissions arrive under
    /// `ENABLED` alone, because [`Recorder`] counts them; every other
    /// record only when [`Probe::audit_on`] is true.
    #[inline]
    fn record(&mut self, _rec: AuditRecord) {}

    /// The event loop settled: all due events applied, ready jobs
    /// started. Audit probes reclassify waiting jobs here. Only called
    /// when [`Probe::audit_on`] is true.
    #[inline]
    fn on_settle(&mut self, _now: f64, _parts: &[Partition]) {}
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
    /// Events popped off the cluster event heap: arrivals, completions,
    /// platform events, and the stale completions of killed runs.
    pub events: u64,
    /// Peak pending-event count after any pop.
    pub heap_depth_peak: u64,
    /// Sum of pending-event counts over all pops (mean = sum / events).
    pub heap_depth_sum: u64,
    /// Backfill starts attempted.
    pub backfill_attempts: u64,
    /// Backfill starts that succeeded.
    pub backfill_hits: u64,
    /// Backfill starts that delay the reserved job's ground-truth
    /// earliest start (actual runtimes). In heuristic runs this check is
    /// observation work: the engine runs it for a probe that counts it
    /// and skips it when none does.
    pub backfill_would_delay: u64,
    /// Queued jobs considered by the reroute pass. Each is offered to
    /// the router when a probe counts it; an unprobed run skips the
    /// candidates that no other partition can take.
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
            telemetry: Telemetry {
                // Every cause serializes, with zeros when nothing was
                // repaired.
                plan_repairs: REPAIR_CAUSES
                    .iter()
                    .map(|cause| RepairRow {
                        cause: cause.name().to_string(),
                        count: 0,
                        entries: 0,
                    })
                    .collect(),
                ..Telemetry::default()
            },
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

    /// Counts the records [`Telemetry`] tallies: plan repairs (cause rows
    /// and `repair_len_hist`), platform events, kills and resubmissions.
    /// Every other record leaves the counters alone.
    fn tally(&mut self, rec: &AuditRecord) {
        let t = &mut self.telemetry;
        match *rec {
            AuditRecord::PlanRepaired { cause, entries, .. } => {
                // `Recorder::new` builds one row per cause, in `index` order.
                if let Some(row) = t.plan_repairs.get_mut(cause.index()) {
                    row.count += 1;
                    row.entries += entries as u64;
                }
                t.repair_len_hist.record(entries as u64);
            }
            AuditRecord::NodeFailed { .. }
            | AuditRecord::NodeRepaired { .. }
            | AuditRecord::DrainStarted { .. }
            | AuditRecord::DrainEnded { .. }
            | AuditRecord::Resized { .. } => t.platform_events += 1,
            AuditRecord::Killed { .. } => t.platform_kills += 1,
            AuditRecord::Resubmitted { .. } => t.platform_resubmits += 1,
            _ => {}
        }
    }
}

use serde::Serialize as _;

impl Probe for Recorder {
    #[inline]
    fn count(&mut self, c: Count) {
        let t = &mut self.telemetry;
        match c {
            Count::Event { heap_depth } => {
                let d = heap_depth as u64;
                t.events += 1;
                t.heap_depth_peak = t.heap_depth_peak.max(d);
                t.heap_depth_sum += d;
                t.heap_depth_hist.record(d);
            }
            Count::QueueDepth(depth) => t.queue_depth_hist.record(depth as u64),
            Count::Backfill { hit } => {
                t.backfill_attempts += 1;
                t.backfill_hits += hit as u64;
            }
            Count::BackfillWouldDelay => t.backfill_would_delay += 1,
            Count::MigrationCandidate => t.migration_candidates += 1,
            Count::MigrationProposed => t.migrations_proposed += 1,
            Count::MigrationAccepted => t.migrations_accepted += 1,
            Count::DrainEvacuated => t.platform_drain_evacuations += 1,
        }
    }

    #[inline]
    fn record(&mut self, rec: AuditRecord) {
        self.tally(&rec);
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

    fn harvest(&mut self, profile: ProfileStats, router: RouterStats) {
        let t = &mut self.telemetry;
        t.profile_edge_inserts = profile.edge_inserts;
        t.profile_edge_removes = profile.edge_removes;
        t.earliest_fit_calls = profile.fit_calls;
        t.earliest_fit_buckets_scanned = profile.buckets_scanned;
        t.bucket_scan_hist = profile.scan_hist;
        t.router_candidate_evals = router.candidate_evals;
        t.router_plan_reuses = router.plan_reuses;
        t.router_plan_rebuilds = router.plan_rebuilds;
        t.router_scratch_fallbacks = router.scratch_fallbacks;
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
        rec.count(Count::Event { heap_depth: 3 });
        rec.count(Count::Event { heap_depth: 5 });
        rec.count(Count::QueueDepth(7));
        rec.count(Count::Backfill { hit: true });
        rec.count(Count::Backfill { hit: false });
        for (t, cause, entries) in [
            (1.0, RepairCause::Arrival, 4),
            (2.0, RepairCause::Resort, 9),
        ] {
            rec.record(AuditRecord::PlanRepaired {
                t,
                part: 0,
                cause,
                entries,
            });
        }
        rec.harvest(
            ProfileStats::default(),
            RouterStats {
                candidate_evals: 10,
                plan_reuses: 8,
                plan_rebuilds: 1,
                scratch_fallbacks: 1,
            },
        );
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
        assert_eq!(back.plan_repairs.len(), REPAIR_CAUSES.len());
        assert_eq!(back.plan_repairs[5].cause, "resort");
        assert_eq!(back.repair_len_hist.total(), 2);
        for (i, cause) in REPAIR_CAUSES.iter().enumerate() {
            assert_eq!(cause.index(), i, "{}", cause.name());
        }
    }

    #[test]
    fn telemetry_merge_sums_and_maxes() {
        let mut rec1 = Recorder::default();
        rec1.count(Count::Event { heap_depth: 10 });
        let mut rec2 = Recorder::default();
        rec2.count(Count::Event { heap_depth: 2 });
        rec2.count(Count::Event { heap_depth: 2 });
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
