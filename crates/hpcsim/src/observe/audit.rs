//! Decision forensics: a typed, per-job audit log of every scheduling
//! decision, with wait-cause attribution.
//!
//! [`AuditProbe`] implements [`Probe`] and stores the [`AuditRecord`]s the
//! engine hands to [`Probe::record`] at each decision: submission (with
//! the router's candidate estimates), backfill skips (with the reason a
//! scan passed a job over), conservative plan repairs, migrations, starts
//! (with their kind), completions, and platform events. The log is
//! **deterministic and wall-clock-free** — a pure function of the
//! realized schedule — so two logs of the same spec compare equal and the
//! *first divergent record* pinpoints where two engine variants part ways.
//!
//! On top of the raw log, the probe maintains a per-job wait decomposition
//! ([`WaitBreakdown`]): every waiting job's time is classified at each
//! event-loop settle into one of four causes, and the per-cause segments
//! telescope to exactly the job's total wait (enforced by the audit
//! property suite):
//!
//! * **capacity** — the job heads its queue; nothing outranks it, the
//!   machine simply lacks free processors.
//! * **head-of-line** — the job fits the free processors *right now* but
//!   sits behind the queue head (FCFS order or the head's reservation
//!   blocks it).
//! * **policy position** — the job neither fits nor heads the queue: it
//!   waits where the policy ranked it.
//! * **shadow** — an EASY scan explicitly rejected it for running past
//!   the shadow time (it fit by width but not by length).
//!
//! Aggregates land in [`WaitAttribution`] (serialized into
//! `RunReport.attribution` when a spec opts in); [`AuditLog::explain`]
//! renders the human narrative behind `scenario explain`.

use super::{Count, Probe, ProfileStats, Recorder, RepairCause, RouterStats, Telemetry};
use crate::cluster::Partition;
use crate::platform::PlatformEvent;
use crate::timeline::window_timeline;
use serde::Serialize as _;
use std::collections::BTreeMap;

/// Why a backfill scan passed over a queued job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SkipReason {
    /// Starting the job now would delay the reserved (head) job.
    WouldDelayReserved,
    /// The job requests more processors than are currently free.
    InsufficientProcs,
    /// EASY only: the job fits by width but would run past the shadow
    /// time and does not fit the extra processors.
    ShadowViolation,
}

impl SkipReason {
    /// Stable snake_case label (the serialized form).
    pub fn name(self) -> &'static str {
        match self {
            SkipReason::WouldDelayReserved => "would_delay_reserved",
            SkipReason::InsufficientProcs => "insufficient_procs",
            SkipReason::ShadowViolation => "shadow_violation",
        }
    }
}

/// How a job left the queue and began executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StartKind {
    /// Started from the queue head with enough free processors.
    Head,
    /// Started out of order by a backfill scan.
    Backfill,
    /// Started on its conservative reservation (the planner placed it;
    /// the start is on-plan rather than opportunistic).
    Reservation,
}

impl StartKind {
    /// Stable snake_case label (the serialized form).
    pub fn name(self) -> &'static str {
        match self {
            StartKind::Head => "head",
            StartKind::Backfill => "backfill",
            StartKind::Reservation => "reservation",
        }
    }
}

/// One wait-cause class of the four-way decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WaitCause {
    /// Queue head, insufficient free processors.
    Capacity,
    /// Fits now, blocked behind the queue head.
    HeadOfLine,
    /// Neither fits nor heads the queue.
    PolicyPosition,
    /// Rejected by an EASY scan for crossing the shadow time.
    Shadow,
}

/// All wait causes, in the order of [`WaitBreakdown::components`].
pub const WAIT_CAUSES: [WaitCause; 4] = [
    WaitCause::Capacity,
    WaitCause::HeadOfLine,
    WaitCause::PolicyPosition,
    WaitCause::Shadow,
];

impl WaitCause {
    /// Stable snake_case label (the serialized form).
    pub fn name(self) -> &'static str {
        match self {
            WaitCause::Capacity => "capacity",
            WaitCause::HeadOfLine => "head_of_line",
            WaitCause::PolicyPosition => "policy_position",
            WaitCause::Shadow => "shadow",
        }
    }

    fn index(self) -> usize {
        match self {
            WaitCause::Capacity => 0,
            WaitCause::HeadOfLine => 1,
            WaitCause::PolicyPosition => 2,
            WaitCause::Shadow => 3,
        }
    }
}

/// One typed decision record. All times are simulation seconds; records
/// are appended in engine order, so the log sequence is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditRecord {
    /// A job arrived, was routed, and joined a partition queue.
    Submitted {
        /// Submission time.
        t: f64,
        /// Job id.
        job: usize,
        /// The partition the router chose.
        part: usize,
        /// Estimated start per fitting partition, `(partition, start)` —
        /// the evidence behind the routing decision.
        candidates: Vec<(usize, f64)>,
    },
    /// A job fit no partition and was set aside before the run.
    Dropped {
        /// Submission time.
        t: f64,
        /// Job id.
        job: usize,
        /// Requested processors (wider than every partition).
        procs: u32,
    },
    /// A backfill scan passed over a queued job.
    BackfillSkipped {
        /// Scan time.
        t: f64,
        /// Partition scanned.
        part: usize,
        /// Job id.
        job: usize,
        /// Why the scan rejected it.
        reason: SkipReason,
    },
    /// A conservative pass repaired part of its reservation plan.
    PlanRepaired {
        /// Pass time.
        t: f64,
        /// Partition whose plan was repaired.
        part: usize,
        /// Dominant invalidation cause.
        cause: RepairCause,
        /// Plan entries (re)planned.
        entries: usize,
    },
    /// A queued job migrated between partitions.
    Migrated {
        /// Decision-point time.
        t: f64,
        /// Job id.
        job: usize,
        /// Source partition.
        from: usize,
        /// Target partition.
        to: usize,
        /// The router's estimated start-time gain, seconds.
        gain: f64,
    },
    /// A job left the queue and began executing.
    Started {
        /// Start time.
        t: f64,
        /// Partition it runs on.
        part: usize,
        /// Job id.
        job: usize,
        /// How it started.
        kind: StartKind,
        /// Processors it occupies.
        procs: u32,
        /// Realized wait, `t - submit`.
        wait: f64,
    },
    /// A running job released its processors.
    Completed {
        /// Completion time.
        t: f64,
        /// Partition it ran on.
        part: usize,
        /// Job id.
        job: usize,
    },
    /// The RL agent picked a queue slot at a decision point.
    AgentPicked {
        /// Decision-point time.
        t: f64,
        /// Job id behind the picked slot.
        job: usize,
        /// The picked observation slot.
        slot: usize,
        /// The policy network's logit for the slot.
        score: f64,
    },
    /// A platform event shrank a partition: `procs` processors failed.
    NodeFailed {
        /// Failure time.
        t: f64,
        /// Partition that lost capacity.
        part: usize,
        /// Processors lost.
        procs: u32,
    },
    /// A platform event returned `procs` processors to service.
    NodeRepaired {
        /// Repair time.
        t: f64,
        /// Partition that regained capacity.
        part: usize,
        /// Processors restored.
        procs: u32,
    },
    /// A partition entered a maintenance drain (stopped admitting jobs).
    DrainStarted {
        /// Drain start time.
        t: f64,
        /// Partition draining.
        part: usize,
    },
    /// A maintenance drain ended (the partition admits jobs again).
    DrainEnded {
        /// Drain end time.
        t: f64,
        /// Partition back in service.
        part: usize,
    },
    /// A platform event set a partition's capacity to an absolute target.
    Resized {
        /// Resize time.
        t: f64,
        /// Partition resized.
        part: usize,
        /// New capacity.
        procs: u32,
    },
    /// A running job was killed by a capacity retraction.
    Killed {
        /// Kill time.
        t: f64,
        /// Partition it was running on.
        part: usize,
        /// Job id.
        job: usize,
        /// Destroyed work in reference node-seconds (elapsed run under
        /// kill-and-resubmit; restart overhead under checkpoint-restart).
        wasted: f64,
    },
    /// A killed or displaced job re-entered a partition queue.
    Resubmitted {
        /// Resubmission time.
        t: f64,
        /// Job id.
        job: usize,
        /// The partition the router chose for the retry.
        part: usize,
    },
}

impl AuditRecord {
    /// The record of platform event `ev` firing at `t`.
    pub(crate) fn platform(t: f64, ev: &PlatformEvent) -> Self {
        match *ev {
            PlatformEvent::NodeFail { part, procs, .. } => {
                AuditRecord::NodeFailed { t, part, procs }
            }
            PlatformEvent::NodeRepair { part, procs, .. } => {
                AuditRecord::NodeRepaired { t, part, procs }
            }
            PlatformEvent::DrainStart { part, .. } => AuditRecord::DrainStarted { t, part },
            PlatformEvent::DrainEnd { part, .. } => AuditRecord::DrainEnded { t, part },
            PlatformEvent::Resize { part, procs, .. } => AuditRecord::Resized { t, part, procs },
        }
    }

    /// Stable snake_case tag of the record kind.
    pub fn kind(&self) -> &'static str {
        match self {
            AuditRecord::Submitted { .. } => "submitted",
            AuditRecord::Dropped { .. } => "dropped",
            AuditRecord::BackfillSkipped { .. } => "backfill_skipped",
            AuditRecord::PlanRepaired { .. } => "plan_repaired",
            AuditRecord::Migrated { .. } => "migrated",
            AuditRecord::Started { .. } => "started",
            AuditRecord::Completed { .. } => "completed",
            AuditRecord::AgentPicked { .. } => "agent_picked",
            AuditRecord::NodeFailed { .. } => "node_failed",
            AuditRecord::NodeRepaired { .. } => "node_repaired",
            AuditRecord::DrainStarted { .. } => "drain_started",
            AuditRecord::DrainEnded { .. } => "drain_ended",
            AuditRecord::Resized { .. } => "resized",
            AuditRecord::Killed { .. } => "killed",
            AuditRecord::Resubmitted { .. } => "resubmitted",
        }
    }

    /// The job id this record concerns, if it concerns exactly one.
    pub fn job(&self) -> Option<usize> {
        match *self {
            AuditRecord::Submitted { job, .. }
            | AuditRecord::Dropped { job, .. }
            | AuditRecord::BackfillSkipped { job, .. }
            | AuditRecord::Migrated { job, .. }
            | AuditRecord::Started { job, .. }
            | AuditRecord::Completed { job, .. }
            | AuditRecord::AgentPicked { job, .. }
            | AuditRecord::Killed { job, .. }
            | AuditRecord::Resubmitted { job, .. } => Some(job),
            AuditRecord::PlanRepaired { .. }
            | AuditRecord::NodeFailed { .. }
            | AuditRecord::NodeRepaired { .. }
            | AuditRecord::DrainStarted { .. }
            | AuditRecord::DrainEnded { .. }
            | AuditRecord::Resized { .. } => None,
        }
    }

    /// The record's simulation time.
    pub fn time(&self) -> f64 {
        match *self {
            AuditRecord::Submitted { t, .. }
            | AuditRecord::Dropped { t, .. }
            | AuditRecord::BackfillSkipped { t, .. }
            | AuditRecord::PlanRepaired { t, .. }
            | AuditRecord::Migrated { t, .. }
            | AuditRecord::Started { t, .. }
            | AuditRecord::Completed { t, .. }
            | AuditRecord::AgentPicked { t, .. }
            | AuditRecord::NodeFailed { t, .. }
            | AuditRecord::NodeRepaired { t, .. }
            | AuditRecord::DrainStarted { t, .. }
            | AuditRecord::DrainEnded { t, .. }
            | AuditRecord::Resized { t, .. }
            | AuditRecord::Killed { t, .. }
            | AuditRecord::Resubmitted { t, .. } => t,
        }
    }
}

impl serde::Serialize for AuditRecord {
    fn to_value(&self) -> serde::Value {
        use serde::Value;
        let kind = ("kind".to_string(), Value::String(self.kind().into()));
        let entries = match self {
            AuditRecord::Submitted {
                t,
                job,
                part,
                candidates,
            } => {
                let cands: Vec<Value> = candidates
                    .iter()
                    .map(|&(p, s)| {
                        Value::Object(vec![
                            ("part".into(), p.to_value()),
                            ("start".into(), s.to_value()),
                        ])
                    })
                    .collect();
                vec![
                    kind,
                    ("t".into(), t.to_value()),
                    ("job".into(), job.to_value()),
                    ("part".into(), part.to_value()),
                    ("candidates".into(), Value::Array(cands)),
                ]
            }
            AuditRecord::Dropped { t, job, procs } => vec![
                kind,
                ("t".into(), t.to_value()),
                ("job".into(), job.to_value()),
                ("procs".into(), procs.to_value()),
            ],
            AuditRecord::BackfillSkipped {
                t,
                part,
                job,
                reason,
            } => vec![
                kind,
                ("t".into(), t.to_value()),
                ("part".into(), part.to_value()),
                ("job".into(), job.to_value()),
                ("reason".into(), Value::String(reason.name().into())),
            ],
            AuditRecord::PlanRepaired {
                t,
                part,
                cause,
                entries,
            } => vec![
                kind,
                ("t".into(), t.to_value()),
                ("part".into(), part.to_value()),
                ("cause".into(), Value::String(cause.name().into())),
                ("entries".into(), entries.to_value()),
            ],
            AuditRecord::Migrated {
                t,
                job,
                from,
                to,
                gain,
            } => vec![
                kind,
                ("t".into(), t.to_value()),
                ("job".into(), job.to_value()),
                ("from".into(), from.to_value()),
                ("to".into(), to.to_value()),
                ("gain".into(), gain.to_value()),
            ],
            AuditRecord::Started {
                t,
                part,
                job,
                kind: k,
                procs,
                wait,
            } => vec![
                kind,
                ("t".into(), t.to_value()),
                ("part".into(), part.to_value()),
                ("job".into(), job.to_value()),
                ("start_kind".into(), Value::String(k.name().into())),
                ("procs".into(), procs.to_value()),
                ("wait".into(), wait.to_value()),
            ],
            AuditRecord::Completed { t, part, job } => vec![
                kind,
                ("t".into(), t.to_value()),
                ("part".into(), part.to_value()),
                ("job".into(), job.to_value()),
            ],
            AuditRecord::AgentPicked {
                t,
                job,
                slot,
                score,
            } => vec![
                kind,
                ("t".into(), t.to_value()),
                ("job".into(), job.to_value()),
                ("slot".into(), slot.to_value()),
                ("score".into(), score.to_value()),
            ],
            AuditRecord::NodeFailed { t, part, procs }
            | AuditRecord::NodeRepaired { t, part, procs }
            | AuditRecord::Resized { t, part, procs } => vec![
                kind,
                ("t".into(), t.to_value()),
                ("part".into(), part.to_value()),
                ("procs".into(), procs.to_value()),
            ],
            AuditRecord::DrainStarted { t, part } | AuditRecord::DrainEnded { t, part } => vec![
                kind,
                ("t".into(), t.to_value()),
                ("part".into(), part.to_value()),
            ],
            AuditRecord::Killed {
                t,
                part,
                job,
                wasted,
            } => vec![
                kind,
                ("t".into(), t.to_value()),
                ("part".into(), part.to_value()),
                ("job".into(), job.to_value()),
                ("wasted".into(), wasted.to_value()),
            ],
            AuditRecord::Resubmitted { t, job, part } => vec![
                kind,
                ("t".into(), t.to_value()),
                ("job".into(), job.to_value()),
                ("part".into(), part.to_value()),
            ],
        };
        Value::Object(entries)
    }
}

/// One job's wait decomposed by cause. Components are indexed like
/// [`WAIT_CAUSES`] and sum to `wait` (up to floating-point association).
#[derive(Debug, Clone, PartialEq)]
pub struct WaitBreakdown {
    /// Job id.
    pub job: usize,
    /// Total realized wait, seconds.
    pub wait: f64,
    /// Seconds attributed per cause, indexed like [`WAIT_CAUSES`].
    pub components: [f64; 4],
}

impl serde::Serialize for WaitBreakdown {
    fn to_value(&self) -> serde::Value {
        let mut entries = vec![
            ("job".to_string(), self.job.to_value()),
            ("wait".to_string(), self.wait.to_value()),
        ];
        for (cause, v) in WAIT_CAUSES.iter().zip(&self.components) {
            entries.push((cause.name().to_string(), v.to_value()));
        }
        serde::Value::Object(entries)
    }
}

/// The aggregate wait-cause table across all started jobs — the section
/// `RunReport.attribution` carries when a spec opts into auditing.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WaitAttribution {
    /// Jobs the table aggregates (jobs that started).
    pub jobs: u64,
    /// Summed wait across those jobs, seconds.
    pub total_wait: f64,
    /// Seconds the queue head lacked free processors.
    pub capacity: f64,
    /// Seconds jobs that fit sat behind the queue head.
    pub head_of_line: f64,
    /// Seconds jobs waited at their policy-ranked position.
    pub policy_position: f64,
    /// Seconds jobs were explicitly shadow-constrained by EASY scans.
    pub shadow: f64,
}

impl WaitAttribution {
    /// Adds `other` into `self` (the windows protocol would aggregate
    /// per-window tables this way).
    pub fn merge(&mut self, other: &WaitAttribution) {
        self.jobs += other.jobs;
        self.total_wait += other.total_wait;
        self.capacity += other.capacity;
        self.head_of_line += other.head_of_line;
        self.policy_position += other.policy_position;
        self.shadow += other.shadow;
    }

    /// Sum of the four components (≈ `total_wait`).
    pub fn components_sum(&self) -> f64 {
        self.capacity + self.head_of_line + self.policy_position + self.shadow
    }
}

/// Static facts about one partition, captured for the export header.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionMeta {
    /// Partition name.
    pub name: String,
    /// Processor count.
    pub procs: u32,
    /// Relative speed factor.
    pub speed: f64,
}

impl serde::Serialize for PartitionMeta {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("name".to_string(), self.name.to_value()),
            ("procs".to_string(), self.procs.to_value()),
            ("speed".to_string(), self.speed.to_value()),
        ])
    }
}

/// A Gantt entry of the timeline export: one job's execution window.
#[derive(Debug, Clone, PartialEq)]
struct GanttEntry {
    job: usize,
    start: f64,
    end: f64,
    procs: u32,
}

/// The complete forensic output of one audited run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditLog {
    /// The cluster layout the run executed on.
    pub partitions: Vec<PartitionMeta>,
    /// Every decision record, in engine order.
    pub records: Vec<AuditRecord>,
    /// Per-job wait decompositions, ordered by job id.
    pub job_waits: Vec<WaitBreakdown>,
}

/// Utilization samples per partition timeline in the JSON export.
const TIMELINE_SAMPLES: usize = 64;

impl AuditLog {
    /// Records concerning one job, in order.
    pub fn records_for(&self, job: usize) -> Vec<&AuditRecord> {
        self.records
            .iter()
            .filter(|r| r.job() == Some(job))
            .collect()
    }

    /// The wait decomposition of one job, if it started.
    pub fn breakdown(&self, job: usize) -> Option<&WaitBreakdown> {
        self.job_waits.iter().find(|w| w.job == job)
    }

    /// Aggregates every per-job decomposition into one table.
    pub fn attribution(&self) -> WaitAttribution {
        let mut table = WaitAttribution::default();
        for w in &self.job_waits {
            table.jobs += 1;
            table.total_wait += w.wait;
            table.capacity += w.components[WaitCause::Capacity.index()];
            table.head_of_line += w.components[WaitCause::HeadOfLine.index()];
            table.policy_position += w.components[WaitCause::PolicyPosition.index()];
            table.shadow += w.components[WaitCause::Shadow.index()];
        }
        table
    }

    /// The index of the first record where `self` and `other` disagree
    /// (or one log ends), `None` when the logs are identical.
    pub fn first_divergence(&self, other: &AuditLog) -> Option<usize> {
        let n = self.records.len().min(other.records.len());
        (0..n)
            .find(|&i| self.records[i] != other.records[i])
            .or((self.records.len() != other.records.len()).then_some(n))
    }

    /// Counts records by kind, in a stable (kind-name) order.
    pub fn kind_counts(&self) -> Vec<(&'static str, usize)> {
        let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
        for r in &self.records {
            *counts.entry(r.kind()).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    /// Per-job execution windows per partition, reconstructed from the
    /// `Started`/`Completed` record pairs.
    fn gantt(&self) -> Vec<Vec<GanttEntry>> {
        let mut open: BTreeMap<usize, (usize, f64, u32)> = BTreeMap::new();
        let mut parts: Vec<Vec<GanttEntry>> = vec![Vec::new(); self.partitions.len().max(1)];
        for r in &self.records {
            match *r {
                AuditRecord::Started {
                    t,
                    part,
                    job,
                    procs,
                    ..
                } => {
                    open.insert(job, (part, t, procs));
                }
                AuditRecord::Completed { t, part, job } => {
                    if let Some((p0, start, procs)) = open.remove(&job) {
                        debug_assert_eq!(p0, part, "job {job} completed off its start partition");
                        if part >= parts.len() {
                            parts.resize(part + 1, Vec::new());
                        }
                        parts[part].push(GanttEntry {
                            job,
                            start,
                            end: t,
                            procs,
                        });
                    }
                }
                _ => {}
            }
        }
        for entries in &mut parts {
            entries.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.job.cmp(&b.job)));
        }
        parts
    }

    /// The per-partition timeline section of the export: Gantt entries
    /// plus a sampled busy-processor curve
    /// ([`crate::timeline::window_timeline`] over the partition's
    /// execution windows, derived from audit records rather than
    /// `CompletedJob`s).
    fn timeline_value(&self) -> serde::Value {
        use serde::Value;
        let parts = self.gantt();
        let sections: Vec<Value> = parts
            .iter()
            .enumerate()
            .map(|(pi, entries)| {
                let gantt: Vec<Value> = entries
                    .iter()
                    .map(|e| {
                        Value::Object(vec![
                            ("job".into(), e.job.to_value()),
                            ("start".into(), e.start.to_value()),
                            ("end".into(), e.end.to_value()),
                            ("procs".into(), e.procs.to_value()),
                        ])
                    })
                    .collect();
                let windows = entries.iter().map(|e| (e.start, e.end, e.procs));
                let util: Vec<Value> = window_timeline(windows, TIMELINE_SAMPLES)
                    .into_iter()
                    .map(|s| {
                        Value::Object(vec![
                            ("time".into(), s.time.to_value()),
                            ("busy".into(), s.busy.to_value()),
                        ])
                    })
                    .collect();
                let mut section = vec![("part".to_string(), pi.to_value())];
                if let Some(meta) = self.partitions.get(pi) {
                    section.push(("name".into(), meta.name.to_value()));
                    section.push(("procs".into(), meta.procs.to_value()));
                }
                section.push(("gantt".into(), Value::Array(gantt)));
                section.push(("utilization".into(), Value::Array(util)));
                Value::Object(section)
            })
            .collect();
        Value::Array(sections)
    }

    /// The full export: partitions, records, per-job waits, the aggregate
    /// attribution table, and per-partition timelines — pretty JSON, the
    /// `scenario audit` output format.
    pub fn to_json_pretty(&self) -> String {
        use serde::Value;
        let root = Value::Object(vec![
            ("partitions".into(), self.partitions.to_value()),
            ("records".into(), self.records.to_value()),
            ("attribution".into(), self.attribution().to_value()),
            ("job_waits".into(), self.job_waits.to_value()),
            ("timeline".into(), self.timeline_value()),
        ]);
        serde_json::to_string_pretty(&root).expect("audit log serializes")
    }

    /// The human decision narrative behind `scenario explain`: a whole-run
    /// summary, or (with `job`) one job's full decision history.
    pub fn explain(&self, job: Option<usize>) -> String {
        match job {
            Some(id) => self.explain_job(id),
            None => self.explain_run(),
        }
    }

    fn explain_job(&self, id: usize) -> String {
        let records = self.records_for(id);
        if records.is_empty() {
            return format!("job {id}: no audit records (not in this trace?)\n");
        }
        let mut out = format!("job {id}:\n");
        for r in records {
            let line = match r {
                AuditRecord::Submitted {
                    t,
                    part,
                    candidates,
                    ..
                } => {
                    let cands = if candidates.is_empty() {
                        String::new()
                    } else {
                        let list: Vec<String> = candidates
                            .iter()
                            .map(|(p, s)| format!("p{p}@{s:.0}s"))
                            .collect();
                        format!(" (candidates: {})", list.join(", "))
                    };
                    format!("  t={t:<12.1} submitted -> partition {part}{cands}")
                }
                AuditRecord::Dropped { t, procs, .. } => {
                    format!("  t={t:<12.1} dropped: {procs} procs fit no partition")
                }
                AuditRecord::BackfillSkipped {
                    t, part, reason, ..
                } => {
                    format!(
                        "  t={t:<12.1} skipped by backfill scan on p{part}: {}",
                        reason.name()
                    )
                }
                AuditRecord::Migrated {
                    t, from, to, gain, ..
                } => {
                    format!("  t={t:<12.1} migrated p{from} -> p{to} (est. gain {gain:.0}s)")
                }
                AuditRecord::Started {
                    t,
                    part,
                    kind,
                    procs,
                    wait,
                    ..
                } => format!(
                    "  t={t:<12.1} started on p{part} ({}, {procs} procs) after {wait:.0}s wait",
                    kind.name()
                ),
                AuditRecord::Completed { t, part, .. } => {
                    format!("  t={t:<12.1} completed on p{part}")
                }
                AuditRecord::AgentPicked { t, slot, score, .. } => {
                    format!("  t={t:<12.1} picked by agent (slot {slot}, score {score:.3})")
                }
                AuditRecord::Killed {
                    t, part, wasted, ..
                } => {
                    format!(
                        "  t={t:<12.1} killed by capacity loss on p{part} ({wasted:.0} node-s wasted)"
                    )
                }
                AuditRecord::Resubmitted { t, part, .. } => {
                    format!("  t={t:<12.1} resubmitted -> partition {part}")
                }
                AuditRecord::PlanRepaired { .. }
                | AuditRecord::NodeFailed { .. }
                | AuditRecord::NodeRepaired { .. }
                | AuditRecord::DrainStarted { .. }
                | AuditRecord::DrainEnded { .. }
                | AuditRecord::Resized { .. } => {
                    unreachable!("records without a job id are filtered by records_for")
                }
            };
            out.push_str(&line);
            out.push('\n');
        }
        if let Some(w) = self.breakdown(id) {
            out.push_str(&format!("  wait breakdown ({:.0}s total):\n", w.wait));
            for (cause, v) in WAIT_CAUSES.iter().zip(&w.components) {
                if *v > 0.0 {
                    out.push_str(&format!("    {:<16} {v:.0}s\n", cause.name()));
                }
            }
        }
        out
    }

    fn explain_run(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "audit: {} records across {} partition(s)\n",
            self.records.len(),
            self.partitions.len()
        ));
        for (kind, n) in self.kind_counts() {
            out.push_str(&format!("  {kind:<18} {n}\n"));
        }
        let table = self.attribution();
        if table.jobs > 0 {
            out.push_str(&format!(
                "wait attribution over {} started jobs ({:.0}s total wait):\n",
                table.jobs, table.total_wait
            ));
            let rows = [
                ("capacity", table.capacity),
                ("head_of_line", table.head_of_line),
                ("policy_position", table.policy_position),
                ("shadow", table.shadow),
            ];
            for (name, secs) in rows {
                let pct = if table.total_wait > 0.0 {
                    100.0 * secs / table.total_wait
                } else {
                    0.0
                };
                out.push_str(&format!("  {name:<16} {secs:>14.0}s  {pct:>5.1}%\n"));
            }
            let mut longest: Vec<&WaitBreakdown> = self.job_waits.iter().collect();
            longest.sort_by(|a, b| b.wait.total_cmp(&a.wait).then(a.job.cmp(&b.job)));
            out.push_str("longest waits:\n");
            for w in longest.iter().take(5) {
                let dominant = WAIT_CAUSES
                    .iter()
                    .zip(&w.components)
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(c, _)| c.name())
                    .unwrap_or("-");
                out.push_str(&format!(
                    "  job {:<8} waited {:>12.0}s  (mostly {dominant})\n",
                    w.job, w.wait
                ));
            }
        }
        out
    }
}

/// One waiting job's live attribution state.
#[derive(Debug, Clone)]
struct WaitState {
    submit: f64,
    marked_at: f64,
    class: WaitCause,
    components: [f64; 4],
}

/// The collecting audit [`Probe`]: an embedded [`Recorder`] (counters
/// only, no spans — the log must stay wall-clock-free) plus the record
/// stream and the per-job wait state machine.
#[derive(Debug, Clone, Default)]
pub struct AuditProbe {
    recorder: Recorder,
    records: Vec<AuditRecord>,
    partitions: Vec<PartitionMeta>,
    waiting: BTreeMap<usize, WaitState>,
    finished: BTreeMap<usize, WaitBreakdown>,
}

impl AuditProbe {
    /// A fresh audit probe.
    pub fn new() -> Self {
        Self::default()
    }

    /// The records collected so far.
    pub fn records(&self) -> &[AuditRecord] {
        &self.records
    }

    /// Consumes the probe into its [`AuditLog`].
    pub fn into_log(self) -> AuditLog {
        self.into_log_and_telemetry().0
    }

    /// Consumes the probe into its log plus the telemetry the embedded
    /// recorder accumulated along the way.
    pub fn into_log_and_telemetry(self) -> (AuditLog, Telemetry) {
        debug_assert!(
            self.waiting.is_empty(),
            "jobs still waiting at harvest: {:?}",
            self.waiting.keys().collect::<Vec<_>>()
        );
        let log = AuditLog {
            partitions: self.partitions,
            records: self.records,
            job_waits: self.finished.into_values().collect(),
        };
        (log, self.recorder.into_telemetry())
    }
}

impl Probe for AuditProbe {
    #[inline]
    fn audit_on(&self) -> bool {
        true
    }

    fn count(&mut self, c: Count) {
        self.recorder.count(c);
    }

    fn harvest(&mut self, profile: ProfileStats, router: RouterStats) {
        self.recorder.harvest(profile, router);
    }

    fn record(&mut self, rec: AuditRecord) {
        self.recorder.tally(&rec);
        // The four records that move a job through the wait state machine.
        match rec {
            AuditRecord::Submitted { t, job, .. } => {
                self.waiting.insert(
                    job,
                    WaitState {
                        // Anchored at the *enqueue* instant (== submit except
                        // for pathological unsorted traces), so the settle
                        // segments telescope to exactly `start - enqueue`.
                        submit: t,
                        marked_at: t,
                        // Placeholder until the first settle classifies the
                        // job — which happens at the submission instant, so
                        // the segment it could mislabel has zero length.
                        class: WaitCause::PolicyPosition,
                        components: [0.0; 4],
                    },
                );
            }
            AuditRecord::Dropped { job, .. } => {
                // A job displaced by a capacity shrink may have been waiting
                // in a queue when it was dropped — its wait story ends here.
                self.waiting.remove(&job);
            }
            AuditRecord::BackfillSkipped {
                job,
                reason: SkipReason::ShadowViolation,
                ..
            } => {
                // A shadow rejection is positive evidence the job is length-
                // not width-constrained: it overrides the queue-shape class
                // until the next settle reclassifies.
                if let Some(st) = self.waiting.get_mut(&job) {
                    st.class = WaitCause::Shadow;
                }
            }
            AuditRecord::Started { t, job, .. } => {
                if let Some(mut st) = self.waiting.remove(&job) {
                    st.components[st.class.index()] += t - st.marked_at;
                    self.finished.insert(
                        job,
                        WaitBreakdown {
                            job,
                            wait: (t - st.submit).max(0.0),
                            components: st.components,
                        },
                    );
                }
            }
            _ => {}
        }
        self.records.push(rec);
    }

    fn on_settle(&mut self, now: f64, parts: &[Partition]) {
        if self.partitions.is_empty() {
            self.partitions = parts
                .iter()
                .map(|p| PartitionMeta {
                    name: p.name().to_string(),
                    procs: p.procs(),
                    speed: p.speed(),
                })
                .collect();
        }
        // Close the segment since the previous settle under each job's
        // standing class, then reclassify from the settled queue shape.
        for st in self.waiting.values_mut() {
            st.components[st.class.index()] += now - st.marked_at;
            st.marked_at = now;
        }
        for part in parts {
            let free = part.free();
            for (pos, job) in part.queue().iter().enumerate() {
                if let Some(st) = self.waiting.get_mut(&job.id) {
                    st.class = if pos == 0 {
                        WaitCause::Capacity
                    } else if job.procs <= free {
                        WaitCause::HeadOfLine
                    } else {
                        WaitCause::PolicyPosition
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> AuditLog {
        AuditLog {
            partitions: vec![PartitionMeta {
                name: "p0".into(),
                procs: 8,
                speed: 1.0,
            }],
            records: vec![
                AuditRecord::Submitted {
                    t: 0.0,
                    job: 1,
                    part: 0,
                    candidates: vec![(0, 0.0)],
                },
                AuditRecord::BackfillSkipped {
                    t: 5.0,
                    part: 0,
                    job: 1,
                    reason: SkipReason::ShadowViolation,
                },
                AuditRecord::Started {
                    t: 10.0,
                    part: 0,
                    job: 1,
                    kind: StartKind::Backfill,
                    procs: 4,
                    wait: 10.0,
                },
                AuditRecord::Completed {
                    t: 30.0,
                    part: 0,
                    job: 1,
                },
            ],
            job_waits: vec![WaitBreakdown {
                job: 1,
                wait: 10.0,
                components: [5.0, 0.0, 0.0, 5.0],
            }],
        }
    }

    #[test]
    fn attribution_aggregates_components() {
        let log = sample_log();
        let table = log.attribution();
        assert_eq!(table.jobs, 1);
        assert_eq!(table.total_wait, 10.0);
        assert_eq!(table.capacity, 5.0);
        assert_eq!(table.shadow, 5.0);
        assert!((table.components_sum() - table.total_wait).abs() < 1e-9);
    }

    #[test]
    fn first_divergence_finds_the_edit() {
        let a = sample_log();
        let mut b = sample_log();
        assert_eq!(a.first_divergence(&b), None);
        b.records[2] = AuditRecord::Started {
            t: 12.0,
            part: 0,
            job: 1,
            kind: StartKind::Head,
            procs: 4,
            wait: 12.0,
        };
        assert_eq!(a.first_divergence(&b), Some(2));
        b.records.truncate(2);
        assert_eq!(a.first_divergence(&b), Some(2));
    }

    #[test]
    fn export_is_valid_json_with_all_sections() {
        let json = sample_log().to_json_pretty();
        let v: serde::Value = serde_json::from_str(&json).unwrap();
        for key in [
            "partitions",
            "records",
            "attribution",
            "job_waits",
            "timeline",
        ] {
            assert!(v.get(key).is_some(), "missing {key}");
        }
        assert!(json.contains("shadow_violation"));
        assert!(json.contains("\"start_kind\": \"backfill\""));
    }

    #[test]
    fn explain_narrates_job_and_run() {
        let log = sample_log();
        let run = log.explain(None);
        assert!(run.contains("wait attribution"), "{run}");
        assert!(run.contains("submitted"), "{run}");
        let job = log.explain(Some(1));
        assert!(job.contains("started on p0 (backfill"), "{job}");
        assert!(job.contains("wait breakdown"), "{job}");
        let missing = log.explain(Some(99));
        assert!(missing.contains("no audit records"), "{missing}");
    }

    #[test]
    fn probe_state_machine_attributes_wait() {
        // Drive the probe by hand: job 1 submits at t=0, settles once as
        // queue head (capacity), is shadow-skipped at t=4, starts at t=10.
        let mut probe = AuditProbe::new();
        probe.record(AuditRecord::Submitted {
            t: 0.0,
            job: 1,
            part: 0,
            candidates: vec![(0, 0.0)],
        });
        // No partitions to scan: classes stay as set below.
        probe.on_settle(0.0, &[]);
        probe.record(AuditRecord::BackfillSkipped {
            t: 4.0,
            part: 0,
            job: 1,
            reason: SkipReason::ShadowViolation,
        });
        probe.record(AuditRecord::Started {
            t: 10.0,
            part: 0,
            job: 1,
            kind: StartKind::Backfill,
            procs: 4,
            wait: 10.0,
        });
        let (log, _tel) = probe.into_log_and_telemetry();
        let w = log.breakdown(1).unwrap();
        assert_eq!(w.wait, 10.0);
        let sum: f64 = w.components.iter().sum();
        assert!((sum - w.wait).abs() < 1e-9, "components {:?}", w.components);
        // The shadow override governs the whole post-settle segment.
        assert_eq!(w.components[WaitCause::Shadow.index()], 10.0);
    }

    #[test]
    fn dropped_jobs_get_exactly_one_record_and_no_breakdown() {
        let mut probe = AuditProbe::new();
        probe.record(AuditRecord::Dropped {
            t: 3.0,
            job: 7,
            procs: 4096,
        });
        let (log, _tel) = probe.into_log_and_telemetry();
        assert_eq!(log.records.len(), 1);
        assert_eq!(log.records[0].kind(), "dropped");
        assert_eq!(log.records[0].job(), Some(7));
        assert!(log.breakdown(7).is_none());
    }
}
