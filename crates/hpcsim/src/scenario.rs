//! The declarative experiment API: one serializable spec per run.
//!
//! The paper's results are an experiment *grid* — tables and figures over
//! (trace × cluster shape × router × policy × backfilling × seeds) — and
//! before this module every cell of that grid was hand-rolled plumbing in
//! a bench binary. A [`ScenarioSpec`] names one cell as serde-round-trip
//! JSON **data**:
//!
//! * a [`swf::TraceSource`] (Table 2 preset, partitioned preset, raw or
//!   partitioned Lublin model, SWF archive file);
//! * a [`Platform`] — optional [`ClusterSpec`] plus a [`RouterSpec`]
//!   (homogeneous machine when absent);
//! * a base [`Policy`] and a [`SchedulerSpec`] — either a heuristic
//!   [`Backfill`] or an [`AgentSlot`] naming an RL decision-maker (the
//!   `rlbf` crate interprets that slot; this crate only carries it);
//! * an evaluation [`Protocol`] — the whole trace, or the paper's §4.3
//!   sampled-windows protocol;
//! * replication `seeds` and a [`MetricKind`] selection.
//!
//! [`run`] executes one spec into a uniform [`RunReport`] (canonical
//! label derived from the spec, aggregate [`Metrics`], optional per-job
//! schedule, the spec embedded for provenance), and [`run_replicated`]
//! fans the spec's seeds out across threads with [`desim::Replicator`].
//! Every heuristic run takes one path: the spec's platform resolves to a
//! [`ClusterSpec`] (the degenerate homogeneous one for flat specs) and the
//! `desim` kernel runs on it with the probe the spec's observability flags
//! call for. The equivalence suite (`tests/scenario_equivalence.rs`) pins
//! `scenario::run` bitwise to the low-level [`crate::run_scheduler`] /
//! [`crate::run_scheduler_on_rerouted`] entry points so the redesign
//! cannot drift.
//!
//! ```
//! use hpcsim::scenario::{self, ScenarioSpec};
//! use hpcsim::{Backfill, Policy, RuntimeEstimator};
//! use swf::{TracePreset, TraceSource};
//!
//! let spec = ScenarioSpec::builder(TraceSource::Preset {
//!     preset: TracePreset::Lublin1,
//!     jobs: 300,
//!     seed: 21,
//! })
//! .policy(Policy::Fcfs)
//! .backfill(Backfill::Easy(RuntimeEstimator::RequestTime))
//! .build();
//! let report = scenario::run(&spec).unwrap();
//! assert_eq!(report.label, "Lublin-1 · FCFS+EASY");
//! assert!(report.metrics.mean_bounded_slowdown >= 1.0);
//! // The spec round-trips through JSON, so the run is reproducible from
//! // a committed config file.
//! let json = spec.to_json_pretty();
//! assert_eq!(ScenarioSpec::from_json(&json).unwrap(), spec);
//! ```

use crate::cluster::{
    ClusterSpec, EarliestStart, LeastLoaded, ReroutePolicy, Router, StaticAffinity,
};
use crate::estimator::RuntimeEstimator;
use crate::metrics::Metrics;
use crate::observe::audit::{AuditLog, AuditProbe, WaitAttribution};
use crate::observe::{NoopProbe, Probe, Recorder, Telemetry};
use crate::policy::Policy;
use crate::runner::{run_scheduler_probed, Backfill, ScheduleResult};
use crate::state::CompletedJob;
use desim::Replicator;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use swf::{Trace, TraceSource};

/// Serializable selection of a [`Router`] implementation.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum RouterSpec {
    /// [`StaticAffinity`]: narrowest fitting partition.
    #[default]
    Affinity,
    /// [`LeastLoaded`]: lowest committed load.
    LeastLoaded,
    /// [`EarliestStart`] under the given runtime estimator.
    EarliestStart(RuntimeEstimator),
}

impl RouterSpec {
    /// The three routers at their experiment-default configurations.
    pub const ALL: [RouterSpec; 3] = [
        RouterSpec::Affinity,
        RouterSpec::LeastLoaded,
        RouterSpec::EarliestStart(RuntimeEstimator::RequestTime),
    ];

    /// Instantiates the router.
    // simlint: allow(sync-audit) — Arc shares immutable scenario inputs (workload/spec/estimator); read-only after construction
    pub fn build(&self) -> Arc<dyn Router> {
        match self {
            RouterSpec::Affinity => Arc::new(StaticAffinity), // simlint: allow(sync-audit) — Arc shares immutable scenario inputs (workload/spec/estimator); read-only after construction
            RouterSpec::LeastLoaded => Arc::new(LeastLoaded), // simlint: allow(sync-audit) — Arc shares immutable scenario inputs (workload/spec/estimator); read-only after construction
            RouterSpec::EarliestStart(est) => Arc::new(EarliestStart { estimator: *est }), // simlint: allow(sync-audit) — Arc shares immutable scenario inputs (workload/spec/estimator); read-only after construction
        }
    }

    /// The router's table label (matches [`Router::name`]).
    pub fn label(&self) -> &'static str {
        match self {
            RouterSpec::Affinity => "affinity",
            RouterSpec::LeastLoaded => "least-loaded",
            RouterSpec::EarliestStart(_) => "earliest-start",
        }
    }
}

/// The machine a scenario runs on: an optional explicit cluster shape plus
/// the router that assigns arriving jobs to partitions and the
/// [`ReroutePolicy`] governing whether that assignment is ever revisited.
///
/// `cluster: None` means "the homogeneous machine the trace targets" —
/// the degenerate shape that realizes bitwise-identical schedules to the
/// flat engine regardless of the router (and of the reroute policy, which
/// is inert with a single partition).
///
/// `reroute` is omitted when default and defaulted when absent, so spec
/// and report files written before migration landed keep parsing and keep
/// their committed bytes.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Platform {
    /// Explicit cluster shape, or `None` for the trace's flat machine.
    pub cluster: Option<ClusterSpec>,
    /// Partition router (irrelevant on a flat machine).
    pub router: RouterSpec,
    /// When the meta-scheduler revisits waiting jobs' partitions
    /// ([`ReroutePolicy::AtSubmission`], the default, never does).
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub reroute: ReroutePolicy,
}

impl Platform {
    /// The homogeneous machine the trace targets.
    pub fn flat() -> Self {
        Self::default()
    }

    /// An explicit cluster shape under the given router (at-submission
    /// routing; see [`Platform::rerouted`]).
    pub fn clustered(cluster: ClusterSpec, router: RouterSpec) -> Self {
        Self {
            cluster: Some(cluster),
            router,
            reroute: ReroutePolicy::AtSubmission,
        }
    }

    /// A platform from a workload-side partition layout.
    pub fn from_layout(layout: &[swf::PartitionLayout], router: RouterSpec) -> Self {
        Self::clustered(ClusterSpec::from_layout(layout), router)
    }

    /// This platform under a different [`ReroutePolicy`].
    pub fn rerouted(mut self, reroute: ReroutePolicy) -> Self {
        self.reroute = reroute;
        self
    }

    /// The concrete (cluster, router) pair for a given trace: the explicit
    /// shape when present, otherwise the trace's homogeneous machine.
    // simlint: allow(sync-audit) — Arc shares immutable scenario inputs (workload/spec/estimator); read-only after construction
    pub fn realize(&self, trace: &Trace) -> (ClusterSpec, Arc<dyn Router>) {
        let cluster = self
            .cluster
            .clone()
            .unwrap_or_else(|| ClusterSpec::homogeneous(trace.cluster_procs()));
        (cluster, self.router.build())
    }

    /// Short label: `"flat"`, or `"<parts>p/<router>"`, with `"+mig"`
    /// appended when decision-point migration is on.
    pub fn label(&self) -> String {
        match &self.cluster {
            None => "flat".into(),
            Some(c) => {
                let mut label = format!("{}p/{}", c.len(), self.router.label());
                if matches!(self.reroute, ReroutePolicy::AtDecisionPoints { .. }) {
                    label.push_str("+mig");
                }
                label
            }
        }
    }
}

/// The simulation engine a spec names. Every scenario runs on the `desim`
/// event kernel; the field stays in the spec so committed spec and report
/// files keep their `"engine": "Kernel"` bytes. The preserved seed engines
/// are differential oracles in [`crate::reference`], not scenario inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Engine {
    /// The production `desim` event-kernel engine.
    #[default]
    Kernel,
}

/// The decision-maker slot of a scenario: either a heuristic backfilling
/// strategy this crate executes directly, or an external agent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SchedulerSpec {
    /// A heuristic [`Backfill`] strategy.
    Heuristic(Backfill),
    /// An external (learned) decision-maker. `hpcsim` cannot execute this
    /// variant — [`run`] returns [`ScenarioError::NeedsAgent`]; the `rlbf`
    /// crate's scenario bridge interprets the slot.
    Agent(AgentSlot),
}

impl SchedulerSpec {
    /// The scheduler's table label (`"EASY"`, `"CONS(req)"`, `"RLBF"`, …).
    pub fn label(&self) -> String {
        match self {
            SchedulerSpec::Heuristic(b) => b.label(),
            SchedulerSpec::Agent(_) => "RLBF".into(),
        }
    }
}

/// Names an external RL decision-maker plus its experiment configuration.
///
/// The `env` / `train` fields carry the owning crate's config structs
/// (`rlbf::EnvConfig` / `rlbf::TrainConfig`) as opaque JSON values, so one
/// committed spec file holds the *entire* experiment — workload, machine,
/// scheduler and RL hyper-parameters — without `hpcsim` depending on the
/// RL crate.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AgentSlot {
    /// Path to a trained agent checkpoint (`rlbf::RlbfAgent` JSON), when
    /// the scenario deploys an existing agent.
    pub checkpoint: Option<String>,
    /// Environment configuration (`rlbf::EnvConfig`), verbatim.
    pub env: Option<serde_json::Value>,
    /// Training configuration (`rlbf::TrainConfig`), verbatim, for
    /// scenarios that train before evaluating.
    pub train: Option<serde_json::Value>,
}

/// How the trace is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum Protocol {
    /// Schedule the whole materialized trace once.
    #[default]
    FullTrace,
    /// The paper's §4.3 protocol: sample `samples` random windows of
    /// `window_len` jobs (seeded, so competing schedulers see identical
    /// sequences), schedule each, report field-wise mean metrics.
    Windows {
        /// Number of sampled windows (paper: 10).
        samples: usize,
        /// Jobs per window (paper: 1024).
        window_len: usize,
        /// Window-sampling seed.
        seed: u64,
    },
}

/// A selectable scalar metric of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricKind {
    /// Average bounded slowdown (the paper's headline metric).
    BoundedSlowdown,
    /// Average plain slowdown.
    Slowdown,
    /// Average queue wait, seconds.
    Wait,
    /// Maximum queue wait, seconds.
    MaxWait,
    /// Average turnaround, seconds.
    Turnaround,
    /// Machine utilization over the makespan.
    Utilization,
    /// Makespan, seconds.
    Makespan,
}

impl MetricKind {
    /// Every selectable metric.
    pub const ALL: [MetricKind; 7] = [
        MetricKind::BoundedSlowdown,
        MetricKind::Slowdown,
        MetricKind::Wait,
        MetricKind::MaxWait,
        MetricKind::Turnaround,
        MetricKind::Utilization,
        MetricKind::Makespan,
    ];

    /// Column name in reports.
    pub fn name(&self) -> &'static str {
        match self {
            MetricKind::BoundedSlowdown => "bsld",
            MetricKind::Slowdown => "slowdown",
            MetricKind::Wait => "wait",
            MetricKind::MaxWait => "max_wait",
            MetricKind::Turnaround => "turnaround",
            MetricKind::Utilization => "utilization",
            MetricKind::Makespan => "makespan",
        }
    }

    /// Extracts the metric from aggregate [`Metrics`].
    pub fn of(&self, m: &Metrics) -> f64 {
        match self {
            MetricKind::BoundedSlowdown => m.mean_bounded_slowdown,
            MetricKind::Slowdown => m.mean_slowdown,
            MetricKind::Wait => m.mean_wait,
            MetricKind::MaxWait => m.max_wait,
            MetricKind::Turnaround => m.mean_turnaround,
            MetricKind::Utilization => m.utilization,
            MetricKind::Makespan => m.makespan,
        }
    }
}

/// One cell of the experiment grid, as serializable data.
///
/// `telemetry`, `audit` and `events` are omitted when off and defaulted
/// when absent, so spec files written before those layers existed keep
/// parsing and keep their committed bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Optional label override; [`Self::label`] derives one when absent.
    pub name: Option<String>,
    /// Where the workload comes from.
    pub trace: TraceSource,
    /// The machine it runs on.
    pub platform: Platform,
    /// The base scheduling policy.
    pub policy: Policy,
    /// The backfilling decision-maker.
    pub scheduler: SchedulerSpec,
    /// The simulation engine (always the kernel).
    pub engine: Engine,
    /// Whole-trace or sampled-windows evaluation.
    pub protocol: Protocol,
    /// Replication seeds for [`run_replicated`] (empty = single-shot).
    pub seeds: Vec<u64>,
    /// Metrics surfaced in [`RunReport::selected`] (empty = bsld only).
    pub metrics: Vec<MetricKind>,
    /// Whether the report carries the full per-job schedule
    /// (whole-trace heuristic runs only).
    pub record_schedule: bool,
    /// Whether the run collects deterministic telemetry counters (see
    /// [`crate::observe`]) into [`RunReport::telemetry`]. The schedule
    /// itself is bitwise unaffected.
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub telemetry: bool,
    /// Whether the run collects the decision-forensics audit log (see
    /// [`crate::observe::audit`]) and attaches its aggregate wait-cause
    /// attribution to [`RunReport::attribution`]. The schedule itself is
    /// bitwise unaffected.
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub audit: bool,
    /// Dynamic-machine platform events (node failures/repairs, drains,
    /// resizes) applied during the run — see [`crate::platform`]. The
    /// empty default is inert: nothing is scheduled and the run is bitwise
    /// identical to a spec without the field.
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub events: crate::platform::PlatformEventSpec,
}

impl ScenarioSpec {
    /// Starts a builder over the given trace source with experiment
    /// defaults: flat platform, FCFS, EASY(request time), whole-trace
    /// protocol.
    pub fn builder(trace: TraceSource) -> ScenarioBuilder {
        ScenarioBuilder {
            spec: ScenarioSpec {
                name: None,
                trace,
                platform: Platform::flat(),
                policy: Policy::Fcfs,
                scheduler: SchedulerSpec::Heuristic(Backfill::Easy(RuntimeEstimator::RequestTime)),
                engine: Engine::Kernel,
                protocol: Protocol::FullTrace,
                seeds: Vec::new(),
                metrics: Vec::new(),
                record_schedule: false,
                telemetry: false,
                audit: false,
                events: crate::platform::PlatformEventSpec::default(),
            },
        }
    }

    /// The canonical row label derived from the spec:
    /// `trace · policy+scheduler[ · platform][ · protocol]`, or the
    /// explicit `name` override. Every [`RunReport`] carries this, so
    /// experiment binaries never format their own row names.
    pub fn label(&self) -> String {
        if let Some(name) = &self.name {
            return name.clone();
        }
        let mut label = format!(
            "{} · {}+{}",
            self.trace.label(),
            self.policy.name(),
            self.scheduler.label()
        );
        if self.platform.cluster.is_some() {
            label.push_str(&format!(" · {}", self.platform.label()));
        }
        if let Protocol::Windows {
            samples,
            window_len,
            ..
        } = self.protocol
        {
            label.push_str(&format!(" · {samples}x{window_len}w"));
        }
        label
    }

    /// The metric selection, defaulting to bounded slowdown.
    pub fn selected_metrics(&self) -> Vec<MetricKind> {
        if self.metrics.is_empty() {
            vec![MetricKind::BoundedSlowdown]
        } else {
            self.metrics.clone()
        }
    }

    /// Pretty JSON for committing under `examples/scenarios/`.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serializes")
    }

    /// Parses a spec from JSON. A `Windows` protocol with no windows
    /// (`samples` or `window_len` of 0) is an error: it has no jobs to
    /// average, so it would report an impossible bsld.
    pub fn from_json(json: &str) -> Result<Self, ScenarioError> {
        let spec: Self =
            serde_json::from_str(json).map_err(|e| ScenarioError::Spec(e.to_string()))?;
        let empty =
            |field| ScenarioError::Spec(format!("Windows protocol `{field}` must be at least 1"));
        match spec.protocol {
            Protocol::Windows { samples: 0, .. } => Err(empty("samples")),
            Protocol::Windows { window_len: 0, .. } => Err(empty("window_len")),
            _ => Ok(spec),
        }
    }

    /// Loads a spec from a JSON file. Both failure modes — an unreadable
    /// file and a malformed spec — name the offending path (and, for
    /// parse failures, the offending field) so `scenario run` can report
    /// them instead of panicking.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, ScenarioError> {
        let path = path.as_ref();
        let json = std::fs::read_to_string(path)
            .map_err(|e| ScenarioError::Spec(format!("cannot read {}: {e}", path.display())))?;
        Self::from_json(&json).map_err(|e| match e {
            ScenarioError::Spec(msg) => {
                ScenarioError::Spec(format!("cannot parse {}: {msg}", path.display()))
            }
            other => other,
        })
    }

    /// Writes the spec as pretty JSON.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json_pretty())
    }
}

/// Fluent construction of a [`ScenarioSpec`].
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    spec: ScenarioSpec,
}

impl ScenarioBuilder {
    /// Overrides the derived label.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.spec.name = Some(name.into());
        self
    }

    /// Sets the machine.
    pub fn platform(mut self, platform: Platform) -> Self {
        self.spec.platform = platform;
        self
    }

    /// Shorthand: explicit cluster + router.
    pub fn cluster(self, cluster: ClusterSpec, router: RouterSpec) -> Self {
        self.platform(Platform::clustered(cluster, router))
    }

    /// Sets the platform's [`ReroutePolicy`] (decision-point migration).
    pub fn reroute(mut self, reroute: ReroutePolicy) -> Self {
        self.spec.platform.reroute = reroute;
        self
    }

    /// Sets the base policy.
    pub fn policy(mut self, policy: Policy) -> Self {
        self.spec.policy = policy;
        self
    }

    /// Uses a heuristic backfilling strategy.
    pub fn backfill(mut self, backfill: Backfill) -> Self {
        self.spec.scheduler = SchedulerSpec::Heuristic(backfill);
        self
    }

    /// Uses an external agent slot.
    pub fn agent(mut self, slot: AgentSlot) -> Self {
        self.spec.scheduler = SchedulerSpec::Agent(slot);
        self
    }

    /// Uses the sampled-windows evaluation protocol.
    pub fn windows(mut self, samples: usize, window_len: usize, seed: u64) -> Self {
        self.spec.protocol = Protocol::Windows {
            samples,
            window_len,
            seed,
        };
        self
    }

    /// Sets the replication seeds.
    pub fn seeds(mut self, seeds: Vec<u64>) -> Self {
        self.spec.seeds = seeds;
        self
    }

    /// Selects the reported metrics.
    pub fn metrics(mut self, metrics: Vec<MetricKind>) -> Self {
        self.spec.metrics = metrics;
        self
    }

    /// Records the full per-job schedule in the report.
    pub fn record_schedule(mut self, record: bool) -> Self {
        self.spec.record_schedule = record;
        self
    }

    /// Collects deterministic telemetry counters into the report.
    pub fn telemetry(mut self, telemetry: bool) -> Self {
        self.spec.telemetry = telemetry;
        self
    }

    /// Collects the decision-forensics audit log and attaches its
    /// aggregate wait-cause attribution to the report.
    pub fn audit(mut self, audit: bool) -> Self {
        self.spec.audit = audit;
        self
    }

    /// Applies a dynamic-machine platform-event stream to the run (node
    /// failures/repairs, drains, resizes).
    pub fn events(mut self, events: crate::platform::PlatformEventSpec) -> Self {
        self.spec.events = events;
        self
    }

    /// Finishes the spec.
    pub fn build(self) -> ScenarioSpec {
        self.spec
    }
}

/// One selected metric value in a report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectedMetric {
    /// [`MetricKind::name`] of the metric.
    pub metric: String,
    /// Its value.
    pub value: f64,
}

/// The uniform outcome of executing one scenario.
///
/// `dropped_jobs` is omitted when 0 and the optional sections when
/// `None` (each defaulted when absent), so reports written before those
/// fields existed keep parsing and keep their committed bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Canonical label derived from the spec ([`ScenarioSpec::label`]).
    pub label: String,
    /// The replication seed, when run through [`run_replicated`] /
    /// [`run_seeded`]; `None` for a single-shot [`run`].
    pub seed: Option<u64>,
    /// Jobs scheduled (summed across windows under
    /// [`Protocol::Windows`]).
    pub jobs: usize,
    /// Trace jobs that fit no partition of the platform and were never
    /// scheduled: `metrics` describes `jobs` completions, **not** the
    /// whole trace, whenever this is nonzero (summed across windows under
    /// [`Protocol::Windows`]; always 0 on flat platforms).
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub dropped_jobs: usize,
    /// Aggregate metrics (field-wise mean across windows).
    pub metrics: Metrics,
    /// The spec's selected metrics, extracted for table rendering.
    pub selected: Vec<SelectedMetric>,
    /// The realized per-job schedule, when the spec asked for it.
    pub schedule: Option<Vec<CompletedJob>>,
    /// The spec that produced this report, embedded for provenance: the
    /// report file alone regenerates the run.
    pub spec: ScenarioSpec,
    /// Deterministic run telemetry (counters + histograms), present only
    /// when the spec asked for it ([`ScenarioSpec::telemetry`]).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub telemetry: Option<Telemetry>,
    /// Aggregate wait-cause attribution from the decision-forensics audit
    /// log, present only when the spec asked for it
    /// ([`ScenarioSpec::audit`]). Summed across windows under
    /// [`Protocol::Windows`].
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub attribution: Option<WaitAttribution>,
    /// Robustness accounting, present only when the spec carries platform
    /// events ([`ScenarioSpec::events`]). Summed across windows under
    /// [`Protocol::Windows`].
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub robustness: Option<RobustnessReport>,
}

/// Robustness accounting for a run perturbed by platform events: what the
/// failures/drains/resizes cost the schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobustnessReport {
    /// Running jobs killed by capacity loss.
    pub kills: usize,
    /// Jobs re-entered into a queue after a kill or displacement.
    pub resubmits: usize,
    /// Reference node-seconds of work discarded by kills (checkpoint
    /// overhead under [`crate::platform::FailurePolicy::CheckpointRestart`]).
    pub wasted_node_seconds: f64,
    /// Mean bounded slowdown of this run minus the same spec run with the
    /// event stream stripped — how much the perturbation degraded the
    /// schedule. Mean of per-window deltas under [`Protocol::Windows`].
    /// Omitted when `None`, so no report carries a null placeholder.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub bsld_degradation: Option<f64>,
}

impl RunReport {
    /// Pretty JSON (the committed-results format).
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Parses a report from JSON.
    pub fn from_json(json: &str) -> Result<Self, ScenarioError> {
        serde_json::from_str(json).map_err(|e| ScenarioError::Spec(e.to_string()))
    }

    /// The value of a selected metric by name.
    pub fn value(&self, metric: MetricKind) -> Option<f64> {
        self.selected
            .iter()
            .find(|s| s.metric == metric.name())
            .map(|s| s.value)
    }
}

/// Why a scenario could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The trace source failed to materialize.
    Trace(String),
    /// The spec (or a report) failed to parse.
    Spec(String),
    /// The spec names an external agent; execute it through the crate
    /// that owns the decision logic (`rlbf::scenario::run_spec`).
    NeedsAgent,
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Trace(e) => write!(f, "trace source: {e}"),
            ScenarioError::Spec(e) => write!(f, "scenario spec: {e}"),
            ScenarioError::NeedsAgent => write!(
                f,
                "spec schedules with an external agent; run it through the RL crate's \
                 scenario bridge (rlbf::scenario::run_spec)"
            ),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// The §4.3 evaluation windows for a seed: `samples` random windows of
/// `window_len` jobs, re-based to time 0. This is the **canonical** window
/// stream — `rlbf::sample_windows` delegates here, so heuristics, agents
/// and scenario runs all see identical sequences for the same seed.
pub fn sample_windows(trace: &Trace, samples: usize, window_len: usize, seed: u64) -> Vec<Trace> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..samples)
        .map(|_| trace.sample_window(window_len, &mut rng))
        .collect()
}

/// Field-wise mean of per-window metrics (jobs are summed) — the paper
/// reports the mean of per-window bsld values, not a pooled bsld.
pub fn mean_metrics(per: &[Metrics]) -> Metrics {
    if per.is_empty() {
        return Metrics::of(&[], 1);
    }
    let n = per.len() as f64;
    Metrics {
        jobs: per.iter().map(|m| m.jobs).sum(),
        mean_bounded_slowdown: per.iter().map(|m| m.mean_bounded_slowdown).sum::<f64>() / n,
        mean_slowdown: per.iter().map(|m| m.mean_slowdown).sum::<f64>() / n,
        mean_wait: per.iter().map(|m| m.mean_wait).sum::<f64>() / n,
        max_wait: per.iter().map(|m| m.max_wait).fold(0.0, f64::max),
        mean_turnaround: per.iter().map(|m| m.mean_turnaround).sum::<f64>() / n,
        utilization: per.iter().map(|m| m.utilization).sum::<f64>() / n,
        makespan: per.iter().map(|m| m.makespan).sum::<f64>() / n,
    }
}

/// Assembles the uniform report for a spec run. `dropped_jobs` counts the
/// trace jobs the platform could not route (0 on flat platforms). Public
/// so external executors of the [`SchedulerSpec::Agent`] slot (the RL
/// crate) produce byte-compatible reports.
pub fn make_report(
    spec: &ScenarioSpec,
    seed: Option<u64>,
    metrics: Metrics,
    dropped_jobs: usize,
    schedule: Option<Vec<CompletedJob>>,
) -> RunReport {
    let selected = spec
        .selected_metrics()
        .iter()
        .map(|k| SelectedMetric {
            metric: k.name().into(),
            value: k.of(&metrics),
        })
        .collect();
    RunReport {
        label: spec.label(),
        seed,
        jobs: metrics.jobs,
        dropped_jobs,
        metrics,
        selected,
        schedule,
        spec: spec.clone(),
        telemetry: None,
        attribution: None,
        robustness: None,
    }
}

/// Materializes a spec's trace and protocol under an optional replication
/// seed. The seed re-seeds the *stochastic element of the protocol*: the
/// window sampling under [`Protocol::Windows`], the trace generator under
/// [`Protocol::FullTrace`]. Public so the RL scenario bridge shares the
/// exact semantics.
pub fn materialize(
    spec: &ScenarioSpec,
    seed: Option<u64>,
) -> Result<(Trace, Protocol), ScenarioError> {
    let mut protocol = spec.protocol;
    let source = match (seed, &mut protocol) {
        (Some(s), Protocol::Windows { seed, .. }) => {
            *seed = s;
            spec.trace.clone()
        }
        (Some(s), Protocol::FullTrace) => {
            if spec.trace.seed().is_none() {
                // Without this, N "replications" of a seedless source
                // (an SWF file) would be N bit-identical runs dressed up
                // as independent samples.
                return Err(ScenarioError::Trace(format!(
                    "trace source {:?} cannot be re-seeded for full-trace replication; \
                     use the Windows protocol or a generator-backed source",
                    spec.trace.label()
                )));
            }
            spec.trace.clone().with_seed(s)
        }
        (None, _) => spec.trace.clone(),
    };
    let trace = source.materialize().map_err(ScenarioError::Trace)?;
    Ok((trace, protocol))
}

/// Executes one already-materialized trace (or window) on the spec's
/// platform — the kernel step alone, with no trace generation, window
/// sampling or report assembly. Public for callers that time the kernel
/// over a shared trace (the `speed_probe` binary).
pub fn execute(trace: &Trace, spec: &ScenarioSpec) -> Result<ScheduleResult, ScenarioError> {
    run_once(trace, spec, heuristic(spec)?, NoopProbe).map(|(r, _)| r)
}

/// [`execute`] with a [`Recorder`] probe threaded through the run: same
/// schedule bitwise, plus the collected telemetry. This is what
/// `speed_probe --telemetry` times, so the probe's overhead is measured
/// on exactly the path `execute` takes.
pub fn execute_recorded(
    trace: &Trace,
    spec: &ScenarioSpec,
    recorder: Recorder,
) -> Result<(ScheduleResult, Recorder), ScenarioError> {
    run_once(trace, spec, heuristic(spec)?, recorder)
}

/// The spec's heuristic backfilling strategy ([`ScenarioError::NeedsAgent`]
/// for agent slots, which the RL crate executes).
fn heuristic(spec: &ScenarioSpec) -> Result<Backfill, ScenarioError> {
    match &spec.scheduler {
        SchedulerSpec::Heuristic(b) => Ok(*b),
        SchedulerSpec::Agent(_) => Err(ScenarioError::NeedsAgent),
    }
}

/// Executes one trace (or window) on the kernel with `probe` threaded
/// through — the one run path every heuristic scenario takes. The
/// platform resolves to the spec's explicit cluster, router and reroute
/// policy, or for flat specs to the degenerate homogeneous cluster under
/// at-submission affinity routing (bitwise the flat machine, pinned by the
/// equivalence suite). The spec's platform events are installed first; an
/// empty event spec installs nothing.
fn run_once<P: Probe>(
    trace: &Trace,
    spec: &ScenarioSpec,
    backfill: Backfill,
    probe: P,
) -> Result<(ScheduleResult, P), ScenarioError> {
    let homogeneous;
    let (cluster, router, reroute) = match &spec.platform.cluster {
        Some(cluster) => (cluster, spec.platform.router.build(), spec.platform.reroute),
        None => {
            homogeneous = ClusterSpec::homogeneous(trace.cluster_procs());
            (
                &homogeneous,
                RouterSpec::Affinity.build(),
                ReroutePolicy::AtSubmission,
            )
        }
    };
    run_scheduler_probed(
        trace,
        spec.policy,
        backfill,
        cluster,
        router,
        reroute,
        &spec.events,
        probe,
    )
    .map_err(|e| ScenarioError::Spec(format!("platform events: {e}")))
}

/// What one run of a trace (or window) under the spec's observability
/// flags yields: the schedule, the telemetry and wait-cause attribution
/// the spec asked for, and — when the spec carries platform events — the
/// bsld degradation against the same run with the events stripped.
struct Observed {
    r: ScheduleResult,
    telemetry: Option<Telemetry>,
    attribution: Option<WaitAttribution>,
    degradation: Option<f64>,
}

/// Runs `trace` once under the spec's flags. The probe type is chosen
/// here so the plain path stays on the zero-cost [`NoopProbe`]; the audit
/// probe embeds a telemetry recorder, so one audited run serves both
/// report fields.
fn run_observed(
    trace: &Trace,
    spec: &ScenarioSpec,
    backfill: Backfill,
) -> Result<Observed, ScenarioError> {
    let (r, telemetry, attribution) = if spec.audit {
        let (r, probe) = run_once(trace, spec, backfill, AuditProbe::new())?;
        let (log, tel) = probe.into_log_and_telemetry();
        (r, spec.telemetry.then_some(tel), Some(log.attribution()))
    } else if spec.telemetry {
        let (r, rec) = run_once(trace, spec, backfill, Recorder::default())?;
        (r, Some(rec.into_telemetry()), None)
    } else {
        (run_once(trace, spec, backfill, NoopProbe)?.0, None, None)
    };
    let degradation = bsld_degradation(trace, spec, backfill, &r)?;
    Ok(Observed {
        r,
        telemetry,
        attribution,
        degradation,
    })
}

/// How much the spec's platform events raised mean bsld on `trace`: `r`
/// minus one extra unperturbed run of the same spec. `None` when the spec
/// carries no events.
fn bsld_degradation(
    trace: &Trace,
    spec: &ScenarioSpec,
    backfill: Backfill,
    r: &ScheduleResult,
) -> Result<Option<f64>, ScenarioError> {
    if spec.events.is_empty() {
        return Ok(None);
    }
    let mut base_spec = spec.clone();
    base_spec.events = crate::platform::PlatformEventSpec::default();
    let (base, _) = run_once(trace, &base_spec, backfill, NoopProbe)?;
    Ok(Some(
        r.metrics.mean_bounded_slowdown - base.metrics.mean_bounded_slowdown,
    ))
}

/// The report of one whole-trace run: the schedule when asked for, and
/// the robustness section when the spec carries platform events.
fn full_trace_report(
    spec: &ScenarioSpec,
    seed: Option<u64>,
    r: ScheduleResult,
    degradation: Option<f64>,
) -> RunReport {
    let robustness = degradation.map(|d| RobustnessReport {
        kills: r.kills,
        resubmits: r.resubmits,
        wasted_node_seconds: r.wasted_node_seconds,
        bsld_degradation: Some(d),
    });
    let schedule = spec.record_schedule.then_some(r.completed);
    let mut report = make_report(spec, seed, r.metrics, r.dropped_jobs, schedule);
    report.robustness = robustness;
    report
}

fn run_with_seed(spec: &ScenarioSpec, seed: Option<u64>) -> Result<RunReport, ScenarioError> {
    let (trace, protocol) = materialize(spec, seed)?;
    run_protocol(spec, &trace, protocol, seed)
}

/// Runs the (already re-seeded) protocol over a materialized trace.
fn run_protocol(
    spec: &ScenarioSpec,
    trace: &Trace,
    protocol: Protocol,
    seed: Option<u64>,
) -> Result<RunReport, ScenarioError> {
    let backfill = heuristic(spec)?;
    match protocol {
        Protocol::FullTrace => {
            let o = run_observed(trace, spec, backfill)?;
            let mut report = full_trace_report(spec, seed, o.r, o.degradation);
            report.telemetry = o.telemetry;
            report.attribution = o.attribution;
            Ok(report)
        }
        Protocol::Windows {
            samples,
            window_len,
            seed: wseed,
        } => {
            let windows = sample_windows(trace, samples, window_len, wseed);
            let mut telemetry = spec.telemetry.then(Telemetry::default);
            let mut attribution = spec.audit.then(WaitAttribution::default);
            let mut robustness = (!spec.events.is_empty()).then_some(RobustnessReport {
                kills: 0,
                resubmits: 0,
                wasted_node_seconds: 0.0,
                bsld_degradation: None,
            });
            let mut degradation = 0.0;
            let per = windows
                .iter()
                .map(|w| {
                    let o = run_observed(w, spec, backfill)?;
                    if let (Some(total), Some(t)) = (&mut telemetry, &o.telemetry) {
                        total.merge(t);
                    }
                    if let (Some(total), Some(a)) = (&mut attribution, &o.attribution) {
                        total.merge(a);
                    }
                    if let Some(rob) = &mut robustness {
                        rob.kills += o.r.kills;
                        rob.resubmits += o.r.resubmits;
                        rob.wasted_node_seconds += o.r.wasted_node_seconds;
                    }
                    degradation += o.degradation.unwrap_or(0.0);
                    Ok((o.r.metrics, o.r.dropped_jobs))
                })
                .collect::<Result<Vec<_>, ScenarioError>>()?;
            if let Some(rob) = &mut robustness {
                rob.bsld_degradation = Some(degradation / (windows.len().max(1)) as f64);
            }
            let dropped = per.iter().map(|(_, d)| d).sum();
            let metrics: Vec<Metrics> = per.into_iter().map(|(m, _)| m).collect();
            let mut report = make_report(spec, seed, mean_metrics(&metrics), dropped, None);
            report.telemetry = telemetry;
            report.attribution = attribution;
            report.robustness = robustness;
            Ok(report)
        }
    }
}

/// Executes one spec single-shot (heuristic schedulers; agent specs go
/// through the RL crate's bridge).
pub fn run(spec: &ScenarioSpec) -> Result<RunReport, ScenarioError> {
    run_with_seed(spec, None)
}

/// [`run`] under an explicit replication seed (see [`materialize`] for
/// what the seed re-seeds).
pub fn run_seeded(spec: &ScenarioSpec, seed: u64) -> Result<RunReport, ScenarioError> {
    run_with_seed(spec, Some(seed))
}

/// Executes one spec with a span-tracing [`Recorder`] and returns both
/// the report (telemetry attached regardless of the spec's `telemetry`
/// flag) and the recorder, whose wall-clock spans export as Chrome-trace
/// JSON ([`Recorder::chrome_trace_json`]) — the `scenario trace`
/// subcommand. Whole-trace protocol only: span streams from
/// independently-clocked window runs would not compose into one coherent
/// timeline.
pub fn run_recorded(spec: &ScenarioSpec) -> Result<(RunReport, Recorder), ScenarioError> {
    let (mut report, rec) = run_full_trace(spec, Recorder::with_spans(), "span tracing")?;
    report.telemetry = Some(rec.telemetry().clone());
    Ok((report, rec))
}

/// Executes one spec with an [`AuditProbe`] and returns both the report
/// (attribution attached regardless of the spec's `audit` flag) and the
/// full decision-forensics [`AuditLog`] — the `scenario explain` /
/// `scenario audit` subcommands. Whole-trace protocol only: record
/// streams from independently-clocked window runs would not compose into
/// one coherent log.
pub fn run_audited(spec: &ScenarioSpec) -> Result<(RunReport, AuditLog), ScenarioError> {
    let (mut report, probe) = run_full_trace(spec, AuditProbe::new(), "audit export")?;
    let (log, telemetry) = probe.into_log_and_telemetry();
    report.telemetry = spec.telemetry.then_some(telemetry);
    report.attribution = Some(log.attribution());
    Ok((report, log))
}

/// The shared body of [`run_recorded`] and [`run_audited`]: one probed
/// whole-trace run of an unseeded spec, reported without the probe's
/// output. `export` names the caller in the windows-protocol error.
fn run_full_trace<P: Probe>(
    spec: &ScenarioSpec,
    probe: P,
    export: &str,
) -> Result<(RunReport, P), ScenarioError> {
    let (trace, protocol) = materialize(spec, None)?;
    if protocol != Protocol::FullTrace {
        return Err(ScenarioError::Spec(format!(
            "{export} requires the whole-trace protocol (Windows runs have \
             independently-clocked samples)"
        )));
    }
    let backfill = heuristic(spec)?;
    let (r, probe) = run_once(&trace, spec, backfill, probe)?;
    let degradation = bsld_degradation(&trace, spec, backfill, &r)?;
    Ok((full_trace_report(spec, None, r, degradation), probe))
}

/// Fans the spec's `seeds` out across threads with [`desim::Replicator`]
/// and returns one report per seed, in seed order. An empty seed list
/// degenerates to a single [`run`]. Deterministic and
/// thread-count-independent.
pub fn run_replicated(spec: &ScenarioSpec) -> Result<Vec<RunReport>, ScenarioError> {
    run_replicated_threads(spec, 0)
}

/// [`run_replicated`] with a worker-thread cap (`0` = all cores, `1` =
/// sequential; used by benchmarks to time the fan-out win).
pub fn run_replicated_threads(
    spec: &ScenarioSpec,
    threads: usize,
) -> Result<Vec<RunReport>, ScenarioError> {
    if spec.seeds.is_empty() {
        return Ok(vec![run(spec)?]);
    }
    let mut replicator = Replicator::new(spec.seeds[0]);
    if threads > 0 {
        replicator = replicator.threads(threads);
    }
    if let Protocol::Windows {
        samples,
        window_len,
        ..
    } = spec.protocol
    {
        // Under the windows protocol the replication seed only re-seeds
        // the window sampler — materialize the (invariant) trace once
        // and share it across all replications.
        let (trace, _) = materialize(spec, None)?;
        return replicator
            .run(spec.seeds.len(), |i, _| {
                let protocol = Protocol::Windows {
                    samples,
                    window_len,
                    seed: spec.seeds[i],
                };
                run_protocol(spec, &trace, protocol, Some(spec.seeds[i]))
            })
            .into_iter()
            .collect();
    }
    replicator
        .run(spec.seeds.len(), |i, _| run_seeded(spec, spec.seeds[i]))
        .into_iter()
        .collect()
}

/// A deterministic replication seed stream for spec authors:
/// `n` SplitMix64-decorrelated seeds derived from `master` (the same
/// stream [`desim::Replicator`] hands its bodies).
pub fn replication_seeds(master: u64, n: usize) -> Vec<u64> {
    (0..n)
        .map(|i| desim::replication_seed(master, i as u64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformEvent;
    use crate::runner::run_scheduler;
    use swf::TracePreset;

    fn lublin_spec(jobs: usize) -> ScenarioBuilder {
        ScenarioSpec::builder(TraceSource::Preset {
            preset: TracePreset::Lublin1,
            jobs,
            seed: 21,
        })
    }

    #[test]
    fn run_matches_run_scheduler_bitwise() {
        let spec = lublin_spec(300).build();
        let report = run(&spec).unwrap();
        let trace = TracePreset::Lublin1.generate(300, 21);
        let direct = run_scheduler(
            &trace,
            Policy::Fcfs,
            Backfill::Easy(RuntimeEstimator::RequestTime),
        );
        assert_eq!(report.metrics, direct.metrics);
        assert_eq!(report.jobs, direct.completed.len());
    }

    #[test]
    fn labels_are_canonical() {
        let spec = lublin_spec(100).build();
        assert_eq!(spec.label(), "Lublin-1 · FCFS+EASY");
        let clustered = lublin_spec(100)
            .policy(Policy::Sjf)
            .backfill(Backfill::Conservative(RuntimeEstimator::RequestTime))
            .cluster(ClusterSpec::homogeneous(256), RouterSpec::LeastLoaded)
            .build();
        assert_eq!(
            clustered.label(),
            "Lublin-1 · SJF+CONS(request) · 1p/least-loaded"
        );
        let windows = lublin_spec(100).windows(10, 64, 3).build();
        assert_eq!(windows.label(), "Lublin-1 · FCFS+EASY · 10x64w");
        let named = lublin_spec(100).name("row 7").build();
        assert_eq!(named.label(), "row 7");
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = lublin_spec(50)
            .cluster(ClusterSpec::homogeneous(64), RouterSpec::ALL[2])
            .windows(4, 32, 9)
            .seeds(vec![1, 2, 3])
            .metrics(vec![MetricKind::BoundedSlowdown, MetricKind::Utilization])
            .record_schedule(true)
            .build();
        let json = spec.to_json_pretty();
        assert_eq!(ScenarioSpec::from_json(&json).unwrap(), spec);
    }

    #[test]
    fn report_embeds_spec_and_selected_metrics() {
        let spec = lublin_spec(200)
            .metrics(vec![MetricKind::BoundedSlowdown, MetricKind::Wait])
            .record_schedule(true)
            .build();
        let report = run(&spec).unwrap();
        assert_eq!(report.spec, spec);
        assert_eq!(report.selected.len(), 2);
        assert_eq!(
            report.value(MetricKind::BoundedSlowdown),
            Some(report.metrics.mean_bounded_slowdown)
        );
        assert_eq!(report.value(MetricKind::Makespan), None);
        let sched = report.schedule.as_ref().expect("schedule recorded");
        assert_eq!(sched.len(), report.jobs);
        let back = RunReport::from_json(&report.to_json_pretty()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn windows_protocol_averages_per_window_metrics() {
        let spec = lublin_spec(400).windows(3, 64, 11).build();
        let report = run(&spec).unwrap();
        let trace = TracePreset::Lublin1.generate(400, 21);
        let windows = sample_windows(&trace, 3, 64, 11);
        let per: Vec<Metrics> = windows
            .iter()
            .map(|w| {
                run_scheduler(
                    w,
                    Policy::Fcfs,
                    Backfill::Easy(RuntimeEstimator::RequestTime),
                )
                .metrics
            })
            .collect();
        assert_eq!(report.metrics, mean_metrics(&per));
        assert_eq!(report.jobs, per.iter().map(|m| m.jobs).sum::<usize>());
    }

    #[test]
    fn seeded_full_trace_reseeds_the_generator() {
        let spec = lublin_spec(200).build();
        let a = run_seeded(&spec, 5).unwrap();
        let b = run_seeded(&spec, 6).unwrap();
        assert_ne!(
            a.metrics.mean_bounded_slowdown,
            b.metrics.mean_bounded_slowdown
        );
        assert_eq!(a.seed, Some(5));
        // The label stays canonical; the seed lives in its own field.
        assert_eq!(a.label, b.label);
    }

    #[test]
    fn seeded_windows_reseed_the_sampler_not_the_trace() {
        let spec = lublin_spec(400).windows(2, 64, 1).build();
        let a = run_seeded(&spec, 5).unwrap();
        let direct = run(&lublin_spec(400).windows(2, 64, 5).build()).unwrap();
        assert_eq!(a.metrics, direct.metrics);
    }

    #[test]
    fn replication_is_thread_count_independent() {
        let spec = lublin_spec(300)
            .windows(2, 64, 1)
            .seeds(replication_seeds(7, 6))
            .build();
        let par = run_replicated(&spec).unwrap();
        let seq = run_replicated_threads(&spec, 1).unwrap();
        assert_eq!(par, seq);
        assert_eq!(par.len(), 6);
        for (r, s) in par.iter().zip(&spec.seeds) {
            assert_eq!(r.seed, Some(*s));
            // The shared-trace fast path must equal the one-off path.
            assert_eq!(r, &run_seeded(&spec, *s).unwrap());
        }
    }

    #[test]
    fn full_trace_replication_of_a_seedless_source_is_rejected() {
        let spec = ScenarioSpec::builder(TraceSource::SwfFile {
            path: "archive.swf".into(),
        })
        .seeds(vec![1, 2])
        .build();
        let err = run_replicated(&spec).unwrap_err();
        assert!(
            matches!(&err, ScenarioError::Trace(m) if m.contains("cannot be re-seeded")),
            "{err}"
        );
    }

    #[test]
    fn empty_seed_list_degenerates_to_single_run() {
        let spec = lublin_spec(150).build();
        let reports = run_replicated(&spec).unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0], run(&spec).unwrap());
    }

    #[test]
    fn unroutable_jobs_are_counted_not_silently_dropped() {
        // Lublin-1 targets a 256-proc machine; on a cluster whose widest
        // partition is 128 procs, the trace's capability jobs fit no
        // partition — the report must count them instead of quietly
        // describing a smaller trace.
        let spec = lublin_spec(400)
            .cluster(
                ClusterSpec::new(vec![
                    crate::cluster::PartitionSpec::new("a", 128, 1.0),
                    crate::cluster::PartitionSpec::new("b", 128, 1.0),
                ]),
                RouterSpec::LeastLoaded,
            )
            .build();
        let report = run(&spec).unwrap();
        let trace = TracePreset::Lublin1.generate(400, 21);
        let wide = trace.jobs().iter().filter(|j| j.procs > 128).count();
        assert!(wide > 0, "the scenario needs at least one over-wide job");
        assert_eq!(report.dropped_jobs, wide);
        assert_eq!(report.jobs + report.dropped_jobs, trace.len());
        // The count survives the committed-report round trip.
        let back = RunReport::from_json(&report.to_json_pretty()).unwrap();
        assert_eq!(back, report);
        // And a pre-migration report without the field parses as 0.
        let legacy = make_report(&lublin_spec(10).build(), None, Metrics::of(&[], 4), 0, None);
        let json = legacy.to_json_pretty();
        assert!(!json.contains("dropped_jobs"), "0 must serialize omitted");
        assert_eq!(RunReport::from_json(&json).unwrap().dropped_jobs, 0);
    }

    #[test]
    fn audit_flag_round_trips_and_is_omitted_when_off() {
        let spec = lublin_spec(50).audit(true).build();
        let json = spec.to_json_pretty();
        assert!(json.contains("\"audit\": true"));
        assert_eq!(ScenarioSpec::from_json(&json).unwrap(), spec);
        // Audit-off specs keep their committed bytes: the field vanishes.
        let off = lublin_spec(50).build();
        assert!(!off.to_json_pretty().contains("audit"));
        assert!(!run(&off).unwrap().to_json_pretty().contains("attribution"));
    }

    #[test]
    fn audited_run_realizes_the_same_schedule_and_attribution_sums() {
        let audited = run(&lublin_spec(300).audit(true).build()).unwrap();
        let plain = run(&lublin_spec(300).build()).unwrap();
        assert_eq!(audited.metrics, plain.metrics);
        let attr = audited.attribution.as_ref().expect("attribution attached");
        assert_eq!(attr.jobs as usize, audited.jobs);
        assert!(
            (attr.components_sum() - attr.total_wait).abs() <= 1e-6 * attr.total_wait.max(1.0),
            "components {} vs total {}",
            attr.components_sum(),
            attr.total_wait
        );
        // The attribution table survives the committed-report round trip.
        let back = RunReport::from_json(&audited.to_json_pretty()).unwrap();
        assert_eq!(back, audited);
    }

    #[test]
    fn windows_protocol_merges_attribution_across_windows() {
        let report = run(&lublin_spec(400).windows(3, 64, 11).audit(true).build()).unwrap();
        let attr = report.attribution.as_ref().expect("attribution attached");
        assert_eq!(attr.jobs as usize, report.jobs);
        assert!((attr.components_sum() - attr.total_wait).abs() <= 1e-6 * attr.total_wait.max(1.0));
    }

    #[test]
    fn run_audited_returns_a_log_consistent_with_the_report() {
        let spec = lublin_spec(200).build();
        let (report, log) = run_audited(&spec).unwrap();
        assert_eq!(report.attribution, Some(log.attribution()));
        assert_eq!(log.job_waits.len(), report.jobs);
        // Same spec, same log, bitwise: the forensics layer is
        // deterministic.
        let (_, log2) = run_audited(&spec).unwrap();
        assert_eq!(log.first_divergence(&log2), None);
        assert_eq!(log, log2);
    }

    #[test]
    fn agent_specs_are_refused_here() {
        let spec = lublin_spec(50).agent(AgentSlot::default()).build();
        assert_eq!(run(&spec), Err(ScenarioError::NeedsAgent));
        assert_eq!(spec.label(), "Lublin-1 · FCFS+RLBF");
    }

    #[test]
    fn mean_metrics_of_empty_is_zeroed() {
        let m = mean_metrics(&[]);
        assert_eq!(m.jobs, 0);
        assert_eq!(m.mean_bounded_slowdown, 0.0);
    }

    fn outage(fail_at: f64, procs: u32, repair_at: f64) -> crate::platform::PlatformEventSpec {
        crate::platform::PlatformEventSpec {
            trace: vec![
                PlatformEvent::NodeFail {
                    at: fail_at,
                    part: 0,
                    procs,
                },
                PlatformEvent::NodeRepair {
                    at: repair_at,
                    part: 0,
                    procs,
                },
            ],
            ..Default::default()
        }
    }

    #[test]
    fn platform_events_round_trip_and_are_omitted_when_empty() {
        let spec = lublin_spec(50).events(outage(100.0, 32, 5000.0)).build();
        let json = spec.to_json_pretty();
        assert!(json.contains("\"events\""));
        assert_eq!(ScenarioSpec::from_json(&json).unwrap(), spec);
        // Event-free specs keep their committed bytes: the field vanishes,
        // and so does the report's robustness section.
        let off = lublin_spec(50).build();
        assert!(!off.to_json_pretty().contains("\"events\""));
        assert!(!run(&off).unwrap().to_json_pretty().contains("robustness"));
    }

    #[test]
    fn perturbed_run_reports_robustness_and_conserves_jobs() {
        // Fail 200 of Lublin-1's 256 procs mid-run: jobs must be killed,
        // resubmitted (or dropped if they no longer fit), and accounted.
        let spec = lublin_spec(300)
            .events(outage(100_000.0, 200, 180_000.0))
            .build();
        let report = run(&spec).unwrap();
        let rob = report.robustness.as_ref().expect("robustness attached");
        assert!(rob.kills >= 1, "a 200-proc outage must kill something");
        assert!(rob.resubmits >= 1);
        assert!(rob.wasted_node_seconds > 0.0);
        // The delta can be negative when the outage drops wide jobs from
        // the completed population — only require that it was computed.
        assert!(rob
            .bsld_degradation
            .expect("baseline delta computed")
            .is_finite());
        let trace = TracePreset::Lublin1.generate(300, 21);
        assert_eq!(report.jobs + report.dropped_jobs, trace.len());
        // The robustness section survives the committed-report round trip.
        let back = RunReport::from_json(&report.to_json_pretty()).unwrap();
        assert_eq!(back, report);
        // And the perturbed run is deterministic.
        assert_eq!(run(&spec).unwrap(), report);
    }

    #[test]
    fn empty_event_stream_is_bitwise_inert() {
        let plain = run(&lublin_spec(200).build()).unwrap();
        let with_default = run(&lublin_spec(200)
            .events(crate::platform::PlatformEventSpec::default())
            .build())
        .unwrap();
        assert_eq!(plain.to_json_pretty(), with_default.to_json_pretty());
    }

    #[test]
    fn perturbed_windows_runs_sum_counters_and_average_degradation() {
        let spec = lublin_spec(400)
            .windows(3, 64, 11)
            .events(outage(1_000.0, 200, 50_000.0))
            .build();
        let report = run(&spec).unwrap();
        let rob = report.robustness.as_ref().expect("robustness attached");
        assert!(rob.bsld_degradation.is_some());
        let trace = TracePreset::Lublin1.generate(400, 21);
        let windows = sample_windows(&trace, 3, 64, 11);
        assert_eq!(
            report.jobs + report.dropped_jobs,
            windows.iter().map(|w| w.len()).sum::<usize>()
        );
    }
}
