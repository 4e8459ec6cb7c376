//! Event-driven HPC cluster simulator for scheduling research.
//!
//! This crate is the substrate the paper trains and evaluates in (its role
//! is played by the RLScheduler simulator in the original work). It models a
//! cluster — homogeneous by default, or a heterogeneous multi-partition
//! machine via the [`cluster`] subsystem ([`cluster::ClusterSpec`] +
//! [`cluster::Router`] meta-scheduling) — executing a [`swf::Trace`] under
//! a pluggable combination of:
//!
//! * a **base scheduling policy** ([`policy::Policy`]): FCFS, SJF, WFP3 or
//!   F1 — the priority functions of Table 3;
//! * a **backfilling strategy**: none, [`easy`] (the EASY algorithm with a
//!   pluggable [`estimator::RuntimeEstimator`] — user request time, the
//!   actual runtime "ideal prediction", or noisy predictions for Figure 1),
//!   or [`conservative`] backfilling (every queued job gets a reservation);
//! * interactive, externally-driven backfilling through
//!   [`state::Simulation`]'s decision-point API — this is the hook the
//!   `rlbf` crate uses to let a reinforcement-learning agent make the
//!   backfilling decisions.
//!
//! Experiments are expressed declaratively through the [`scenario`]
//! module: a serializable [`scenario::ScenarioSpec`] names one cell of
//! the paper's experiment grid (trace source × cluster × router × policy
//! × backfilling × seeds), and [`scenario::run`] /
//! [`scenario::run_replicated`] execute it into a uniform
//! [`scenario::RunReport`]. Underneath, every run is the `desim` kernel
//! on a [`cluster::ClusterSpec`]: [`run_scheduler`] (the trace's flat
//! machine), [`run_scheduler_on_rerouted`] (an explicit cluster, router
//! and reroute policy) and [`run_scheduler_probed`] (plus platform events
//! and an observability [`Probe`]) are the three low-level entry points.
//!
//! The simulator is deterministic: the same trace, policy and estimator
//! always produce the same schedule.
//!
//! ```
//! use hpcsim::prelude::*;
//! use swf::TracePreset;
//!
//! let trace = TracePreset::Lublin1.generate(512, 7);
//! let result = run_scheduler(
//!     &trace,
//!     Policy::Fcfs,
//!     Backfill::Easy(RuntimeEstimator::RequestTime),
//! );
//! assert!(result.metrics.mean_bounded_slowdown >= 1.0);
//! ```

pub mod cluster;
pub mod conservative;
pub mod easy;
pub mod estimator;
pub mod metrics;
pub mod observe;
pub mod plan;
pub mod platform;
pub mod policy;
pub mod profile;
#[cfg(test)]
mod reference;
pub mod runner;
pub mod scenario;
pub mod state;
pub mod timeline;

pub use cluster::{
    ClusterSpec, EarliestStart, LeastLoaded, PartitionSpec, RerouteDecision, ReroutePolicy, Router,
    StaticAffinity,
};
pub use estimator::RuntimeEstimator;
pub use metrics::Metrics;
pub use observe::audit::{
    AuditLog, AuditProbe, AuditRecord, SkipReason, StartKind, WaitAttribution, WaitBreakdown,
    WaitCause,
};
pub use observe::{NoopProbe, Phase, Probe, Recorder, Telemetry};
pub use platform::{FailurePolicy, FailureProcess, PlatformEvent, PlatformEventSpec};
pub use policy::Policy;
pub use runner::{
    run_scheduler, run_scheduler_on_rerouted, run_scheduler_probed, Backfill, ScheduleResult,
};
pub use scenario::{
    AgentSlot, Engine, MetricKind, Platform, Protocol, RobustnessReport, RouterSpec, RunReport,
    ScenarioBuilder, ScenarioError, ScenarioSpec, SchedulerSpec,
};
pub use state::{BackfillSim, ProbedSimulation, SimEvent, Simulation};

/// Convenient glob import for simulator users.
pub mod prelude {
    pub use crate::cluster::{
        ClusterSpec, EarliestStart, LeastLoaded, PartitionSpec, RerouteDecision, ReroutePolicy,
        Router, StaticAffinity,
    };
    pub use crate::estimator::RuntimeEstimator;
    pub use crate::metrics::Metrics;
    pub use crate::observe::audit::{
        AuditLog, AuditProbe, AuditRecord, SkipReason, StartKind, WaitAttribution, WaitBreakdown,
        WaitCause,
    };
    pub use crate::observe::{NoopProbe, Probe, Recorder, Telemetry};
    pub use crate::platform::{FailurePolicy, FailureProcess, PlatformEvent, PlatformEventSpec};
    pub use crate::policy::Policy;
    pub use crate::runner::{
        run_scheduler, run_scheduler_on_rerouted, run_scheduler_probed, Backfill, ScheduleResult,
    };
    pub use crate::scenario::{
        self, AgentSlot, Engine, MetricKind, Platform, Protocol, RobustnessReport, RouterSpec,
        RunReport, ScenarioBuilder, ScenarioError, ScenarioSpec, SchedulerSpec,
    };
    pub use crate::state::{BackfillSim, SimEvent, Simulation};
}
