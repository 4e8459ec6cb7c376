//! High-level one-call scheduling runs: trace × policy × backfilling.

use crate::cluster::{ClusterSpec, ReroutePolicy, Router};
use crate::conservative::conservative_pass;
use crate::easy::easy_pass;
use crate::estimator::RuntimeEstimator;
use crate::metrics::Metrics;
use crate::observe::Probe;
use crate::policy::Policy;
use crate::state::{BackfillSim, CompletedJob, ProbedSimulation, SimEvent, Simulation};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use swf::Trace;

/// A backfilling strategy selection for [`run_scheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Backfill {
    /// No backfilling: strict priority order (the pre-EASY baseline).
    None,
    /// EASY backfilling with the given runtime estimator. The paper's
    /// "EASY" columns use [`RuntimeEstimator::RequestTime`], the "EASY-AR"
    /// columns [`RuntimeEstimator::ActualRuntime`].
    Easy(RuntimeEstimator),
    /// EASY backfilling scanning candidates in an explicit policy order
    /// instead of the base policy's. `EasyOrdered(RequestTime, Sjf)` under
    /// an FCFS base is the paper's reward baseline (§3.4).
    EasyOrdered(RuntimeEstimator, Policy),
    /// Conservative backfilling with the given runtime estimator.
    Conservative(RuntimeEstimator),
}

impl Backfill {
    /// Label used in experiment tables.
    pub fn label(&self) -> String {
        match self {
            Backfill::None => "none".into(),
            Backfill::Easy(RuntimeEstimator::RequestTime) => "EASY".into(),
            Backfill::Easy(RuntimeEstimator::ActualRuntime) => "EASY-AR".into(),
            Backfill::Easy(e) => format!("EASY({})", e.label()),
            Backfill::EasyOrdered(e, p) => format!("EASY({}, {p}-order)", e.label()),
            Backfill::Conservative(e) => format!("CONS({})", e.label()),
        }
    }
}

/// The full outcome of a scheduling run.
#[derive(Debug, Clone)]
pub struct ScheduleResult {
    /// Every job with its realized start time, in completion order.
    pub completed: Vec<CompletedJob>,
    /// Aggregate quality metrics (over `completed` only — see
    /// `dropped_jobs`).
    pub metrics: Metrics,
    /// Trace jobs that fit no partition and were set aside before the run
    /// (always 0 on flat machines): `completed.len() + dropped_jobs`
    /// accounts for the whole trace.
    pub dropped_jobs: usize,
    /// Queue migrations performed (0 unless the run used
    /// [`ReroutePolicy::AtDecisionPoints`]).
    pub migrations: usize,
    /// Running jobs killed by platform events (0 without a
    /// [`crate::platform::PlatformEventSpec`]).
    pub kills: usize,
    /// Killed or displaced jobs rerouted back into a queue by platform
    /// events (0 without a platform-event stream).
    pub resubmits: usize,
    /// Work destroyed by platform-event kills, reference node-seconds.
    pub wasted_node_seconds: f64,
}

/// Schedules `trace` to completion under `policy` + `backfill` and returns
/// the realized schedule. Deterministic. Runs on the `desim` event kernel
/// over the trace's homogeneous machine.
pub fn run_scheduler(trace: &Trace, policy: Policy, backfill: Backfill) -> ScheduleResult {
    let mut sim = Simulation::new(trace, policy);
    drive_to_completion(&mut sim, backfill)
}

/// [`run_scheduler`] on an explicit cluster shape: `router` assigns each
/// arriving job to a partition of `spec`, the backfilling heuristic acts
/// per-partition at every decision point, and under
/// [`ReroutePolicy::AtDecisionPoints`] the router revisits still-waiting
/// jobs at every settled event batch. With
/// [`ClusterSpec::homogeneous`]`(trace.cluster_procs())` this realizes the
/// identical schedule as [`run_scheduler`] (pinned by the equivalence
/// suite), regardless of the router.
pub fn run_scheduler_on_rerouted(
    trace: &Trace,
    policy: Policy,
    backfill: Backfill,
    spec: &ClusterSpec,
    router: Arc<dyn Router>, // simlint: allow(sync-audit) — Arc shares immutable scenario inputs (workload/spec/estimator); read-only after construction
    reroute: ReroutePolicy,
) -> ScheduleResult {
    let mut sim = Simulation::with_cluster_rerouted(trace, policy, spec.clone(), router, reroute);
    drive_to_completion(&mut sim, backfill)
}

/// The fully general run: [`run_scheduler_on_rerouted`] under a dynamic
/// machine, threaded through an arbitrary [`Probe`]. `events` is installed
/// before the drive, so node failures, drains, and resizes fire alongside
/// arrivals and completions; an empty
/// [`crate::platform::PlatformEventSpec`] installs nothing. With a
/// [`crate::observe::Recorder`] this is telemetry collection, with an
/// [`crate::observe::audit::AuditProbe`] decision forensics; the realized
/// schedule is bitwise the unprobed one either way. Errors only on an
/// invalid event spec (bad rates, out-of-range partitions).
#[allow(clippy::too_many_arguments)]
pub fn run_scheduler_probed<P: Probe>(
    trace: &Trace,
    policy: Policy,
    backfill: Backfill,
    spec: &ClusterSpec,
    router: Arc<dyn Router>, // simlint: allow(sync-audit) — Arc shares immutable scenario inputs (workload/spec/estimator); read-only after construction
    reroute: ReroutePolicy,
    events: &crate::platform::PlatformEventSpec,
    probe: P,
) -> Result<(ScheduleResult, P), String> {
    let mut sim = ProbedSimulation::with_cluster_rerouted_probed(
        trace,
        policy,
        spec.clone(),
        router,
        reroute,
        probe,
    );
    sim.install_platform_events(events)?;
    let result = drive_to_completion(&mut sim, backfill);
    Ok((result, sim.into_probe()))
}

/// The shared driver loop: run any [`BackfillSim`] to completion, applying
/// the selected heuristic at every decision point.
pub(crate) fn drive_to_completion<S: BackfillSim>(
    sim: &mut S,
    backfill: Backfill,
) -> ScheduleResult {
    while sim.advance() == SimEvent::BackfillOpportunity {
        match backfill {
            Backfill::None => {}
            Backfill::Easy(est) => {
                easy_pass(sim, est);
            }
            Backfill::EasyOrdered(est, order) => {
                crate::easy::easy_pass_with_order(sim, est, order);
            }
            Backfill::Conservative(est) => {
                conservative_pass(sim, est);
            }
        }
    }
    let metrics = Metrics::of(sim.completed(), sim.cluster_procs());
    ScheduleResult {
        completed: sim.take_completed(),
        metrics,
        dropped_jobs: sim.dropped_jobs(),
        migrations: sim.migrations(),
        kills: sim.kills(),
        resubmits: sim.resubmits(),
        wasted_node_seconds: sim.wasted_node_seconds(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swf::TracePreset;

    #[test]
    fn all_strategies_schedule_every_job() {
        let trace = TracePreset::Lublin1.generate(300, 21);
        for backfill in [
            Backfill::None,
            Backfill::Easy(RuntimeEstimator::RequestTime),
            Backfill::Easy(RuntimeEstimator::ActualRuntime),
            Backfill::Conservative(RuntimeEstimator::RequestTime),
        ] {
            for policy in Policy::ALL {
                let r = run_scheduler(&trace, policy, backfill);
                assert_eq!(r.completed.len(), trace.len(), "{policy} {backfill:?}");
            }
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let trace = TracePreset::SdscSp2.generate(300, 22);
        let a = run_scheduler(
            &trace,
            Policy::Fcfs,
            Backfill::Easy(RuntimeEstimator::RequestTime),
        );
        let b = run_scheduler(
            &trace,
            Policy::Fcfs,
            Backfill::Easy(RuntimeEstimator::RequestTime),
        );
        assert_eq!(a.completed, b.completed);
    }

    #[test]
    fn easy_ar_differs_from_easy_on_overestimated_traces() {
        // On a trace with real overestimation the two estimators must
        // produce different schedules (this is the premise of the paper).
        let trace = TracePreset::SdscSp2.generate(800, 23);
        let easy = run_scheduler(
            &trace,
            Policy::Fcfs,
            Backfill::Easy(RuntimeEstimator::RequestTime),
        );
        let ar = run_scheduler(
            &trace,
            Policy::Fcfs,
            Backfill::Easy(RuntimeEstimator::ActualRuntime),
        );
        assert_ne!(
            easy.metrics.mean_bounded_slowdown,
            ar.metrics.mean_bounded_slowdown
        );
    }

    #[test]
    fn labels_are_paper_style() {
        assert_eq!(
            Backfill::Easy(RuntimeEstimator::RequestTime).label(),
            "EASY"
        );
        assert_eq!(
            Backfill::Easy(RuntimeEstimator::ActualRuntime).label(),
            "EASY-AR"
        );
        let noisy = Backfill::Easy(RuntimeEstimator::NoisyActual {
            max_over_frac: 0.2,
            seed: 0,
        });
        assert_eq!(noisy.label(), "EASY(+20%)");
    }
}
