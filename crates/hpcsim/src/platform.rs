//! Dynamic-machine platform events: node failures, repairs, maintenance
//! drains, and partition resizes as first-class scenario inputs.
//!
//! A [`PlatformEventSpec`] rides on
//! [`ScenarioSpec`](crate::scenario::ScenarioSpec) and describes how the
//! machine changes underneath the workload: an explicit replayable
//! [`PlatformEvent`] trace (the maybenot-style "parse a perturbation trace
//! and replay it" idiom), seeded generative [`FailureProcess`]es, or both.
//! [`PlatformEventSpec::materialize`] flattens everything into one
//! time-ordered event list which the simulation schedules on the `desim`
//! event heap next to job arrivals and completions; events are applied in
//! the same epsilon batch machinery as every other decision point.
//!
//! Capacity semantics live in `state.rs` (see `apply_platform_event`):
//! failures and shrinking resizes retract free processors first and only
//! then kill running jobs (latest-started first); killed jobs follow the
//! spec's [`FailurePolicy`]; draining partitions stop admitting and the
//! decision-point reroute pass evacuates their queues. An **empty**
//! [`PlatformEventSpec`] schedules nothing and the engine is bitwise
//! identical to one compiled without the layer (pinned in
//! `scenario_equivalence`).

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

/// One change to the machine, applied at simulated time `at`.
///
/// `procs` counts are in reference processors (partition `speed` scales
/// durations, not widths). All variants are idempotent-free imperative
/// deltas except [`PlatformEvent::Resize`], which sets an absolute target
/// capacity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PlatformEvent {
    /// `procs` processors of partition `part` fail: capacity shrinks, and
    /// running jobs are killed (per [`FailurePolicy`]) if the free pool
    /// cannot cover the loss.
    NodeFail { at: f64, part: usize, procs: u32 },
    /// `procs` processors return to service: capacity and the free pool
    /// grow by `procs`.
    NodeRepair { at: f64, part: usize, procs: u32 },
    /// Partition `part` enters a maintenance drain: it stops admitting
    /// jobs (routing, backfill, and head starts all skip it) and the
    /// decision-point reroute pass tries to move its queue elsewhere.
    /// Running jobs are left to finish.
    DrainStart { at: f64, part: usize },
    /// The drain ends: `part` admits and starts jobs again.
    DrainEnd { at: f64, part: usize },
    /// Partition `part`'s capacity is set to exactly `procs` (shrink kills
    /// like [`PlatformEvent::NodeFail`]; growth may exceed the partition's
    /// original width).
    Resize { at: f64, part: usize, procs: u32 },
}

impl PlatformEvent {
    /// The simulated time the event fires.
    pub fn at(&self) -> f64 {
        match *self {
            PlatformEvent::NodeFail { at, .. }
            | PlatformEvent::NodeRepair { at, .. }
            | PlatformEvent::DrainStart { at, .. }
            | PlatformEvent::DrainEnd { at, .. }
            | PlatformEvent::Resize { at, .. } => at,
        }
    }

    /// The partition the event targets.
    pub fn part(&self) -> usize {
        match *self {
            PlatformEvent::NodeFail { part, .. }
            | PlatformEvent::NodeRepair { part, .. }
            | PlatformEvent::DrainStart { part, .. }
            | PlatformEvent::DrainEnd { part, .. }
            | PlatformEvent::Resize { part, .. } => part,
        }
    }

    /// Stable label used by audit records and telemetry.
    pub fn kind(&self) -> &'static str {
        match self {
            PlatformEvent::NodeFail { .. } => "node_fail",
            PlatformEvent::NodeRepair { .. } => "node_repair",
            PlatformEvent::DrainStart { .. } => "drain_start",
            PlatformEvent::DrainEnd { .. } => "drain_end",
            PlatformEvent::Resize { .. } => "resize",
        }
    }
}

/// What happens to a job running on failed processors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum FailurePolicy {
    /// The job is killed and resubmitted from scratch with its original
    /// submit time and full runtime; the work already done is charged to
    /// `wasted_node_seconds`.
    #[default]
    KillResubmit,
    /// The job is killed but restarts from a checkpoint: the resubmitted
    /// copy only needs the *remaining* runtime plus `overhead_secs` of
    /// restart cost. Wasted work is the overhead, not the elapsed run.
    CheckpointRestart { overhead_secs: f64 },
}

/// A seeded generative failure/repair process: exponentially distributed
/// inter-failure gaps (mean `mtbf_secs`) and repair durations (mean
/// `repair_secs`), each failure taking `procs` processors from `part` (or
/// a uniformly random partition when `part` is `None`). Failures are drawn
/// on `[0, until)`; repairs always fire, even past the horizon, so
/// capacity eventually returns.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailureProcess {
    pub seed: u64,
    pub until: f64,
    pub mtbf_secs: f64,
    pub repair_secs: f64,
    pub procs: u32,
    pub part: Option<usize>,
}

impl FailureProcess {
    fn generate(&self, n_parts: usize, out: &mut Vec<PlatformEvent>) {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        // Inverse-CDF exponential; 1 - u is in (0, 1] so ln is finite.
        let exp = |mean: f64, rng: &mut dyn RngCore| -mean * (1.0 - rng.random::<f64>()).ln();
        let mut t = 0.0;
        loop {
            t += exp(self.mtbf_secs.max(0.0), &mut rng);
            if t >= self.until {
                break;
            }
            // Draw the partition before the repair gap so the stream per
            // event is fixed regardless of how either sample is used.
            let part = match self.part {
                Some(p) => p,
                None => rng.random_range(0..n_parts.max(1)),
            };
            let repair_at = t + exp(self.repair_secs.max(0.0), &mut rng);
            out.push(PlatformEvent::NodeFail {
                at: t,
                part,
                procs: self.procs,
            });
            out.push(PlatformEvent::NodeRepair {
                at: repair_at,
                part,
                procs: self.procs,
            });
        }
    }
}

/// The full platform-event input of a scenario: an explicit event trace,
/// zero or more generative processes, and the failure policy killed jobs
/// follow. The default (empty) spec is inert: nothing is scheduled and the
/// simulation is bitwise identical to a run without the layer. Every
/// field is omitted when default and defaulted when absent.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PlatformEventSpec {
    /// Explicit, replayable events (kept verbatim; ties with generated
    /// events break toward the trace).
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub trace: Vec<PlatformEvent>,
    /// Seeded generative failure/repair processes.
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub processes: Vec<FailureProcess>,
    /// Fate of jobs running on failed processors.
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub failure_policy: FailurePolicy,
}

impl PlatformEventSpec {
    /// True when the spec schedules nothing (the inert default).
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty() && self.processes.is_empty()
    }

    /// Flattens the explicit trace plus every generative process into one
    /// list sorted by firing time (stable: explicit events win ties, then
    /// process order). Validates partition indices and event times against
    /// a cluster of `n_parts` partitions.
    pub fn materialize(&self, n_parts: usize) -> Result<Vec<PlatformEvent>, String> {
        let mut all = self.trace.clone();
        for p in &self.processes {
            if !p.mtbf_secs.is_finite() || p.mtbf_secs <= 0.0 {
                return Err(format!(
                    "failure process: mtbf_secs must be finite and positive, got {}",
                    p.mtbf_secs
                ));
            }
            if !p.repair_secs.is_finite() || p.repair_secs < 0.0 {
                return Err(format!(
                    "failure process: repair_secs must be finite and non-negative, got {}",
                    p.repair_secs
                ));
            }
            if let Some(part) = p.part {
                if part >= n_parts {
                    return Err(format!(
                        "failure process: partition {part} out of range (cluster has {n_parts})"
                    ));
                }
            }
            p.generate(n_parts, &mut all);
        }
        for (i, ev) in all.iter().enumerate() {
            if ev.part() >= n_parts {
                return Err(format!(
                    "platform event {i} ({}): partition {} out of range (cluster has {n_parts})",
                    ev.kind(),
                    ev.part()
                ));
            }
            let at = ev.at();
            if !at.is_finite() || at < 0.0 {
                return Err(format!(
                    "platform event {i} ({}): time {at} must be finite and non-negative",
                    ev.kind()
                ));
            }
        }
        all.sort_by(|a, b| a.at().total_cmp(&b.at()));
        Ok(all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_spec() -> PlatformEventSpec {
        PlatformEventSpec {
            trace: vec![
                PlatformEvent::NodeFail {
                    at: 100.0,
                    part: 0,
                    procs: 8,
                },
                PlatformEvent::DrainStart { at: 50.0, part: 1 },
                PlatformEvent::NodeRepair {
                    at: 400.0,
                    part: 0,
                    procs: 8,
                },
                PlatformEvent::DrainEnd { at: 300.0, part: 1 },
                PlatformEvent::Resize {
                    at: 500.0,
                    part: 1,
                    procs: 32,
                },
            ],
            processes: vec![],
            failure_policy: FailurePolicy::CheckpointRestart {
                overhead_secs: 60.0,
            },
        }
    }

    #[test]
    fn default_spec_is_empty_and_serializes_to_empty_object() {
        let spec = PlatformEventSpec::default();
        assert!(spec.is_empty());
        assert_eq!(serde_json::to_string(&spec).unwrap(), "{}");
        let back: PlatformEventSpec = serde_json::from_str("{}").unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = demo_spec();
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back: PlatformEventSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn partial_spec_fills_defaults() {
        let back: PlatformEventSpec =
            serde_json::from_str(r#"{"trace": [{"DrainStart": {"at": 5.0, "part": 0}}]}"#).unwrap();
        assert_eq!(back.trace.len(), 1);
        assert!(back.processes.is_empty());
        assert_eq!(back.failure_policy, FailurePolicy::KillResubmit);
    }

    #[test]
    fn materialize_sorts_by_time() {
        let evs = demo_spec().materialize(2).unwrap();
        let times: Vec<f64> = evs.iter().map(|e| e.at()).collect();
        let mut sorted = times.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(times, sorted);
        assert_eq!(evs.len(), 5);
    }

    #[test]
    fn materialize_rejects_out_of_range_partitions() {
        let spec = demo_spec();
        let err = spec.materialize(1).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn materialize_rejects_non_finite_times() {
        let spec = PlatformEventSpec {
            trace: vec![PlatformEvent::DrainStart {
                at: f64::NAN,
                part: 0,
            }],
            ..Default::default()
        };
        let err = spec.materialize(1).unwrap_err();
        assert!(err.contains("finite"), "{err}");
    }

    #[test]
    fn generative_process_is_deterministic_and_pairs_fail_with_repair() {
        let spec = PlatformEventSpec {
            processes: vec![FailureProcess {
                seed: 7,
                until: 100_000.0,
                mtbf_secs: 10_000.0,
                repair_secs: 3_600.0,
                procs: 4,
                part: None,
            }],
            ..Default::default()
        };
        let a = spec.materialize(4).unwrap();
        let b = spec.materialize(4).unwrap();
        assert_eq!(a, b);
        let fails = a
            .iter()
            .filter(|e| matches!(e, PlatformEvent::NodeFail { .. }))
            .count();
        let repairs = a
            .iter()
            .filter(|e| matches!(e, PlatformEvent::NodeRepair { .. }))
            .count();
        assert!(fails > 0, "horizon of 10 MTBFs should draw failures");
        assert_eq!(fails, repairs, "every failure repairs eventually");
        assert!(a
            .iter()
            .all(|e| e.part() < 4 && e.at().is_finite() && e.at() >= 0.0));
    }

    #[test]
    fn generative_process_rejects_bad_rates() {
        for (mtbf, repair) in [(0.0, 1.0), (-1.0, 1.0), (f64::NAN, 1.0), (1.0, -2.0)] {
            let spec = PlatformEventSpec {
                processes: vec![FailureProcess {
                    seed: 1,
                    until: 10.0,
                    mtbf_secs: mtbf,
                    repair_secs: repair,
                    procs: 1,
                    part: Some(0),
                }],
                ..Default::default()
            };
            assert!(spec.materialize(1).is_err(), "mtbf={mtbf} repair={repair}");
        }
    }
}
