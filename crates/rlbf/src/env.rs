//! The backfilling reinforcement-learning environment (paper §3.4).
//!
//! Episodes schedule one job sequence to completion. The agent acts only at
//! *backfilling opportunities* (the base policy's head job is blocked and
//! some queued job fits); each action picks one job to backfill, and the
//! same opportunity keeps asking until no candidate is left. Rewards:
//!
//! * **0** at every intermediate step — the paper's metric (average bounded
//!   slowdown) "is dependent on the entire job sequence being scheduled",
//!   so "each step returns a reward of 0, only returning the true reward at
//!   the very last step";
//! * a **large negative reward** whenever a backfill delays the reserved
//!   job's ground-truth earliest start (the EASY no-delay rule cannot be
//!   enforced up front for a learned policy, §3.4);
//! * the **terminal reward** `(sjf − bsld)/sjf`, the percentage improvement
//!   over scheduling the same sequence with FCFS as the base policy and
//!   SJF-ordered EASY backfilling.
//!
//! Both the episode simulation and the baseline run ride the `desim`
//! event kernel (see `ARCHITECTURE.md`): [`BackfillEnv::new`] constructs
//! the kernel-backed [`hpcsim::Simulation`], and `advance_to_decision`
//! pauses it at each heap-driven decision point. PPO rollout throughput
//! scales with that kernel — every trajectory is one of these episodes
//! plus one baseline schedule.

use crate::obs::{encode_with_skip, ObsConfig, Observation};
use hpcsim::{
    run_scheduler_on_rerouted, Backfill, BackfillSim, Metrics, Platform, Policy, RuntimeEstimator,
    SimEvent, Simulation,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use swf::Trace;

/// The schedule-quality metric the agent optimizes.
///
/// The paper focuses on the average bounded slowdown and "plan\[s\] to
/// explore other optimization goals in the future" (§3.1) — this enum is
/// that extension: the terminal reward (and its baseline) can target the
/// average wait or turnaround instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Objective {
    /// Average bounded slowdown (the paper's metric).
    BoundedSlowdown,
    /// Average queue wait time, seconds.
    MeanWait,
    /// Average turnaround (wait + runtime), seconds.
    MeanTurnaround,
}

impl Objective {
    /// Extracts the objective's value from schedule metrics.
    pub fn of(&self, m: &Metrics) -> f64 {
        match self {
            Objective::BoundedSlowdown => m.mean_bounded_slowdown,
            Objective::MeanWait => m.mean_wait,
            Objective::MeanTurnaround => m.mean_turnaround,
        }
    }
}

/// Terminal-reward definitions (the paper uses [`RewardKind::SjfRelative`];
/// the others are ablations exercised by the bench suite).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RewardKind {
    /// `(baseline − bsld)/baseline` with baseline = FCFS + SJF-ordered EASY
    /// (paper §3.4).
    SjfRelative,
    /// `(baseline − bsld)/baseline` with baseline = the episode's own base
    /// policy + EASY(request time).
    EasyRelative,
    /// `−bsld / 100` — no baseline, raw scale (high variance).
    NegBsld,
}

/// Environment configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnvConfig {
    /// Observation encoding.
    pub obs: ObsConfig,
    /// Magnitude of the negative reward for delaying the reserved job.
    pub violation_penalty: f64,
    /// Terminal reward definition.
    pub reward: RewardKind,
    /// The schedule metric the terminal reward targets.
    pub objective: Objective,
    /// Whether the agent may decline the rest of an opportunity (the skip
    /// action). EASY can refuse a harmful backfill; without this the agent
    /// is forced to pick *some* fitting job even when every choice delays
    /// the reserved job, and the violation penalty stops being a learning
    /// signal (see DESIGN.md).
    pub allow_skip: bool,
}

impl Default for EnvConfig {
    fn default() -> Self {
        Self {
            obs: ObsConfig::default(),
            violation_penalty: 5.0,
            reward: RewardKind::SjfRelative,
            objective: Objective::BoundedSlowdown,
            allow_skip: true,
        }
    }
}

/// Errors from driving the environment incorrectly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvError {
    /// `step` called on a finished episode.
    EpisodeOver,
    /// The chosen slot is masked (padding, reserved, or does not fit).
    InvalidSlot,
}

impl std::fmt::Display for EnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvError::EpisodeOver => write!(f, "episode is over"),
            EnvError::InvalidSlot => write!(f, "chosen slot is masked"),
        }
    }
}

impl std::error::Error for EnvError {}

/// One episode of the backfilling environment.
#[derive(Debug, Clone)]
pub struct BackfillEnv {
    sim: Simulation,
    cfg: EnvConfig,
    baseline_bsld: f64,
    cluster_procs: u32,
    current_obs: Option<Observation>,
    done: bool,
    violations: usize,
    decisions: usize,
}

impl BackfillEnv {
    /// Creates an episode over `trace` under `base_policy` on the flat
    /// (homogeneous) machine, precomputing the reward baseline, and
    /// advances to the first decision point.
    pub fn new(trace: &Trace, base_policy: Policy, cfg: EnvConfig) -> Self {
        Self::on_platform(trace, base_policy, cfg, &Platform::flat())
    }

    /// The one spec-driven constructor (the former `new`/`with_cluster`
    /// split): the machine is a serializable [`Platform`] — the cluster
    /// shape and router slot of an `hpcsim::scenario::ScenarioSpec` — so
    /// an episode's execution environment is config, not plumbing. The
    /// episode simulation *and* the reward baseline run on the same
    /// machine under the same router, so the terminal reward compares the
    /// agent against a heuristic that saw identical routing decisions.
    /// With a flat platform this is exactly [`Self::new`].
    pub fn on_platform(
        trace: &Trace,
        base_policy: Policy,
        cfg: EnvConfig,
        platform: &Platform,
    ) -> Self {
        let (spec, router) = platform.realize(trace);
        let baseline = |policy: Policy, backfill: Backfill| {
            cfg.objective.of(&run_scheduler_on_rerouted(
                trace,
                policy,
                backfill,
                &spec,
                Arc::clone(&router),
                platform.reroute,
            )
            .metrics)
        };
        let baseline_bsld = match cfg.reward {
            RewardKind::SjfRelative => baseline(
                Policy::Fcfs,
                Backfill::EasyOrdered(RuntimeEstimator::RequestTime, Policy::Sjf),
            ),
            RewardKind::EasyRelative => {
                baseline(base_policy, Backfill::Easy(RuntimeEstimator::RequestTime))
            }
            RewardKind::NegBsld => 0.0,
        };
        let cluster_procs = spec.total_procs();
        let mut env = Self {
            sim: Simulation::with_cluster_rerouted(
                trace,
                base_policy,
                spec,
                router,
                platform.reroute,
            ),
            cfg,
            baseline_bsld,
            cluster_procs,
            current_obs: None,
            done: false,
            violations: 0,
            decisions: 0,
        };
        env.advance_to_decision();
        env
    }

    /// The observation awaiting an action, or `None` when the episode is
    /// over (an episode with no backfilling opportunity at all finishes
    /// immediately; its terminal reward is still defined).
    pub fn observation(&self) -> Option<&Observation> {
        self.current_obs.as_ref()
    }

    /// Whether the whole job sequence has been scheduled.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Number of backfill actions taken so far.
    pub fn decisions(&self) -> usize {
        self.decisions
    }

    /// Number of reserved-job delays incurred so far.
    pub fn violations(&self) -> usize {
        self.violations
    }

    /// The environment configuration.
    pub fn config(&self) -> &EnvConfig {
        &self.cfg
    }

    /// The precomputed baseline bsld used by the terminal reward.
    pub fn baseline_bsld(&self) -> f64 {
        self.baseline_bsld
    }

    /// Backfills the job in `slot`. Returns the step reward and the next
    /// observation (`None` means the episode ended and the reward includes
    /// the terminal term).
    pub fn step(&mut self, slot: usize) -> Result<(f64, Option<Observation>), EnvError> {
        if self.done {
            return Err(EnvError::EpisodeOver);
        }
        let obs = self.current_obs.as_ref().ok_or(EnvError::EpisodeOver)?;
        if slot == obs.skip_action() && obs.skip_allowed() {
            // Decline the rest of this opportunity.
            self.advance_to_decision();
            return if self.done {
                Ok((self.terminal_reward(), None))
            } else {
                Ok((0.0, self.current_obs.clone()))
            };
        }
        if slot >= obs.mask.len() || !obs.mask[slot] {
            return Err(EnvError::InvalidSlot);
        }
        let qidx = obs.queue_index[slot].ok_or(EnvError::InvalidSlot)?;
        let outcome = self
            .sim
            .backfill(qidx)
            .expect("masked observation guarantees a startable job");
        self.decisions += 1;
        let mut reward = 0.0;
        if outcome.delays_reserved {
            self.violations += 1;
            reward -= self.cfg.violation_penalty;
        }

        // Still at the same opportunity? Re-encode directly.
        let next = encode_with_skip(&self.sim, &self.cfg.obs, self.cfg.allow_skip);
        if next.has_valid_action() {
            self.current_obs = Some(next.clone());
            return Ok((reward, Some(next)));
        }
        self.advance_to_decision();
        if self.done {
            reward += self.terminal_reward();
            Ok((reward, None))
        } else {
            Ok((reward, self.current_obs.clone()))
        }
    }

    /// The underlying simulation, read-only — how drivers inspect the
    /// active partition's live queue behind the current observation.
    pub fn simulation(&self) -> &Simulation {
        &self.sim
    }

    /// Final schedule metrics. Only meaningful once the episode is done.
    pub fn metrics(&self) -> Metrics {
        Metrics::of(self.sim.completed(), self.cluster_procs)
    }

    /// The terminal reward for the realized schedule.
    pub fn terminal_reward(&self) -> f64 {
        let achieved = self.cfg.objective.of(&self.metrics());
        match self.cfg.reward {
            RewardKind::SjfRelative | RewardKind::EasyRelative => {
                (self.baseline_bsld - achieved) / self.baseline_bsld.max(1e-9)
            }
            RewardKind::NegBsld => -achieved / 100.0,
        }
    }

    /// Skips the current opportunity without backfilling (used by the
    /// "decline" ablation and by drivers that run out of candidates).
    pub fn skip_opportunity(&mut self) {
        if !self.done {
            self.advance_to_decision();
        }
    }

    fn advance_to_decision(&mut self) {
        loop {
            match self.sim.advance() {
                SimEvent::Done => {
                    self.done = true;
                    self.current_obs = None;
                    return;
                }
                SimEvent::BackfillOpportunity => {
                    let obs = encode_with_skip(&self.sim, &self.cfg.obs, self.cfg.allow_skip);
                    if obs.has_valid_action() {
                        self.current_obs = Some(obs);
                        return;
                    }
                    // All fitting candidates fell outside the observation
                    // window: decline and move on.
                }
            }
        }
    }
}

/// Schedules `trace` with a greedy agent-driven backfilling policy given by
/// `choose` (slot selector). Used by evaluation and by the heuristic
/// adapters in tests.
pub fn run_with_chooser(
    trace: &Trace,
    base_policy: Policy,
    cfg: EnvConfig,
    mut choose: impl FnMut(&Observation) -> usize,
) -> Metrics {
    let mut env = BackfillEnv::new(trace, base_policy, cfg);
    while let Some(obs) = env.observation().cloned() {
        let slot = choose(&obs);
        env.step(slot).expect("chooser must return a valid slot");
    }
    env.metrics()
}

/// Reference backfilling chooser: pick the fitting job with the shortest
/// requested runtime (an SJF-style greedy filler). Useful as a learning-free
/// baseline for the RL agent to beat.
pub fn sjf_chooser(obs: &Observation) -> usize {
    let mut best = None;
    let mut best_rt = f64::INFINITY;
    for (slot, &valid) in obs.mask.iter().enumerate() {
        if !valid {
            continue;
        }
        // Feature 1 is the (monotone) log-scaled request time.
        let rt = obs.features.get(slot, 1);
        if rt < best_rt {
            best_rt = rt;
            best = Some(slot);
        }
    }
    best.expect("sjf_chooser requires a valid slot")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcsim::run_scheduler;
    use swf::{Job, TracePreset};

    fn cfg(max_obsv: usize) -> EnvConfig {
        EnvConfig {
            obs: ObsConfig {
                max_obsv_size: max_obsv,
            },
            ..EnvConfig::default()
        }
    }

    #[test]
    fn episode_reaches_done_under_any_valid_driver() {
        let trace = TracePreset::Lublin1.generate(200, 31);
        let mut env = BackfillEnv::new(&trace, Policy::Fcfs, cfg(32));
        let mut steps = 0;
        while let Some(obs) = env.observation().cloned() {
            // Always take the first valid slot.
            let slot = obs.mask.iter().position(|&m| m).unwrap();
            env.step(slot).unwrap();
            steps += 1;
            assert!(steps < 10_000, "episode failed to terminate");
        }
        assert!(env.is_done());
        assert_eq!(env.metrics().jobs, trace.len());
    }

    #[test]
    fn intermediate_rewards_are_zero_without_violations() {
        let trace = Trace::new(
            "t",
            4,
            vec![
                Job::new(0, 0.0, 3, 100.0, 100.0),
                Job::new(1, 10.0, 4, 100.0, 100.0),
                Job::new(2, 20.0, 1, 10.0, 10.0),
                Job::new(3, 21.0, 1, 10.0, 10.0),
            ],
        );
        let mut env = BackfillEnv::new(&trace, Policy::Fcfs, cfg(8));
        let obs = env.observation().unwrap().clone();
        let slot = obs.mask.iter().position(|&m| m).unwrap();
        let (r, next) = env.step(slot).unwrap();
        assert_eq!(r, 0.0, "harmless backfill must get zero step reward");
        assert!(next.is_some(), "second candidate still backfillable");
    }

    #[test]
    fn violation_incurs_penalty() {
        // The only backfillable job runs 500s past the reserved job's
        // ground-truth start.
        let trace = Trace::new(
            "t",
            4,
            vec![
                Job::new(0, 0.0, 3, 100.0, 100.0),
                Job::new(1, 10.0, 4, 100.0, 100.0),
                Job::new(2, 20.0, 1, 500.0, 500.0),
            ],
        );
        let mut env = BackfillEnv::new(&trace, Policy::Fcfs, cfg(8));
        let obs = env.observation().unwrap().clone();
        let slot = obs.mask.iter().position(|&m| m).unwrap();
        let (r, _) = env.step(slot).unwrap();
        assert!(
            r <= -env.config().violation_penalty + 1.0,
            "violation reward {r} should include the penalty"
        );
        assert_eq!(env.violations(), 1);
    }

    #[test]
    fn terminal_reward_is_positive_when_beating_the_baseline() {
        // Driving with the SJF chooser should roughly match the SJF-ordered
        // EASY baseline; rewards must be finite and sane either way.
        let trace = TracePreset::Lublin2.generate(300, 32);
        let metrics = run_with_chooser(&trace, Policy::Fcfs, cfg(64), sjf_chooser);
        assert_eq!(metrics.jobs, trace.len());

        let mut env = BackfillEnv::new(&trace, Policy::Fcfs, cfg(64));
        while let Some(obs) = env.observation().cloned() {
            env.step(sjf_chooser(&obs)).unwrap();
        }
        let r = env.terminal_reward();
        // The SJF chooser backfills greedily with no reservation rule, so
        // it can lose to the baseline by a lot; the reward must still be a
        // finite improvement percentage below 1.
        assert!(r.is_finite() && r < 1.0, "terminal reward {r}");
    }

    #[test]
    fn invalid_slot_is_rejected() {
        let trace = TracePreset::Lublin1.generate(150, 33);
        let mut env = BackfillEnv::new(&trace, Policy::Fcfs, cfg(16));
        if let Some(obs) = env.observation().cloned() {
            let masked = obs.mask.iter().position(|&m| !m).unwrap();
            assert_eq!(env.step(masked), Err(EnvError::InvalidSlot));
            assert_eq!(env.step(999), Err(EnvError::InvalidSlot));
        }
    }

    #[test]
    fn step_after_done_errors() {
        let trace = Trace::new("t", 4, vec![Job::new(0, 0.0, 1, 10.0, 10.0)]);
        let mut env = BackfillEnv::new(&trace, Policy::Fcfs, cfg(8));
        assert!(env.is_done(), "no opportunity in a trivial trace");
        assert_eq!(env.step(0), Err(EnvError::EpisodeOver));
    }

    #[test]
    fn skipping_every_opportunity_degenerates_to_no_backfill() {
        let trace = TracePreset::Lublin2.generate(200, 34);
        let mut env = BackfillEnv::new(&trace, Policy::Fcfs, cfg(32));
        while !env.is_done() {
            env.skip_opportunity();
        }
        let no_bf = run_scheduler(&trace, Policy::Fcfs, Backfill::None);
        assert_eq!(
            env.metrics().mean_bounded_slowdown,
            no_bf.metrics.mean_bounded_slowdown
        );
    }

    #[test]
    fn clustered_env_runs_episodes_end_to_end() {
        use hpcsim::RouterSpec;
        let w = swf::partitioned_preset(TracePreset::Lublin2, 2, 300, 41);
        let platform = Platform::from_layout(&w.layout, RouterSpec::LeastLoaded);
        let mut env = BackfillEnv::on_platform(&w.trace, Policy::Fcfs, cfg(32), &platform);
        assert!(env.baseline_bsld().is_finite() && env.baseline_bsld() >= 1.0);
        let mut steps = 0;
        while let Some(obs) = env.observation().cloned() {
            let slot = obs.mask.iter().position(|&m| m).unwrap();
            env.step(slot).unwrap();
            steps += 1;
            assert!(steps < 20_000, "clustered episode failed to terminate");
        }
        assert!(env.is_done());
        assert_eq!(env.metrics().jobs, w.trace.len());
        assert!(env.terminal_reward().is_finite());
    }

    #[test]
    fn rerouted_env_runs_episodes_end_to_end() {
        use hpcsim::{ReroutePolicy, RouterSpec};
        // Decision-point migration under the agent: episodes terminate,
        // every routable job completes, and the per-decision observations
        // stay consistent (valid queue indices into the *active*
        // partition, bounded features) even as jobs migrate between
        // queues under the episode.
        let w = swf::partitioned_preset(TracePreset::Lublin2, 2, 300, 41);
        let platform = Platform::from_layout(&w.layout, RouterSpec::LeastLoaded).rerouted(
            ReroutePolicy::AtDecisionPoints {
                max_moves_per_job: 3,
                min_gain_secs: 0.0,
            },
        );
        let mut env = BackfillEnv::on_platform(&w.trace, Policy::Fcfs, cfg(32), &platform);
        assert!(env.baseline_bsld().is_finite() && env.baseline_bsld() >= 1.0);
        let mut steps = 0;
        while let Some(obs) = env.observation().cloned() {
            // Every unmasked slot must map to a live queue index of the
            // active partition, and its features must stay in range.
            for (slot, qidx) in obs.queue_index.iter().enumerate() {
                if let Some(q) = qidx {
                    assert!(*q < env.simulation().queue().len(), "stale queue index");
                    let row = obs.features.row_slice(slot);
                    assert!(row.iter().all(|v| v.is_finite()));
                }
            }
            let slot = obs.mask.iter().position(|&m| m).unwrap();
            env.step(slot).unwrap();
            steps += 1;
            assert!(steps < 20_000, "rerouted episode failed to terminate");
        }
        assert!(env.is_done());
        assert_eq!(env.metrics().jobs, w.trace.len());
        assert!(env.terminal_reward().is_finite());
        // The same platform without migration realizes a different
        // schedule — the env really ran under re-routing.
        let baseline_platform = Platform::from_layout(&w.layout, RouterSpec::LeastLoaded);
        let mut pinned =
            BackfillEnv::on_platform(&w.trace, Policy::Fcfs, cfg(32), &baseline_platform);
        while !pinned.is_done() {
            pinned.skip_opportunity();
        }
        let mut migrated = BackfillEnv::on_platform(&w.trace, Policy::Fcfs, cfg(32), &platform);
        while !migrated.is_done() {
            migrated.skip_opportunity();
        }
        assert_ne!(
            pinned.metrics().mean_bounded_slowdown,
            migrated.metrics().mean_bounded_slowdown,
            "decision-point migration must change the schedule"
        );
    }

    #[test]
    fn homogeneous_platform_equals_new() {
        use hpcsim::{ClusterSpec, RouterSpec};
        let trace = TracePreset::Lublin1.generate(200, 42);
        let run = |mut env: BackfillEnv| {
            while let Some(obs) = env.observation().cloned() {
                env.step(sjf_chooser(&obs)).unwrap();
            }
            env.metrics().mean_bounded_slowdown
        };
        let flat = run(BackfillEnv::new(&trace, Policy::Fcfs, cfg(32)));
        let clustered = run(BackfillEnv::on_platform(
            &trace,
            Policy::Fcfs,
            cfg(32),
            &Platform::clustered(
                ClusterSpec::homogeneous(trace.cluster_procs()),
                RouterSpec::Affinity,
            ),
        ));
        assert_eq!(flat, clustered);
    }

    #[test]
    fn env_is_deterministic() {
        let trace = TracePreset::Hpc2n.generate(250, 35);
        let run = || {
            let mut env = BackfillEnv::new(&trace, Policy::Sjf, cfg(32));
            while let Some(obs) = env.observation().cloned() {
                env.step(sjf_chooser(&obs)).unwrap();
            }
            env.metrics().mean_bounded_slowdown
        };
        assert_eq!(run(), run());
    }
}
