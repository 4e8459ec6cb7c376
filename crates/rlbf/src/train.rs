//! The RLBackfilling training loop (paper §4.1.1).
//!
//! Per epoch: sample `traj_per_epoch` windows of `jobs_per_traj` consecutive
//! jobs from the training trace, roll each out as one episode with the
//! sampling policy, merge into a GAE buffer, then run the PPO-clip update
//! (80 policy + 80 value iterations by default, learning rate 1e-3, as in
//! the paper). Every gradient step — the imitation passes and both PPO
//! phases — sums its samples through [`ppo::accumulate_chunked`]: fixed
//! chunks of [`ppo::GRAD_CHUNK`] samples merged in chunk order. One agent
//! trains on one thread and depends on its seed alone; independent agents
//! run in parallel through [`desim::Replicator`] (see
//! [`crate::scenario::train_sweep`]).

use crate::env::{BackfillEnv, EnvConfig};
use crate::nets::{BackfillActorCritic, NetConfig};
use crate::obs::Observation;
use hpcsim::{Platform, Policy};
use ppo::{
    accumulate_chunked, ppo_update, ActorCritic, PpoConfig, RolloutBuffer, Step, UpdateStats,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use swf::Trace;

/// The one PPO update, under the name the repo benchmark imports.
pub use ppo::ppo_update as parallel_ppo_update;

/// Training configuration. Defaults follow §4.1.1 of the paper, except
/// `epochs`, which the paper varies per trace (its Figure 4 curves run for
/// up to a few hundred epochs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Base scheduling policy the agent backfills for.
    pub base_policy: Policy,
    /// Training epochs.
    pub epochs: usize,
    /// Trajectories gathered per epoch (paper: 100).
    pub traj_per_epoch: usize,
    /// Consecutive jobs per trajectory (paper: 256).
    pub jobs_per_traj: usize,
    /// PPO hyper-parameters (paper: 80 π and V iterations, lr 1e-3).
    pub ppo: PpoConfig,
    /// Environment (reward/penalty/observation) configuration.
    pub env: EnvConfig,
    /// The machine episodes run on (cluster shape + router — the same
    /// serializable [`Platform`] an `hpcsim::scenario` spec carries); the
    /// flat homogeneous machine by default.
    pub platform: Platform,
    /// Network architecture.
    pub net: NetConfig,
    /// Master seed: training is fully deterministic given the seed
    /// (per-trajectory RNG streams; gradient sums over fixed
    /// [`ppo::GRAD_CHUNK`] chunks merged in chunk order).
    pub seed: u64,
    /// Episodes of EASY demonstrations collected for the imitation
    /// warm-start (0 disables pretraining). The paper trains from scratch
    /// for hundreds of epochs; behavior-cloning the EASY rule first reaches
    /// the same region of policy space in seconds, after which PPO learns
    /// *when to deviate* from EASY (see DESIGN.md).
    pub pretrain_episodes: usize,
    /// Supervised passes over the demonstration set.
    pub pretrain_passes: usize,
    /// Learning rate of the imitation phase (higher than the PPO rate —
    /// supervised targets tolerate big steps).
    pub pretrain_lr: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            base_policy: Policy::Fcfs,
            epochs: 50,
            traj_per_epoch: 100,
            jobs_per_traj: 256,
            ppo: PpoConfig::default(),
            env: EnvConfig::default(),
            platform: Platform::flat(),
            net: NetConfig::default(),
            seed: 0,
            pretrain_episodes: 20,
            pretrain_passes: 150,
            pretrain_lr: 1e-2,
        }
    }
}

impl TrainConfig {
    /// A small configuration for tests and quick demos (minutes → seconds).
    pub fn smoke() -> Self {
        use crate::obs::ObsConfig;
        Self {
            epochs: 3,
            traj_per_epoch: 8,
            jobs_per_traj: 64,
            ppo: PpoConfig {
                train_pi_iters: 10,
                train_v_iters: 10,
                ..PpoConfig::default()
            },
            env: EnvConfig {
                obs: ObsConfig { max_obsv_size: 32 },
                ..EnvConfig::default()
            },
            net: NetConfig {
                obs: ObsConfig { max_obsv_size: 32 },
                policy_hidden: vec![16, 8],
                value_hidden: vec![16, 8],
                ..NetConfig::default()
            },
            ..Self::default()
        }
    }
}

/// Per-epoch training diagnostics (one Figure 4 data point).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean bounded slowdown across the epoch's trajectories.
    pub mean_bsld: f64,
    /// Mean episode return (terminal reward minus penalties).
    pub mean_return: f64,
    /// Mean decision count per trajectory.
    pub mean_decisions: f64,
    /// Total reserved-job delays across the epoch.
    pub violations: usize,
    /// PPO diagnostics of the epoch's update.
    pub update: UpdateStats,
}

/// Outcome of [`train`]: the final networks plus the training curve.
#[derive(Debug, Clone)]
pub struct TrainResult {
    /// Trained actor-critic.
    pub ac: BackfillActorCritic,
    /// The configuration used.
    pub config: TrainConfig,
    /// One entry per epoch (the Figure 4 curve).
    pub history: Vec<EpochStats>,
}

struct TrajectoryOutcome {
    steps: Vec<Step<Observation>>,
    episode_return: f64,
    bsld: f64,
    decisions: usize,
    violations: usize,
}

/// Rolls out one episode with the sampling policy.
fn collect_trajectory(
    trace: &Trace,
    ac: &BackfillActorCritic,
    cfg: &TrainConfig,
    seed: u64,
) -> TrajectoryOutcome {
    let mut rng = SmallRng::seed_from_u64(seed);
    let window = trace.sample_window(cfg.jobs_per_traj, &mut rng);
    let mut env = BackfillEnv::on_platform(&window, cfg.base_policy, cfg.env, &cfg.platform);
    let mut steps = Vec::new();
    let mut episode_return = 0.0;
    while let Some(obs) = env.observation().cloned() {
        let (action, log_prob, value) = ac.act_sample(&obs, &mut rng);
        let (reward, _next) = env
            .step(action)
            .expect("sampled actions are valid by construction");
        episode_return += reward;
        steps.push(Step {
            obs,
            action,
            reward,
            value,
            log_prob,
        });
    }
    TrajectoryOutcome {
        steps,
        episode_return,
        bsld: env.metrics().mean_bounded_slowdown,
        decisions: env.decisions(),
        violations: env.violations(),
    }
}

/// An EASY-rule chooser over encoded observations: the first
/// (submission-ordered) fitting job that is estimated to finish before the
/// reservation or fits the extra processors; skip when nothing is
/// admissible. Features 8/9 encode exactly EASY's admission test, so this
/// reproduces `hpcsim::easy` behaviour from the agent's own view — the
/// demonstration policy for the imitation warm-start.
pub fn easy_like_chooser(obs: &Observation) -> usize {
    for slot in 0..obs.skip_action() {
        if obs.mask[slot] && (obs.features.get(slot, 8) == 1.0 || obs.features.get(slot, 9) == 1.0)
        {
            return slot;
        }
    }
    if obs.skip_allowed() {
        obs.skip_action()
    } else {
        obs.mask
            .iter()
            .position(|&m| m)
            .expect("environment only asks when an action exists")
    }
}

/// Behavior-clones the EASY rule into the policy network: collects
/// demonstration episodes driven by [`easy_like_chooser`], then maximizes
/// the demonstrations' log-likelihood. Returns the final mean
/// cross-entropy (nats per decision).
pub fn pretrain_imitation(
    ac: &mut BackfillActorCritic,
    trace: &Trace,
    cfg: &TrainConfig,
    episodes: usize,
    passes: usize,
) -> f64 {
    let data = demonstrations(trace, cfg, episodes);
    if data.is_empty() {
        return 0.0;
    }
    ac.reset_policy_optimizer(cfg.pretrain_lr);
    let n = data.len() as f64;
    let mut ce = 0.0;
    for _ in 0..passes {
        let log_probs = accumulate_chunked(ac, data.len(), |w, i| {
            w.log_prob_and_grad(&data[i].0, data[i].1, |_| 1.0 / n)
        });
        ce = -log_probs.iter().sum::<f64>() / n;
        ac.policy_opt_step();
    }
    // Hand the networks to PPO with fresh optimizer state at the PPO rate.
    ac.reset_policy_optimizer(ac.config().pi_lr);
    ce
}

/// The `(observation, EASY action)` pairs of `episodes` demonstration
/// episodes, in episode order.
fn demonstrations(trace: &Trace, cfg: &TrainConfig, episodes: usize) -> Vec<(Observation, usize)> {
    (0..episodes)
        .flat_map(|e| {
            let mut rng = SmallRng::seed_from_u64(traj_seed(cfg.seed ^ 0xbc17, 0, e));
            let window = trace.sample_window(cfg.jobs_per_traj, &mut rng);
            let mut env =
                BackfillEnv::on_platform(&window, cfg.base_policy, cfg.env, &cfg.platform);
            let mut out = Vec::new();
            while let Some(obs) = env.observation().cloned() {
                let a = easy_like_chooser(&obs);
                env.step(a).expect("demonstration actions are valid");
                out.push((obs, a));
            }
            out
        })
        .collect()
}

/// Deterministic per-trajectory seed stream.
fn traj_seed(master: u64, epoch: usize, traj: usize) -> u64 {
    let mut z = master
        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(1 + epoch as u64))
        .wrapping_add(0xbf58_476d_1ce4_e5b9u64.wrapping_mul(1 + traj as u64));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 31)
}

/// Trains an RLBackfilling agent on `trace`.
pub fn train(trace: &Trace, cfg: TrainConfig) -> TrainResult {
    assert_eq!(
        cfg.env.obs, cfg.net.obs,
        "environment and network observation configs must agree"
    );
    let mut ac = BackfillActorCritic::new(cfg.net.clone(), cfg.seed);
    if cfg.pretrain_episodes > 0 {
        pretrain_imitation(
            &mut ac,
            trace,
            &cfg,
            cfg.pretrain_episodes,
            cfg.pretrain_passes,
        );
    }
    let mut history = Vec::with_capacity(cfg.epochs);

    for epoch in 0..cfg.epochs {
        let outcomes: Vec<TrajectoryOutcome> = (0..cfg.traj_per_epoch)
            .map(|t| collect_trajectory(trace, &ac, &cfg, traj_seed(cfg.seed, epoch, t)))
            .collect();

        let mut buffer = RolloutBuffer::new(cfg.ppo.gamma, cfg.ppo.lambda);
        let mut mean_bsld = 0.0;
        let mut mean_return = 0.0;
        let mut mean_decisions = 0.0;
        let mut violations = 0;
        let n_traj = outcomes.len() as f64;
        for o in outcomes {
            mean_bsld += o.bsld / n_traj;
            mean_return += o.episode_return / n_traj;
            mean_decisions += o.decisions as f64 / n_traj;
            violations += o.violations;
            buffer.absorb_trajectory(o.steps, 0.0);
        }
        let batch = buffer.into_batch();
        let update = if batch.is_empty() {
            UpdateStats {
                approx_kl: 0.0,
                pi_iters_run: 0,
                value_loss: 0.0,
                clip_frac: 0.0,
            }
        } else {
            ppo_update(&mut ac, &batch, &cfg.ppo)
        };

        history.push(EpochStats {
            epoch,
            mean_bsld,
            mean_return,
            mean_decisions,
            violations,
            update,
        });
    }

    TrainResult {
        ac,
        config: cfg,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swf::TracePreset;

    #[test]
    fn smoke_training_runs_and_records_history() {
        let trace = TracePreset::Lublin2.generate(600, 41);
        let result = train(&trace, TrainConfig::smoke());
        assert_eq!(result.history.len(), 3);
        for e in &result.history {
            assert!(e.mean_bsld.is_finite() && e.mean_bsld >= 1.0);
            assert!(e.mean_return.is_finite());
        }
    }

    #[test]
    fn training_is_deterministic_given_the_seed() {
        let trace = TracePreset::Lublin2.generate(400, 42);
        let mut cfg = TrainConfig::smoke();
        cfg.epochs = 2;
        let a = train(&trace, cfg.clone());
        let b = train(&trace, cfg);
        for (x, y) in a.history.iter().zip(&b.history) {
            assert_eq!(x.mean_bsld, y.mean_bsld);
        }
        // Final networks agree bit-for-bit on a probe observation.
        assert_eq!(a.ac.to_json(), b.ac.to_json());
    }

    /// Pins the bytes of an agent trained through multi-chunk gradient
    /// steps: the demonstration set spans at least 2 [`ppo::GRAD_CHUNK`]
    /// chunks and the PPO batch at least 3. Training runs on one thread, so
    /// the hash must be equal under any CPU mask, e.g. under `taskset -c 0`
    /// and `taskset -c 0-2`.
    #[test]
    fn multi_chunk_training_bits_are_pinned() {
        let trace = TracePreset::Lublin2.generate(600, 41);
        let cfg = TrainConfig {
            epochs: 1,
            traj_per_epoch: 16,
            pretrain_episodes: 4,
            pretrain_passes: 2,
            ppo: PpoConfig {
                train_pi_iters: 2,
                train_v_iters: 2,
                ..PpoConfig::default()
            },
            ..TrainConfig::smoke()
        };
        let demos = demonstrations(&trace, &cfg, cfg.pretrain_episodes).len();
        assert!(demos > ppo::GRAD_CHUNK, "{demos} demonstrations");
        let result = train(&trace, cfg.clone());
        // Skips are steps too, so the batch holds at least the decisions.
        let decisions = result.history[0].mean_decisions * cfg.traj_per_epoch as f64;
        assert!(
            decisions > (2 * ppo::GRAD_CHUNK) as f64,
            "{decisions} decisions"
        );
        assert_eq!(
            crate::nets::tests::fnv1a(&result.ac.to_json()),
            0xa275_4d53_1b58_b581
        );
    }

    #[test]
    fn traj_seeds_are_distinct() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for e in 0..20 {
            for t in 0..50 {
                assert!(seen.insert(traj_seed(1, e, t)), "seed collision at {e},{t}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "must agree")]
    fn mismatched_obs_configs_panic() {
        use crate::obs::ObsConfig;
        let trace = TracePreset::Lublin1.generate(100, 2);
        let mut cfg = TrainConfig::smoke();
        cfg.net.obs = ObsConfig { max_obsv_size: 64 };
        train(&trace, cfg);
    }
}
