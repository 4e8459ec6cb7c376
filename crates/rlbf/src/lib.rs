//! **RLBackfilling** — the paper's primary contribution: a PPO-trained
//! agent that makes backfilling decisions directly, learning the trade-off
//! between runtime-prediction accuracy and backfilling opportunity instead
//! of fixing it with a heuristic.
//!
//! * [`obs`] — observation encoding (§3.2): job vectors sorted by submit
//!   time, `MAX_OBSV_SIZE` slots, availability appended per job, reserved
//!   job masked.
//! * [`nets`] — the kernel policy network and MLP value network (§3.3).
//! * [`env`](mod@env) — the decision-point environment with the sparse terminal
//!   reward and violation penalty (§3.4).
//! * [`train`](mod@train) — the PPO training loop (§4.1.1: 100 trajectories × 256
//!   jobs per epoch, 80 update iterations, lr 1e-3), serial within one
//!   agent, with gradients summed over fixed [`ppo::GRAD_CHUNK`]-sample
//!   chunks in chunk order.
//! * [`agent`] — greedy deployment, the 10×1024-job evaluation protocol of
//!   §4.3, and JSON checkpointing.
//! * [`scenario`] — the RL side of the `hpcsim::scenario` experiment API:
//!   decode/author agent slots, run any spec to a uniform `RunReport`,
//!   train from a spec, and Replicator-parallel multi-seed
//!   [`scenario::train_sweep`]s.
//!
//! ```no_run
//! use rlbf::prelude::*;
//! use swf::TracePreset;
//!
//! let trace = TracePreset::Lublin1.generate(10_000, 0);
//! let result = train(&trace, TrainConfig::default());
//! let agent = RlbfAgent::from_training(&result, trace.name());
//! let bsld = agent.evaluate(&trace, hpcsim::Policy::Fcfs, 10, 1024, 7);
//! println!("FCFS+RLBF bsld = {bsld:.2}");
//! ```

pub mod agent;
pub mod env;
pub mod nets;
pub mod obs;
pub mod scenario;
pub mod train;

pub use agent::{evaluate_heuristic, sample_windows, RlbfAgent};
pub use env::{BackfillEnv, EnvConfig, EnvError, Objective, RewardKind};
pub use nets::{BackfillActorCritic, NetConfig};
pub use obs::{ObsConfig, Observation, PartitionCtx, JOB_FEATURES, MAX_SUPPORTED_OBSV_SIZE};
pub use scenario::{
    agent_slot, run_spec, run_spec_with_agent, train_from_spec, train_sweep, train_sweep_spec,
    TrainSweep, TrainSweepReport,
};
pub use train::{
    easy_like_chooser, parallel_ppo_update, pretrain_imitation, train, EpochStats, TrainConfig,
    TrainResult,
};

/// Convenient glob import.
pub mod prelude {
    pub use crate::agent::{evaluate_heuristic, sample_windows, RlbfAgent};
    pub use crate::env::{BackfillEnv, EnvConfig, Objective, RewardKind};
    pub use crate::nets::{BackfillActorCritic, NetConfig};
    pub use crate::obs::{ObsConfig, Observation};
    pub use crate::scenario::{
        agent_slot, run_spec, run_spec_with_agent, train_from_spec, train_sweep, train_sweep_spec,
        TrainSweep, TrainSweepReport,
    };
    pub use crate::train::{train, EpochStats, TrainConfig, TrainResult};
}
