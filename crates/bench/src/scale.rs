//! Experiment scaling: the paper's full protocol vs a laptop-quick default.
//!
//! The paper trains for hundreds of epochs of 100 trajectories × 256 jobs
//! with a 128-slot observation, and evaluates on 10 random windows of 1024
//! jobs. Running *all* experiments at that scale takes hours; the default
//! scale preserves every protocol shape (same windows, same baselines, same
//! pipeline) at a budget that finishes in minutes. `--full` restores the
//! paper's numbers; individual knobs (`--epochs N`, `--traj N`, …)
//! override either.

use hpcsim::Policy;
use rlbf::prelude::*;
use serde::{Deserialize, Serialize};

/// All experiment-scale knobs in one place.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Scale {
    /// Jobs generated per preset trace (paper: first 10K of each trace).
    pub trace_jobs: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Trajectories per epoch (paper: 100).
    pub traj_per_epoch: usize,
    /// Jobs per trajectory (paper: 256).
    pub jobs_per_traj: usize,
    /// Observation slots (paper: 128; at most
    /// [`rlbf::MAX_SUPPORTED_OBSV_SIZE`]).
    pub max_obsv_size: usize,
    /// Evaluation windows (paper: 10).
    pub eval_samples: usize,
    /// Jobs per evaluation window (paper: 1024).
    pub eval_window: usize,
    /// Master seed.
    pub seed: u64,
}

impl Scale {
    /// The default laptop-quick scale.
    pub fn quick() -> Self {
        Self {
            trace_jobs: 4000,
            epochs: 25,
            traj_per_epoch: 24,
            jobs_per_traj: 256,
            max_obsv_size: 64,
            eval_samples: 10,
            eval_window: 1024,
            seed: 1,
        }
    }

    /// The paper's protocol (§4.1.1, §4.3).
    pub fn full() -> Self {
        Self {
            trace_jobs: 10_000,
            epochs: 200,
            traj_per_epoch: 100,
            jobs_per_traj: 256,
            max_obsv_size: 128,
            eval_samples: 10,
            eval_window: 1024,
            seed: 1,
        }
    }

    /// Parses `--quick`, `--full` and per-knob overrides from an argument
    /// stream (typically `std::env::args().skip(1)`).
    pub fn from_args(args: impl Iterator<Item = String>) -> Self {
        let args: Vec<String> = args.collect();
        let mut scale = if args.iter().any(|a| a == "--full") {
            Self::full()
        } else {
            Self::quick()
        };
        let mut i = 0;
        while i < args.len() {
            let take = |i: usize| -> Option<usize> { args.get(i + 1)?.parse().ok() };
            match args[i].as_str() {
                "--epochs" => scale.epochs = take(i).expect("--epochs N"),
                "--traj" => scale.traj_per_epoch = take(i).expect("--traj N"),
                "--jobs-per-traj" => scale.jobs_per_traj = take(i).expect("--jobs-per-traj N"),
                "--obsv" => scale.max_obsv_size = take(i).expect("--obsv N"),
                "--samples" => scale.eval_samples = take(i).expect("--samples N"),
                "--window" => scale.eval_window = take(i).expect("--window N"),
                "--trace-jobs" => scale.trace_jobs = take(i).expect("--trace-jobs N"),
                "--seed" => {
                    scale.seed = args
                        .get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .expect("--seed N")
                }
                _ => {}
            }
            i += 1;
        }
        assert!(
            scale.max_obsv_size <= rlbf::MAX_SUPPORTED_OBSV_SIZE,
            "--obsv {} exceeds the supported {} slots",
            scale.max_obsv_size,
            rlbf::MAX_SUPPORTED_OBSV_SIZE
        );
        scale
    }

    /// Parses the process's own CLI arguments.
    pub fn from_env() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// The training configuration this scale implies.
    pub fn train_config(&self, base_policy: Policy) -> TrainConfig {
        let (env, net) = crate::obs_configs(self.max_obsv_size);
        TrainConfig {
            base_policy,
            epochs: self.epochs,
            traj_per_epoch: self.traj_per_epoch,
            jobs_per_traj: self.jobs_per_traj,
            env,
            net,
            seed: self.seed,
            ..TrainConfig::default()
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Self::quick()
    }
}
