//! The RL side of the `hpcsim::scenario` experiment API.
//!
//! An [`hpcsim::scenario::ScenarioSpec`] whose scheduler is an
//! [`AgentSlot`] cannot be executed by `hpcsim` itself — the slot names a
//! learned decision-maker this crate owns. This module interprets it:
//!
//! * [`slot_env_config`] / [`slot_train_config`] decode the slot's opaque
//!   `env` / `train` JSON payloads into [`EnvConfig`] / [`TrainConfig`]
//!   (so an RL experiment's hyper-parameters live in the same committed
//!   spec file as its workload, machine and policy);
//! * [`agent_slot`] authors a slot from concrete configs;
//! * [`run_spec`] executes any spec — heuristics via
//!   [`hpcsim::scenario::run`], agent slots by loading the checkpoint and
//!   deploying it greedily on the spec's platform and protocol — into the
//!   same uniform [`RunReport`];
//! * [`train_from_spec`] trains the slot's configuration on the spec's
//!   trace and platform;
//! * [`train_sweep`] fans multi-seed *training* runs out across threads
//!   with [`desim::Replicator`] and merges the per-seed
//!   [`TrainResult`]s into one [`TrainSweepReport`] (mean ± std training
//!   curves, per-seed finals, best seed) — the multi-seed counterpart of
//!   the evaluation sweeps that have been Replicator-parallel since the
//!   cluster PR.

use crate::agent::RlbfAgent;
use crate::env::EnvConfig;
use crate::train::{train, TrainConfig, TrainResult};
use desim::Replicator;
use hpcsim::scenario::{self, AgentSlot, Protocol, RunReport, ScenarioSpec, SchedulerSpec};
use hpcsim::Metrics;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use swf::Trace;

/// Decodes the slot's environment configuration (default when absent).
pub fn slot_env_config(slot: &AgentSlot) -> Result<EnvConfig, String> {
    match &slot.env {
        None => Ok(EnvConfig::default()),
        Some(v) => EnvConfig::from_value(v).map_err(|e| format!("agent slot env config: {e}")),
    }
}

/// Decodes the slot's training configuration, when present.
pub fn slot_train_config(slot: &AgentSlot) -> Result<Option<TrainConfig>, String> {
    match &slot.train {
        None => Ok(None),
        Some(v) => TrainConfig::from_value(v)
            .map(Some)
            .map_err(|e| format!("agent slot train config: {e}")),
    }
}

/// Authors an [`AgentSlot`] from concrete RL configs, for building spec
/// files: the slot round-trips back through [`slot_env_config`] /
/// [`slot_train_config`].
pub fn agent_slot(
    env: &EnvConfig,
    train: Option<&TrainConfig>,
    checkpoint: Option<String>,
) -> AgentSlot {
    AgentSlot {
        checkpoint,
        env: Some(env.to_value()),
        train: train.map(|t| t.to_value()),
    }
}

/// The effective training configuration of a spec: the slot's embedded
/// `train` payload (or defaults), with the spec's `policy` as the base
/// policy, the spec's `platform` as the episode machine, and the slot's
/// `env` payload (when the `train` payload is absent) as the environment.
pub fn spec_train_config(spec: &ScenarioSpec) -> Result<TrainConfig, String> {
    let slot = match &spec.scheduler {
        SchedulerSpec::Agent(slot) => slot,
        SchedulerSpec::Heuristic(_) => {
            return Err("spec schedules with a heuristic; there is nothing to train".into())
        }
    };
    let mut cfg = match slot_train_config(slot)? {
        Some(cfg) => cfg,
        None => {
            let env = slot_env_config(slot)?;
            let mut cfg = TrainConfig {
                env,
                ..TrainConfig::default()
            };
            cfg.net.obs = env.obs;
            cfg
        }
    };
    cfg.base_policy = spec.policy;
    cfg.platform = spec.platform.clone();
    Ok(cfg)
}

/// Trains the spec's agent slot on the spec's trace and platform.
pub fn train_from_spec(spec: &ScenarioSpec) -> Result<TrainResult, String> {
    let cfg = spec_train_config(spec)?;
    let trace = spec.trace.materialize()?;
    Ok(train(&trace, cfg))
}

/// Executes one spec end-to-end into a uniform [`RunReport`]: heuristic
/// schedulers via [`hpcsim::scenario::run`], agent slots by loading the
/// named checkpoint and deploying it greedily.
pub fn run_spec(spec: &ScenarioSpec) -> Result<RunReport, String> {
    match &spec.scheduler {
        SchedulerSpec::Heuristic(_) => scenario::run(spec).map_err(|e| e.to_string()),
        SchedulerSpec::Agent(slot) => {
            let path = slot.checkpoint.as_ref().ok_or_else(|| {
                "agent slot has no checkpoint; train first (train_from_spec) or \
                 deploy an in-memory agent (run_spec_with_agent)"
                    .to_string()
            })?;
            let agent = RlbfAgent::load(path)
                .map_err(|e| format!("cannot load agent checkpoint {path:?}: {e}"))?;
            run_spec_with_agent(spec, &agent)
        }
    }
}

/// Executes an agent spec with an in-memory agent (skipping the
/// checkpoint): greedy deployment on the spec's platform, whole-trace or
/// §4.3 windows per the spec's protocol, reported in the same
/// [`RunReport`] shape as heuristic runs.
pub fn run_spec_with_agent(spec: &ScenarioSpec, agent: &RlbfAgent) -> Result<RunReport, String> {
    let (trace, protocol) = scenario::materialize(spec, None).map_err(|e| e.to_string())?;
    let (metrics, dropped) = match protocol {
        Protocol::FullTrace => agent.schedule_on_counted(&trace, spec.policy, &spec.platform),
        Protocol::Windows {
            samples,
            window_len,
            seed,
        } => {
            let windows = scenario::sample_windows(&trace, samples, window_len, seed);
            let per: Vec<(Metrics, usize)> = windows
                .par_iter()
                .map(|w| agent.schedule_on_counted(w, spec.policy, &spec.platform))
                .collect();
            let dropped = per.iter().map(|(_, d)| d).sum();
            let metrics: Vec<Metrics> = per.into_iter().map(|(m, _)| m).collect();
            (scenario::mean_metrics(&metrics), dropped)
        }
    };
    Ok(scenario::make_report(spec, None, metrics, dropped, None))
}

/// Per-seed summary of one training run in a sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeedTrainStats {
    /// The training seed.
    pub seed: u64,
    /// Train-set bsld of the final epoch.
    pub final_bsld: f64,
    /// Mean episode return of the final epoch.
    pub final_return: f64,
    /// Reserved-job delays in the final epoch.
    pub final_violations: usize,
    /// The best (lowest) epoch bsld seen during training.
    pub best_bsld: f64,
}

/// The merged outcome of a multi-seed training sweep — the serializable
/// report (the networks stay in [`TrainSweep::results`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainSweepReport {
    /// What was swept (a scenario label or a caller-supplied tag).
    pub label: String,
    /// The seeds, in sweep order.
    pub seeds: Vec<u64>,
    /// Training epochs per seed.
    pub epochs: usize,
    /// Per-seed final/best statistics.
    pub per_seed: Vec<SeedTrainStats>,
    /// Per-epoch mean train-set bsld across seeds (the merged Figure 4
    /// curve).
    pub curve_mean: Vec<f64>,
    /// Per-epoch population std of train-set bsld across seeds.
    pub curve_std: Vec<f64>,
    /// Mean final-epoch bsld across seeds.
    pub final_mean: f64,
    /// Population std of final-epoch bsld across seeds.
    pub final_std: f64,
    /// The seed with the lowest final-epoch bsld.
    pub best_seed: u64,
}

/// A finished training sweep: the report plus every seed's full
/// [`TrainResult`] (networks + history), in seed order.
#[derive(Debug, Clone)]
pub struct TrainSweep {
    /// The merged, serializable summary.
    pub report: TrainSweepReport,
    /// Per-seed training outcomes (same order as `report.seeds`).
    pub results: Vec<TrainResult>,
}

impl TrainSweep {
    /// The training result of the sweep's best seed.
    pub fn best(&self) -> &TrainResult {
        let i = self
            .report
            .seeds
            .iter()
            .position(|&s| s == self.report.best_seed)
            .expect("best seed is one of the sweep seeds");
        &self.results[i]
    }
}

/// Runs [`train`] once per seed, fanned out across OS threads with
/// [`desim::Replicator`] (trajectory collection inside each run stays
/// rayon-parallel; the pool is shared), and merges the results. Training
/// is thread-count independent, so the sweep is deterministic in
/// `(trace, cfg, seeds)` regardless of how replications interleave.
pub fn train_sweep(
    trace: &Trace,
    cfg: &TrainConfig,
    seeds: &[u64],
    label: impl Into<String>,
) -> TrainSweep {
    let results: Vec<TrainResult> = Replicator::new(cfg.seed)
        .run(seeds.len(), |i, _| {
            let mut c = cfg.clone();
            c.seed = seeds[i];
            train(trace, c)
        })
        .into_iter()
        .collect();

    let per_seed: Vec<SeedTrainStats> = results
        .iter()
        .zip(seeds)
        .map(|(r, &seed)| {
            let last = r.history.last();
            SeedTrainStats {
                seed,
                final_bsld: last.map_or(f64::NAN, |e| e.mean_bsld),
                final_return: last.map_or(f64::NAN, |e| e.mean_return),
                final_violations: last.map_or(0, |e| e.violations),
                best_bsld: r
                    .history
                    .iter()
                    .map(|e| e.mean_bsld)
                    .fold(f64::INFINITY, f64::min),
            }
        })
        .collect();

    let epochs = results.iter().map(|r| r.history.len()).max().unwrap_or(0);
    let mut curve_mean = Vec::with_capacity(epochs);
    let mut curve_std = Vec::with_capacity(epochs);
    for e in 0..epochs {
        let vals: Vec<f64> = results
            .iter()
            .filter_map(|r| r.history.get(e).map(|h| h.mean_bsld))
            .collect();
        let n = vals.len().max(1) as f64;
        let mean = vals.iter().sum::<f64>() / n;
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        curve_mean.push(mean);
        curve_std.push(var.sqrt());
    }

    let n = per_seed.len().max(1) as f64;
    let final_mean = per_seed.iter().map(|s| s.final_bsld).sum::<f64>() / n;
    let final_var = per_seed
        .iter()
        .map(|s| (s.final_bsld - final_mean) * (s.final_bsld - final_mean))
        .sum::<f64>()
        / n;
    let best_seed = per_seed
        .iter()
        .min_by(|a, b| a.final_bsld.total_cmp(&b.final_bsld))
        .map_or(cfg.seed, |s| s.seed);

    TrainSweep {
        report: TrainSweepReport {
            label: label.into(),
            seeds: seeds.to_vec(),
            epochs,
            per_seed,
            curve_mean,
            curve_std,
            final_mean,
            final_std: final_var.sqrt(),
            best_seed,
        },
        results,
    }
}

/// [`train_sweep`] driven by a spec: trains the spec's agent slot on the
/// spec's trace and platform once per seed (the spec's own `seeds` when
/// `seeds` is `None`).
pub fn train_sweep_spec(spec: &ScenarioSpec, seeds: Option<&[u64]>) -> Result<TrainSweep, String> {
    let cfg = spec_train_config(spec)?;
    let trace = spec.trace.materialize()?;
    let seeds: Vec<u64> = match seeds {
        Some(s) => s.to_vec(),
        None if !spec.seeds.is_empty() => spec.seeds.clone(),
        None => vec![cfg.seed],
    };
    Ok(train_sweep(&trace, &cfg, &seeds, spec.label()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcsim::prelude::*;
    use swf::{TracePreset, TraceSource};

    fn smoke_source() -> TraceSource {
        TraceSource::Preset {
            preset: TracePreset::Lublin2,
            jobs: 600,
            seed: 41,
        }
    }

    fn smoke_slot() -> AgentSlot {
        let cfg = TrainConfig::smoke();
        agent_slot(&cfg.env, Some(&cfg), None)
    }

    #[test]
    fn slot_configs_round_trip() {
        let cfg = TrainConfig::smoke();
        let slot = agent_slot(&cfg.env, Some(&cfg), Some("ckpt.json".into()));
        assert_eq!(slot_env_config(&slot).unwrap(), cfg.env);
        assert_eq!(slot_train_config(&slot).unwrap(), Some(cfg.clone()));
        // Specs written while `PpoConfig` still had `pi_lr`, `v_lr` and
        // `entropy_coef` decode to the same config: unknown keys are ignored.
        let mut legacy = slot.clone();
        let Some(serde::Value::Object(train)) = &mut legacy.train else {
            panic!("the train config is a JSON object");
        };
        let Some((_, serde::Value::Object(ppo))) = train.iter_mut().find(|(k, _)| k == "ppo")
        else {
            panic!("the train config has a ppo object");
        };
        for key in ["pi_lr", "v_lr", "entropy_coef"] {
            ppo.push((key.into(), serde::Value::Number(serde::Number::F64(0.5))));
        }
        assert_eq!(slot_train_config(&legacy).unwrap(), Some(cfg));
        let empty = AgentSlot::default();
        assert_eq!(slot_env_config(&empty).unwrap(), EnvConfig::default());
        assert_eq!(slot_train_config(&empty).unwrap(), None);
    }

    #[test]
    fn spec_train_config_inherits_policy_and_platform() {
        let w = swf::partitioned_preset(TracePreset::Lublin2, 2, 200, 3);
        let spec = ScenarioSpec::builder(smoke_source())
            .policy(Policy::Sjf)
            .agent(smoke_slot())
            .platform(Platform::from_layout(&w.layout, RouterSpec::LeastLoaded))
            .build();
        let cfg = spec_train_config(&spec).unwrap();
        assert_eq!(cfg.base_policy, Policy::Sjf);
        assert_eq!(cfg.platform, spec.platform);
        assert_eq!(cfg.epochs, TrainConfig::smoke().epochs);
    }

    #[test]
    fn heuristic_spec_has_nothing_to_train() {
        let spec = ScenarioSpec::builder(smoke_source()).build();
        assert!(spec_train_config(&spec).is_err());
        // But run_spec executes it exactly like hpcsim::scenario::run.
        let via_bridge = run_spec(&spec).unwrap();
        let direct = hpcsim::scenario::run(&spec).unwrap();
        assert_eq!(via_bridge, direct);
    }

    #[test]
    fn train_and_deploy_through_one_spec() {
        let spec = ScenarioSpec::builder(smoke_source())
            .agent(smoke_slot())
            .windows(3, 128, 9)
            .build();
        let result = train_from_spec(&spec).unwrap();
        assert_eq!(result.history.len(), TrainConfig::smoke().epochs);
        let agent = RlbfAgent::from_training(&result, spec.trace.label());
        let report = run_spec_with_agent(&spec, &agent).unwrap();
        assert_eq!(report.label, "Lublin-2 · FCFS+RLBF · 3x128w");
        assert!(report.metrics.mean_bounded_slowdown >= 1.0);
        // The windows are the shared §4.3 stream: the agent's own
        // evaluate() over the same (samples, len, seed) must agree.
        let trace = spec.trace.materialize().unwrap();
        let direct = agent.evaluate(&trace, Policy::Fcfs, 3, 128, 9);
        assert_eq!(report.metrics.mean_bounded_slowdown, direct);
    }

    #[test]
    fn missing_checkpoint_is_a_clean_error() {
        let spec = ScenarioSpec::builder(smoke_source())
            .agent(AgentSlot {
                checkpoint: Some("/nope/agent.json".into()),
                ..AgentSlot::default()
            })
            .build();
        let err = run_spec(&spec).unwrap_err();
        assert!(err.contains("cannot load agent checkpoint"), "{err}");
        let no_ckpt = ScenarioSpec::builder(smoke_source())
            .agent(AgentSlot::default())
            .build();
        assert!(run_spec(&no_ckpt).unwrap_err().contains("no checkpoint"));
    }

    #[test]
    fn train_sweep_is_deterministic_and_merges_per_seed_stats() {
        let trace = TracePreset::Lublin2.generate(400, 42);
        let mut cfg = TrainConfig::smoke();
        cfg.epochs = 2;
        let seeds = [3u64, 4, 5];
        let sweep = train_sweep(&trace, &cfg, &seeds, "smoke sweep");
        assert_eq!(sweep.report.seeds, seeds);
        assert_eq!(sweep.report.per_seed.len(), 3);
        assert_eq!(sweep.report.epochs, 2);
        assert_eq!(sweep.report.curve_mean.len(), 2);
        assert!(sweep.report.final_mean.is_finite());
        assert!(seeds.contains(&sweep.report.best_seed));
        assert_eq!(
            sweep.best().config.seed,
            sweep.report.best_seed,
            "best() returns the best seed's result"
        );
        // Sweeping is execution-order independent: a second run merges to
        // the identical report.
        let again = train_sweep(&trace, &cfg, &seeds, "smoke sweep");
        assert_eq!(again.report, sweep.report);
        // And per-seed results equal standalone training with that seed.
        let mut solo_cfg = cfg.clone();
        solo_cfg.seed = seeds[1];
        let solo = train(&trace, solo_cfg);
        assert_eq!(
            solo.history.last().unwrap().mean_bsld,
            sweep.report.per_seed[1].final_bsld
        );
    }

    #[test]
    fn train_sweep_spec_uses_spec_seeds() {
        let mut cfg = TrainConfig::smoke();
        cfg.epochs = 1;
        cfg.traj_per_epoch = 4;
        let spec = ScenarioSpec::builder(TraceSource::Preset {
            preset: TracePreset::Lublin2,
            jobs: 300,
            seed: 8,
        })
        .agent(agent_slot(&cfg.env, Some(&cfg), None))
        .seeds(vec![10, 11])
        .build();
        let sweep = train_sweep_spec(&spec, None).unwrap();
        assert_eq!(sweep.report.seeds, vec![10, 11]);
        assert_eq!(sweep.report.label, spec.label());
        let json = serde_json::to_string_pretty(&sweep.report).unwrap();
        let back: TrainSweepReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, sweep.report);
    }
}
