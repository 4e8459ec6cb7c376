//! The trained RLBackfilling agent: greedy evaluation, the paper's
//! sampling-based benchmark protocol, and checkpointing.

use crate::env::{BackfillEnv, EnvConfig};
use crate::nets::BackfillActorCritic;
use crate::train::TrainResult;
use desim::Replicator;
use hpcsim::{AuditRecord, BackfillSim, Metrics, Platform, Policy};
use serde::{Deserialize, Serialize};
use swf::Trace;

/// A trained agent bundled with everything needed to deploy it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RlbfAgent {
    /// The actor-critic networks.
    pub ac: BackfillActorCritic,
    /// The base policy the agent was trained with (it can be evaluated
    /// under any policy; Table 5's generality study does exactly that).
    pub trained_with: Policy,
    /// Environment configuration (observation size must match the nets).
    pub env: EnvConfig,
    /// Name of the training trace (e.g. "Lublin-1") — the `RL-X` labels of
    /// Table 5.
    pub trained_on: String,
}

impl RlbfAgent {
    /// Wraps a training result into a deployable agent.
    pub fn from_training(result: &TrainResult, trained_on: impl Into<String>) -> Self {
        Self {
            ac: result.ac.clone(),
            trained_with: result.config.base_policy,
            env: result.config.env,
            trained_on: trained_on.into(),
        }
    }

    /// Schedules `trace` to completion, taking greedy (argmax) backfilling
    /// decisions — the paper's test-time behaviour (§3.3.1).
    pub fn schedule(&self, trace: &Trace, base_policy: Policy) -> Metrics {
        self.schedule_on_counted(trace, base_policy, &Platform::flat())
            .0
    }

    /// [`Self::schedule`] on an explicit [`Platform`] (cluster shape +
    /// router) — the deployment path for `hpcsim::scenario` specs whose
    /// agent slot runs on a partitioned machine — also reporting the
    /// number of trace jobs the platform could not route (the
    /// simulation's authoritative dropped count, so agent reports agree
    /// with heuristic reports field by field).
    pub fn schedule_on_counted(
        &self,
        trace: &Trace,
        base_policy: Policy,
        platform: &Platform,
    ) -> (Metrics, usize) {
        self.deploy(trace, base_policy, platform, |_| {})
    }

    /// [`Self::schedule_on_counted`] with the agent's decisions logged as
    /// [`AuditRecord::AgentPicked`] records — at each decision point where
    /// the greedy policy selects a queued job (not the skip action), the
    /// record carries which job it picked, the observation slot, and the
    /// actor's logit score, so learned choices are directly comparable to
    /// the heuristic skip reasons in a full audit log. The realized
    /// schedule is identical to [`Self::schedule_on_counted`]'s.
    pub fn schedule_on_audited(
        &self,
        trace: &Trace,
        base_policy: Policy,
        platform: &Platform,
    ) -> (Metrics, usize, Vec<AuditRecord>) {
        let mut picks = Vec::new();
        let (metrics, dropped) = self.deploy(trace, base_policy, platform, |r| picks.push(r));
        (metrics, dropped, picks)
    }

    /// The greedy deploy loop behind both schedule methods: `on_pick`
    /// receives the [`AuditRecord::AgentPicked`] of every decision that
    /// starts a queued job. Returns the metrics and the dropped count.
    fn deploy(
        &self,
        trace: &Trace,
        base_policy: Policy,
        platform: &Platform,
        mut on_pick: impl FnMut(AuditRecord),
    ) -> (Metrics, usize) {
        let mut env = BackfillEnv::on_platform(trace, base_policy, self.env, platform);
        while let Some(obs) = env.observation() {
            let (slot, score) = self.ac.act_greedy_scored(obs);
            if let Some(qidx) = obs.queue_index[slot] {
                let sim = env.simulation();
                on_pick(AuditRecord::AgentPicked {
                    t: sim.now(),
                    job: sim.queue()[qidx].id,
                    slot,
                    score,
                });
            }
            env.step(slot)
                .expect("greedy actions are valid by construction");
        }
        let dropped = env.simulation().dropped_jobs();
        (env.metrics(), dropped)
    }

    /// The paper's evaluation protocol (§4.3): sample `samples` random
    /// windows of `window_len` jobs, schedule each, report the mean bounded
    /// slowdown. Windows run in parallel; the seed makes the windows
    /// reproducible so competing schedulers see identical sequences.
    pub fn evaluate(
        &self,
        trace: &Trace,
        base_policy: Policy,
        samples: usize,
        window_len: usize,
        seed: u64,
    ) -> f64 {
        let windows = sample_windows(trace, samples, window_len, seed);
        let total: f64 = map_windows(&windows, |w| {
            self.schedule(w, base_policy).mean_bounded_slowdown
        })
        .into_iter()
        .sum();
        total / samples as f64
    }

    /// Saves the agent as JSON.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, serde_json::to_string(self).expect("agent serializes"))
    }

    /// Loads an agent saved with [`Self::save`].
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        serde_json::from_str(&json)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// The evaluation windows used by [`RlbfAgent::evaluate`] — exposed so
/// heuristic baselines can be measured on the *same* sequences. Delegates
/// to [`hpcsim::scenario::sample_windows`], the canonical window stream:
/// agents, heuristics and `scenario::run` all see identical sequences for
/// the same seed.
pub fn sample_windows(trace: &Trace, samples: usize, window_len: usize, seed: u64) -> Vec<Trace> {
    hpcsim::scenario::sample_windows(trace, samples, window_len, seed)
}

/// Mean bounded slowdown of a heuristic scheduler over the same evaluation
/// windows (the EASY/EASY-AR columns of Tables 4 and 5).
pub fn evaluate_heuristic(
    trace: &Trace,
    base_policy: Policy,
    backfill: hpcsim::Backfill,
    samples: usize,
    window_len: usize,
    seed: u64,
) -> f64 {
    let windows = sample_windows(trace, samples, window_len, seed);
    let total: f64 = map_windows(&windows, |w| {
        hpcsim::run_scheduler(w, base_policy, backfill)
            .metrics
            .mean_bounded_slowdown
    })
    .into_iter()
    .sum();
    total / samples as f64
}

/// `f` of every window, run in parallel through [`Replicator`] (which
/// hands out seeds `f` does not need) and returned in window order.
pub(crate) fn map_windows<T: Send>(windows: &[Trace], f: impl Fn(&Trace) -> T + Sync) -> Vec<T> {
    Replicator::new(0).run(windows.len(), |i, _| f(&windows[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{train, TrainConfig};
    use hpcsim::{Backfill, RuntimeEstimator};
    use swf::TracePreset;

    fn quick_agent(trace: &Trace) -> RlbfAgent {
        let mut cfg = TrainConfig::smoke();
        cfg.epochs = 1;
        cfg.traj_per_epoch = 4;
        let result = train(trace, cfg);
        RlbfAgent::from_training(&result, trace.name())
    }

    #[test]
    fn agent_schedules_every_job() {
        let trace = TracePreset::Lublin1.generate(500, 51);
        let agent = quick_agent(&trace);
        let m = agent.schedule(&trace.window(0, 200), Policy::Fcfs);
        assert_eq!(m.jobs, 200);
        // And under a base policy it was not trained with (generality).
        let m2 = agent.schedule(&trace.window(0, 200), Policy::Sjf);
        assert_eq!(m2.jobs, 200);
    }

    #[test]
    fn audited_schedule_matches_and_logs_valid_picks() {
        let trace = TracePreset::Lublin1.generate(500, 53);
        let agent = quick_agent(&trace);
        let window = trace.window(0, 200);
        let platform = Platform::flat();
        let (m, dropped) = agent.schedule_on_counted(&window, Policy::Fcfs, &platform);
        let (ma, da, picks) = agent.schedule_on_audited(&window, Policy::Fcfs, &platform);
        // The pick log is a pure observer: identical schedule either way.
        assert_eq!(m, ma);
        assert_eq!(dropped, da);
        let ids: std::collections::HashSet<usize> = window.jobs().iter().map(|j| j.id).collect();
        let mut last_t = f64::NEG_INFINITY;
        for pick in &picks {
            let AuditRecord::AgentPicked { t, job, score, .. } = pick else {
                panic!("agent audit logs only AgentPicked records, got {pick:?}");
            };
            assert!(ids.contains(job), "picked job {job} is not in the trace");
            assert!(*t >= last_t, "picks must be time-ordered");
            assert!(score.is_finite());
            last_t = *t;
        }
        // Determinism: the same run yields the same pick log.
        let (_, _, picks2) = agent.schedule_on_audited(&window, Policy::Fcfs, &platform);
        assert_eq!(picks, picks2);
    }

    #[test]
    fn evaluate_is_reproducible_and_windows_are_shared() {
        let trace = TracePreset::Lublin2.generate(800, 52);
        let agent = quick_agent(&trace);
        let a = agent.evaluate(&trace, Policy::Fcfs, 3, 128, 99);
        let b = agent.evaluate(&trace, Policy::Fcfs, 3, 128, 99);
        assert_eq!(a, b);
        let heur = evaluate_heuristic(
            &trace,
            Policy::Fcfs,
            Backfill::Easy(RuntimeEstimator::RequestTime),
            3,
            128,
            99,
        );
        assert!(heur.is_finite() && heur >= 1.0);

        // Both means equal the scenario runs of the matching flat windows
        // spec bit for bit: the windows, their order and the float sum are
        // the same on every path.
        let builder = || {
            hpcsim::scenario::ScenarioSpec::builder(swf::TraceSource::Preset {
                preset: TracePreset::Lublin2,
                jobs: 800,
                seed: 52,
            })
            .policy(Policy::Fcfs)
            .windows(3, 128, 99)
        };
        let heur_spec = builder()
            .backfill(Backfill::Easy(RuntimeEstimator::RequestTime))
            .build();
        let heur_run = hpcsim::scenario::run(&heur_spec).unwrap();
        assert_eq!(
            heur.to_bits(),
            heur_run.metrics.mean_bounded_slowdown.to_bits()
        );
        let agent_spec = builder()
            .agent(crate::agent_slot(&agent.env, None, None))
            .build();
        let agent_run = crate::run_spec_with_agent(&agent_spec, &agent).unwrap();
        assert_eq!(
            a.to_bits(),
            agent_run.metrics.mean_bounded_slowdown.to_bits()
        );
    }

    #[test]
    fn save_load_round_trips() {
        let trace = TracePreset::Lublin1.generate(300, 53);
        let agent = quick_agent(&trace);
        let dir = std::env::temp_dir().join("rlbf_agent_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("agent.json");
        agent.save(&path).unwrap();
        let back = RlbfAgent::load(&path).unwrap();
        assert_eq!(back.trained_on, agent.trained_on);
        assert_eq!(back.trained_with, agent.trained_with);
        let w = trace.window(0, 100);
        assert_eq!(
            agent.schedule(&w, Policy::Fcfs).mean_bounded_slowdown,
            back.schedule(&w, Policy::Fcfs).mean_bounded_slowdown
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_a_matrix_with_missing_weights() {
        let agent = RlbfAgent {
            ac: BackfillActorCritic::new(crate::NetConfig::default(), 1),
            trained_with: Policy::Fcfs,
            env: EnvConfig::default(),
            trained_on: "none".into(),
        };
        // Drop the first weight of the first matrix in the checkpoint.
        let json = serde_json::to_string(&agent).unwrap();
        let start = json.find("\"data\":[").unwrap() + "\"data\":[".len();
        let comma = start + json[start..].find(',').unwrap();
        let dir = std::env::temp_dir().join("rlbf_agent_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("truncated_matrix.json");
        std::fs::write(&path, format!("{}{}", &json[..start], &json[comma + 1..])).unwrap();
        let err = RlbfAgent::load(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("rows·cols"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = std::env::temp_dir().join("rlbf_agent_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.json");
        std::fs::write(&path, "not json").unwrap();
        assert!(RlbfAgent::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
