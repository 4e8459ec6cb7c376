//! Shared experiment infrastructure for the paper-reproduction binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin/`, and
//! since the scenario redesign each binary is the same three steps:
//! **build [`ScenarioSpec`]s → run them → write the reports** (one shared
//! report-writer, [`write_reports`]). This library provides the pieces
//! they share: spec construction helpers bound to the experiment
//! [`Scale`], agent training with on-disk checkpoint caching (so Table 4,
//! Table 5 and the ablations reuse the same trained models), and result
//! emission (pretty table to stdout + JSON under `results/`).

use desim::Replicator;
use hpcsim::prelude::*;
use rlbf::prelude::*;
use rlbf::ObsConfig;
use serde::Serialize;
use std::path::PathBuf;
use swf::{Trace, TracePreset, TraceSource};

pub mod scale;

pub use scale::Scale;

/// The deterministic seed experiments generate traces with.
pub const TRACE_SEED: u64 = 20240914;

/// Generates the evaluation trace for a preset at the experiment scale.
pub fn load_trace(preset: TracePreset, scale: &Scale) -> Trace {
    preset.generate(scale.trace_jobs, TRACE_SEED)
}

/// The [`TraceSource`] equivalent of [`load_trace`]: the same preset ×
/// scale × [`TRACE_SEED`] recipe as serializable spec data.
pub fn preset_source(preset: TracePreset, scale: &Scale) -> TraceSource {
    TraceSource::Preset {
        preset,
        jobs: scale.trace_jobs,
        seed: TRACE_SEED,
    }
}

/// A spec builder for the paper's §4.3 evaluation protocol at this scale:
/// `preset` trace, sampled windows under `eval_seed`.
pub fn eval_builder(preset: TracePreset, scale: &Scale, eval_seed: u64) -> ScenarioBuilder {
    ScenarioSpec::builder(preset_source(preset, scale)).windows(
        scale.eval_samples,
        scale.eval_window,
        eval_seed,
    )
}

/// The shared report-writer: every bench binary emits its grid as a list
/// of uniform [`RunReport`]s under `results/<name>.json`.
pub fn write_reports(name: &str, reports: &[RunReport]) {
    write_json(name, &reports);
}

/// Prints reports as a table: canonical labels as row names (derived from
/// each spec — bins never format their own), one column per selected
/// metric of the first report. Tables are **diagnostics** and go to
/// stderr: stdout is reserved for machine-readable output (`scenario run
/// … --stdout` pipes JSON), so a human-facing row must never interleave
/// with it.
pub fn report_table(title: &str, reports: &[RunReport]) {
    let Some(first) = reports.first() else {
        eprintln!("\n## {title}\n(no rows)");
        return;
    };
    let mut header: Vec<&str> = vec!["scenario", "jobs"];
    header.extend(first.selected.iter().map(|s| s.metric.as_str()));
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            let mut row = vec![r.label.clone(), r.jobs.to_string()];
            row.extend(r.selected.iter().map(|s| format!("{:.2}", s.value)));
            row
        })
        .collect();
    print_table(title, &header, &rows);
}

/// Where experiment outputs (JSON + agent checkpoints) live.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("RLBF_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"));
    std::fs::create_dir_all(dir.join("agents")).expect("can create results dir");
    dir
}

/// Writes a serializable result as pretty JSON under `results/`.
pub fn write_json(name: &str, value: &impl Serialize) {
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("result serializes");
    std::fs::write(&path, json).expect("can write result file");
    eprintln!("wrote {}", path.display());
}

/// Where [`train_or_load_agents`] caches the checkpoint for this
/// (preset, policy, scale) cell — also the `checkpoint` a spec's agent
/// slot should carry so the committed report names the exact deployed
/// model.
pub fn agent_checkpoint_path(preset: TracePreset, base: Policy, scale: &Scale) -> PathBuf {
    let key = agent_checkpoint_key(preset, base, scale);
    results_dir().join("agents").join(format!("{key}.json"))
}

/// The checkpoint cache key: preset, policy and observation feature count
/// in readable form, plus a content hash of everything that determines the
/// trained weights — the full [`TrainConfig`] (every scale knob, the seed,
/// and the env/net/PPO/pretrain defaults) and the training trace recipe.
/// A checkpoint trained on a different observation layout cannot be
/// deployed (matrix dims differ), hence the explicit feature count.
fn agent_checkpoint_key(preset: TracePreset, base: Policy, scale: &Scale) -> String {
    let recipe = format!(
        "{}\n{}",
        serde_json::to_string(&scale.train_config(base)).expect("train config serializes"),
        serde_json::to_string(&preset_source(preset, scale)).expect("trace source serializes"),
    );
    format!(
        "rlbf-{}-{}-f{}-{:016x}",
        preset.name().to_ascii_lowercase(),
        base.name().to_ascii_lowercase(),
        rlbf::JOB_FEATURES,
        fnv1a_64(recipe.as_bytes())
    )
}

/// 64-bit FNV-1a: a content hash that is stable across Rust releases
/// (unlike std's `DefaultHasher`), so cached checkpoints stay addressable.
fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Trains (or loads cached) RLBackfilling agents, one per distinct
/// `(preset, base policy)` pair, returned in input order. Checkpoints are
/// keyed by preset, policy and scale so Table 4, Table 5 and the
/// ablations share models instead of retraining. The pairs run in
/// parallel through one [`Replicator`], one agent per thread; each writes
/// its own checkpoint path.
pub fn train_or_load_agents(pairs: &[(TracePreset, Policy)], scale: &Scale) -> Vec<RlbfAgent> {
    Replicator::new(0).run(pairs.len(), |i, _| {
        let (preset, base) = pairs[i];
        let path = agent_checkpoint_path(preset, base, scale);
        let key = path.file_stem().unwrap_or_default().to_string_lossy();
        if let Ok(agent) = RlbfAgent::load(&path) {
            eprintln!("loaded cached agent {key}");
            return agent;
        }
        eprintln!("training agent {key} …");
        let result = train(&load_trace(preset, scale), scale.train_config(base));
        let agent = RlbfAgent::from_training(&result, preset.name());
        agent.save(&path).expect("can save agent checkpoint");
        agent
    })
}

/// Renders a row-major table with a header — on stderr, like every other
/// diagnostic (see [`report_table`]).
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    eprintln!("\n## {title}\n");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    eprintln!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    eprintln!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        eprintln!("{}", fmt_row(row));
    }
}

/// Formats a bsld value the way the paper's tables do.
pub fn fmt_bsld(v: f64) -> String {
    format!("{v:.2}")
}

/// A not-applicable cell (the paper prints `-` for EASY on synthetic
/// traces, which have no user estimates).
pub fn na() -> String {
    "-".to_string()
}

/// Environment/network configs at a given observation size (keeps the two
/// in agreement, which `rlbf::train` asserts).
pub fn obs_configs(max_obsv_size: usize) -> (EnvConfig, NetConfig) {
    let obs = ObsConfig { max_obsv_size };
    (
        EnvConfig {
            obs,
            ..EnvConfig::default()
        },
        NetConfig {
            obs,
            ..NetConfig::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses_flags() {
        let s = Scale::from_args(["--quick".to_string()].iter().cloned());
        assert_eq!(s.epochs, Scale::quick().epochs);
        let f = Scale::from_args(["--full".to_string()].iter().cloned());
        assert_eq!(f.epochs, Scale::full().epochs);
        let custom = Scale::from_args(
            [
                "--epochs".to_string(),
                "7".to_string(),
                "--samples".to_string(),
                "3".to_string(),
            ]
            .iter()
            .cloned(),
        );
        assert_eq!(custom.epochs, 7);
        assert_eq!(custom.eval_samples, 3);
    }

    #[test]
    #[should_panic(expected = "--obsv 5461 exceeds the supported 5460 slots")]
    fn scale_refuses_an_obsv_too_wide_for_the_agent() {
        let args = ["--obsv", "5461"].map(String::from);
        Scale::from_args(args.into_iter());
    }

    #[test]
    fn obs_configs_agree() {
        let (env, net) = obs_configs(48);
        assert_eq!(env.obs, net.obs);
        assert_eq!(env.obs.max_obsv_size, 48);
    }

    #[test]
    fn checkpoint_key_covers_trace_size_and_seed() {
        let base = Scale::quick();
        let key = |scale: &Scale| agent_checkpoint_key(TracePreset::Lublin1, Policy::Fcfs, scale);
        assert_eq!(key(&base), key(&Scale::quick()));
        let fewer_jobs = Scale {
            trace_jobs: 2000,
            ..base
        };
        let other_seed = Scale { seed: 7, ..base };
        assert_ne!(key(&base), key(&fewer_jobs));
        assert_ne!(key(&base), key(&other_seed));
        assert_ne!(key(&fewer_jobs), key(&other_seed));
        assert_ne!(
            key(&base),
            agent_checkpoint_key(TracePreset::Lublin1, Policy::Sjf, &base)
        );
        assert!(
            key(&base).starts_with("rlbf-lublin-1-fcfs-f"),
            "{}",
            key(&base)
        );
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_bsld(1.23456), "1.23");
        assert_eq!(na(), "-");
    }
}
