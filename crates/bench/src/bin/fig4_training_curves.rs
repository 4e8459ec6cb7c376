//! **Figure 4**: RLBackfilling training curves (bsld vs epoch) on the four
//! traces, FCFS base policy.
//!
//! The paper observes: all traces converge; the synthetic Lublin traces
//! converge faster (regular arrival patterns), HPC2N is the least stable.
//!
//! Each curve is trained *from a scenario spec*: the trace source and the
//! full `TrainConfig` live in the spec's agent slot
//! (`rlbf::train_from_spec`), so a committed spec file reproduces a curve
//! exactly.
//!
//! ```text
//! cargo run -p bench --release --bin fig4_training_curves [--full] [--from-scratch]
//! ```
//!
//! By default training uses the imitation warm-start (see DESIGN.md), so
//! the curves *start* near EASY-level and the paper's descent shape is
//! compressed; `--from-scratch` disables the warm-start and reproduces the
//! paper's convergence-from-random shape (budget for more epochs there —
//! the paper itself runs hundreds).
//!
//! The four presets train in parallel through `desim::Replicator`, one
//! agent per thread. Warm-started agents are checkpointed under
//! `results/agents/` with the same key Table 4/5 use, so subsequent
//! experiments skip retraining; from-scratch runs do not touch the shared
//! cache.

use bench::{agent_checkpoint_path, preset_source, print_table, write_json, Scale};
use desim::Replicator;
use hpcsim::prelude::*;
use rlbf::{agent_slot, train_from_spec, RlbfAgent};
use serde::Serialize;
use swf::TracePreset;

#[derive(Serialize)]
struct Curve {
    trace: String,
    /// The spec that regenerates this curve (`rlbf::train_from_spec`).
    spec: ScenarioSpec,
    epochs: Vec<usize>,
    bsld: Vec<f64>,
    episode_return: Vec<f64>,
    violations: Vec<usize>,
}

fn main() {
    let scale = Scale::from_env();
    let from_scratch = std::env::args().any(|a| a == "--from-scratch");
    let curves: Vec<Curve> = Replicator::new(0).run(TracePreset::ALL.len(), |i, _| {
        let preset = TracePreset::ALL[i];
        let mut cfg = scale.train_config(Policy::Fcfs);
        if from_scratch {
            cfg.pretrain_episodes = 0;
        }
        let spec = ScenarioSpec::builder(preset_source(preset, &scale))
            .policy(Policy::Fcfs)
            .agent(agent_slot(&cfg.env, Some(&cfg), None))
            .build();

        eprintln!(
            "training on {} ({} epochs{}) …",
            preset.name(),
            scale.epochs,
            if from_scratch { ", from scratch" } else { "" }
        );
        let t0 = std::time::Instant::now();
        let result = train_from_spec(&spec).expect("agent spec trains");
        eprintln!("  {}: {:.1}s", preset.name(), t0.elapsed().as_secs_f64());

        if !from_scratch {
            // Cache the warm-started agent for Table 4/5 under the shared
            // key (`cfg` is exactly `scale.train_config(Fcfs)` here).
            let agent = RlbfAgent::from_training(&result, preset.name());
            agent
                .save(agent_checkpoint_path(preset, Policy::Fcfs, &scale))
                .expect("can save checkpoint");
        }

        Curve {
            trace: preset.name().into(),
            spec,
            epochs: result.history.iter().map(|e| e.epoch).collect(),
            bsld: result.history.iter().map(|e| e.mean_bsld).collect(),
            episode_return: result.history.iter().map(|e| e.mean_return).collect(),
            violations: result.history.iter().map(|e| e.violations).collect(),
        }
    });

    // Print the four curves side by side (bsld per epoch).
    let n_epochs = curves.iter().map(|c| c.epochs.len()).max().unwrap_or(0);
    let mut rows = Vec::new();
    for e in 0..n_epochs {
        let mut row = vec![e.to_string()];
        for c in &curves {
            row.push(
                c.bsld
                    .get(e)
                    .map(|v| format!("{v:.2}"))
                    .unwrap_or_else(|| "-".into()),
            );
        }
        rows.push(row);
    }
    print_table(
        "Figure 4 — training curves (train-set bsld per epoch, FCFS base)",
        &["epoch", "SDSC-SP2", "HPC2N", "Lublin-1", "Lublin-2"],
        &rows,
    );

    // Convergence summary: mean bsld over the last quarter vs first quarter.
    println!("\nconvergence (first-quarter mean -> last-quarter mean bsld):");
    for c in &curves {
        let q = (c.bsld.len() / 4).max(1);
        let head: f64 = c.bsld.iter().take(q).sum::<f64>() / q as f64;
        let tail: f64 = c.bsld.iter().rev().take(q).sum::<f64>() / q as f64;
        println!("  {:<9} {head:8.2} -> {tail:8.2}", c.trace);
    }

    write_json("fig4_training_curves", &curves);
}
