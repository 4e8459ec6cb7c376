//! **Table 5**: generality — an agent trained on trace X (`RL-X`, FCFS
//! base, as in the paper) applied to every other trace Y, under both FCFS
//! and SJF base policies.
//!
//! Every cell is one scenario spec under the shared `Windows` protocol;
//! the cross-deployment cells simply put a *different* trace source in
//! the spec than the agent was trained on — generality studies are a loop
//! over specs, exactly the shape the ROADMAP's cluster-generality item
//! needs.
//!
//! ```text
//! cargo run -p bench --release --bin table5_generality [--full]
//! ```

use bench::{
    agent_checkpoint_path, eval_builder, fmt_bsld, na, print_table, train_or_load_agents,
    write_reports, Scale,
};
use hpcsim::prelude::*;
use rlbf::{agent_slot, run_spec_with_agent, RlbfAgent};
use swf::TracePreset;

const EVAL_SEED: u64 = 0x97a5;

fn main() {
    let scale = Scale::from_env();

    // Train (or load) one agent per trace, FCFS base — the paper's RL-X.
    let pairs = TracePreset::ALL.map(|p| (p, Policy::Fcfs));
    let agents: Vec<(TracePreset, RlbfAgent)> = TracePreset::ALL
        .into_iter()
        .zip(train_or_load_agents(&pairs, &scale))
        .collect();

    let mut reports: Vec<RunReport> = Vec::new();
    for base in [Policy::Fcfs, Policy::Sjf] {
        let mut rows = Vec::new();
        for eval_preset in TracePreset::ALL {
            let has_estimates = eval_preset.targets().has_user_estimates;

            let heur = |backfill: Backfill| {
                let spec = eval_builder(eval_preset, &scale, EVAL_SEED)
                    .policy(base)
                    .backfill(backfill)
                    .build();
                hpcsim::scenario::run(&spec).expect("heuristic spec runs")
            };
            let easy = has_estimates.then(|| heur(Backfill::Easy(RuntimeEstimator::RequestTime)));
            let easy_ar = heur(Backfill::Easy(RuntimeEstimator::ActualRuntime));

            let mut row = vec![
                eval_preset.name().to_string(),
                easy.as_ref()
                    .map(|r| fmt_bsld(r.metrics.mean_bounded_slowdown))
                    .unwrap_or_else(na),
                fmt_bsld(easy_ar.metrics.mean_bounded_slowdown),
            ];
            reports.extend(easy);
            reports.push(easy_ar);

            for (train_preset, agent) in &agents {
                // The slot names the RL-X checkpoint (trained on
                // `train_preset`, FCFS base), so the cross-deployment
                // cell's spec regenerates with the exact trained model,
                // not a freshly trained one on the eval trace.
                let checkpoint = agent_checkpoint_path(*train_preset, Policy::Fcfs, &scale)
                    .to_string_lossy()
                    .into_owned();
                let spec = eval_builder(eval_preset, &scale, EVAL_SEED)
                    .name(format!(
                        "{} · {}+RL-{} · {}x{}w",
                        eval_preset.name(),
                        base.name(),
                        train_preset.name(),
                        scale.eval_samples,
                        scale.eval_window
                    ))
                    .policy(base)
                    .agent(agent_slot(&agent.env, None, Some(checkpoint)))
                    .build();
                let report = run_spec_with_agent(&spec, agent).expect("agent spec runs");
                row.push(fmt_bsld(report.metrics.mean_bounded_slowdown));
                reports.push(report);
            }
            rows.push(row);
        }
        print_table(
            &format!("Table 5 — {} as the base scheduling policy", base.name()),
            &[
                "trace",
                "EASY",
                "EASY-AR",
                "RL-SDSC-SP2",
                "RL-HPC2N",
                "RL-Lublin-1",
                "RL-Lublin-2",
            ],
            &rows,
        );
    }

    println!("\nshape check: cross-trained agents (off-diagonal) should still beat");
    println!("EASY in most cells — the paper's generality claim (§4.4).");
    write_reports("table5_generality", &reports);
}
