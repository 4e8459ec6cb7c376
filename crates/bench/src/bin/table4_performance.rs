//! **Table 4**: bsld of RLBackfilling vs EASY / EASY-AR across base
//! policies and traces, evaluated on sampled job windows the training
//! never saw (the paper's 10 × 1024-job protocol).
//!
//! Every cell is one scenario spec — the heuristic columns run through
//! `hpcsim::scenario::run`, the RLBF columns deploy the cached agent
//! through `rlbf::run_spec_with_agent` — all under the **same** `Windows`
//! protocol, so competing schedulers see identical job sequences.
//!
//! Columns follow the paper exactly: FCFS+EASY, FCFS+EASY-AR, FCFS+RLBF,
//! SJF+EASY, SJF+EASY-AR, SJF+RLBF, WFP3+EASY, F1+EASY. Synthetic traces
//! have no user estimates, so their EASY-AR columns are `-` (EASY ≡
//! EASY-AR there), matching the paper's table layout.
//!
//! ```text
//! cargo run -p bench --release --bin table4_performance [--full]
//! ```

use bench::{
    agent_checkpoint_path, eval_builder, fmt_bsld, na, print_table, train_or_load_agents,
    write_reports, Scale,
};
use hpcsim::prelude::*;
use rlbf::{agent_slot, run_spec_with_agent, RlbfAgent};
use swf::TracePreset;

const EVAL_SEED: u64 = 0xe7a1;

fn main() {
    let scale = Scale::from_env();
    let mut rows = Vec::new();
    let mut reports: Vec<RunReport> = Vec::new();

    // Train (or load) all 8 agents up front: FCFS and SJF per trace.
    let pairs: Vec<(TracePreset, Policy)> = TracePreset::ALL
        .iter()
        .flat_map(|&p| [(p, Policy::Fcfs), (p, Policy::Sjf)])
        .collect();
    let agents = train_or_load_agents(&pairs, &scale);

    for (preset, agents) in TracePreset::ALL.into_iter().zip(agents.chunks(2)) {
        let has_estimates = preset.targets().has_user_estimates;
        eprintln!("== {} ==", preset.name());

        // One heuristic cell = one spec under the shared eval protocol.
        let heur = |policy: Policy, backfill: Backfill| {
            let spec = eval_builder(preset, &scale, EVAL_SEED)
                .policy(policy)
                .backfill(backfill)
                .build();
            hpcsim::scenario::run(&spec).expect("heuristic spec runs")
        };
        // One RLBF cell = the same spec with the agent in the scheduler
        // slot, deployed from the shared checkpoint cache; the slot names
        // that checkpoint so the embedded spec regenerates this exact run.
        let rl = |policy: Policy, agent: &RlbfAgent| {
            let checkpoint = agent_checkpoint_path(preset, policy, &scale)
                .to_string_lossy()
                .into_owned();
            let spec = eval_builder(preset, &scale, EVAL_SEED)
                .policy(policy)
                .agent(agent_slot(&agent.env, None, Some(checkpoint)))
                .build();
            run_spec_with_agent(&spec, agent).expect("agent spec runs")
        };
        let easy = Backfill::Easy(RuntimeEstimator::RequestTime);
        let easy_ar = Backfill::Easy(RuntimeEstimator::ActualRuntime);

        let fcfs_easy = heur(Policy::Fcfs, easy);
        let sjf_easy = heur(Policy::Sjf, easy);
        let wfp3_easy = heur(Policy::Wfp3, easy);
        let f1_easy = heur(Policy::F1, easy);
        let (fcfs_easy_ar, sjf_easy_ar) = if has_estimates {
            (
                Some(heur(Policy::Fcfs, easy_ar)),
                Some(heur(Policy::Sjf, easy_ar)),
            )
        } else {
            (None, None)
        };
        let fcfs_rlbf = rl(Policy::Fcfs, &agents[0]);
        let sjf_rlbf = rl(Policy::Sjf, &agents[1]);

        let bsld = |r: &RunReport| r.metrics.mean_bounded_slowdown;
        rows.push(vec![
            preset.name().to_string(),
            fmt_bsld(bsld(&fcfs_easy)),
            fcfs_easy_ar
                .as_ref()
                .map(|r| fmt_bsld(bsld(r)))
                .unwrap_or_else(na),
            fmt_bsld(bsld(&fcfs_rlbf)),
            fmt_bsld(bsld(&sjf_easy)),
            sjf_easy_ar
                .as_ref()
                .map(|r| fmt_bsld(bsld(r)))
                .unwrap_or_else(na),
            fmt_bsld(bsld(&sjf_rlbf)),
            fmt_bsld(bsld(&wfp3_easy)),
            fmt_bsld(bsld(&f1_easy)),
        ]);

        println!(
            "  {:<9} FCFS+RLBF vs FCFS+EASY: {:+.1}% (paper: +26%..+59%)",
            preset.name(),
            100.0 * (bsld(&fcfs_easy) - bsld(&fcfs_rlbf)) / bsld(&fcfs_easy)
        );
        if let Some(ar) = &fcfs_easy_ar {
            println!(
                "  {:<9} FCFS+RLBF vs FCFS+EASY-AR: {:+.1}% (paper: +15%..+30%)",
                preset.name(),
                100.0 * (bsld(ar) - bsld(&fcfs_rlbf)) / bsld(ar)
            );
        }

        reports.extend([fcfs_easy, fcfs_rlbf, sjf_easy, sjf_rlbf, wfp3_easy, f1_easy]);
        reports.extend(fcfs_easy_ar);
        reports.extend(sjf_easy_ar);
    }

    print_table(
        "Table 4 — bsld on sampled job windows (RLBF = RLBackfilling)",
        &[
            "trace",
            "FCFS+EASY",
            "FCFS+EASY-AR",
            "FCFS+RLBF",
            "SJF+EASY",
            "SJF+EASY-AR",
            "SJF+RLBF",
            "WFP3+EASY",
            "F1+EASY",
        ],
        &rows,
    );

    write_reports("table4_performance", &reports);
}
