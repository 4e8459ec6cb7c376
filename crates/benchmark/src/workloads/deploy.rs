//! `deploy`: the Table 4 evaluation side — batch-1 greedy inference plus
//! the kernel on short 1024-job windows, so it uses `tinynn` differently
//! from `train` (forward only) and `hpcsim` differently from `sched-1m`
//! (many short runs, each behind an environment and a reward baseline).
//!
//! Grid: the four Table 2 presets × {FCFS, SJF} × {RLBF through
//! `rlbf::run_spec_with_agent`, EASY through `hpcsim::scenario::run`} on
//! `bench::eval_builder` specs: the canonical 4000-job traces, with
//! `--seed` drawing the ten evaluation windows. The agent is untrained and
//! fixed (`BackfillActorCritic::new` from `bench::TRACE_SEED`): an agent
//! drawn from `--seed` took 60 695 to 137 906 decisions per pass over three
//! seeds, so its behaviour, not the code, would set the throughput.
//!
//! One item of `throughput` is one job scheduled (16 cells × 10 windows ×
//! 1024 jobs per pass).

use super::{exact, execute_recorded, Ctx, Mirror, Workload};
use crate::checks::Cell;
use crate::report::Row;
use crate::spans::Tracer;
use hpcsim::prelude::*;
use hpcsim::scenario::{materialize, mean_metrics, sample_windows};
use rlbf::{BackfillActorCritic, BackfillEnv, RlbfAgent};
use std::time::Instant;
use swf::TracePreset;

pub const NAME: &str = "deploy";

pub struct Deploy;

pub struct Input {
    agent: RlbfAgent,
    cells: Vec<(String, ScenarioSpec)>,
}

fn scale(ctx: &Ctx) -> bench::Scale {
    let mut scale = bench::Scale::quick();
    if ctx.smoke {
        scale.trace_jobs = 600;
        scale.eval_samples = 2;
        scale.eval_window = 128;
    }
    scale
}

fn is_agent(spec: &ScenarioSpec) -> bool {
    matches!(spec.scheduler, SchedulerSpec::Agent(_))
}

fn report_cell(label: &str, r: &RunReport, jobs: usize) -> Cell {
    Cell {
        label: label.into(),
        bsld: r.metrics.mean_bounded_slowdown,
        counts: vec![
            ("jobs", jobs as u64),
            ("completed", r.jobs as u64),
            ("dropped", r.dropped_jobs as u64),
        ],
        telemetry: None,
    }
}

fn window_jobs(spec: &ScenarioSpec) -> usize {
    match spec.protocol {
        Protocol::Windows {
            samples,
            window_len,
            ..
        } => samples * window_len,
        Protocol::FullTrace => unreachable!("deploy cells use the windows protocol"),
    }
}

impl Workload for Deploy {
    type Input = Input;
    /// The agent cells' specs and windows, for timing their reward
    /// baselines after the traced pass.
    type Extra = Vec<(ScenarioSpec, Vec<swf::Trace>)>;

    fn setup(ctx: &Ctx, t: &mut Tracer) -> Input {
        let scale = scale(ctx);
        let (env, net) = bench::obs_configs(scale.max_obsv_size);
        let agent = t.span("rlbf.agent_new", |_| RlbfAgent {
            ac: BackfillActorCritic::new(net, bench::TRACE_SEED),
            trained_with: Policy::Fcfs,
            env,
            trained_on: "untrained".into(),
        });
        let mut cells = Vec::new();
        for preset in TracePreset::ALL {
            for policy in [Policy::Fcfs, Policy::Sjf] {
                let base = bench::eval_builder(preset, &scale, ctx.seed).policy(policy);
                let rlbf = base
                    .clone()
                    .agent(rlbf::agent_slot(&env, None, None))
                    .build();
                let easy = base
                    .backfill(Backfill::Easy(RuntimeEstimator::RequestTime))
                    .build();
                cells.push((rlbf.label(), rlbf));
                cells.push((easy.label(), easy));
            }
        }
        Input { agent, cells }
    }

    fn pass(_ctx: &Ctx, input: &Input) -> Vec<Cell> {
        input
            .cells
            .iter()
            .map(|(label, spec)| {
                let r = if is_agent(spec) {
                    rlbf::run_spec_with_agent(spec, &input.agent).expect("agent spec runs")
                } else {
                    hpcsim::scenario::run(spec).expect("heuristic spec runs")
                };
                report_cell(label, &r, window_jobs(spec))
            })
            .collect()
    }

    /// Each cell re-driven like its entry point: materialize the trace,
    /// sample the windows, then per window either the agent loop of
    /// `RlbfAgent::schedule_on_counted` (in window order, as one-thread
    /// rayon runs `run_spec_with_agent`) or one recorded kernel run.
    fn mirror(_ctx: &Ctx, input: &Input, t: &mut Tracer) -> (Mirror, Self::Extra) {
        let jobs: usize = input.cells.iter().map(|(_, s)| window_jobs(s)).sum();
        let mut m = Mirror::new(jobs as f64);
        let (mut decisions, mut episodes) = (0u64, 0u64);
        let mut agent_windows = Vec::new();
        for (i, (label, spec)) in input.cells.iter().enumerate() {
            t.cell = i as u64;
            let cell = t.span("deploy.cell", |t| {
                let (trace, protocol) = t.span("swf.materialize", |_| {
                    materialize(spec, None).expect("preset sources materialize")
                });
                let Protocol::Windows {
                    samples,
                    window_len,
                    seed,
                } = protocol
                else {
                    unreachable!("deploy cells use the windows protocol")
                };
                let windows = t.span("swf.sample_windows", |_| {
                    sample_windows(&trace, samples, window_len, seed)
                });
                let mut telemetry = None;
                let per: Vec<(Metrics, usize)> = if is_agent(spec) {
                    windows
                        .iter()
                        .map(|w| {
                            let (metrics, dropped, d) =
                                t.span("deploy.window", |t| schedule(&input.agent, w, spec, t));
                            decisions += d;
                            episodes += 1;
                            (metrics, dropped)
                        })
                        .collect()
                } else {
                    let mut merged = Telemetry::default();
                    let per = windows
                        .iter()
                        .map(|w| {
                            let (c, r) = execute_recorded(t, String::new(), w, spec, &mut m);
                            merged.merge(c.telemetry.as_ref().expect("recorded"));
                            (r.metrics, r.dropped_jobs)
                        })
                        .collect();
                    telemetry = Some(merged);
                    per
                };
                if is_agent(spec) && t.enabled() {
                    agent_windows.push((spec.clone(), windows));
                }
                let dropped = per.iter().map(|(_, d)| d).sum::<usize>();
                let metrics: Vec<Metrics> = per.into_iter().map(|(m, _)| m).collect();
                let mean = mean_metrics(&metrics);
                Cell {
                    label: label.clone(),
                    bsld: mean.mean_bounded_slowdown,
                    counts: vec![
                        ("jobs", window_jobs(spec) as u64),
                        ("completed", mean.jobs as u64),
                        ("dropped", dropped as u64),
                    ],
                    telemetry,
                }
            });
            m.cells.push(cell);
        }
        m.row("rlbf.decisions", "count", decisions as f64);
        m.row("rlbf.episodes", "count", episodes as f64);
        let bsld = |agent: bool| {
            let v: Vec<f64> = input
                .cells
                .iter()
                .zip(&m.cells)
                .filter(|((_, s), _)| is_agent(s) == agent)
                .map(|(_, c)| c.bsld)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let (rl, easy) = (bsld(true), bsld(false));
        m.row("quality.rlbf_bsld", "bsld", rl);
        m.row("quality.easy_bsld", "bsld", easy);
        (m, agent_windows)
    }

    /// Reward-baseline cost: deployment never reads the baseline schedule
    /// `BackfillEnv::on_platform` builds for the terminal reward.
    fn after_trace(
        _ctx: &Ctx,
        _input: &Input,
        windows: Self::Extra,
        t: &Tracer,
        rows: &mut Vec<Row>,
    ) {
        let env_new = t.total_s("rlbf.env_new");
        let total: f64 = windows
            .iter()
            .flat_map(|(spec, windows)| windows.iter().map(move |w| baseline_s(w, spec)))
            .sum();
        rows.push(exact(
            "rlbf.baseline_pct_of_env_new",
            "%",
            100.0 * total / env_new,
        ));
        rows.push(exact("deploy.baseline_s", "s", total));
    }
}

/// Greedy deployment of `agent` on one window, one span per public call:
/// `RlbfAgent::schedule_on_counted`, re-driven. Returns the metrics, the
/// dropped jobs and the decisions taken.
fn schedule(
    agent: &RlbfAgent,
    w: &swf::Trace,
    spec: &ScenarioSpec,
    f: &mut Tracer,
) -> (Metrics, usize, u64) {
    let mut env = f.span("rlbf.env_new", |_| {
        BackfillEnv::on_platform(w, spec.policy, agent.env, &spec.platform)
    });
    let mut decisions = 0;
    while let Some(obs) = f.span("rlbf.observe", |_| env.observation().cloned()) {
        let slot = f.span("rlbf.act_greedy", |_| agent.ac.act_greedy(&obs));
        f.span("rlbf.env_step", |_| env.step(slot))
            .expect("greedy actions are valid by construction");
        decisions += 1;
    }
    (env.metrics(), env.simulation().dropped_jobs(), decisions)
}

/// Time to schedule the reward baseline `BackfillEnv::on_platform` builds
/// for one window (FCFS with SJF-ordered EASY, on the same platform).
fn baseline_s(w: &swf::Trace, spec: &ScenarioSpec) -> f64 {
    let (cluster, router) = spec.platform.realize(w);
    let t0 = Instant::now();
    std::hint::black_box(run_scheduler_on_rerouted(
        w,
        Policy::Fcfs,
        Backfill::EasyOrdered(RuntimeEstimator::RequestTime, Policy::Sjf),
        &cluster,
        router,
        spec.platform.reroute,
    ));
    t0.elapsed().as_secs_f64()
}
