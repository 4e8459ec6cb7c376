//! `train`: the paper's training pipeline on one agent — imitation
//! pretraining, rollouts on the event kernel, GAE, and the PPO update,
//! where `tinynn` and `ppo` do nearly all the work. The process runs on
//! one CPU, so rayon takes its sequential path.
//!
//! Input: the canonical Lublin-1 trace (`bench::TRACE_SEED`) — the paper
//! trains on a fixed trace — and `--seed` as the training seed, which
//! draws the trajectory windows and the initial networks. The
//! configuration is `Scale::quick()`'s (256 jobs per trajectory, 64
//! observation slots, lr 1e-3) cut to about a second per training run:
//! 2 epochs × 2 trajectories, 2 demonstration episodes × 20 imitation
//! passes, 10 π + 10 V iterations per update.
//!
//! One item of `throughput` is one sample through one gradient step — an
//! imitation pass, a π iteration or a V iteration; each costs about the
//! same (a forward plus a forward-backward pass of one network). Runs
//! whose rollouts produce different batch sizes, or whose PPO update stops
//! early on the KL target, thus still measure the same rate.

use super::{exact, Ctx, Mirror, Workload};
use crate::checks::Cell;
use crate::report::Row;
use crate::spans::Tracer;
use crate::stats::Summary;
use hpcsim::{Backfill, Policy, RuntimeEstimator};
use ppo::{ActorCritic, Batch, RolloutBuffer, Step};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rlbf::{
    easy_like_chooser, evaluate_heuristic, parallel_ppo_update, pretrain_imitation, train,
    BackfillActorCritic, BackfillEnv, EpochStats, Observation, RlbfAgent, TrainConfig,
    JOB_FEATURES,
};
use std::time::Instant;
use swf::{Trace, TracePreset};

pub const NAME: &str = "train";

pub struct Train;

pub struct Input {
    trace: Trace,
    cfg: TrainConfig,
}

fn config(ctx: &Ctx) -> TrainConfig {
    let mut cfg = bench::Scale::quick().train_config(Policy::Fcfs);
    cfg.seed = ctx.seed;
    if ctx.smoke {
        cfg.epochs = 1;
        cfg.traj_per_epoch = 2;
        cfg.jobs_per_traj = 64;
        cfg.pretrain_episodes = 1;
        cfg.pretrain_passes = 5;
        cfg.ppo.train_pi_iters = 5;
        cfg.ppo.train_v_iters = 5;
    } else {
        cfg.epochs = 2;
        cfg.traj_per_epoch = 2;
        cfg.pretrain_episodes = 2;
        cfg.pretrain_passes = 20;
        cfg.ppo.train_pi_iters = 10;
        cfg.ppo.train_v_iters = 10;
    }
    cfg
}

fn trace_jobs(ctx: &Ctx) -> usize {
    if ctx.smoke {
        1000
    } else {
        4000
    }
}

/// Evaluation windows (the paper's §4.3 protocol).
fn eval_windows(ctx: &Ctx) -> (usize, usize) {
    if ctx.smoke {
        (2, 256)
    } else {
        (10, 1024)
    }
}

fn epoch_cells(history: &[EpochStats]) -> Vec<Cell> {
    history
        .iter()
        .map(|e| Cell {
            label: format!("epoch {}", e.epoch),
            bsld: e.mean_bsld,
            counts: vec![
                ("violations", e.violations as u64),
                ("pi_iters_run", e.update.pi_iters_run as u64),
            ],
            telemetry: None,
        })
        .collect()
}

/// A copy of `rlbf::train`'s private per-trajectory seed stream.
fn traj_seed(master: u64, epoch: usize, traj: usize) -> u64 {
    let mut z = master
        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(1 + epoch as u64))
        .wrapping_add(0xbf58_476d_1ce4_e5b9u64.wrapping_mul(1 + traj as u64));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 31)
}

struct Trajectory {
    steps: Vec<Step<Observation>>,
    episode_return: f64,
    bsld: f64,
    decisions: usize,
    violations: usize,
}

/// `rlbf::train`'s trajectory collection, one span per public call.
fn rollout(
    trace: &Trace,
    ac: &BackfillActorCritic,
    cfg: &TrainConfig,
    seed: u64,
    w: &mut Tracer,
) -> Trajectory {
    let mut rng = SmallRng::seed_from_u64(seed);
    let window = w.span("swf.sample_window", |_| {
        trace.sample_window(cfg.jobs_per_traj, &mut rng)
    });
    let mut env = w.span("rlbf.env_new", |_| {
        BackfillEnv::on_platform(&window, cfg.base_policy, cfg.env, &cfg.platform)
    });
    let mut steps = Vec::new();
    let mut episode_return = 0.0;
    while let Some(obs) = w.span("rlbf.observe", |_| env.observation().cloned()) {
        let (action, log_prob, value) =
            w.span("rlbf.act_sample", |_| ac.act_sample(&obs, &mut rng));
        let (reward, _) = w
            .span("rlbf.env_step", |_| env.step(action))
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
    Trajectory {
        steps,
        episode_return,
        bsld: env.metrics().mean_bounded_slowdown,
        decisions: env.decisions(),
        violations: env.violations(),
    }
}

/// Steps of the EASY demonstrations `pretrain_imitation` clones (it does
/// not report them): the same episodes, replayed with the same seeds.
fn demonstration_samples(trace: &Trace, cfg: &TrainConfig) -> usize {
    (0..cfg.pretrain_episodes)
        .map(|e| {
            let mut rng = SmallRng::seed_from_u64(traj_seed(cfg.seed ^ 0xbc17, 0, e));
            let window = trace.sample_window(cfg.jobs_per_traj, &mut rng);
            let mut env =
                BackfillEnv::on_platform(&window, cfg.base_policy, cfg.env, &cfg.platform);
            let mut n = 0;
            while let Some(obs) = env.observation().cloned() {
                env.step(easy_like_chooser(&obs))
                    .expect("demonstration actions are valid");
                n += 1;
            }
            n
        })
        .sum()
}

/// Multiply-adds of one forward pass of an MLP with these widths over
/// `rows` rows.
fn macs(widths: &[usize], rows: usize) -> f64 {
    rows as f64 * widths.windows(2).map(|w| (w[0] * w[1]) as f64).sum::<f64>()
}

/// Computed FLOPs of one forward pass of each network; a backward pass
/// costs two more (the weight and the input gradients).
struct NetFlops {
    policy_fwd: f64,
    value_fwd: f64,
}

impl NetFlops {
    fn of(cfg: &TrainConfig) -> NetFlops {
        let slots = cfg.net.obs.max_obsv_size + 1;
        let mut policy = vec![JOB_FEATURES];
        policy.extend(&cfg.net.policy_hidden);
        policy.push(1);
        let mut value = vec![slots * JOB_FEATURES];
        value.extend(&cfg.net.value_hidden);
        value.push(1);
        NetFlops {
            policy_fwd: 2.0 * macs(&policy, slots),
            value_fwd: 2.0 * macs(&value, 1),
        }
    }
}

/// What the traced mirror keeps for the microbenchmarks.
pub struct Extra {
    ac: BackfillActorCritic,
    batch: Option<Batch<Observation>>,
}

impl Workload for Train {
    type Input = Input;
    type Extra = Extra;
    const PINNED: bool = false;

    fn setup(ctx: &Ctx, t: &mut Tracer) -> Input {
        let trace = t.span("swf.generate", |_| {
            TracePreset::Lublin1.generate(trace_jobs(ctx), bench::TRACE_SEED)
        });
        Input {
            trace,
            cfg: config(ctx),
        }
    }

    fn pass(_ctx: &Ctx, input: &Input) -> Vec<Cell> {
        epoch_cells(&train(&input.trace, input.cfg.clone()).history)
    }

    /// `rlbf::train` re-driven from its public parts: `pretrain_imitation`;
    /// per epoch the rollouts (in trajectory order, as one-thread rayon
    /// runs them), `RolloutBuffer`, and `parallel_ppo_update`.
    fn mirror(_ctx: &Ctx, input: &Input, t: &mut Tracer) -> (Mirror, Extra) {
        let (trace, cfg) = (&input.trace, &input.cfg);
        let mut ac = BackfillActorCritic::new(cfg.net.clone(), cfg.seed);
        if cfg.pretrain_episodes > 0 {
            t.span("rlbf.pretrain", |_| {
                pretrain_imitation(
                    &mut ac,
                    trace,
                    cfg,
                    cfg.pretrain_episodes,
                    cfg.pretrain_passes,
                )
            });
        }
        let mut history = Vec::new();
        let (mut first_batch, mut updates) = (None, Vec::new());
        let (mut steps, mut decisions) = (0usize, 0usize);
        for epoch in 0..cfg.epochs {
            let outcomes: Vec<Trajectory> = t.span("train.rollout", |t| {
                (0..cfg.traj_per_epoch)
                    .map(|k| {
                        t.cell = (epoch * cfg.traj_per_epoch + k) as u64;
                        let seed = traj_seed(cfg.seed, epoch, k);
                        t.span("rlbf.episode", |t| rollout(trace, &ac, cfg, seed, t))
                    })
                    .collect()
            });
            let (batch, mean_bsld, mean_return, mean_decisions, violations) =
                t.span("ppo.buffer", |_| {
                    let mut buffer = RolloutBuffer::new(cfg.ppo.gamma, cfg.ppo.lambda);
                    let n = outcomes.len() as f64;
                    let (mut bsld, mut ret, mut dec, mut viol) = (0.0, 0.0, 0.0, 0);
                    for o in outcomes {
                        bsld += o.bsld / n;
                        ret += o.episode_return / n;
                        dec += o.decisions as f64 / n;
                        viol += o.violations;
                        decisions += o.decisions;
                        steps += o.steps.len();
                        buffer.absorb_trajectory(o.steps, 0.0);
                    }
                    (buffer.into_batch(), bsld, ret, dec, viol)
                });
            let update = if batch.is_empty() {
                ppo::UpdateStats {
                    approx_kl: 0.0,
                    pi_iters_run: 0,
                    value_loss: 0.0,
                    clip_frac: 0.0,
                }
            } else {
                let u = t.span("ppo.update", |_| {
                    parallel_ppo_update(&mut ac, &batch, &cfg.ppo)
                });
                updates.push((batch.len(), u.pi_iters_run));
                first_batch.get_or_insert(batch);
                u
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

        // Work counts (outside the traced spans, which end above).
        let demos = demonstration_samples(trace, cfg);
        let v_iters = cfg.ppo.train_v_iters;
        let mut sample_updates = cfg.pretrain_passes * demos;
        let (mut batch_samples, mut pi_run, mut v_run) = (0, 0, 0);
        for &(b, pi) in &updates {
            sample_updates += b * (pi + v_iters);
            batch_samples += b;
            pi_run += pi;
            v_run += v_iters;
        }
        let mut m = Mirror::new(sample_updates as f64);
        m.cells = epoch_cells(&history);
        m.row("rlbf.decisions", "count", decisions as f64);
        m.row(
            "rlbf.episodes",
            "count",
            (cfg.epochs * cfg.traj_per_epoch) as f64,
        );
        m.row("pretrain.samples", "count", demos as f64);
        m.row("ppo.batch_samples", "count", batch_samples as f64);
        m.row("ppo.pi_iters_run", "count", pi_run as f64);
        m.row("ppo.v_iters_run", "count", v_run as f64);
        m.row("train.rollout_steps", "count", steps as f64);
        m.row("train.sample_updates", "count", sample_updates as f64);
        let extra = Extra {
            ac,
            batch: first_batch,
        };
        (m, extra)
    }

    fn after_trace(ctx: &Ctx, input: &Input, extra: Extra, _t: &Tracer, rows: &mut Vec<Row>) {
        let cfg = &input.cfg;
        // The agent the mirror trained, evaluated like Table 4.
        let (samples, window) = eval_windows(ctx);
        let agent = RlbfAgent {
            ac: extra.ac,
            trained_with: cfg.base_policy,
            env: cfg.env,
            trained_on: "Lublin-1".into(),
        };
        rows.push(exact(
            "quality.rlbf_bsld",
            "bsld",
            agent.evaluate(&input.trace, Policy::Fcfs, samples, window, ctx.seed),
        ));
        rows.push(exact(
            "quality.easy_bsld",
            "bsld",
            evaluate_heuristic(
                &input.trace,
                Policy::Fcfs,
                Backfill::Easy(RuntimeEstimator::RequestTime),
                samples,
                window,
                ctx.seed,
            ),
        ));
        let Some(batch) = extra.batch else { return };
        rows.extend(microbench(cfg, &agent.ac, &batch));
    }
}

/// Per-call durations (µs) of `f(0)`, …, `f(n - 1)`.
fn timed(n: usize, mut f: impl FnMut(usize)) -> Summary {
    let samples: Vec<f64> = (0..n)
        .map(|i| {
            let t0 = Instant::now();
            f(i);
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    Summary::of(&samples)
}

/// Times each network call of the PPO update over a real batch.
fn microbench(cfg: &TrainConfig, ac: &BackfillActorCritic, batch: &Batch<Observation>) -> Vec<Row> {
    let mut net = ac.clone();
    let s = &batch.steps;
    let policy_fwd = timed(s.len(), |i| {
        std::hint::black_box(net.log_prob(&s[i].obs, s[i].action));
    });
    let value_fwd = timed(s.len(), |i| {
        std::hint::black_box(net.value(&s[i].obs));
    });
    let policy_fwd_bwd = timed(s.len(), |i| {
        net.accumulate_policy_grad(&s[i].obs, s[i].action, 1e-9)
    });
    let value_fwd_bwd = timed(s.len(), |i| net.accumulate_value_grad(&s[i].obs, 1e-9));
    let worker = net.clone();
    let clone = timed(50, |_| {
        std::hint::black_box(net.clone());
    });
    let merge = timed(50, |_| net.merge_grads_from(&worker));
    let mut scratch = ac.clone();
    let policy_adam = timed(50, |_| scratch.policy_opt_step());
    let value_adam = timed(50, |_| scratch.value_opt_step());

    let f = NetFlops::of(cfg);
    let gflops = |flops: f64, us: f64| flops / us / 1e3;
    vec![
        exact(
            "tinynn.policy_gflops",
            "GFLOP/s",
            gflops(3.0 * f.policy_fwd, policy_fwd_bwd.median),
        ),
        exact(
            "tinynn.value_gflops",
            "GFLOP/s",
            gflops(3.0 * f.value_fwd, value_fwd_bwd.median),
        ),
        Row::layer("tinynn.policy_fwd_us", "us", policy_fwd),
        Row::layer("tinynn.policy_fwd_bwd_us", "us", policy_fwd_bwd),
        Row::layer("tinynn.value_fwd_us", "us", value_fwd),
        Row::layer("tinynn.value_fwd_bwd_us", "us", value_fwd_bwd),
        Row::layer("tinynn.policy_adam_step_us", "us", policy_adam),
        Row::layer("tinynn.value_adam_step_us", "us", value_adam),
        Row::layer("rlbf.nets_clone_us", "us", clone),
        Row::layer("rlbf.merge_grads_us", "us", merge),
    ]
}
