//! Criterion micro-benchmarks: the RL agent's hot paths — kernel policy
//! forward, value forward, and the gradient accumulation that dominates
//! PPO update time: policy and value forward+backward, the per-sample
//! fused calls (value or log-prob plus gradient from one forward pass),
//! and the chunk calls every training step makes (one `GRAD_CHUNK` of
//! samples per call), at the default 64 observation slots.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppo::{ActorCritic, GRAD_CHUNK};
use rlbf::{BackfillActorCritic, NetConfig, ObsConfig, Observation, JOB_FEATURES};
use std::hint::black_box;
use tinynn::Matrix;

/// A `slots`-slot observation masked like a training decision: 4 valid
/// job rows plus skip (training averages 2.7–4.6 valid rows), every slot
/// filled.
fn obs_of_size(slots: usize) -> Observation {
    obs_with_shift(slots, 0)
}

/// [`obs_of_size`] with the valid rows moved `shift` slots along, so a
/// chunk of them does not repeat one mask.
fn obs_with_shift(slots: usize, shift: usize) -> Observation {
    let mut features = Matrix::zeros(slots + 1, JOB_FEATURES);
    for s in 0..slots {
        for c in 0..JOB_FEATURES {
            features.set(s, c, ((s * 13 + c) as f64 * 0.17).sin() * 0.5 + 0.5);
        }
    }
    let mut mask: Vec<bool> = (0..slots).map(|s| (s + shift) % (slots / 4) == 3).collect();
    mask.push(true);
    let mut queue_index: Vec<Option<usize>> = (0..slots).map(Some).collect();
    queue_index.push(None);
    Observation {
        features,
        mask,
        queue_index,
    }
}

fn ac_of_size(slots: usize) -> BackfillActorCritic {
    BackfillActorCritic::new(
        NetConfig {
            obs: ObsConfig {
                max_obsv_size: slots,
            },
            ..NetConfig::default()
        },
        5,
    )
}

fn bench_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("policy_forward");
    for slots in [32usize, 64, 128] {
        let ac = ac_of_size(slots);
        let obs = obs_of_size(slots);
        group.bench_with_input(BenchmarkId::from_parameter(slots), &slots, |b, _| {
            b.iter(|| ac.logits(black_box(&obs)))
        });
    }
    group.finish();
}

fn bench_value(c: &mut Criterion) {
    let ac = ac_of_size(128);
    let obs = obs_of_size(128);
    c.bench_function("value_forward_128", |b| {
        b.iter(|| ac.value_of(black_box(&obs)))
    });
}

fn bench_policy_backward(c: &mut Criterion) {
    let obs = obs_of_size(64);
    c.bench_function("policy_grad_accumulate_64", |b| {
        let mut ac = ac_of_size(64);
        b.iter(|| ac.accumulate_policy_grad(black_box(&obs), 3, 0.01))
    });
}

fn bench_value_backward(c: &mut Criterion) {
    let obs = obs_of_size(64);
    c.bench_function("value_grad_accumulate_64", |b| {
        let mut ac = ac_of_size(64);
        b.iter(|| ac.accumulate_value_grad(black_box(&obs), 0.01))
    });
}

fn bench_fused(c: &mut Criterion) {
    let obs = obs_of_size(64);
    c.bench_function("log_prob_and_grad_64", |b| {
        let mut ac = ac_of_size(64);
        b.iter(|| ac.log_prob_and_grad(black_box(&obs), 3, |_| 0.01))
    });
    c.bench_function("value_and_grad_64", |b| {
        let mut ac = ac_of_size(64);
        b.iter(|| ac.value_and_grad(black_box(&obs), |v| -2.0 * (v - 0.5)))
    });
}

/// One `GRAD_CHUNK`-sample chunk per call, as an imitation pass or a π
/// iteration runs it, and as a V iteration does.
fn bench_chunks(c: &mut Criterion) {
    let obs: Vec<Observation> = (0..GRAD_CHUNK).map(|i| obs_with_shift(64, i)).collect();
    let actions: Vec<usize> = obs
        .iter()
        .map(|o| o.mask.iter().position(|&m| m).expect("a valid row"))
        .collect();
    c.bench_function("policy_chunk_128x64", |b| {
        let mut ac = ac_of_size(64);
        b.iter(|| {
            ac.log_probs_and_grads(
                0..GRAD_CHUNK,
                |i| (black_box(&obs[i]), actions[i]),
                |_, lp| 0.01 * lp,
            )
        })
    });
    c.bench_function("value_chunk_128x64", |b| {
        let mut ac = ac_of_size(64);
        b.iter(|| {
            ac.values_and_grads(
                0..GRAD_CHUNK,
                |i| black_box(&obs[i]),
                |_, v| -2.0 * (v - 0.5),
            )
        })
    });
}

criterion_group!(
    benches,
    bench_forward,
    bench_value,
    bench_policy_backward,
    bench_value_backward,
    bench_fused,
    bench_chunks
);
criterion_main!(benches);
