//! The PPO-clip update (Schulman et al. 2017), structured like OpenAI
//! SpinningUp's PyTorch implementation — which is exactly what the paper
//! used (§4.1.1) — but with the gradients written out analytically.
//!
//! The policy loss for one sample is
//! `L = −min(ratio · A, clip(ratio, 1−ε, 1+ε) · A)` with
//! `ratio = exp(log π_new(a|s) − log π_old(a|s))`. Its derivative with
//! respect to `log π_new` is `−ratio · A` when the unclipped branch is
//! active and `0` when the clipped branch is active (the clipped branch is
//! constant in θ). The per-sample coefficient is produced by
//! [`policy_grad_coef`] and verified against finite differences in tests.
//!
//! Every gradient step — the π and V iterations here and `rlbf`'s
//! imitation passes — hands its samples to the actor-critic through
//! [`accumulate_chunked`], in fixed chunks of [`GRAD_CHUNK`] samples.
//! Each chunk is one call ([`ActorCritic::log_probs_and_grads`] or
//! [`ActorCritic::values_and_grads`]): the actor-critic sums the chunk's
//! per-sample gradients from zero and adds the sum to its accumulated
//! gradients once, so the float summation order depends on the batch
//! alone, and an implementation can run the whole chunk as one batched
//! network pass.

use crate::buffer::Batch;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// PPO hyper-parameters. Defaults follow the paper §4.1.1 (80 update
/// iterations for both networks) and SpinningUp conventions for the rest.
/// Learning rates and the entropy bonus belong to the [`ActorCritic`]'s
/// own optimizers (`rlbf::NetConfig`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PpoConfig {
    /// Discount factor. 1.0 — episodes are finite with a terminal reward.
    pub gamma: f64,
    /// GAE λ.
    pub lambda: f64,
    /// Clipping parameter ε.
    pub clip_ratio: f64,
    /// Policy update iterations per epoch (paper: 80).
    pub train_pi_iters: usize,
    /// Value update iterations per epoch (paper: 80).
    pub train_v_iters: usize,
    /// Early-stop threshold on the approximate KL divergence.
    pub target_kl: f64,
}

impl Default for PpoConfig {
    fn default() -> Self {
        Self {
            gamma: 1.0,
            lambda: 0.97,
            clip_ratio: 0.2,
            train_pi_iters: 80,
            train_v_iters: 80,
            target_kl: 0.01,
        }
    }
}

/// Diagnostics of one PPO update.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UpdateStats {
    /// Final approximate KL(π_old ‖ π_new) over the batch.
    pub approx_kl: f64,
    /// Policy iterations actually executed (≤ `train_pi_iters`).
    pub pi_iters_run: usize,
    /// Mean squared value error after the value updates.
    pub value_loss: f64,
    /// Fraction of samples whose ratio was clipped in the last iteration.
    pub clip_frac: f64,
}

/// `d(−L_clip)/d(log π_new)` — returns the coefficient `c` such that the
/// gradient of the per-sample *loss* w.r.t. the new log-prob is `−c`
/// (equivalently: accumulate `c · ∇ log π` to do gradient *ascent* on the
/// clipped objective).
pub fn policy_grad_coef(logp_new: f64, logp_old: f64, advantage: f64, clip_ratio: f64) -> f64 {
    let ratio = (logp_new - logp_old).exp();
    let unclipped = ratio * advantage;
    let clipped = ratio.clamp(1.0 - clip_ratio, 1.0 + clip_ratio) * advantage;
    if unclipped <= clipped {
        // Unclipped branch active: d(ratio·A)/dlogp = ratio·A.
        ratio * advantage
    } else {
        // Clipped branch active: constant in θ.
        0.0
    }
}

/// Whether the sample's ratio sits outside the clip interval (diagnostic).
pub fn is_clipped(logp_new: f64, logp_old: f64, clip_ratio: f64) -> bool {
    let ratio = (logp_new - logp_old).exp();
    !(1.0 - clip_ratio..=1.0 + clip_ratio).contains(&ratio)
}

/// Sample-mean approximate KL divergence `E[log π_old − log π_new]`.
pub fn approx_kl(logp_old: &[f64], logp_new: &[f64]) -> f64 {
    assert_eq!(logp_old.len(), logp_new.len());
    if logp_old.is_empty() {
        return 0.0;
    }
    logp_old
        .iter()
        .zip(logp_new)
        .map(|(o, n)| o - n)
        .sum::<f64>()
        / logp_old.len() as f64
}

/// The actor-critic interface [`ppo_update`] drives.
///
/// `rlbf` implements this with the paper's kernel policy network and MLP
/// value network; the tests use a tabular implementation. Gradients are
/// *accumulated* by the `accumulate_*` calls and the chunk calls, and
/// consumed by the `*_opt_step` calls (which must also clear them).
pub trait ActorCritic<O> {
    /// Log-probability of `action` at `obs` under the current policy.
    fn log_prob(&self, obs: &O, action: usize) -> f64;
    /// Critic value estimate at `obs`.
    fn value(&self, obs: &O) -> f64;
    /// Accumulates `coef · ∇_θ log π(action|obs)` into the policy grads
    /// (coef already carries the sign for gradient ascent).
    fn accumulate_policy_grad(&mut self, obs: &O, action: usize, coef: f64);
    /// Accumulates `coef · ∇_φ V(obs)` into the value grads.
    fn accumulate_value_grad(&mut self, obs: &O, coef: f64);
    /// Log-probability of `action` at `obs`, with `coef(log_prob) ·
    /// ∇_θ log π(action|obs)` accumulated as by
    /// [`Self::accumulate_policy_grad`]. Implementors override it to share
    /// one forward pass between the two.
    fn log_prob_and_grad(
        &mut self,
        obs: &O,
        action: usize,
        mut coef: impl FnMut(f64) -> f64,
    ) -> f64 {
        let log_prob = self.log_prob(obs, action);
        self.accumulate_policy_grad(obs, action, coef(log_prob));
        log_prob
    }
    /// Critic value at `obs`, with `coef(value) · ∇_φ V(obs)` accumulated
    /// as by [`Self::accumulate_value_grad`]. Implementors override it to
    /// share one forward pass between the two.
    fn value_and_grad(&mut self, obs: &O, mut coef: impl FnMut(f64) -> f64) -> f64 {
        let value = self.value(obs);
        self.accumulate_value_grad(obs, coef(value));
        value
    }
    /// One chunk of policy-gradient samples: for each `i` in `chunk`, in
    /// order, with `(obs, action) = sample(i)`, calls `coef(i, log π(action
    /// | obs))` once and takes `coef · ∇_θ log π(action|obs)`. The chunk's
    /// terms are summed from zero and the sum is added to the accumulated
    /// policy gradient once: the arithmetic of [`Self::log_prob_and_grad`]
    /// per sample on a zeroed clone, merged back with
    /// [`Self::merge_grads_from`].
    fn log_probs_and_grads<'o>(
        &mut self,
        chunk: Range<usize>,
        sample: impl Fn(usize) -> (&'o O, usize),
        coef: impl FnMut(usize, f64) -> f64,
    ) where
        O: 'o;
    /// [`Self::log_probs_and_grads`] for the critic: calls `coef(i,
    /// V(obs(i)))` once per sample, in order, and adds the chunk's sum of
    /// `coef · ∇_φ V(obs(i))` to the accumulated value gradient once.
    fn values_and_grads<'o>(
        &mut self,
        chunk: Range<usize>,
        obs: impl Fn(usize) -> &'o O,
        coef: impl FnMut(usize, f64) -> f64,
    ) where
        O: 'o;
    /// Applies and clears accumulated policy gradients (ascent direction).
    fn policy_opt_step(&mut self);
    /// Applies and clears accumulated value gradients (descent on MSE is
    /// encoded in the sign of the accumulated coefficients).
    fn value_opt_step(&mut self);
    /// Adds `other`'s accumulated policy and value gradients to this
    /// instance's (`other` is a clone with the same architecture).
    fn merge_grads_from(&mut self, other: &Self)
    where
        Self: Sized;
    /// Clears the accumulated policy and value gradients.
    fn zero_grads(&mut self);
}

/// Samples per chunk of [`accumulate_chunked`]. It fixes the float
/// summation order of every gradient step, so it is a constant rather than
/// an option: changing it changes training results.
pub const GRAD_CHUNK: usize = 128;

/// Calls `chunk` on the sample indices `0..n` in contiguous chunks of
/// [`GRAD_CHUNK`], in order; `chunk` hands each to the actor-critic's
/// chunk call. From zero gradients, a run of at most [`GRAD_CHUNK`]
/// samples sums exactly like a plain loop of per-sample calls.
pub fn accumulate_chunked(n: usize, mut chunk: impl FnMut(Range<usize>)) {
    for start in (0..n).step_by(GRAD_CHUNK) {
        chunk(start..n.min(start + GRAD_CHUNK));
    }
}

/// Runs one full PPO update (π and V) on a finished batch: every
/// iteration hands the batch to the actor-critic chunk by chunk through
/// [`accumulate_chunked`].
pub fn ppo_update<O, AC>(ac: &mut AC, batch: &Batch<O>, cfg: &PpoConfig) -> UpdateStats
where
    AC: ActorCritic<O>,
{
    assert!(!batch.is_empty(), "cannot update on an empty batch");
    let n = batch.len() as f64;
    let logp_old: Vec<f64> = batch.steps.iter().map(|s| s.log_prob).collect();
    let sample = |i: usize| (&batch.steps[i].obs, batch.steps[i].action);

    let mut kl = 0.0;
    let mut pi_iters_run = 0;
    let mut clip_frac = 0.0;
    let mut logp_new = Vec::with_capacity(batch.len());
    for _ in 0..cfg.train_pi_iters {
        // The gradient's own forward pass yields the new log-prob, which
        // sets its coefficient and feeds the KL check below.
        logp_new.clear();
        accumulate_chunked(batch.len(), |chunk| {
            ac.log_probs_and_grads(chunk, sample, |i, lp| {
                logp_new.push(lp);
                policy_grad_coef(lp, logp_old[i], batch.advantages[i], cfg.clip_ratio) / n
            })
        });
        kl = approx_kl(&logp_old, &logp_new);
        if kl > 1.5 * cfg.target_kl {
            // SpinningUp's early stop: this iteration's step is never taken.
            ac.zero_grads();
            break;
        }
        pi_iters_run += 1;
        clip_frac = logp_new
            .iter()
            .zip(&logp_old)
            .filter(|(new, old)| is_clipped(**new, **old, cfg.clip_ratio))
            .count() as f64
            / n;
        ac.policy_opt_step();
    }

    let mut value_loss = 0.0;
    let mut values = Vec::with_capacity(batch.len());
    for _ in 0..cfg.train_v_iters {
        // Descent on MSE: dL/dφ = 2·err·∇V / n, so accumulate the negative.
        values.clear();
        accumulate_chunked(batch.len(), |chunk| {
            ac.values_and_grads(
                chunk,
                |i| &batch.steps[i].obs,
                |i, v| {
                    values.push(v);
                    -2.0 * (v - batch.returns[i]) / n
                },
            )
        });
        value_loss = values
            .iter()
            .zip(&batch.returns)
            .map(|(v, r)| (v - r) * (v - r))
            .sum::<f64>()
            / n;
        ac.value_opt_step();
    }

    UpdateStats {
        approx_kl: kl,
        pi_iters_run,
        value_loss,
        clip_frac,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{RolloutBuffer, Step};

    /// The chunk contract for the tabular actor-critics: per-sample calls
    /// on a zeroed clone, merged back once.
    fn policy_chunk_on_clone<'o, O: 'o, AC: ActorCritic<O> + Clone>(
        ac: &mut AC,
        chunk: Range<usize>,
        sample: impl Fn(usize) -> (&'o O, usize),
        mut coef: impl FnMut(usize, f64) -> f64,
    ) {
        let mut worker = ac.clone();
        worker.zero_grads();
        for i in chunk {
            let (obs, action) = sample(i);
            worker.log_prob_and_grad(obs, action, |lp| coef(i, lp));
        }
        ac.merge_grads_from(&worker);
    }

    /// [`policy_chunk_on_clone`] for the critic.
    fn value_chunk_on_clone<'o, O: 'o, AC: ActorCritic<O> + Clone>(
        ac: &mut AC,
        chunk: Range<usize>,
        obs: impl Fn(usize) -> &'o O,
        mut coef: impl FnMut(usize, f64) -> f64,
    ) {
        let mut worker = ac.clone();
        worker.zero_grads();
        for i in chunk {
            worker.value_and_grad(obs(i), |v| coef(i, v));
        }
        ac.merge_grads_from(&worker);
    }

    #[test]
    fn grad_coef_matches_finite_differences() {
        let eps = 1e-7;
        for &(lp_new, lp_old, adv) in &[
            (-1.0, -1.2, 2.0),
            (-0.4, -1.2, 2.0), // ratio > 1+ε, positive adv -> clipped
            (-1.0, -1.2, -2.0),
            (-2.5, -1.2, -2.0), // ratio < 1-ε, negative adv -> clipped
        ] {
            let loss = |lp: f64| {
                let ratio = (lp - lp_old).exp();
                let clipped = ratio.clamp(0.8, 1.2) * adv;
                -(ratio * adv).min(clipped)
            };
            let numeric = -(loss(lp_new + eps) - loss(lp_new - eps)) / (2.0 * eps);
            let analytic = policy_grad_coef(lp_new, lp_old, adv, 0.2);
            assert!(
                (analytic - numeric).abs() < 1e-5 * (1.0 + numeric.abs()),
                "case ({lp_new},{lp_old},{adv}): analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn clipping_zeroes_the_gradient() {
        // ratio far above 1+ε with positive advantage: no incentive to
        // push further.
        let coef = policy_grad_coef(0.0, -2.0, 1.0, 0.2);
        assert_eq!(coef, 0.0);
        // ratio far below 1-ε with negative advantage: also pinned.
        let coef = policy_grad_coef(-3.0, 0.0, -1.0, 0.2);
        assert_eq!(coef, 0.0);
    }

    #[test]
    fn approx_kl_is_zero_for_identical_policies() {
        let lp = vec![-1.0, -2.0, -0.5];
        assert_eq!(approx_kl(&lp, &lp), 0.0);
    }

    /// A two-armed bandit with a tabular softmax policy: arm 1 pays 1,
    /// arm 0 pays 0. PPO must drive the policy towards arm 1.
    #[derive(Debug, Clone, PartialEq)]
    struct Bandit {
        logits: [f64; 2],
        grad: [f64; 2],
        value: f64,
        value_grad: f64,
        lr: f64,
    }

    impl Bandit {
        fn log_softmax(&self) -> [f64; 2] {
            let m = self.logits[0].max(self.logits[1]);
            let z = ((self.logits[0] - m).exp() + (self.logits[1] - m).exp()).ln() + m;
            [self.logits[0] - z, self.logits[1] - z]
        }
    }

    impl ActorCritic<()> for Bandit {
        fn log_prob(&self, _obs: &(), action: usize) -> f64 {
            self.log_softmax()[action]
        }
        fn value(&self, _obs: &()) -> f64 {
            self.value
        }
        fn accumulate_policy_grad(&mut self, _obs: &(), action: usize, coef: f64) {
            let p = self.log_softmax().map(f64::exp);
            for (i, pi) in p.iter().enumerate() {
                let onehot = if i == action { 1.0 } else { 0.0 };
                self.grad[i] += coef * (onehot - pi);
            }
        }
        fn accumulate_value_grad(&mut self, _obs: &(), coef: f64) {
            self.value_grad += coef;
        }
        fn log_probs_and_grads<'o>(
            &mut self,
            chunk: Range<usize>,
            sample: impl Fn(usize) -> (&'o (), usize),
            coef: impl FnMut(usize, f64) -> f64,
        ) {
            policy_chunk_on_clone(self, chunk, sample, coef);
        }
        fn values_and_grads<'o>(
            &mut self,
            chunk: Range<usize>,
            obs: impl Fn(usize) -> &'o (),
            coef: impl FnMut(usize, f64) -> f64,
        ) {
            value_chunk_on_clone(self, chunk, obs, coef);
        }
        fn policy_opt_step(&mut self) {
            for i in 0..2 {
                self.logits[i] += self.lr * self.grad[i];
                self.grad[i] = 0.0;
            }
        }
        fn value_opt_step(&mut self) {
            self.value += self.lr * self.value_grad;
            self.value_grad = 0.0;
        }
        fn merge_grads_from(&mut self, other: &Self) {
            for i in 0..2 {
                self.grad[i] += other.grad[i];
            }
            self.value_grad += other.value_grad;
        }
        fn zero_grads(&mut self) {
            self.grad = [0.0, 0.0];
            self.value_grad = 0.0;
        }
    }

    /// An actor-critic over scalar observations `x` whose gradients are
    /// the plain sums `Σ coef · x`: with mixed magnitudes, the float result
    /// depends on the order of the additions. At `theta = phi = 0` every
    /// log-prob is `-1` and every value `0`.
    #[derive(Debug, Clone, Default)]
    struct Summer {
        theta: f64,
        phi: f64,
        grad: f64,
        value_grad: f64,
    }

    impl ActorCritic<f64> for Summer {
        fn log_prob(&self, x: &f64, _action: usize) -> f64 {
            self.theta * x - 1.0
        }
        fn value(&self, x: &f64) -> f64 {
            self.phi * x
        }
        fn accumulate_policy_grad(&mut self, x: &f64, _action: usize, coef: f64) {
            self.grad += coef * x;
        }
        fn accumulate_value_grad(&mut self, x: &f64, coef: f64) {
            self.value_grad += coef * x;
        }
        fn log_probs_and_grads<'o>(
            &mut self,
            chunk: Range<usize>,
            sample: impl Fn(usize) -> (&'o f64, usize),
            coef: impl FnMut(usize, f64) -> f64,
        ) {
            policy_chunk_on_clone(self, chunk, sample, coef);
        }
        fn values_and_grads<'o>(
            &mut self,
            chunk: Range<usize>,
            obs: impl Fn(usize) -> &'o f64,
            coef: impl FnMut(usize, f64) -> f64,
        ) {
            value_chunk_on_clone(self, chunk, obs, coef);
        }
        fn policy_opt_step(&mut self) {
            self.theta += self.grad;
            self.grad = 0.0;
        }
        fn value_opt_step(&mut self) {
            self.phi += self.value_grad;
            self.value_grad = 0.0;
        }
        fn merge_grads_from(&mut self, other: &Self) {
            self.grad += other.grad;
            self.value_grad += other.value_grad;
        }
        fn zero_grads(&mut self) {
            self.grad = 0.0;
            self.value_grad = 0.0;
        }
    }

    /// Mixed-magnitude observations, 1e-8 to 1e14 with alternating signs.
    fn mixed_xs(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let x = 10f64.powi((i * 7 % 23) as i32 - 8) * (1.0 + i as f64 * 1e-3);
                if i % 2 == 0 {
                    x
                } else {
                    -x
                }
            })
            .collect()
    }

    /// The sum of `terms` over [`GRAD_CHUNK`] chunks merged in order, and
    /// the plain left-to-right sum.
    fn chunked_and_plain_sums(terms: &[f64]) -> (f64, f64) {
        let chunked = terms
            .chunks(GRAD_CHUNK)
            .map(|c| c.iter().fold(0.0, |g, t| g + t))
            .fold(0.0, |g, s| g + s);
        (chunked, terms.iter().fold(0.0, |g, t| g + t))
    }

    #[test]
    fn update_sums_gradients_over_fixed_chunks_in_order() {
        let xs = mixed_xs(3 * GRAD_CHUNK + 17);
        let n = xs.len() as f64;
        let batch = Batch {
            steps: xs
                .iter()
                .map(|&x| Step {
                    obs: x,
                    action: 0,
                    reward: 0.0,
                    value: 0.0,
                    log_prob: -1.0,
                })
                .collect(),
            advantages: (0..xs.len()).map(|i| (i % 5) as f64 - 2.0).collect(),
            returns: (0..xs.len()).map(|i| 1.0 + (i % 3) as f64).collect(),
        };
        let cfg = PpoConfig {
            train_pi_iters: 1,
            train_v_iters: 1,
            ..PpoConfig::default()
        };
        let mut ac = Summer::default();
        let stats = ppo_update(&mut ac, &batch, &cfg);
        assert_eq!(stats.pi_iters_run, 1);

        // The same gradients folded by hand: ratio 1 everywhere, value 0.
        let pi_terms: Vec<f64> = (0..xs.len())
            .map(|i| policy_grad_coef(-1.0, -1.0, batch.advantages[i], cfg.clip_ratio) / n * xs[i])
            .collect();
        let v_terms: Vec<f64> = (0..xs.len())
            .map(|i| -2.0 * (0.0 - batch.returns[i]) / n * xs[i])
            .collect();
        for (terms, got) in [(pi_terms, ac.theta), (v_terms, ac.phi)] {
            let (chunked, plain) = chunked_and_plain_sums(&terms);
            assert_ne!(chunked, plain, "the terms must be order-sensitive");
            assert_eq!(got.to_bits(), chunked.to_bits(), "{got} vs {chunked}");
        }
    }

    #[test]
    fn chunked_reduction_keeps_existing_grads_and_index_order() {
        let xs = mixed_xs(4 * GRAD_CHUNK + 3);
        // A gradient already on `ac` is kept and counted once.
        let mut ac = Summer {
            grad: 0.5,
            ..Summer::default()
        };
        let mut out = Vec::new();
        accumulate_chunked(xs.len(), |chunk| {
            ac.log_probs_and_grads(
                chunk,
                |i| (&xs[i], 0),
                |i, _| {
                    out.push(i);
                    1.0
                },
            )
        });
        assert_eq!(out, (0..xs.len()).collect::<Vec<_>>());
        assert_eq!(ac.value_grad, 0.0);
        let (chunked, _) = chunked_and_plain_sums(&xs);
        assert_eq!(ac.grad.to_bits(), (0.5 + chunked).to_bits());
    }

    #[test]
    fn provided_fused_calls_match_the_separate_calls() {
        let bandit = || Bandit {
            logits: [0.3, -0.2],
            grad: [0.0, 0.0],
            value: 0.4,
            value_grad: 0.0,
            lr: 0.1,
        };
        let (mut fused, mut separate) = (bandit(), bandit());
        let log_prob = fused.log_prob_and_grad(&(), 1, |lp| 2.0 * lp);
        assert_eq!(log_prob, separate.log_prob(&(), 1));
        separate.accumulate_policy_grad(&(), 1, 2.0 * log_prob);
        assert_eq!(fused.grad, separate.grad);

        let value = fused.value_and_grad(&(), |v| v - 1.0);
        assert_eq!(value, separate.value(&()));
        separate.accumulate_value_grad(&(), value - 1.0);
        assert_eq!(fused.value_grad, separate.value_grad);
    }

    #[test]
    fn ppo_solves_a_bandit() {
        let mut bandit = Bandit {
            logits: [0.0, 0.0],
            grad: [0.0, 0.0],
            value: 0.0,
            value_grad: 0.0,
            lr: 0.05,
        };
        let cfg = PpoConfig {
            train_pi_iters: 10,
            train_v_iters: 10,
            target_kl: 0.05,
            ..PpoConfig::default()
        };
        // Simulate epochs of rollouts under the current policy.
        let mut rng_state = 0x9e3779b97f4a7c15u64;
        let mut unit = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            (rng_state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..60 {
            let mut buf = RolloutBuffer::new(1.0, 1.0);
            for _ in 0..64 {
                let lp = bandit.log_softmax();
                let a = if unit() < lp[0].exp() { 0 } else { 1 };
                let reward = a as f64;
                buf.absorb_trajectory(
                    vec![Step {
                        obs: (),
                        action: a,
                        reward,
                        value: bandit.value,
                        log_prob: lp[a],
                    }],
                    0.0,
                );
            }
            let batch = buf.into_batch();
            ppo_update(&mut bandit, &batch, &cfg);
        }
        let p1 = bandit.log_softmax()[1].exp();
        assert!(p1 > 0.9, "policy did not learn the good arm: p1 = {p1}");
        assert!(
            (bandit.value - 1.0).abs() < 0.5,
            "value off: {}",
            bandit.value
        );
    }

    #[test]
    fn early_stop_respects_target_kl() {
        // An aggressive learning rate forces KL past the threshold fast;
        // pi_iters_run must fall short of train_pi_iters. The wide clip
        // keeps the tripping iteration's gradient nonzero.
        let bandit = Bandit {
            logits: [0.0, 0.0],
            grad: [0.0, 0.0],
            value: 0.0,
            value_grad: 0.0,
            lr: 5.0,
        };
        let cfg = PpoConfig {
            train_pi_iters: 80,
            target_kl: 0.001,
            clip_ratio: 10.0,
            ..PpoConfig::default()
        };
        let mut buf = RolloutBuffer::new(1.0, 1.0);
        for i in 0..32 {
            let a = i % 2;
            buf.absorb_trajectory(
                vec![Step {
                    obs: (),
                    action: a,
                    reward: a as f64,
                    value: 0.0,
                    log_prob: (0.5f64).ln(),
                }],
                0.0,
            );
        }
        let batch = buf.into_batch();
        let mut tripped = bandit.clone();
        let stats = ppo_update(&mut tripped, &batch, &cfg);
        assert!(
            (1..80).contains(&stats.pi_iters_run),
            "expected KL early stop after a step, ran {} iters",
            stats.pi_iters_run
        );
        // The iteration that trips the check has already accumulated its
        // gradient; the update must end exactly as one capped at the
        // iterations that stepped.
        let capped_cfg = PpoConfig {
            train_pi_iters: stats.pi_iters_run,
            ..cfg
        };
        let mut capped = bandit;
        ppo_update(&mut capped, &batch, &capped_cfg);
        assert_eq!(tripped, capped);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_panics() {
        let mut bandit = Bandit {
            logits: [0.0, 0.0],
            grad: [0.0, 0.0],
            value: 0.0,
            value_grad: 0.0,
            lr: 0.1,
        };
        let batch: Batch<()> = Batch {
            steps: vec![],
            advantages: vec![],
            returns: vec![],
        };
        ppo_update(&mut bandit, &batch, &PpoConfig::default());
    }
}
