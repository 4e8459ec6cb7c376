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

use crate::buffer::Batch;
use serde::{Deserialize, Serialize};

/// PPO hyper-parameters. Defaults follow the paper §4.1.1 (80 update
/// iterations for both networks, learning rate 1e-3) and SpinningUp
/// conventions for the rest.
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
    /// Policy learning rate (paper: 1e-3).
    pub pi_lr: f64,
    /// Value-function learning rate (paper: 1e-3).
    pub v_lr: f64,
    /// Entropy bonus coefficient (0 = SpinningUp default).
    pub entropy_coef: f64,
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
            pi_lr: 1e-3,
            v_lr: 1e-3,
            entropy_coef: 0.0,
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
/// *accumulated* by the `accumulate_*` calls and consumed by the
/// `*_opt_step` calls (which must also clear them).
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
    fn log_prob_and_grad(&mut self, obs: &O, action: usize, coef: impl FnOnce(f64) -> f64) -> f64 {
        let log_prob = self.log_prob(obs, action);
        self.accumulate_policy_grad(obs, action, coef(log_prob));
        log_prob
    }
    /// Critic value at `obs`, with `coef(value) · ∇_φ V(obs)` accumulated
    /// as by [`Self::accumulate_value_grad`]. Implementors override it to
    /// share one forward pass between the two.
    fn value_and_grad(&mut self, obs: &O, coef: impl FnOnce(f64) -> f64) -> f64 {
        let value = self.value(obs);
        self.accumulate_value_grad(obs, coef(value));
        value
    }
    /// Applies and clears accumulated policy gradients (ascent direction).
    fn policy_opt_step(&mut self);
    /// Applies and clears accumulated value gradients (descent on MSE is
    /// encoded in the sign of the accumulated coefficients).
    fn value_opt_step(&mut self);
}

/// Runs one full PPO update (π and V) on a finished batch.
pub fn ppo_update<O, AC: ActorCritic<O>>(
    ac: &mut AC,
    batch: &Batch<O>,
    cfg: &PpoConfig,
) -> UpdateStats {
    assert!(!batch.is_empty(), "cannot update on an empty batch");
    let n = batch.len() as f64;
    let logp_old: Vec<f64> = batch.steps.iter().map(|s| s.log_prob).collect();

    let mut kl = 0.0;
    let mut pi_iters_run = 0;
    let mut clip_frac = 0.0;
    for _ in 0..cfg.train_pi_iters {
        let logp_new: Vec<f64> = batch
            .steps
            .iter()
            .map(|s| ac.log_prob(&s.obs, s.action))
            .collect();
        kl = approx_kl(&logp_old, &logp_new);
        if kl > 1.5 * cfg.target_kl {
            break; // SpinningUp's early stop
        }
        pi_iters_run += 1;
        let mut clipped = 0usize;
        for (i, step) in batch.steps.iter().enumerate() {
            let coef = policy_grad_coef(
                logp_new[i],
                logp_old[i],
                batch.advantages[i],
                cfg.clip_ratio,
            );
            if is_clipped(logp_new[i], logp_old[i], cfg.clip_ratio) {
                clipped += 1;
            }
            // Ascent on the surrogate (+ optional entropy bonus folded in
            // by the implementor if entropy_coef > 0).
            ac.accumulate_policy_grad(&step.obs, step.action, coef / n);
        }
        clip_frac = clipped as f64 / n;
        ac.policy_opt_step();
    }

    let mut value_loss = 0.0;
    for _ in 0..cfg.train_v_iters {
        value_loss = 0.0;
        for (i, step) in batch.steps.iter().enumerate() {
            ac.value_and_grad(&step.obs, |v| {
                let err = v - batch.returns[i];
                value_loss += err * err;
                // Descent on MSE: dL/dφ = 2·err·∇V / n, so accumulate the
                // negative.
                -2.0 * err / n
            });
        }
        value_loss /= n;
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
        // pi_iters_run must fall short of train_pi_iters.
        let mut bandit = Bandit {
            logits: [0.0, 0.0],
            grad: [0.0, 0.0],
            value: 0.0,
            value_grad: 0.0,
            lr: 5.0,
        };
        let cfg = PpoConfig {
            train_pi_iters: 80,
            target_kl: 0.001,
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
        let stats = ppo_update(&mut bandit, &buf.into_batch(), &cfg);
        assert!(
            stats.pi_iters_run < 80,
            "expected KL early stop, ran {} iters",
            stats.pi_iters_run
        );
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
