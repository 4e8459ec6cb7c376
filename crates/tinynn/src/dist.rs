//! Masked categorical distributions over discrete action slots.
//!
//! The policy network scores every observation slot; invalid slots (padding,
//! the reserved job, jobs that don't fit) are masked out before the softmax
//! (paper §3.2: "a mask to make sure the RL agent will never pick this
//! job"). During training actions are *sampled* for exploration; during
//! evaluation the argmax is taken (paper §3.3.1).
//!
//! The masked functions are the reference. [`Softmax`] is the same
//! arithmetic over a slice whose every entry is valid, read in place: a
//! caller that has already dropped the masked slots (`rlbf`'s policy)
//! builds no mask and no log-probability vector, and gets the same bits.

use rand::Rng;

/// `log Σ exp(l)` over the valid logits, computed stably around their
/// maximum. Panics if there is none.
fn log_normalizer(valid: impl Iterator<Item = f64> + Clone) -> f64 {
    let max = valid.clone().fold(f64::NEG_INFINITY, f64::max);
    assert!(
        max.is_finite(),
        "masked_log_softmax requires at least one valid action"
    );
    valid.map(|l| (l - max).exp()).sum::<f64>().ln() + max
}

/// The probability of a log-probability; masked slots (`-inf`) get 0.
fn prob(log_prob: f64) -> f64 {
    if log_prob.is_finite() {
        log_prob.exp()
    } else {
        0.0
    }
}

/// Inverse-CDF sample of `u ∈ [0, 1)` over the log-probabilities.
fn sample_index(log_probs: impl Iterator<Item = f64>, u: f64) -> usize {
    let mut acc = 0.0;
    let mut last_valid = 0;
    for (i, lp) in log_probs.enumerate() {
        if lp.is_finite() {
            last_valid = i;
            acc += lp.exp();
            if u < acc {
                return i;
            }
        }
    }
    // Floating-point slack: fall back to the last valid slot.
    last_valid
}

/// The index of the largest log-probability (the last of equals).
fn argmax_index(log_probs: impl Iterator<Item = f64>) -> usize {
    log_probs
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(i, _)| i)
        .expect("distribution has at least one slot")
}

/// Shannon entropy in nats (masked slots contribute zero).
fn entropy_of(log_probs: impl Iterator<Item = f64>) -> f64 {
    -log_probs
        .filter(|lp| lp.is_finite())
        .map(|lp| lp.exp() * lp)
        .sum::<f64>()
}

/// `d(coef · log π(action))/dl_i` on a valid slot with probability `p`.
fn log_prob_grad(p: f64, is_action: bool, coef: f64) -> f64 {
    if is_action {
        coef * (1.0 - p)
    } else {
        -coef * p
    }
}

/// `dH/dl_i = −π_i (log π_i + H)`; 0 on masked slots.
fn entropy_grad(log_prob: f64, entropy: f64) -> f64 {
    if log_prob.is_finite() {
        -log_prob.exp() * (log_prob + entropy)
    } else {
        0.0
    }
}

/// Log-probabilities of a masked softmax over `logits`.
///
/// Masked entries get `f64::NEG_INFINITY`. Panics if no entry is valid.
pub fn masked_log_softmax(logits: &[f64], mask: &[bool]) -> Vec<f64> {
    assert_eq!(logits.len(), mask.len(), "mask length mismatch");
    let valid = logits.iter().zip(mask).filter(|(_, &m)| m).map(|(&l, _)| l);
    let log_z = log_normalizer(valid);
    logits
        .iter()
        .zip(mask)
        .map(|(&l, &m)| if m { l - log_z } else { f64::NEG_INFINITY })
        .collect()
}

/// Probabilities of a masked softmax (exponentiated [`masked_log_softmax`]).
pub fn masked_softmax(logits: &[f64], mask: &[bool]) -> Vec<f64> {
    masked_log_softmax(logits, mask)
        .into_iter()
        .map(prob)
        .collect()
}

/// A categorical distribution over masked logits.
#[derive(Debug, Clone)]
pub struct MaskedCategorical {
    log_probs: Vec<f64>,
}

impl MaskedCategorical {
    /// Builds the distribution; panics if every action is masked.
    pub fn new(logits: &[f64], mask: &[bool]) -> Self {
        Self {
            log_probs: masked_log_softmax(logits, mask),
        }
    }

    /// Number of slots (valid or not).
    pub fn len(&self) -> usize {
        self.log_probs.len()
    }

    /// True if there are no slots at all.
    pub fn is_empty(&self) -> bool {
        self.log_probs.is_empty()
    }

    /// Probability vector (masked slots are exactly 0).
    pub fn probs(&self) -> Vec<f64> {
        self.log_probs.iter().map(|&lp| prob(lp)).collect()
    }

    /// Log-probability of `action`; `-inf` for masked slots.
    pub fn log_prob(&self, action: usize) -> f64 {
        self.log_probs[action]
    }

    /// Samples an action by inverse CDF (training-time exploration).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        sample_index(self.log_probs.iter().copied(), rng.random_range(0.0..1.0))
    }

    /// The highest-probability action (evaluation-time greedy choice).
    pub fn argmax(&self) -> usize {
        argmax_index(self.log_probs.iter().copied())
    }

    /// Shannon entropy in nats (masked slots contribute zero).
    pub fn entropy(&self) -> f64 {
        entropy_of(self.log_probs.iter().copied())
    }
}

/// The softmax over every entry of `logits`, read in place: bit for bit
/// a [`MaskedCategorical`] with an all-true mask, without the mask or the
/// log-probability vector.
#[derive(Debug, Clone, Copy)]
pub struct Softmax<'a> {
    logits: &'a [f64],
    log_z: f64,
}

impl<'a> Softmax<'a> {
    /// The distribution over `logits`; panics if there are none.
    pub fn new(logits: &'a [f64]) -> Self {
        Self {
            logits,
            log_z: log_normalizer(logits.iter().copied()),
        }
    }

    /// Log-probability of `action`.
    pub fn log_prob(&self, action: usize) -> f64 {
        self.logits[action] - self.log_z
    }

    fn log_probs(&self) -> impl Iterator<Item = f64> + '_ {
        self.logits.iter().map(|&l| l - self.log_z)
    }

    /// Samples an action by inverse CDF.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        sample_index(self.log_probs(), rng.random_range(0.0..1.0))
    }

    /// The highest-probability action.
    pub fn argmax(&self) -> usize {
        argmax_index(self.log_probs())
    }

    /// Shannon entropy in nats.
    pub fn entropy(&self) -> f64 {
        entropy_of(self.log_probs())
    }

    /// Writes `d(coef · log π(action))/dlogits` into `out`, as
    /// [`log_prob_grad_wrt_logits`] computes it.
    pub fn log_prob_grad_into(&self, action: usize, coef: f64, out: &mut [f64]) {
        assert_eq!(out.len(), self.logits.len(), "gradient length mismatch");
        for (i, (o, lp)) in out.iter_mut().zip(self.log_probs()).enumerate() {
            *o = log_prob_grad(prob(lp), i == action, coef);
        }
    }

    /// Adds `coef · dH/dlogits` to `out`, with the gradient as
    /// [`entropy_grad_wrt_logits`] computes it.
    pub fn add_entropy_grad(&self, coef: f64, out: &mut [f64]) {
        assert_eq!(out.len(), self.logits.len(), "gradient length mismatch");
        let entropy = self.entropy();
        for (o, lp) in out.iter_mut().zip(self.log_probs()) {
            *o += coef * entropy_grad(lp, entropy);
        }
    }
}

/// Gradient of `coef · log π(action)` with respect to the logits:
/// `coef · (1{i=action} − π(i))` on valid slots, 0 on masked slots.
///
/// This is the closed-form softmax/log-prob backward pass the PPO update
/// uses; verified against finite differences in the tests.
pub fn log_prob_grad_wrt_logits(
    logits: &[f64],
    mask: &[bool],
    action: usize,
    coef: f64,
) -> Vec<f64> {
    debug_assert!(mask[action], "gradient of a masked action is undefined");
    let probs = masked_softmax(logits, mask);
    probs
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            if mask[i] {
                log_prob_grad(p, i == action, coef)
            } else {
                0.0
            }
        })
        .collect()
}

/// Gradient of the entropy `H = −Σ π log π` with respect to the logits:
/// `dH/dl_i = −π_i (log π_i + H)` on valid slots, 0 on masked ones. Used for
/// the optional entropy bonus in the PPO policy update.
pub fn entropy_grad_wrt_logits(logits: &[f64], mask: &[bool]) -> Vec<f64> {
    let log_probs = masked_log_softmax(logits, mask);
    let entropy = entropy_of(log_probs.iter().copied());
    log_probs
        .iter()
        .map(|&lp| entropy_grad(lp, entropy))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn softmax_sums_to_one_over_valid_slots() {
        let logits = [1.0, 2.0, 3.0, 4.0];
        let mask = [true, false, true, true];
        let p = masked_softmax(&logits, &mask);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(p[1], 0.0);
    }

    #[test]
    fn uniform_logits_give_uniform_probs() {
        let p = masked_softmax(&[0.5; 4], &[true; 4]);
        for &x in &p {
            assert!((x - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "at least one valid action")]
    fn all_masked_panics() {
        masked_log_softmax(&[1.0, 2.0], &[false, false]);
    }

    #[test]
    fn extreme_logits_are_stable() {
        let p = masked_softmax(&[1e4, -1e4, 9.9e3], &[true; 3]);
        assert!(p.iter().all(|x| x.is_finite()));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p[0] > 0.999);
    }

    #[test]
    fn argmax_ignores_masked_slots() {
        let d = MaskedCategorical::new(&[10.0, 1.0], &[false, true]);
        assert_eq!(d.argmax(), 1);
    }

    #[test]
    fn sampling_matches_probabilities() {
        let d = MaskedCategorical::new(&[0.0, (3.0f64).ln()], &[true, true]);
        let mut rng = SmallRng::seed_from_u64(5);
        let n = 200_000;
        let mut count1 = 0usize;
        for _ in 0..n {
            if d.sample(&mut rng) == 1 {
                count1 += 1;
            }
        }
        let freq = count1 as f64 / n as f64;
        assert!((freq - 0.75).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn sample_never_returns_masked_action() {
        let d = MaskedCategorical::new(&[100.0, 0.0, 0.0], &[false, true, true]);
        let mut rng = SmallRng::seed_from_u64(6);
        for _ in 0..1000 {
            assert_ne!(d.sample(&mut rng), 0);
        }
    }

    #[test]
    fn entropy_of_uniform_is_log_n() {
        let d = MaskedCategorical::new(&[0.0; 8], &[true; 8]);
        assert!((d.entropy() - (8.0f64).ln()).abs() < 1e-12);
        let certain = MaskedCategorical::new(&[1e3, 0.0], &[true, true]);
        assert!(certain.entropy() < 1e-6);
    }

    #[test]
    fn log_prob_grad_matches_finite_differences() {
        let logits = vec![0.3, -0.7, 1.2, 0.0, 2.1];
        let mask = vec![true, true, false, true, true];
        let action = 3;
        let coef = 1.7;
        let grad = log_prob_grad_wrt_logits(&logits, &mask, action, coef);
        let eps = 1e-6;
        for i in 0..logits.len() {
            let mut lp = logits.clone();
            lp[i] += eps;
            let up = coef * masked_log_softmax(&lp, &mask)[action];
            let mut lm = logits.clone();
            lm[i] -= eps;
            let dn = coef * masked_log_softmax(&lm, &mask)[action];
            let numeric = (up - dn) / (2.0 * eps);
            assert!(
                (grad[i] - numeric).abs() < 1e-6 * (1.0 + numeric.abs()),
                "logit {i}: analytic {} vs numeric {numeric}",
                grad[i]
            );
        }
    }

    #[test]
    fn masked_slots_receive_zero_gradient() {
        let grad = log_prob_grad_wrt_logits(&[1.0, 2.0, 3.0], &[true, false, true], 0, 1.0);
        assert_eq!(grad[1], 0.0);
    }

    #[test]
    fn entropy_grad_matches_finite_differences() {
        let logits = vec![0.3, -0.7, 1.2, 0.0];
        let mask = vec![true, true, false, true];
        let grad = entropy_grad_wrt_logits(&logits, &mask);
        let entropy_of = |l: &[f64]| MaskedCategorical::new(l, &mask).entropy();
        let eps = 1e-6;
        for i in 0..logits.len() {
            let mut lp = logits.clone();
            lp[i] += eps;
            let mut lm = logits.clone();
            lm[i] -= eps;
            let numeric = (entropy_of(&lp) - entropy_of(&lm)) / (2.0 * eps);
            assert!(
                (grad[i] - numeric).abs() < 1e-6 * (1.0 + numeric.abs()),
                "logit {i}: analytic {} vs numeric {numeric}",
                grad[i]
            );
        }
        assert_eq!(grad[2], 0.0);
    }
}
