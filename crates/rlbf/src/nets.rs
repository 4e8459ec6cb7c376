//! The paper's actor-critic networks (§3.3).
//!
//! * **Policy network** (§3.3.1): a *kernel-based* 3-layer MLP applied to
//!   each job vector independently, producing one score per slot; a masked
//!   softmax over the scores gives the backfilling distribution. Because
//!   the same kernel reads one job at a time, the parameter count is tiny
//!   and the network is insensitive to job order.
//! * **Value network** (§3.3.2): a 3-layer MLP over the *flattened*
//!   observation ("the jobs are concat and flattened before being input"),
//!   estimating the expected episode reward.

use crate::obs::{ObsConfig, Observation, JOB_FEATURES};
use ppo::ActorCritic;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use tinynn::{
    entropy_grad_wrt_logits, log_prob_grad_wrt_logits, Activation, Adam, AdamConfig,
    MaskedCategorical, Matrix, Mlp, MlpCache,
};

/// Network architecture and optimizer configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetConfig {
    /// Observation encoding (slot count).
    pub obs: ObsConfig,
    /// Hidden widths of the kernel policy MLP (3 layers in the paper).
    pub policy_hidden: Vec<usize>,
    /// Hidden widths of the value MLP.
    pub value_hidden: Vec<usize>,
    /// Policy learning rate (paper: 1e-3).
    pub pi_lr: f64,
    /// Value learning rate (paper: 1e-3).
    pub v_lr: f64,
    /// Entropy-bonus coefficient added to the policy gradient.
    pub entropy_coef: f64,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            obs: ObsConfig::default(),
            policy_hidden: vec![32, 16],
            value_hidden: vec![32, 16],
            pi_lr: 1e-3,
            v_lr: 1e-3,
            entropy_coef: 0.0,
        }
    }
}

/// The RLBackfilling agent's networks and optimizers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BackfillActorCritic {
    /// Kernel policy MLP: `JOB_FEATURES → hidden → 1`.
    pub policy: Mlp,
    /// Value MLP: `max_obsv_size · JOB_FEATURES → hidden → 1`.
    pub value: Mlp,
    cfg: NetConfig,
    policy_opt: Adam,
    value_opt: Adam,
}

impl BackfillActorCritic {
    /// Fresh Xavier-initialized networks.
    pub fn new(cfg: NetConfig, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut policy_dims = vec![JOB_FEATURES];
        policy_dims.extend(&cfg.policy_hidden);
        policy_dims.push(1);
        // +1 row: the skip pseudo-job (see `rlbf::obs`).
        let mut value_dims = vec![(cfg.obs.max_obsv_size + 1) * JOB_FEATURES];
        value_dims.extend(&cfg.value_hidden);
        value_dims.push(1);
        Self {
            policy: Mlp::new(
                &policy_dims,
                Activation::Relu,
                Activation::Identity,
                &mut rng,
            ),
            value: Mlp::new(
                &value_dims,
                Activation::Relu,
                Activation::Identity,
                &mut rng,
            ),
            policy_opt: Adam::new(AdamConfig::with_lr(cfg.pi_lr)),
            value_opt: Adam::new(AdamConfig::with_lr(cfg.v_lr)),
            cfg,
        }
    }

    /// The configuration the networks were built with.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Action logits: the kernel applied to every row of the observation,
    /// including the skip pseudo-job (last row).
    pub fn logits(&self, obs: &Observation) -> Vec<f64> {
        let out = self.policy.forward(&obs.features); // (slots+1) × 1
        (0..out.rows()).map(|r| out.get(r, 0)).collect()
    }

    /// The masked action distribution at `obs` (job slots + skip).
    pub fn distribution(&self, obs: &Observation) -> MaskedCategorical {
        MaskedCategorical::new(&self.logits(obs), &obs.mask)
    }

    /// Samples an action (training-time exploration). Returns
    /// `(slot, log_prob, value)`.
    pub fn act_sample<R: Rng + ?Sized>(&self, obs: &Observation, rng: &mut R) -> (usize, f64, f64) {
        let dist = self.distribution(obs);
        let a = dist.sample(rng);
        (a, dist.log_prob(a), self.value_of(obs))
    }

    /// Greedy argmax action (evaluation-time, paper §3.3.1).
    pub fn act_greedy(&self, obs: &Observation) -> usize {
        self.distribution(obs).argmax()
    }

    /// Critic estimate of the expected episode reward at `obs`.
    pub fn value_of(&self, obs: &Observation) -> f64 {
        self.value.forward(&obs.features.flatten()).get(0, 0)
    }

    /// Serializes the full agent (networks + optimizer state) to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("actor-critic serializes")
    }

    /// Restores an agent saved with [`Self::to_json`].
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Replaces the policy optimizer with a fresh Adam at the given
    /// learning rate (used to switch between the imitation warm-start and
    /// PPO phases; Adam moments do not carry across objectives).
    pub fn reset_policy_optimizer(&mut self, lr: f64) {
        self.policy_opt = Adam::new(AdamConfig::with_lr(lr));
    }

    /// Backpropagates `coef · ∇ log π(action)`, plus the entropy bonus,
    /// through a cached policy forward pass.
    fn policy_backward(&mut self, cache: &MlpCache, mask: &[bool], action: usize, coef: f64) {
        let logits = cache.output().data(); // (slots+1) × 1
        let mut dlogits = log_prob_grad_wrt_logits(logits, mask, action, coef);
        if self.cfg.entropy_coef != 0.0 {
            let ent = entropy_grad_wrt_logits(logits, mask);
            for (d, e) in dlogits.iter_mut().zip(ent) {
                *d += self.cfg.entropy_coef * e;
            }
        }
        let grad = Matrix::from_vec(dlogits.len(), 1, dlogits);
        self.policy.backward(cache, &grad);
    }
}

fn merge_mlp_grads(into: &mut Mlp, from: &Mlp) {
    // Walk parameter/grad pairs in lock-step; architectures are identical.
    let mut into_pairs = into.params_and_grads_mut();
    let from_grads = from.grads();
    assert_eq!(into_pairs.len(), from_grads.len(), "architecture mismatch");
    for ((_, g), fg) in into_pairs.iter_mut().zip(from_grads) {
        g.add_scaled_assign(fg, 1.0);
    }
}

/// One optimizer step on gradients accumulated for ascent: Adam descends,
/// so the gradients are negated in place first.
fn ascent_step(net: &mut Mlp, opt: &mut Adam) {
    let mut pairs = net.params_and_grads_mut();
    for (_, g) in &mut pairs {
        g.data_mut().iter_mut().for_each(|v| *v = -*v);
    }
    opt.step(pairs);
}

impl ActorCritic<Observation> for BackfillActorCritic {
    fn log_prob(&self, obs: &Observation, action: usize) -> f64 {
        self.distribution(obs).log_prob(action)
    }

    fn value(&self, obs: &Observation) -> f64 {
        self.value_of(obs)
    }

    fn accumulate_policy_grad(&mut self, obs: &Observation, action: usize, coef: f64) {
        let cache = self.policy.forward_cached(&obs.features);
        self.policy_backward(&cache, &obs.mask, action, coef);
    }

    fn accumulate_value_grad(&mut self, obs: &Observation, coef: f64) {
        self.value_and_grad(obs, |_| coef);
    }

    fn log_prob_and_grad(
        &mut self,
        obs: &Observation,
        action: usize,
        coef: impl FnOnce(f64) -> f64,
    ) -> f64 {
        let cache = self.policy.forward_cached(&obs.features);
        let mask = &obs.mask;
        let log_prob = MaskedCategorical::new(cache.output().data(), mask).log_prob(action);
        self.policy_backward(&cache, mask, action, coef(log_prob));
        log_prob
    }

    fn value_and_grad(&mut self, obs: &Observation, coef: impl FnOnce(f64) -> f64) -> f64 {
        let flat = obs.features.flatten();
        let cache = self.value.forward_cached(&flat);
        let value = cache.output().get(0, 0);
        self.value
            .backward(&cache, &Matrix::from_vec(1, 1, vec![coef(value)]));
        value
    }

    fn policy_opt_step(&mut self) {
        // `accumulate_policy_grad` builds ascent gradients.
        ascent_step(&mut self.policy, &mut self.policy_opt);
    }

    fn value_opt_step(&mut self) {
        ascent_step(&mut self.value, &mut self.value_opt);
    }

    fn merge_grads_from(&mut self, other: &Self) {
        merge_mlp_grads(&mut self.policy, &other.policy);
        merge_mlp_grads(&mut self.value, &other.value);
    }

    fn zero_grads(&mut self) {
        self.policy.zero_grad();
        self.value.zero_grad();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn tiny_cfg() -> NetConfig {
        NetConfig {
            obs: ObsConfig { max_obsv_size: 8 },
            policy_hidden: vec![8, 4],
            value_hidden: vec![8, 4],
            v_lr: 1e-2,
            ..NetConfig::default()
        }
    }

    /// Builds an observation with the given job-slot validity; the final
    /// `valid` entry is the skip action's availability.
    fn fake_obs(valid_jobs: &[bool]) -> Observation {
        fake_obs_with_skip(valid_jobs, true)
    }

    fn fake_obs_with_skip(valid_jobs: &[bool], skip: bool) -> Observation {
        let slots = valid_jobs.len();
        let mut features = Matrix::zeros(slots + 1, JOB_FEATURES);
        for s in 0..slots {
            for c in 0..JOB_FEATURES {
                features.set(s, c, ((s * 7 + c) as f64 * 0.37).sin() * 0.5 + 0.5);
            }
        }
        features.set(slots, 4, 0.5);
        let mut mask = valid_jobs.to_vec();
        mask.push(skip);
        let mut queue_index: Vec<Option<usize>> = (0..slots).map(Some).collect();
        queue_index.push(None);
        Observation {
            features,
            mask,
            queue_index,
        }
    }

    #[test]
    fn kernel_policy_is_order_equivariant() {
        // Swapping two job rows must swap their scores: the kernel reads
        // one job at a time (paper's order-insensitivity claim).
        let ac = BackfillActorCritic::new(tiny_cfg(), 3);
        let obs = fake_obs(&[true; 8]);
        let logits = ac.logits(&obs);

        let mut swapped = obs.clone();
        for c in 0..JOB_FEATURES {
            let a = swapped.features.get(2, c);
            let b = swapped.features.get(5, c);
            swapped.features.set(2, c, b);
            swapped.features.set(5, c, a);
        }
        let logits_swapped = ac.logits(&swapped);
        assert!((logits[2] - logits_swapped[5]).abs() < 1e-12);
        assert!((logits[5] - logits_swapped[2]).abs() < 1e-12);
        assert!((logits[0] - logits_swapped[0]).abs() < 1e-12);
    }

    #[test]
    fn greedy_action_is_always_valid() {
        let ac = BackfillActorCritic::new(tiny_cfg(), 4);
        for pattern in [
            vec![false, true, false, true, false, false, false, false],
            vec![true, false, false, false, false, false, false, false],
        ] {
            let obs = fake_obs(&pattern);
            let a = ac.act_greedy(&obs);
            assert!(
                a == obs.skip_action() || obs.mask[a],
                "greedy picked a masked slot"
            );
        }
        // With skip disallowed, greedy must land on a valid job slot.
        let obs = fake_obs_with_skip(
            &[false, true, false, false, false, false, false, false],
            false,
        );
        let a = ac.act_greedy(&obs);
        assert_eq!(a, 1);
    }

    #[test]
    fn sampled_actions_are_valid_and_logged() {
        let ac = BackfillActorCritic::new(tiny_cfg(), 5);
        let obs = fake_obs(&[false, true, true, false, true, false, false, false]);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut skip_seen = false;
        for _ in 0..200 {
            let (a, logp, v) = ac.act_sample(&obs, &mut rng);
            if a == obs.skip_action() {
                skip_seen = true;
            } else {
                assert!(obs.mask[a]);
            }
            assert!(logp <= 0.0 && logp.is_finite());
            assert!(v.is_finite());
        }
        assert!(skip_seen, "skip action should be sampled occasionally");
    }

    #[test]
    fn policy_gradient_ascends_chosen_action_probability() {
        let mut ac = BackfillActorCritic::new(tiny_cfg(), 6);
        let obs = fake_obs(&[true; 8]);
        let action = 3;
        let before = ac.log_prob(&obs, action);
        for _ in 0..50 {
            ac.accumulate_policy_grad(&obs, action, 1.0);
            ac.policy_opt_step();
        }
        let after = ac.log_prob(&obs, action);
        assert!(
            after > before,
            "ascent did not increase log-prob: {before} -> {after}"
        );
    }

    #[test]
    fn value_gradient_moves_value_toward_target() {
        let mut ac = BackfillActorCritic::new(tiny_cfg(), 7);
        let obs = fake_obs(&[true; 8]);
        let target = 0.7;
        for _ in 0..300 {
            let v = ac.value_of(&obs);
            ac.accumulate_value_grad(&obs, -2.0 * (v - target));
            ac.value_opt_step();
        }
        let v = ac.value_of(&obs);
        assert!(
            (v - target).abs() < 0.05,
            "value {v} did not reach {target}"
        );
    }

    #[test]
    fn json_round_trip_preserves_behavior() {
        let ac = BackfillActorCritic::new(tiny_cfg(), 8);
        let obs = fake_obs(&[true; 8]);
        let back = BackfillActorCritic::from_json(&ac.to_json()).unwrap();
        let (a, b) = (ac.logits(&obs), back.logits(&obs));
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
        assert_eq!(ac.act_greedy(&obs), back.act_greedy(&obs));
    }

    /// FNV-1a over the bytes of `s`.
    pub(crate) fn fnv1a(s: &str) -> u64 {
        s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// A 16-slot observation: `k`-dependent valid slots, the rows past
    /// `10 + k % 4` left as all-zero padding.
    fn pinned_obs(k: usize) -> Observation {
        let slots = 16;
        let filled = 10 + k % 4;
        let mut features = Matrix::zeros(slots + 1, JOB_FEATURES);
        for s in 0..filled {
            for c in 0..JOB_FEATURES {
                if !(s + c + k).is_multiple_of(6) {
                    features.set(s, c, ((s * 7 + c * 3 + k) as f64 * 0.37).sin() * 0.5 + 0.5);
                }
            }
        }
        features.set(slots, 4, 0.5);
        let mut mask: Vec<bool> = (0..slots)
            .map(|s| s < filled && !(s * 3 + k).is_multiple_of(5))
            .collect();
        mask.push(!k.is_multiple_of(3));
        let mut queue_index: Vec<Option<usize>> = (0..slots).map(Some).collect();
        queue_index.push(None);
        Observation {
            features,
            mask,
            queue_index,
        }
    }

    /// Imitation steps and sequential PPO updates on fixed observations;
    /// returns the agent's JSON followed by every loss the run reported.
    /// `fused` takes the imitation log-probs from the gradient's forward
    /// pass ([`ActorCritic::log_prob_and_grad`]) instead of a separate one.
    fn pinned_training_run(fused: bool) -> String {
        let cfg = NetConfig {
            obs: ObsConfig { max_obsv_size: 16 },
            ..NetConfig::default()
        };
        let mut ac = BackfillActorCritic::new(cfg, 11);
        let obs: Vec<Observation> = (0..6).map(pinned_obs).collect();
        let mut losses = Vec::new();

        // Behaviour cloning towards the first valid slot of each row.
        let demos: Vec<(&Observation, usize)> = obs
            .iter()
            .map(|o| (o, o.mask.iter().position(|&m| m).unwrap()))
            .collect();
        let n = demos.len() as f64;
        for _ in 0..3 {
            let mut ce = 0.0;
            for &(o, a) in &demos {
                if fused {
                    ce -= ac.log_prob_and_grad(o, a, |_| 1.0 / n);
                } else {
                    ce -= ac.log_prob(o, a);
                    ac.accumulate_policy_grad(o, a, 1.0 / n);
                }
            }
            ac.policy_opt_step();
            losses.push(ce);
        }

        // PPO updates on one fixed trajectory.
        let ppo_cfg = ppo::PpoConfig {
            train_pi_iters: 3,
            train_v_iters: 3,
            target_kl: 1.0,
            ..ppo::PpoConfig::default()
        };
        for round in 0..3 {
            let mut buffer = ppo::RolloutBuffer::new(1.0, 0.97);
            let steps = obs
                .iter()
                .enumerate()
                .map(|(i, o)| {
                    let action = o.mask.iter().rposition(|&m| m).unwrap();
                    ppo::Step {
                        obs: o.clone(),
                        action,
                        reward: ((i + round) as f64 * 0.9).cos(),
                        value: ac.value(o),
                        log_prob: ac.log_prob(o, action),
                    }
                })
                .collect();
            buffer.absorb_trajectory(steps, 0.0);
            let stats = ppo::ppo_update(&mut ac, &buffer.into_batch(), &ppo_cfg);
            losses.extend([stats.approx_kl, stats.value_loss, stats.clip_frac]);
        }
        let bits: Vec<String> = losses
            .iter()
            .map(|l| format!("{:x}", l.to_bits()))
            .collect();
        format!("{} {}", ac.to_json(), bits.join(","))
    }

    /// Pins the bits of a short training run: any change to the forward
    /// or backward arithmetic (summation order, skipped zeros, fused
    /// kernels) moves this hash. Every step fits one [`ppo::GRAD_CHUNK`]
    /// chunk, so `ppo_update` sums exactly like a plain loop here; the
    /// multi-chunk sums are pinned in `train`'s tests.
    #[test]
    fn training_run_bits_are_pinned() {
        for fused in [false, true] {
            assert_eq!(
                fnv1a(&pinned_training_run(fused)),
                0x9665_6371_eb8a_55af,
                "fused = {fused}"
            );
        }
    }

    #[test]
    fn merge_grads_sums_worker_gradients() {
        let cfg = tiny_cfg();
        let base = BackfillActorCritic::new(cfg, 10);
        let obs = fake_obs(&[true; 8]);

        // Worker A and B accumulate on clones; merging into a zero-grad
        // master must equal accumulating both on one instance.
        let mut reference = base.clone();
        reference.accumulate_policy_grad(&obs, 1, 0.5);
        reference.accumulate_policy_grad(&obs, 2, -0.25);

        let mut worker_a = base.clone();
        worker_a.accumulate_policy_grad(&obs, 1, 0.5);
        let mut worker_b = base.clone();
        worker_b.accumulate_policy_grad(&obs, 2, -0.25);
        let mut master = base.clone();
        master.merge_grads_from(&worker_a);
        master.merge_grads_from(&worker_b);

        let mg = master.policy.grads();
        let rg = reference.policy.grads();
        for (m, r) in mg.iter().zip(&rg) {
            for (a, b) in m.data().iter().zip(r.data()) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }
}
