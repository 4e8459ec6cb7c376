//! The paper's actor-critic networks (§3.3).
//!
//! * **Policy network** (§3.3.1): a *kernel-based* 3-layer MLP applied to
//!   each job vector independently, producing one score per slot; a masked
//!   softmax over the scores gives the backfilling distribution. Because
//!   the same kernel reads one job at a time, the parameter count is tiny
//!   and the network is insensitive to job order. It also means only the
//!   rows the mask allows need scoring, and only those are evaluated.
//! * **Value network** (§3.3.2): a 3-layer MLP over the *flattened*
//!   observation ("the jobs are concat and flattened before being input"),
//!   estimating the expected episode reward. It reads the observation's
//!   feature matrix in place as that flat row, and only its nonzero
//!   entries.
//!
//! Training runs one chunk of samples per call
//! ([`ActorCritic::log_probs_and_grads`], [`ActorCritic::values_and_grads`]).
//! The policy stacks the valid rows of every sample into one matrix, one
//! segment per sample, and runs one forward and one backward pass per
//! layer; the softmax and its logit gradient run per segment. The value
//! network runs the chunk's observations as one batch, one row each. Both
//! sum each sample's gradient on its own and each chunk's into a zeroed
//! buffer added once, so a chunk has the bits of one per-sample call after
//! another. The per-sample calls are chunks of one. The buffers live in a
//! scratch that is neither serialized nor cloned, so a gradient step
//! allocates nothing once they have grown.

use crate::obs::{ObsConfig, Observation, JOB_FEATURES, MAX_SUPPORTED_OBSV_SIZE};
use ppo::ActorCritic;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use tinynn::matrix::add_weighted_sum;
use tinynn::{
    Activation, Adam, AdamConfig, BatchInput, MaskedCategorical, Matrix, Mlp, MlpScratch, Softmax,
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
    #[serde(skip)]
    scratch: Scratch,
}

/// The buffers of the chunk passes. They hold nothing between calls, so a
/// clone starts empty.
#[derive(Debug, Default)]
struct Scratch {
    /// The policy's input: the valid rows of the chunk's observations,
    /// stacked in sample order.
    rows: Matrix,
    /// The slot of each row of `rows`.
    slots: Vec<usize>,
    /// The end of each sample's segment: in `rows` for the policy, or
    /// `1, 2, …` for the value network's one row per sample.
    ends: Vec<usize>,
    /// The nonzero positions of each value-network input row,
    /// concatenated; `nz_ends` ends each row's.
    nz: Vec<u16>,
    nz_ends: Vec<usize>,
    policy: MlpScratch,
    value: MlpScratch,
}

impl Clone for Scratch {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl BackfillActorCritic {
    /// Fresh Xavier-initialized networks. Panics if
    /// `cfg.obs.max_obsv_size` exceeds [`MAX_SUPPORTED_OBSV_SIZE`].
    pub fn new(cfg: NetConfig, seed: u64) -> Self {
        assert!(
            cfg.obs.max_obsv_size <= MAX_SUPPORTED_OBSV_SIZE,
            "max_obsv_size {} exceeds the supported {MAX_SUPPORTED_OBSV_SIZE} slots",
            cfg.obs.max_obsv_size
        );
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
            scratch: Scratch::default(),
        }
    }

    /// The configuration the networks were built with.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Action logits, one per row of the observation including the skip
    /// pseudo-job (last row). Only the rows `obs.mask` allows are scored;
    /// every masked slot reads `f64::NEG_INFINITY`.
    pub fn logits(&self, obs: &Observation) -> Vec<f64> {
        let (slots, logits) = self.valid_logits(obs);
        let mut out = vec![f64::NEG_INFINITY; obs.mask.len()];
        for (&s, &l) in slots.iter().zip(logits.data()) {
            out[s] = l;
        }
        out
    }

    /// The masked action distribution at `obs` (job slots + skip).
    pub fn distribution(&self, obs: &Observation) -> MaskedCategorical {
        MaskedCategorical::new(&self.logits(obs), &obs.mask)
    }

    /// Samples an action (training-time exploration). Returns
    /// `(slot, log_prob, value)`.
    pub fn act_sample<R: Rng + ?Sized>(&self, obs: &Observation, rng: &mut R) -> (usize, f64, f64) {
        let (slots, logits) = self.valid_logits(obs);
        let dist = Softmax::new(logits.data());
        let a = dist.sample(rng);
        (slots[a], dist.log_prob(a), self.value_of(obs))
    }

    /// Greedy argmax action (evaluation-time, paper §3.3.1).
    pub fn act_greedy(&self, obs: &Observation) -> usize {
        self.act_greedy_scored(obs).0
    }

    /// [`Self::act_greedy`] with the chosen slot's logit, from the same
    /// forward pass.
    pub(crate) fn act_greedy_scored(&self, obs: &Observation) -> (usize, f64) {
        let (slots, logits) = self.valid_logits(obs);
        let a = Softmax::new(logits.data()).argmax();
        (slots[a], logits.data()[a])
    }

    /// Critic estimate of the expected episode reward at `obs`.
    pub fn value_of(&self, obs: &Observation) -> f64 {
        let mut nz = Vec::new();
        push_nonzeros(&obs.features, &mut nz);
        let input = FlatRows {
            obs: |_| obs,
            nz: &nz,
            ends: &[nz.len()],
        };
        self.value.forward(&input).get(0, 0)
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

    /// The policy kernel over the valid rows of `obs`: their slots, in
    /// slot order, and their logits (`k × 1`).
    fn valid_logits(&self, obs: &Observation) -> (Vec<usize>, Matrix) {
        let k = obs.mask.iter().filter(|&&m| m).count();
        let mut slots = Vec::with_capacity(k);
        let mut rows = Matrix::from_vec(0, JOB_FEATURES, Vec::with_capacity(k * JOB_FEATURES));
        push_valid_rows(obs, &mut slots, &mut rows);
        (slots, self.policy.forward(&rows))
    }
}

/// Appends the rows of `obs` its mask allows to `rows`, and their slot
/// indices, in slot order, to `slots`.
///
/// The policy evaluates these rows only, and its results are bit-identical
/// to a pass over every row. The kernel scores each row on its own, and
/// the masked softmax reads valid logits only, in slot order. A masked
/// row's logit gradient is exactly zero, and every product it would add
/// to a parameter gradient is ±0, which cannot change a sum started at
/// `+0.0`.
fn push_valid_rows(obs: &Observation, slots: &mut Vec<usize>, rows: &mut Matrix) {
    for (s, _) in obs.mask.iter().enumerate().filter(|(_, &m)| m) {
        slots.push(s);
        rows.push_row(obs.features.row_slice(s));
    }
}

/// Appends the positions of the nonzero entries of `features`, read
/// row-major, to `nz`, in order (`-0.0` counts as zero, as the skipped
/// zeros of [`Matrix::matmul`] do). All-zero rows (the padding) are
/// dropped by one test per row; within a job row, zeros and nonzeros
/// alternate too irregularly to predict, so that scan is branch-free.
/// [`BackfillActorCritic::new`] rejects observations too wide for `u16`
/// positions.
fn push_nonzeros(features: &Matrix, nz: &mut Vec<u16>) {
    let cols = features.cols();
    assert!(
        features.rows() * cols <= 1 << 16,
        "value input wider than u16 positions"
    );
    for r in 0..features.rows() {
        let row = features.row_slice(r);
        // Shifting out the sign bit maps ±0.0 to 0 and nothing else.
        if row.iter().fold(0, |any, v| any | v.to_bits() << 1) == 0 {
            continue;
        }
        let start = nz.len();
        nz.resize(start + cols, 0);
        let mut n = start;
        for (c, &v) in row.iter().enumerate() {
            nz[n] = (r * cols + c) as u16;
            n += usize::from(v != 0.0);
        }
        nz.truncate(n);
    }
}

/// The value network's input: one flat row per sample, row `r` being
/// `obs(r).features` read in place in row-major order. Only the entries
/// listed in `nz` (row `r`'s are `nz[ends[r-1]..ends[r]]`) are read; they
/// are exactly the nonzeros a dense pass would not skip, in the same
/// order, so the products keep the bits of the flattened matrix's.
struct FlatRows<'a, F> {
    obs: F,
    nz: &'a [u16],
    ends: &'a [usize],
}

impl<F> FlatRows<'_, F> {
    /// Per row: its index and its nonzero positions.
    fn rows(&self) -> impl Iterator<Item = (usize, &[u16])> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(self.ends)
            .map(|(lo, &hi)| &self.nz[lo..hi])
            .enumerate()
    }
}

impl<'o, F: Fn(usize) -> &'o Observation> BatchInput for FlatRows<'_, F> {
    fn matmul_into(&self, w: &Matrix, out: &mut Matrix) {
        out.reset(self.ends.len(), w.cols());
        for (r, nz) in self.rows() {
            let x = (self.obs)(r).features.data();
            let terms = nz
                .iter()
                .map(|&k| (x[usize::from(k)], w.row_slice(usize::from(k))));
            add_weighted_sum(out.row_slice_mut(r), terms);
        }
    }

    /// One segment per row, each a one-term sum: `0.0 + x·g` per nonzero.
    fn add_transposed_matmul_to(&self, g: &Matrix, ends: &[usize], acc: &mut Matrix) {
        debug_assert!(ends.iter().enumerate().all(|(r, &e)| e == r + 1));
        for (r, nz) in self.rows() {
            let x = (self.obs)(r).features.data();
            for &k in nz {
                let a = x[usize::from(k)];
                for (o, &y) in acc
                    .row_slice_mut(usize::from(k))
                    .iter_mut()
                    .zip(g.row_slice(r))
                {
                    *o += 0.0 + a * y;
                }
            }
        }
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
        // A masked action has probability zero.
        let (slots, logits) = self.valid_logits(obs);
        slots.binary_search(&action).map_or(f64::NEG_INFINITY, |a| {
            Softmax::new(logits.data()).log_prob(a)
        })
    }

    fn value(&self, obs: &Observation) -> f64 {
        self.value_of(obs)
    }

    fn accumulate_policy_grad(&mut self, obs: &Observation, action: usize, coef: f64) {
        self.log_probs_and_grads(0..1, |_| (obs, action), |_, _| coef);
    }

    fn accumulate_value_grad(&mut self, obs: &Observation, coef: f64) {
        self.values_and_grads(0..1, |_| obs, |_, _| coef);
    }

    fn log_prob_and_grad(
        &mut self,
        obs: &Observation,
        action: usize,
        mut coef: impl FnMut(f64) -> f64,
    ) -> f64 {
        let mut log_prob = 0.0;
        self.log_probs_and_grads(
            0..1,
            |_| (obs, action),
            |_, lp| {
                log_prob = lp;
                coef(lp)
            },
        );
        log_prob
    }

    fn value_and_grad(&mut self, obs: &Observation, mut coef: impl FnMut(f64) -> f64) -> f64 {
        let mut value = 0.0;
        self.values_and_grads(
            0..1,
            |_| obs,
            |_, v| {
                value = v;
                coef(v)
            },
        );
        value
    }

    /// Stacks the valid rows of the chunk's observations, runs the policy
    /// over them once, and backpropagates the per-segment softmax
    /// gradients (plus the entropy bonus) once.
    fn log_probs_and_grads<'o>(
        &mut self,
        chunk: Range<usize>,
        sample: impl Fn(usize) -> (&'o Observation, usize),
        mut coef: impl FnMut(usize, f64) -> f64,
    ) {
        let s = &mut self.scratch;
        s.rows.reset(0, JOB_FEATURES);
        s.slots.clear();
        s.ends.clear();
        for i in chunk.clone() {
            push_valid_rows(sample(i).0, &mut s.slots, &mut s.rows);
            s.ends.push(s.slots.len());
        }
        self.policy.forward_batch(&s.rows, &mut s.policy);
        let (logits, grad) = s.policy.output_and_grad();
        let mut lo = 0;
        for (i, &hi) in chunk.zip(&s.ends) {
            let action = sample(i).1;
            let a = s.slots[lo..hi]
                .binary_search(&action)
                .unwrap_or_else(|_| panic!("gradient of masked action {action}"));
            let dist = Softmax::new(&logits.data()[lo..hi]);
            let log_prob = dist.log_prob(a);
            let dlogits = &mut grad.data_mut()[lo..hi];
            dist.log_prob_grad_into(a, coef(i, log_prob), dlogits);
            if self.cfg.entropy_coef != 0.0 {
                dist.add_entropy_grad(self.cfg.entropy_coef, dlogits);
            }
            lo = hi;
        }
        self.policy.backward_batch(&s.rows, &mut s.policy, &s.ends);
    }

    /// Runs the value network over the chunk's observations as one batch,
    /// one row each, read in place.
    fn values_and_grads<'o>(
        &mut self,
        chunk: Range<usize>,
        obs: impl Fn(usize) -> &'o Observation,
        mut coef: impl FnMut(usize, f64) -> f64,
    ) {
        let s = &mut self.scratch;
        s.nz.clear();
        s.nz_ends.clear();
        s.ends.clear();
        for (r, i) in chunk.clone().enumerate() {
            push_nonzeros(&obs(i).features, &mut s.nz);
            s.nz_ends.push(s.nz.len());
            s.ends.push(r + 1);
        }
        let input = FlatRows {
            obs: |r| obs(chunk.start + r),
            nz: &s.nz,
            ends: &s.nz_ends,
        };
        self.value.forward_batch(&input, &mut s.value);
        let (values, grad) = s.value.output_and_grad();
        for (r, i) in chunk.clone().enumerate() {
            grad.set(r, 0, coef(i, values.get(r, 0)));
        }
        self.value.backward_batch(&input, &mut s.value, &s.ends);
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
    use tinynn::{entropy_grad_wrt_logits, log_prob_grad_wrt_logits};

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

    /// A random `slots`-slot observation: features in `[0, 1)` with exact
    /// zeros, all-zero padding past a random fill, and the given mask.
    fn random_obs(
        slots: usize,
        rng: &mut SmallRng,
        mask: impl Fn(usize, &mut SmallRng) -> bool,
    ) -> Observation {
        let filled = rng.random_range(0..=slots);
        let mut features = Matrix::zeros(slots + 1, JOB_FEATURES);
        for s in (0..filled).chain([slots]) {
            for c in 0..JOB_FEATURES {
                if rng.random_range(0..4) != 0 {
                    features.set(s, c, rng.random_range(0.0..1.0));
                }
            }
        }
        let mask = (0..=slots).map(|s| mask(s, rng)).collect();
        let mut queue_index: Vec<Option<usize>> = (0..slots).map(Some).collect();
        queue_index.push(None);
        Observation {
            features,
            mask,
            queue_index,
        }
    }

    /// The masks the differential test covers at `slots` slots, keyed by
    /// `case`: random with at least one valid row, exactly one valid job
    /// row, skip as the only valid action, skip disallowed, every row
    /// valid.
    fn masked_obs(case: usize, slots: usize, rng: &mut SmallRng) -> Observation {
        let one = rng.random_range(0..slots);
        let mut obs = match case {
            0 => random_obs(slots, rng, |_, r| r.random_range(0..3) == 0),
            1 => random_obs(slots, rng, |s, _| s == one),
            2 => random_obs(slots, rng, |s, _| s == slots),
            3 => random_obs(slots, rng, |s, r| s < slots && r.random_range(0..2) == 0),
            _ => random_obs(slots, rng, |_, _| true),
        };
        if !obs.mask.contains(&true) {
            obs.mask[one] = true;
        }
        obs
    }

    /// The composed reference pass of one of the agent's MLPs (ReLU hidden
    /// layers, identity output) over `x`, in `tinynn`'s plain `Matrix`
    /// ops, which share no code with the networks' fused kernels:
    /// `matmul` → `add_row_broadcast` → activation forward, then
    /// `hadamard(derivative)` → `transpose().matmul` / `col_sums` backward
    /// from `dL/doutput = dout(output)`, each parameter gradient added to
    /// `net`'s. Returns the output.
    fn composed_pass(net: &mut Mlp, x: &Matrix, dout: impl FnOnce(&Matrix) -> Matrix) -> Matrix {
        let mut pairs = net.params_and_grads_mut();
        let n = pairs.len() / 2;
        let act = |i: usize| {
            if i + 1 == n {
                Activation::Identity
            } else {
                Activation::Relu
            }
        };
        let (mut pres, mut hs) = (Vec::new(), vec![x.clone()]);
        for i in 0..n {
            let pre = hs[i]
                .matmul(pairs[2 * i].0)
                .add_row_broadcast(pairs[2 * i + 1].0);
            hs.push(act(i).forward(&pre));
            pres.push(pre);
        }
        let out = hs.pop().expect("an MLP has layers");
        let mut grad = dout(&out);
        for i in (0..n).rev() {
            grad = grad.hadamard(&act(i).derivative(&pres[i]));
            let grad_w = hs[i].transpose().matmul(&grad);
            pairs[2 * i].1.add_scaled_assign(&grad_w, 1.0);
            pairs[2 * i + 1].1.add_scaled_assign(&grad.col_sums(), 1.0);
            if i > 0 {
                grad = grad.matmul(&pairs[2 * i].0.transpose());
            }
        }
        out
    }

    /// The dense reference: the policy kernel over every row of `obs`, the
    /// masked softmax and its gradient over all logits, and the backward
    /// pass over every row, all in composed ops ([`composed_pass`]).
    /// Returns `log π(action)`.
    fn dense_policy_grad(
        ac: &mut BackfillActorCritic,
        obs: &Observation,
        action: usize,
        coef: f64,
    ) -> f64 {
        let entropy_coef = ac.cfg.entropy_coef;
        let mut log_prob = 0.0;
        composed_pass(&mut ac.policy, &obs.features, |out| {
            let logits = out.data();
            log_prob = MaskedCategorical::new(logits, &obs.mask).log_prob(action);
            let mut dlogits = log_prob_grad_wrt_logits(logits, &obs.mask, action, coef);
            if entropy_coef != 0.0 {
                let ent = entropy_grad_wrt_logits(logits, &obs.mask);
                for (d, e) in dlogits.iter_mut().zip(ent) {
                    *d += entropy_coef * e;
                }
            }
            Matrix::from_vec(dlogits.len(), 1, dlogits)
        });
        log_prob
    }

    /// The dense policy logits: the composed kernel over every row of
    /// `obs`, masked rows included.
    fn dense_logits(ac: &BackfillActorCritic, obs: &Observation) -> Vec<f64> {
        let zeros = |out: &Matrix| Matrix::zeros(out.rows(), out.cols());
        let out = composed_pass(&mut ac.policy.clone(), &obs.features, zeros);
        out.data().to_vec()
    }

    fn grad_bits(net: &Mlp) -> Vec<u64> {
        net.grads()
            .iter()
            .flat_map(|g| g.data().iter().map(|v| v.to_bits()))
            .collect()
    }

    fn policy_grad_bits(ac: &BackfillActorCritic) -> Vec<u64> {
        grad_bits(&ac.policy)
    }

    /// The dense value reference: the value network over a flattened copy
    /// of the whole observation, every zero included in the input, with
    /// `coef · ∇V` accumulated in composed ops ([`composed_pass`]).
    /// Returns `V(obs)`.
    fn dense_value_grad(ac: &mut BackfillActorCritic, obs: &Observation, coef: f64) -> f64 {
        let data = obs.features.data().to_vec();
        let flat = Matrix::from_vec(1, data.len(), data);
        let dout = |_: &Matrix| Matrix::from_vec(1, 1, vec![coef]);
        composed_pass(&mut ac.value, &flat, dout).get(0, 0)
    }

    /// The differential test's observations, keyed by `case`: the masks
    /// of [`masked_obs`] (cases 0–4; 1 and 2 give one-row segments),
    /// about half of the zero features turned into `-0.0`, padding
    /// included (5), and every row zero but the skip row (6).
    fn edge_obs(case: usize, slots: usize, rng: &mut SmallRng) -> Observation {
        match case {
            5 => {
                let mut obs = masked_obs(0, slots, rng);
                for v in obs.features.data_mut() {
                    if *v == 0.0 && rng.random_range(0..2) == 0 {
                        *v = -0.0;
                    }
                }
                obs
            }
            6 => {
                let mut obs = masked_obs(4, slots, rng);
                obs.features.data_mut()[..slots * JOB_FEATURES].fill(0.0);
                obs
            }
            _ => masked_obs(case, slots, rng),
        }
    }

    /// One chunk call of each network is bit-identical to the dense
    /// per-sample passes run on a zeroed copy and merged back once:
    /// log-probabilities, values, and both networks' gradients, added to
    /// gradients the agent already holds. Chunks of 1 to 300 samples, 1
    /// to 128 slots, entropy bonus off, positive and negative.
    #[test]
    fn chunk_passes_match_per_sample_dense_reference_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(28);
        for slots in 1..=128 {
            let n = [1, 2, 127, 128, 129, 300][(slots / 3) % 6];
            let cfg = NetConfig {
                obs: ObsConfig {
                    max_obsv_size: slots,
                },
                entropy_coef: [0.0, 0.01, -0.02][slots % 3],
                ..NetConfig::default()
            };
            let mut ac = BackfillActorCritic::new(cfg, slots as u64);
            let obs: Vec<Observation> = (0..n).map(|i| edge_obs(i % 7, slots, &mut rng)).collect();
            let actions: Vec<usize> = obs
                .iter()
                .map(|o| {
                    let valid: Vec<usize> = (0..o.mask.len()).filter(|&s| o.mask[s]).collect();
                    valid[rng.random_range(0..valid.len())]
                })
                .collect();
            let coefs: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
            ac.accumulate_policy_grad(&obs[0], actions[0], 0.3);
            ac.accumulate_value_grad(&obs[0], 0.3);

            let mut reference = ac.clone();
            let mut worker = ac.clone();
            worker.zero_grads();
            let (mut log_probs, mut values) = (Vec::new(), Vec::new());
            for i in 0..n {
                let lp = dense_policy_grad(&mut worker, &obs[i], actions[i], coefs[i]);
                log_probs.push(lp.to_bits());
                values.push(dense_value_grad(&mut worker, &obs[i], coefs[i]).to_bits());
            }
            reference.merge_grads_from(&worker);

            let (mut got_log_probs, mut got_values) = (Vec::new(), Vec::new());
            ac.log_probs_and_grads(
                0..n,
                |i| (&obs[i], actions[i]),
                |i, lp| {
                    got_log_probs.push(lp.to_bits());
                    coefs[i]
                },
            );
            ac.values_and_grads(
                0..n,
                |i| &obs[i],
                |i, v| {
                    got_values.push(v.to_bits());
                    coefs[i]
                },
            );
            let at = format!("slots {slots}, chunk {n}");
            assert_eq!(got_log_probs, log_probs, "{at}");
            assert_eq!(got_values, values, "{at}");
            assert_eq!(grad_bits(&ac.policy), grad_bits(&reference.policy), "{at}");
            assert_eq!(grad_bits(&ac.value), grad_bits(&reference.value), "{at}");
            for (o, &v) in obs.iter().zip(&values) {
                assert_eq!(ac.value_of(o).to_bits(), v, "{at}");
            }
        }
    }

    /// Evaluating the valid rows only is bit-identical to the dense pass
    /// over every row: log-probabilities, greedy and sampled actions, the
    /// greedy score, and the policy gradients accumulated over several
    /// observations (entropy bonus off, positive and negative).
    #[test]
    fn valid_row_policy_matches_dense_reference_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(24);
        for slots in 1..=128 {
            let entropy_coef = [0.0, 0.01, -0.02][slots % 3];
            let cfg = NetConfig {
                obs: ObsConfig {
                    max_obsv_size: slots,
                },
                value_hidden: vec![2],
                entropy_coef,
                ..NetConfig::default()
            };
            let mut ac = BackfillActorCritic::new(cfg, slots as u64);
            let mut dense = ac.clone();
            for case in 0..5 {
                let obs = masked_obs(case, slots, &mut rng);
                let dense_logits = dense_logits(&ac, &obs);
                let reference = MaskedCategorical::new(&dense_logits, &obs.mask);
                let dist = ac.distribution(&obs);
                let logits = ac.logits(&obs);
                for (i, (&l, &dense_l)) in logits.iter().zip(&dense_logits).enumerate() {
                    let lp = reference.log_prob(i).to_bits();
                    assert_eq!(dist.log_prob(i).to_bits(), lp);
                    assert_eq!(ac.log_prob(&obs, i).to_bits(), lp);
                    let expected = if obs.mask[i] {
                        dense_l
                    } else {
                        f64::NEG_INFINITY
                    };
                    assert_eq!(l.to_bits(), expected.to_bits());
                }
                let greedy = reference.argmax();
                assert_eq!(ac.act_greedy(&obs), greedy, "slots {slots} case {case}");
                let (slot, score) = ac.act_greedy_scored(&obs);
                assert_eq!(
                    (slot, score.to_bits()),
                    (greedy, dense_logits[greedy].to_bits())
                );
                let seed = rng.random();
                let (a, logp, _) = ac.act_sample(&obs, &mut SmallRng::seed_from_u64(seed));
                let a_ref = reference.sample(&mut SmallRng::seed_from_u64(seed));
                assert_eq!(
                    (a, logp.to_bits()),
                    (a_ref, reference.log_prob(a_ref).to_bits())
                );

                let coef = rng.random_range(-1.0..1.0);
                let action = if case % 2 == 0 { greedy } else { a_ref };
                let logp = ac.log_prob_and_grad(&obs, action, |_| coef);
                let logp_ref = dense_policy_grad(&mut dense, &obs, action, coef);
                assert_eq!(logp.to_bits(), logp_ref.to_bits());
                ac.accumulate_policy_grad(&obs, a_ref, -coef);
                dense_policy_grad(&mut dense, &obs, a_ref, -coef);
                assert_eq!(
                    policy_grad_bits(&ac),
                    policy_grad_bits(&dense),
                    "slots {slots} case {case}"
                );
            }
        }
    }

    /// The slot limit is the widest observation whose flattened positions
    /// fit `u16`, and one slot more is refused up front.
    #[test]
    #[should_panic(expected = "max_obsv_size 5461 exceeds the supported 5460 slots")]
    fn observations_too_wide_for_u16_positions_are_refused() {
        let width = |slots: usize| (slots + 1) * JOB_FEATURES;
        assert!(width(MAX_SUPPORTED_OBSV_SIZE) <= 1 << 16);
        assert!(width(MAX_SUPPORTED_OBSV_SIZE + 1) > 1 << 16);
        let obs = ObsConfig {
            max_obsv_size: MAX_SUPPORTED_OBSV_SIZE + 1,
        };
        BackfillActorCritic::new(NetConfig { obs, ..tiny_cfg() }, 0);
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
