//! Layers and multilayer perceptrons with explicit (manual) backprop.
//!
//! The architectures in the paper are fixed little MLPs, so instead of a
//! general autodiff tape we implement forward/backward per layer and verify
//! every gradient against central finite differences (see the tests and
//! `tests/gradcheck.rs`). Gradients accumulate into each layer's `grad_*`
//! buffers until an optimizer consumes them.
//!
//! Training runs in chunks. [`Mlp::forward_batch`] takes a batch that
//! stacks the rows of many samples and keeps every layer's output in an
//! [`MlpScratch`]; the caller writes `dL/doutput` next to the output, and
//! [`Mlp::backward_batch`] runs one backward pass per layer, summing the
//! parameter gradients per sample (a *segment* of rows). The chunk sums
//! into the scratch's zeroed buffers, which are added to the gradients
//! once at the end: the arithmetic of one per-sample call after another
//! on a zeroed copy of the network, merged back. A chunk of one segment
//! runs the same way and adds the bits a direct accumulation would, since
//! `0 + t = t` and a gradient is never `-0.0`.
//!
//! The passes run on the fused kernels of [`crate::matrix`] and are
//! **bit-identical** to the composed reference — `matmul` →
//! `add_row_broadcast` → [`Activation::forward`] forward;
//! `hadamard(`[`Activation::derivative`]`)` → `transpose().matmul` /
//! `col_sums` backward, once per segment — which `tests/proptest_nn.rs`
//! checks bit for bit. The scratch keeps only each layer's output: the
//! activation derivative is read off the output (ReLU: `out > 0`; tanh:
//! `1 − out²`). Each backward pass transposes each weight matrix once,
//! however many samples the chunk holds. The first layer reads its input
//! only through [`BatchInput`], so a caller can feed rows held in place
//! elsewhere (`rlbf`'s value network reads observations that way).

use crate::matrix::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Element-wise activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent (the SpinningUp MLP default).
    Tanh,
    /// No-op (linear output layers).
    Identity,
}

impl Activation {
    /// Applies the activation element-wise.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        match self {
            Activation::Relu => x.map(|v| v.max(0.0)),
            Activation::Tanh => x.map(f64::tanh),
            Activation::Identity => x.clone(),
        }
    }

    /// Element-wise derivative given the *pre-activation* input.
    pub fn derivative(&self, pre: &Matrix) -> Matrix {
        match self {
            Activation::Relu => pre.map(|v| if v > 0.0 { 1.0 } else { 0.0 }),
            Activation::Tanh => pre.map(|v| 1.0 - v.tanh() * v.tanh()),
            Activation::Identity => pre.map(|_| 1.0),
        }
    }

    /// In place, `y ← f(y + bias)` row by row (one monomorphized loop per
    /// activation, so the match is not in the inner loop).
    fn add_bias_apply(self, y: &mut Matrix, bias: &Matrix) {
        match self {
            Activation::Relu => y.add_row_map_assign(bias, |v| v.max(0.0)),
            Activation::Tanh => y.add_row_map_assign(bias, f64::tanh),
            Activation::Identity => y.add_row_map_assign(bias, |v| v),
        }
    }

    /// In place, `grad ← grad ⊙ derivative(pre)`, with the derivative read
    /// off the layer output `out = f(pre)`: `out > 0` exactly when
    /// `pre > 0`, and `1 − out²` is `1 − tanh(pre)²` to the bit.
    fn scale_by_derivative(self, grad: &mut Matrix, out: &Matrix) {
        assert_eq!(grad.shape(), out.shape(), "derivative shape mismatch");
        let pairs = grad.data_mut().iter_mut().zip(out.data());
        match self {
            Activation::Relu => pairs.for_each(|(g, &o)| *g *= if o > 0.0 { 1.0 } else { 0.0 }),
            Activation::Tanh => pairs.for_each(|(g, &o)| *g *= 1.0 - o * o),
            Activation::Identity => {}
        }
    }
}

/// A fully connected layer `y = x·W + b` with gradient accumulators.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    /// Weights, `in × out`.
    pub w: Matrix,
    /// Bias, `1 × out`.
    pub b: Matrix,
    /// Accumulated weight gradient.
    pub grad_w: Matrix,
    /// Accumulated bias gradient.
    pub grad_b: Matrix,
}

impl Linear {
    /// Xavier-initialized layer.
    pub fn new<R: Rng + ?Sized>(input: usize, output: usize, rng: &mut R) -> Self {
        Self {
            w: Matrix::xavier(input, output, rng),
            b: Matrix::zeros(1, output),
            grad_w: Matrix::zeros(input, output),
            grad_b: Matrix::zeros(1, output),
        }
    }

    /// Forward pass for a batch `x` (`batch × in`).
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = Matrix::default();
        self.forward_into(x, Activation::Identity, &mut y);
        y
    }

    /// `y ← act(x·W + b)`, reusing `y`'s allocation.
    fn forward_into(&self, x: &impl BatchInput, act: Activation, y: &mut Matrix) {
        x.matmul_into(&self.w, y);
        act.add_bias_apply(y, &self.b);
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_w.fill_zero();
        self.grad_b.fill_zero();
    }
}

/// The rows a network's first layer reads. The layer touches its input
/// only through these two products, so the rows may live anywhere: in a
/// dense [`Matrix`], or read in place from a caller's own structures.
/// An implementation must sum like [`Matrix::matmul_into`] and
/// [`Matrix::add_segmented_transposed_matmul_assign`] on the dense rows.
pub trait BatchInput {
    /// `out ← self · w`, reusing `out`'s allocation.
    fn matmul_into(&self, w: &Matrix, out: &mut Matrix);
    /// `acc += selfᵀ · g`, summed per segment (`ends` as in
    /// [`Matrix::add_segmented_transposed_matmul_assign`]).
    fn add_transposed_matmul_to(&self, g: &Matrix, ends: &[usize], acc: &mut Matrix);
}

impl BatchInput for Matrix {
    fn matmul_into(&self, w: &Matrix, out: &mut Matrix) {
        Matrix::matmul_into(self, w, out);
    }

    fn add_transposed_matmul_to(&self, g: &Matrix, ends: &[usize], acc: &mut Matrix) {
        acc.add_segmented_transposed_matmul_assign(self, g, ends);
    }
}

/// The reusable buffers of [`Mlp`] batch passes: every layer's output of
/// the last forward pass, the backward pass's running gradient and
/// transposed weights, and one chunk's parameter-gradient sums. Reusing
/// one scratch makes a training step allocate nothing once the buffers
/// have grown to the largest chunk. It holds no state between a backward
/// pass and the next forward pass.
#[derive(Debug, Clone, Default)]
pub struct MlpScratch {
    /// Every layer's output; the last is the network's.
    outputs: Vec<Matrix>,
    /// `dL/doutput` on entry to the backward pass, then the gradient with
    /// respect to each layer's pre-activation in turn.
    grad: Matrix,
    /// The next layer down's gradient, swapped into `grad`.
    next: Matrix,
    /// The current layer's `Wᵀ`.
    w_t: Matrix,
    /// Per layer: the chunk's weight and bias gradient sums, zero between
    /// chunks.
    sums: Vec<(Matrix, Matrix)>,
}

impl MlpScratch {
    /// The network output of the last forward pass.
    pub fn output(&self) -> &Matrix {
        self.outputs.last().expect("no forward pass yet")
    }

    /// The network output of the last forward pass, and a zeroed matrix
    /// of its shape to write `dL/doutput` into for the backward pass.
    pub fn output_and_grad(&mut self) -> (&Matrix, &mut Matrix) {
        let out = self.outputs.last().expect("no forward pass yet");
        self.grad.reset(out.rows(), out.cols());
        (out, &mut self.grad)
    }
}

/// `grad += sums`, then `sums ← 0`, row by row. A row of `sums` that is
/// all `+0.0` (every row the chunk did not touch) is skipped: adding
/// `+0.0` leaves a gradient unchanged, since a gradient summed from
/// `+0.0` is never `-0.0`. The value network's wide first layer has few
/// touched rows per chunk.
fn add_and_clear(grad: &mut Matrix, sums: &mut Matrix) {
    if sums.cols() == 0 {
        return;
    }
    let cols = sums.cols();
    let rows = grad.data_mut().chunks_exact_mut(cols);
    for (g, s) in rows.zip(sums.data_mut().chunks_exact_mut(cols)) {
        if s.iter().fold(0, |any, v| any | v.to_bits()) == 0 {
            continue;
        }
        for (g, s) in g.iter_mut().zip(s.iter_mut()) {
            *g += *s;
            *s = 0.0;
        }
    }
}

/// A multilayer perceptron: `Linear → act → … → Linear → out_act`.
///
/// Both of the paper's networks are 3-layer MLPs (§3.3); the kernel policy
/// network applies the same MLP to every job vector, the value network to
/// the flattened observation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_act: Activation,
    out_act: Activation,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `[8, 32, 16, 1]`.
    pub fn new<R: Rng + ?Sized>(
        dims: &[usize],
        hidden_act: Activation,
        out_act: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output dims"
        );
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        Self {
            layers,
            hidden_act,
            out_act,
        }
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.layers[0].w.rows()
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        self.layers.last().unwrap().w.cols()
    }

    /// Inference-only forward pass.
    pub fn forward(&self, x: &impl BatchInput) -> Matrix {
        let mut s = MlpScratch::default();
        self.forward_batch(x, &mut s);
        s.outputs.pop().expect("an MLP has at least one layer")
    }

    /// Forward pass over a batch, keeping every layer's output in `s` for
    /// [`Self::backward_batch`]; the output is [`MlpScratch::output`].
    pub fn forward_batch(&self, x: &impl BatchInput, s: &mut MlpScratch) {
        s.outputs.resize_with(self.layers.len(), Matrix::default);
        let (first, rest) = s.outputs.split_at_mut(1);
        self.layers[0].forward_into(x, self.activation_at(0), &mut first[0]);
        let mut input = &first[0];
        for (i, out) in rest.iter_mut().enumerate() {
            self.layers[i + 1].forward_into(input, self.activation_at(i + 1), out);
            input = out;
        }
    }

    /// Backward pass after [`Self::forward_batch`] on the same `x` and
    /// `s`, from the `dL/doutput` written through
    /// [`MlpScratch::output_and_grad`]: accumulates every parameter
    /// gradient, summed per segment of rows (`ends` as in
    /// [`Matrix::add_segmented_transposed_matmul_assign`], one segment
    /// per sample). The segments sum into the scratch's zeroed buffers
    /// first, which are added to the gradients once; the input gradient
    /// is left for [`Self::input_grad`].
    pub fn backward_batch(&mut self, x: &impl BatchInput, s: &mut MlpScratch, ends: &[usize]) {
        assert_eq!(
            s.grad.shape(),
            s.output().shape(),
            "write dL/doutput through output_and_grad first"
        );
        if s.sums.len() != self.layers.len() {
            s.sums = self
                .layers
                .iter()
                .map(|l| {
                    let (w, b) = (l.grad_w.shape(), l.grad_b.shape());
                    (Matrix::zeros(w.0, w.1), Matrix::zeros(b.0, b.1))
                })
                .collect();
        }
        for i in (0..self.layers.len()).rev() {
            self.activation_at(i)
                .scale_by_derivative(&mut s.grad, &s.outputs[i]);
            let (grad_w, grad_b) = &mut s.sums[i];
            if i == 0 {
                x.add_transposed_matmul_to(&s.grad, ends, grad_w);
            } else {
                grad_w.add_segmented_transposed_matmul_assign(&s.outputs[i - 1], &s.grad, ends);
            }
            grad_b.add_segmented_col_sums_assign(&s.grad, ends);
            if i > 0 {
                self.layers[i].w.transpose_into(&mut s.w_t);
                s.grad.matmul_into(&s.w_t, &mut s.next);
                std::mem::swap(&mut s.grad, &mut s.next);
            }
        }
        for (layer, (w, b)) in self.layers.iter_mut().zip(&mut s.sums) {
            add_and_clear(&mut layer.grad_w, w);
            add_and_clear(&mut layer.grad_b, b);
        }
    }

    /// `dL/dinput` of the last [`Self::backward_batch`] on `s`.
    pub fn input_grad(&self, s: &MlpScratch) -> Matrix {
        s.grad.matmul(&self.layers[0].w.transpose())
    }

    /// Clears all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    /// All parameter/gradient pairs, outermost layer first — the interface
    /// optimizers consume.
    pub fn params_and_grads_mut(&mut self) -> Vec<(&mut Matrix, &mut Matrix)> {
        self.layers
            .iter_mut()
            .flat_map(|l| [(&mut l.w, &mut l.grad_w), (&mut l.b, &mut l.grad_b)])
            .collect()
    }

    /// Read-only views of the accumulated gradients, in the same order as
    /// [`Self::params_and_grads_mut`].
    pub fn grads(&self) -> Vec<&Matrix> {
        self.layers
            .iter()
            .flat_map(|l| [&l.grad_w, &l.grad_b])
            .collect()
    }

    /// Total number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.w.rows() * l.w.cols() + l.b.cols())
            .sum()
    }

    fn activation_at(&self, layer_idx: usize) -> Activation {
        if layer_idx + 1 == self.layers.len() {
            self.out_act
        } else {
            self.hidden_act
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn activations_behave() {
        let x = Matrix::row(vec![-2.0, 0.0, 3.0]);
        assert_eq!(Activation::Relu.forward(&x).data(), &[0.0, 0.0, 3.0]);
        assert_eq!(Activation::Identity.forward(&x).data(), x.data());
        let t = Activation::Tanh.forward(&x);
        assert!((t.data()[2] - 3.0f64.tanh()).abs() < 1e-12);
    }

    #[test]
    fn linear_forward_matches_hand_computation() {
        let mut l = Linear::new(2, 1, &mut rng());
        l.w = Matrix::from_vec(2, 1, vec![2.0, 3.0]);
        l.b = Matrix::row(vec![1.0]);
        let y = l.forward(&Matrix::row(vec![4.0, 5.0]));
        assert_eq!(y.data(), &[2.0 * 4.0 + 3.0 * 5.0 + 1.0]);
    }

    #[test]
    fn mlp_shapes_are_consistent() {
        let mlp = Mlp::new(
            &[8, 32, 16, 1],
            Activation::Relu,
            Activation::Identity,
            &mut rng(),
        );
        assert_eq!(mlp.input_dim(), 8);
        assert_eq!(mlp.output_dim(), 1);
        let y = mlp.forward(&Matrix::zeros(5, 8));
        assert_eq!(y.shape(), (5, 1));
        assert_eq!(mlp.param_count(), 8 * 32 + 32 + 32 * 16 + 16 + 16 + 1);
    }

    #[test]
    fn zero_input_with_zero_bias_gives_zero_relu_output() {
        let mlp = Mlp::new(
            &[4, 8, 2],
            Activation::Relu,
            Activation::Identity,
            &mut rng(),
        );
        let y = mlp.forward(&Matrix::zeros(1, 4));
        // biases start at zero, so a zero input must map to zero
        assert!(y.data().iter().all(|&v| v == 0.0));
    }

    /// Accumulates the gradients of `L = sum(output)` over the batch `x`
    /// as one segment; returns `dL/dx`.
    fn backward_ones(mlp: &mut Mlp, x: &Matrix) -> Matrix {
        let mut s = MlpScratch::default();
        mlp.forward_batch(x, &mut s);
        s.output_and_grad().1.data_mut().fill(1.0);
        mlp.backward_batch(x, &mut s, &[x.rows()]);
        mlp.input_grad(&s)
    }

    /// A chunk of several segments adds the same bits as one backward
    /// pass per segment on a zeroed copy, merged back in order.
    #[test]
    fn segmented_backward_matches_per_segment_passes_merged() {
        let mut mlp = Mlp::new(
            &[3, 5, 2],
            Activation::Tanh,
            Activation::Identity,
            &mut rng(),
        );
        mlp.layers[1].grad_w.data_mut()[0] = 0.3; // gradients already held
        let x = Matrix::from_vec(5, 3, (0..15).map(|i| (i as f64 * 0.7).sin()).collect());
        let ends = [2, 2, 3, 5];
        let mut chunked = mlp.clone();
        let mut s = MlpScratch::default();
        chunked.forward_batch(&x, &mut s);
        let (out, grad) = s.output_and_grad();
        for (g, &o) in grad.data_mut().iter_mut().zip(out.data()) {
            *g = o * 1e3 - 0.1;
        }
        let grad_out = grad.clone();
        chunked.backward_batch(&x, &mut s, &ends);

        let mut worker = mlp.clone();
        worker.zero_grad();
        let mut lo = 0;
        for &hi in &ends {
            let rows = |m: &Matrix| {
                let mut seg = Matrix::zeros(0, m.cols());
                (lo..hi).for_each(|r| seg.push_row(m.row_slice(r)));
                seg
            };
            let (xs, gs) = (rows(&x), rows(&grad_out));
            let mut s = MlpScratch::default();
            worker.forward_batch(&xs, &mut s);
            *s.output_and_grad().1 = gs;
            worker.backward_batch(&xs, &mut s, &[hi - lo]);
            lo = hi;
        }
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let held = mlp.grads();
        for (k, (got, w)) in chunked.grads().into_iter().zip(worker.grads()).enumerate() {
            let mut merged = held[k].clone();
            merged.add_scaled_assign(w, 1.0);
            assert_eq!(bits(got), bits(&merged), "parameter {k}");
        }
    }

    /// Central finite-difference check of dL/dparam for L = sum(output).
    fn grad_check(hidden: Activation, out: Activation) {
        let mut mlp = Mlp::new(&[3, 5, 2], hidden, out, &mut rng());
        let x = Matrix::from_vec(4, 3, (0..12).map(|i| (i as f64) * 0.1 - 0.5).collect());

        // Analytic gradients for L = sum of outputs.
        mlp.zero_grad();
        backward_ones(&mut mlp, &x);

        let eps = 1e-6;
        for li in 0..2 {
            let analytic = mlp.layers[li].grad_w.clone();
            for idx in 0..analytic.data().len() {
                let orig = mlp.layers[li].w.data()[idx];
                mlp.layers[li].w.data_mut()[idx] = orig + eps;
                let lp = mlp.forward(&x).sum();
                mlp.layers[li].w.data_mut()[idx] = orig - eps;
                let lm = mlp.forward(&x).sum();
                mlp.layers[li].w.data_mut()[idx] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let a = analytic.data()[idx];
                assert!(
                    (a - numeric).abs() < 1e-6 * (1.0 + numeric.abs()),
                    "layer {li} w[{idx}]: analytic {a} vs numeric {numeric}"
                );
            }
            let analytic_b = mlp.layers[li].grad_b.clone();
            for idx in 0..analytic_b.data().len() {
                let orig = mlp.layers[li].b.data()[idx];
                mlp.layers[li].b.data_mut()[idx] = orig + eps;
                let lp = mlp.forward(&x).sum();
                mlp.layers[li].b.data_mut()[idx] = orig - eps;
                let lm = mlp.forward(&x).sum();
                mlp.layers[li].b.data_mut()[idx] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let a = analytic_b.data()[idx];
                assert!(
                    (a - numeric).abs() < 1e-6 * (1.0 + numeric.abs()),
                    "layer {li} b[{idx}]: analytic {a} vs numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn gradients_match_finite_differences_tanh() {
        grad_check(Activation::Tanh, Activation::Identity);
    }

    #[test]
    fn gradients_match_finite_differences_relu() {
        grad_check(Activation::Relu, Activation::Identity);
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let mut mlp = Mlp::new(
            &[3, 4, 1],
            Activation::Tanh,
            Activation::Identity,
            &mut rng(),
        );
        let x = Matrix::from_vec(2, 3, vec![0.1, -0.2, 0.3, 0.4, -0.5, 0.6]);
        let grad_in = backward_ones(&mut mlp, &x);

        let eps = 1e-6;
        for idx in 0..x.data().len() {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let numeric = (mlp.forward(&xp).sum() - mlp.forward(&xm).sum()) / (2.0 * eps);
            let a = grad_in.data()[idx];
            assert!(
                (a - numeric).abs() < 1e-6 * (1.0 + numeric.abs()),
                "x[{idx}]: analytic {a} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut mlp = Mlp::new(
            &[2, 2],
            Activation::Identity,
            Activation::Identity,
            &mut rng(),
        );
        let x = Matrix::row(vec![1.0, 2.0]);
        backward_ones(&mut mlp, &x);
        let once = mlp.layers[0].grad_w.clone();
        backward_ones(&mut mlp, &x);
        let twice = mlp.layers[0].grad_w.clone();
        assert_eq!(twice, once.scale(2.0));
        mlp.zero_grad();
        assert!(mlp.layers[0].grad_w.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn serde_round_trip_preserves_outputs() {
        let mlp = Mlp::new(
            &[4, 8, 3],
            Activation::Tanh,
            Activation::Identity,
            &mut rng(),
        );
        let json = serde_json::to_string(&mlp).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        let x = Matrix::from_vec(2, 4, vec![0.5; 8]);
        // JSON text round-trips f64 to within an ulp, not exactly.
        for (a, b) in mlp.forward(&x).data().iter().zip(back.forward(&x).data()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }
}
