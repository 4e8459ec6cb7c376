//! Layers and multilayer perceptrons with explicit (manual) backprop.
//!
//! The architectures in the paper are fixed little MLPs, so instead of a
//! general autodiff tape we implement forward/backward per layer and verify
//! every gradient against central finite differences (see the tests and
//! `tests/gradcheck.rs`). Gradients accumulate into each layer's `grad_*`
//! buffers until an optimizer consumes them.
//!
//! The passes run on the fused kernels of [`crate::matrix`] and are
//! **bit-identical** to the composed reference — `matmul` →
//! `add_row_broadcast` → [`Activation::forward`] forward;
//! `hadamard(`[`Activation::derivative`]`)` → `transpose().matmul` /
//! `col_sums` backward — which `tests/proptest_nn.rs` checks bit for bit.
//! The cache keeps only each layer's output: the activation derivative is
//! read off the output (ReLU: `out > 0`; tanh: `1 − out²`). Nothing
//! consumes the input gradient of the first layer during training, so
//! [`Mlp::backward`] does not compute it; [`Mlp::backward_with_input_grad`]
//! does.

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
        self.forward_with(x, Activation::Identity)
    }

    /// Forward pass with `act` applied: `act(x·W + b)`, one allocation.
    pub(crate) fn forward_with(&self, x: &Matrix, act: Activation) -> Matrix {
        let mut y = x.matmul(&self.w);
        act.add_bias_apply(&mut y, &self.b);
        y
    }

    /// Given the layer input `x` and `dL/dy`, accumulates `dL/dW = xᵀ·dL/dy`
    /// and `dL/db` (the column sums of `dL/dy`).
    pub fn accumulate_grads(&mut self, x: &Matrix, grad_out: &Matrix) {
        self.grad_w.add_transposed_matmul_assign(x, grad_out);
        self.grad_b.add_col_sums_assign(grad_out);
    }

    /// `dL/dx = dL/dy · Wᵀ`. Transposing `W` first lets the product run
    /// row-contiguous: over a 65-row batch that is about twice as fast as
    /// dot products in the same summation order.
    pub fn input_grad(&self, grad_out: &Matrix) -> Matrix {
        grad_out.matmul(&self.w.transpose())
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_w.fill_zero();
        self.grad_b.fill_zero();
    }
}

/// Intermediate state of one MLP forward pass, consumed by `backward`.
#[derive(Debug, Clone)]
pub struct MlpCache<'x> {
    /// The network input.
    input: &'x Matrix,
    /// Every layer's post-activation output; the last is the network's.
    outputs: Vec<Matrix>,
}

impl MlpCache<'_> {
    /// The network output.
    pub fn output(&self) -> &Matrix {
        self.outputs.last().expect("an MLP has at least one layer")
    }

    /// The input of layer `i`.
    fn layer_input(&self, i: usize) -> &Matrix {
        if i == 0 {
            self.input
        } else {
            &self.outputs[i - 1]
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
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut h = self.layers[0].forward_with(x, self.activation_at(0));
        for (i, layer) in self.layers.iter().enumerate().skip(1) {
            h = layer.forward_with(&h, self.activation_at(i));
        }
        h
    }

    /// Forward pass retaining the cache needed for [`Self::backward`]; the
    /// output is [`MlpCache::output`].
    pub fn forward_cached<'x>(&self, x: &'x Matrix) -> MlpCache<'x> {
        let mut cache = MlpCache {
            input: x,
            outputs: Vec::with_capacity(self.layers.len()),
        };
        for (i, layer) in self.layers.iter().enumerate() {
            let h = layer.forward_with(cache.layer_input(i), self.activation_at(i));
            cache.outputs.push(h);
        }
        cache
    }

    /// Backward pass from `dL/doutput`: accumulates every parameter
    /// gradient. The input gradient is not computed; see
    /// [`Self::backward_with_input_grad`].
    pub fn backward(&mut self, cache: &MlpCache, grad_out: &Matrix) {
        self.backprop(cache, grad_out);
    }

    /// [`Self::backward`] that also returns `dL/dinput`.
    pub fn backward_with_input_grad(&mut self, cache: &MlpCache, grad_out: &Matrix) -> Matrix {
        let grad = self.backprop(cache, grad_out);
        self.layers[0].input_grad(&grad)
    }

    /// The one backprop loop: accumulates every layer's parameter
    /// gradients and returns `dL/d(pre-activation)` of the first layer,
    /// from which [`Self::backward_with_input_grad`] takes the input
    /// gradient.
    fn backprop(&mut self, cache: &MlpCache, grad_out: &Matrix) -> Matrix {
        let mut grad = grad_out.clone();
        for i in (0..self.layers.len()).rev() {
            self.activation_at(i)
                .scale_by_derivative(&mut grad, &cache.outputs[i]);
            self.layers[i].accumulate_grads(cache.layer_input(i), &grad);
            if i > 0 {
                grad = self.layers[i].input_grad(&grad);
            }
        }
        grad
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
    /// [`Self::params_and_grads_mut`] — used to merge worker gradients in
    /// parallel updates.
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

    /// Central finite-difference check of dL/dparam for L = sum(output).
    fn grad_check(hidden: Activation, out: Activation) {
        let mut mlp = Mlp::new(&[3, 5, 2], hidden, out, &mut rng());
        let x = Matrix::from_vec(4, 3, (0..12).map(|i| (i as f64) * 0.1 - 0.5).collect());

        // Analytic gradients for L = sum of outputs.
        let cache = mlp.forward_cached(&x);
        let (rows, cols) = cache.output().shape();
        let ones = Matrix::from_vec(rows, cols, vec![1.0; rows * cols]);
        mlp.zero_grad();
        mlp.backward(&cache, &ones);

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
        let cache = mlp.forward_cached(&x);
        let (rows, cols) = cache.output().shape();
        let ones = Matrix::from_vec(rows, cols, vec![1.0; rows * cols]);
        let grad_in = mlp.backward_with_input_grad(&cache, &ones);

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
        let g = Matrix::row(vec![1.0, 1.0]);
        let cache = mlp.forward_cached(&x);
        mlp.backward(&cache, &g);
        let once = mlp.layers[0].grad_w.clone();
        mlp.backward(&cache, &g);
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
