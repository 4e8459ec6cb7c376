//! Minimal neural-network substrate for the RLBackfilling reproduction.
//!
//! Replaces PyTorch for the paper's two tiny actor-critic networks
//! (§3.3): dense [`Matrix`] math, [`Mlp`]s with explicit manual backprop
//! (every gradient verified against finite differences in the test suite),
//! masked categorical action distributions, and the [`Adam`] optimizer.
//!
//! ```
//! use tinynn::{Activation, AdamConfig, Adam, Matrix, Mlp, MlpScratch};
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! let mut rng = SmallRng::seed_from_u64(0);
//! let mut net = Mlp::new(&[4, 16, 1], Activation::Tanh, Activation::Identity, &mut rng);
//! let mut opt = Adam::new(AdamConfig::with_lr(1e-3));
//!
//! let x = Matrix::zeros(8, 4);
//! let mut scratch = MlpScratch::default();
//! net.forward_batch(&x, &mut scratch);
//! let (y, grad) = scratch.output_and_grad();
//! assert_eq!(y.shape(), (8, 1));
//! grad.data_mut().fill(1.0); // dL/dy
//! net.backward_batch(&x, &mut scratch, &[8]); // one segment of 8 rows
//! opt.step(net.params_and_grads_mut());
//! ```

pub mod adam;
pub mod dist;
pub mod layer;
pub mod matrix;

pub use adam::{Adam, AdamConfig};
pub use dist::{
    entropy_grad_wrt_logits, log_prob_grad_wrt_logits, masked_log_softmax, masked_softmax,
    MaskedCategorical, Softmax,
};
pub use layer::{Activation, BatchInput, Linear, Mlp, MlpScratch};
pub use matrix::Matrix;
