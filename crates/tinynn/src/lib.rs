//! Minimal neural-network substrate for the RLBackfilling reproduction.
//!
//! Replaces PyTorch for the paper's two tiny actor-critic networks
//! (§3.3): dense [`Matrix`] math, [`Mlp`]s with explicit manual backprop
//! (every gradient verified against finite differences in the test suite),
//! masked categorical action distributions, and the [`Adam`] optimizer.
//!
//! ```
//! use tinynn::{Activation, AdamConfig, Adam, Matrix, Mlp};
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! let mut rng = SmallRng::seed_from_u64(0);
//! let mut net = Mlp::new(&[4, 16, 1], Activation::Tanh, Activation::Identity, &mut rng);
//! let mut opt = Adam::new(AdamConfig::with_lr(1e-3));
//!
//! let x = Matrix::zeros(8, 4);
//! let cache = net.forward_cached(&x);
//! assert_eq!(cache.output().shape(), (8, 1));
//! let grad = Matrix::from_vec(8, 1, vec![1.0; 8]); // dL/dy
//! net.backward(&cache, &grad);
//! opt.step(net.params_and_grads_mut());
//! ```

pub mod adam;
pub mod dist;
pub mod layer;
pub mod matrix;

pub use adam::{Adam, AdamConfig};
pub use dist::{
    entropy_grad_wrt_logits, log_prob_grad_wrt_logits, masked_log_softmax, masked_softmax,
    MaskedCategorical,
};
pub use layer::{Activation, Linear, Mlp, MlpCache};
pub use matrix::Matrix;
