//! The Adam optimizer (Kingma & Ba 2015).
//!
//! Holds first/second-moment state per parameter tensor, keyed by position
//! in the `params_and_grads_mut()` ordering — stable because the network
//! architecture is fixed for the lifetime of the optimizer.

use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// Adam hyper-parameters with the standard defaults.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdamConfig {
    /// Learning rate (the paper trains with 1e-3).
    pub lr: f64,
    /// Exponential decay for the first moment.
    pub beta1: f64,
    /// Exponential decay for the second moment.
    pub beta2: f64,
    /// Numerical stabilizer.
    pub eps: f64,
}

impl AdamConfig {
    /// Standard betas/eps at the given learning rate.
    pub fn with_lr(lr: f64) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self::with_lr(1e-3)
    }
}

/// Adam optimizer state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    config: AdamConfig,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// A fresh optimizer; moment buffers are lazily shaped on first step.
    pub fn new(config: AdamConfig) -> Self {
        Self {
            config,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Current step count.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// The configuration in use.
    pub fn config(&self) -> AdamConfig {
        self.config
    }

    /// Applies one Adam update to every `(param, grad)` pair and zeroes the
    /// gradients. The pair ordering must be identical across calls.
    pub fn step(&mut self, params_and_grads: Vec<(&mut Matrix, &mut Matrix)>) {
        if self.m.is_empty() {
            for (p, _) in &params_and_grads {
                self.m.push(Matrix::zeros(p.rows(), p.cols()));
                self.v.push(Matrix::zeros(p.rows(), p.cols()));
            }
        }
        assert_eq!(
            self.m.len(),
            params_and_grads.len(),
            "parameter set changed between Adam steps"
        );
        self.t += 1;
        let AdamConfig {
            lr,
            beta1,
            beta2,
            eps,
        } = self.config;
        let bc1 = 1.0 - beta1.powi(self.t as i32);
        let bc2 = 1.0 - beta2.powi(self.t as i32);

        for (i, (param, grad)) in params_and_grads.into_iter().enumerate() {
            assert_eq!(param.shape(), self.m[i].shape(), "parameter {i} reshaped");
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            for ((pm, pv), (p, g)) in m
                .data_mut()
                .iter_mut()
                .zip(v.data_mut())
                .zip(param.data_mut().iter_mut().zip(grad.data()))
            {
                *pm = beta1 * *pm + (1.0 - beta1) * g;
                *pv = beta2 * *pv + (1.0 - beta2) * g * g;
                let m_hat = *pm / bc1;
                let v_hat = *pv / bc2;
                *p -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            grad.fill_zero();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Activation, Mlp, MlpScratch};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn first_step_moves_by_approximately_lr() {
        // With bias correction, the very first Adam step is ~lr * sign(g).
        let mut p = Matrix::row(vec![1.0]);
        let mut g = Matrix::row(vec![123.0]);
        let mut adam = Adam::new(AdamConfig::with_lr(0.01));
        adam.step(vec![(&mut p, &mut g)]);
        assert!(
            (p.data()[0] - (1.0 - 0.01)).abs() < 1e-6,
            "got {}",
            p.data()[0]
        );
        assert_eq!(g.data()[0], 0.0, "gradient must be zeroed");
    }

    #[test]
    fn step_count_advances() {
        let mut p = Matrix::row(vec![0.0]);
        let mut g = Matrix::row(vec![1.0]);
        let mut adam = Adam::new(AdamConfig::default());
        for _ in 0..3 {
            g.data_mut()[0] = 1.0;
            adam.step(vec![(&mut p, &mut g)]);
        }
        assert_eq!(adam.steps(), 3);
        assert!(p.data()[0] < 0.0);
    }

    #[test]
    fn adam_minimizes_a_quadratic() {
        // minimize (w - 3)^2 by gradient 2(w-3)
        let mut w = Matrix::row(vec![-5.0]);
        let mut g = Matrix::row(vec![0.0]);
        let mut adam = Adam::new(AdamConfig::with_lr(0.1));
        for _ in 0..500 {
            g.data_mut()[0] = 2.0 * (w.data()[0] - 3.0);
            adam.step(vec![(&mut w, &mut g)]);
        }
        assert!((w.data()[0] - 3.0).abs() < 1e-2, "w = {}", w.data()[0]);
    }

    #[test]
    fn adam_trains_an_mlp_on_xor() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut mlp = Mlp::new(&[2, 8, 1], Activation::Tanh, Activation::Identity, &mut rng);
        let mut adam = Adam::new(AdamConfig::with_lr(0.05));
        let x = Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let t = [0.0, 1.0, 1.0, 0.0];
        let mut final_loss = f64::INFINITY;
        let mut scratch = MlpScratch::default();
        for _ in 0..400 {
            mlp.forward_batch(&x, &mut scratch);
            let (y, grad) = scratch.output_and_grad();
            let mut loss = 0.0;
            for (i, target) in t.iter().enumerate() {
                let d = y.get(i, 0) - target;
                loss += d * d;
                grad.set(i, 0, 2.0 * d / 4.0);
            }
            final_loss = loss / 4.0;
            mlp.zero_grad();
            mlp.backward_batch(&x, &mut scratch, &[4]);
            adam.step(mlp.params_and_grads_mut());
        }
        assert!(final_loss < 0.01, "XOR did not converge: loss {final_loss}");
    }

    #[test]
    #[should_panic(expected = "parameter set changed")]
    fn changing_parameter_set_panics() {
        let mut p1 = Matrix::row(vec![0.0]);
        let mut g1 = Matrix::row(vec![1.0]);
        let mut p2 = Matrix::row(vec![0.0]);
        let mut g2 = Matrix::row(vec![1.0]);
        let mut adam = Adam::new(AdamConfig::default());
        adam.step(vec![(&mut p1, &mut g1)]);
        adam.step(vec![(&mut p1, &mut g1), (&mut p2, &mut g2)]);
    }
}
