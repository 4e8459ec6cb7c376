//! Exhaustive finite-difference gradient checks across architectures,
//! activations and batch shapes — the substrate-level guarantee the whole
//! RL stack rests on. (The per-module unit tests check one small case;
//! this sweeps the space.)

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tinynn::{Activation, Matrix, Mlp, MlpScratch};

const EPS: f64 = 1e-6;
const TOL: f64 = 1e-6;

/// Checks dL/dθ for L = Σ c_i · y_i with random per-output coefficients
/// (a stricter test than L = Σ y_i: it exercises mixed-sign gradients).
fn gradcheck(dims: &[usize], hidden: Activation, out: Activation, batch: usize, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut mlp = Mlp::new(dims, hidden, out, &mut rng);
    let x = Matrix::from_vec(
        batch,
        dims[0],
        (0..batch * dims[0])
            .map(|i| ((i as f64) * 0.719).sin() * 0.8)
            .collect(),
    );
    let out_dim = *dims.last().unwrap();
    let coefs: Vec<f64> = (0..batch * out_dim)
        .map(|i| ((i as f64) * 1.37).cos())
        .collect();
    let loss = |m: &Mlp| -> f64 {
        m.forward(&x)
            .data()
            .iter()
            .zip(&coefs)
            .map(|(y, c)| y * c)
            .sum()
    };

    // Two-row segments, so batches of more than two rows take the
    // chunk-buffer path.
    let mut scratch = MlpScratch::default();
    mlp.forward_batch(&x, &mut scratch);
    scratch
        .output_and_grad()
        .1
        .data_mut()
        .copy_from_slice(&coefs);
    mlp.zero_grad();
    let ends: Vec<usize> = (2..batch).step_by(2).chain([batch]).collect();
    mlp.backward_batch(&x, &mut scratch, &ends);
    let grad_in = mlp.input_grad(&scratch);

    // Parameter gradients.
    let analytic: Vec<Matrix> = mlp.grads().into_iter().cloned().collect();
    let mut checked = 0usize;
    for (pi, grads) in analytic.iter().enumerate() {
        for idx in 0..grads.data().len() {
            // Stride through large layers to keep the sweep fast while
            // covering every layer and both weights and biases.
            if grads.data().len() > 64 && idx % 7 != 0 {
                continue;
            }
            let perturb = |m: &mut Mlp, delta: f64| {
                let mut pairs = m.params_and_grads_mut();
                pairs[pi].0.data_mut()[idx] += delta;
            };
            perturb(&mut mlp, EPS);
            let up = loss(&mlp);
            perturb(&mut mlp, -2.0 * EPS);
            let down = loss(&mlp);
            perturb(&mut mlp, EPS);
            let numeric = (up - down) / (2.0 * EPS);
            let a = grads.data()[idx];
            assert!(
                (a - numeric).abs() < TOL * (1.0 + numeric.abs()),
                "dims {dims:?} {hidden:?}/{out:?} param {pi}[{idx}]: analytic {a} vs numeric {numeric}"
            );
            checked += 1;
        }
    }
    assert!(checked > 0);

    // Input gradients.
    for idx in 0..x.data().len() {
        let mut xp = x.clone();
        xp.data_mut()[idx] += EPS;
        let mut xm = x.clone();
        xm.data_mut()[idx] -= EPS;
        let up: f64 = mlp
            .forward(&xp)
            .data()
            .iter()
            .zip(&coefs)
            .map(|(y, c)| y * c)
            .sum();
        let down: f64 = mlp
            .forward(&xm)
            .data()
            .iter()
            .zip(&coefs)
            .map(|(y, c)| y * c)
            .sum();
        let numeric = (up - down) / (2.0 * EPS);
        let a = grad_in.data()[idx];
        assert!(
            (a - numeric).abs() < TOL * (1.0 + numeric.abs()),
            "dims {dims:?} input[{idx}]: analytic {a} vs numeric {numeric}"
        );
    }
}

#[test]
fn gradcheck_paper_policy_architecture() {
    // The kernel policy net: JOB_FEATURES(10) → 32 → 16 → 1 over a batch
    // of slot rows.
    gradcheck(
        &[10, 32, 16, 1],
        Activation::Relu,
        Activation::Identity,
        9,
        1,
    );
}

#[test]
fn gradcheck_paper_value_architecture() {
    // A shrunken value net shape: wide input, single output, batch 1.
    gradcheck(
        &[80, 32, 16, 1],
        Activation::Relu,
        Activation::Identity,
        1,
        2,
    );
}

#[test]
fn gradcheck_tanh_deep() {
    gradcheck(
        &[6, 12, 12, 12, 3],
        Activation::Tanh,
        Activation::Identity,
        5,
        3,
    );
}

#[test]
fn gradcheck_tanh_output_activation() {
    gradcheck(&[4, 8, 2], Activation::Tanh, Activation::Tanh, 4, 4);
}

#[test]
fn gradcheck_single_layer() {
    gradcheck(&[3, 2], Activation::Identity, Activation::Identity, 7, 5);
}

#[test]
fn gradcheck_wide_batch() {
    gradcheck(&[5, 16, 1], Activation::Relu, Activation::Identity, 64, 6);
}
