//! Property tests for the neural-network substrate: distribution
//! invariants over arbitrary logits/masks, linear-algebra identities, and
//! the bit-identity of the fused layer kernels.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tinynn::{
    masked_log_softmax, masked_softmax, Activation, Linear, MaskedCategorical, Matrix, Mlp,
    MlpScratch, Softmax,
};

fn arb_logits_and_mask() -> impl Strategy<Value = (Vec<f64>, Vec<bool>)> {
    (1usize..32).prop_flat_map(|n| {
        (
            proptest::collection::vec(-50.0f64..50.0, n),
            proptest::collection::vec(any::<bool>(), n),
        )
            .prop_map(|(logits, mut mask)| {
                if !mask.iter().any(|&m| m) {
                    mask[0] = true; // at least one valid slot
                }
                (logits, mask)
            })
    })
}

proptest! {
    /// Masked softmax: sums to 1, zero exactly on masked slots, and the
    /// log version exponentiates consistently.
    #[test]
    fn masked_softmax_is_a_distribution((logits, mask) in arb_logits_and_mask()) {
        let p = masked_softmax(&logits, &mask);
        let lp = masked_log_softmax(&logits, &mask);
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for i in 0..p.len() {
            if mask[i] {
                prop_assert!(p[i] > 0.0);
                prop_assert!((p[i] - lp[i].exp()).abs() < 1e-12);
            } else {
                prop_assert_eq!(p[i], 0.0);
                prop_assert!(lp[i].is_infinite() && lp[i] < 0.0);
            }
        }
    }

    /// Softmax is shift-invariant: adding a constant to all logits does
    /// not change the distribution.
    #[test]
    fn softmax_shift_invariance((logits, mask) in arb_logits_and_mask(), shift in -100.0f64..100.0) {
        let p = masked_softmax(&logits, &mask);
        let shifted: Vec<f64> = logits.iter().map(|l| l + shift).collect();
        let q = masked_softmax(&shifted, &mask);
        for (a, b) in p.iter().zip(&q) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// argmax and samples always land on valid slots; entropy is within
    /// [0, ln(valid_count)].
    #[test]
    fn categorical_respects_masks((logits, mask) in arb_logits_and_mask(), seed in 0u64..500) {
        let d = MaskedCategorical::new(&logits, &mask);
        prop_assert!(mask[d.argmax()]);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..16 {
            prop_assert!(mask[d.sample(&mut rng)]);
        }
        let valid = mask.iter().filter(|&&m| m).count() as f64;
        prop_assert!(d.entropy() >= -1e-12);
        prop_assert!(d.entropy() <= valid.ln() + 1e-9);
    }

    /// Matrix transpose is an involution and matmul is associative.
    #[test]
    fn matmul_associativity(
        a in proptest::collection::vec(-2.0f64..2.0, 6),
        b in proptest::collection::vec(-2.0f64..2.0, 12),
        c in proptest::collection::vec(-2.0f64..2.0, 8),
    ) {
        let ma = Matrix::from_vec(2, 3, a);
        let mb = Matrix::from_vec(3, 4, b);
        let mc = Matrix::from_vec(4, 2, c);
        prop_assert_eq!(ma.transpose().transpose(), ma.clone());
        let left = ma.matmul(&mb).matmul(&mc);
        let right = ma.matmul(&mb.matmul(&mc));
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    /// `(A·B)ᵀ = Bᵀ·Aᵀ`.
    #[test]
    fn matmul_transpose_identity(
        a in proptest::collection::vec(-2.0f64..2.0, 6),
        b in proptest::collection::vec(-2.0f64..2.0, 12),
    ) {
        let ma = Matrix::from_vec(2, 3, a);
        let mb = Matrix::from_vec(3, 4, b);
        let lhs = ma.matmul(&mb).transpose();
        let rhs = mb.transpose().matmul(&ma.transpose());
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-12);
        }
    }
}

// ---------------------------------------------------------------------
// Bit-identity oracle: the layer and MLP kernels against the composed
// `Matrix` ops (`matmul` → `add_row_broadcast` → activation forward;
// `hadamard(derivative)` → `transpose().matmul` / `col_sums` backward),
// compared `to_bits()` for `to_bits()`.
// ---------------------------------------------------------------------

fn arb_activation() -> impl Strategy<Value = Activation> {
    prop_oneof![
        Just(Activation::Relu),
        Just(Activation::Tanh),
        Just(Activation::Identity),
    ]
}

/// Layer widths (2–4 layers; some past 16, the kernels' column block), a
/// batch size including the two shapes the agent runs (1 row for the
/// value net, up to 65 rows for the policy kernel at 64 slots), and a
/// seed for the weights and inputs.
fn arb_net() -> impl Strategy<Value = (Vec<usize>, usize, u64)> {
    (
        proptest::collection::vec(prop_oneof![1usize..13, 1usize..13, 16usize..34], 2..5),
        prop_oneof![Just(1usize), Just(65usize), 2usize..9],
        any::<u64>(),
    )
}

/// A `batch × cols` input with exact zeros injected at random and whole
/// all-zero rows (observation padding).
fn input_with_zeros(batch: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
    let mut x = Matrix::zeros(batch, cols);
    for r in 0..batch {
        if rng.random_range(0..4) == 0 {
            continue; // padding row
        }
        for c in 0..cols {
            if rng.random_range(0..3) != 0 {
                x.set(r, c, rng.random_range(-2.0..2.0));
            }
        }
    }
    x
}

fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Weights and biases of `mlp`, outermost layer first.
fn weights(mlp: &Mlp) -> Vec<(Matrix, Matrix)> {
    let mut m = mlp.clone();
    let pairs: Vec<Matrix> = m
        .params_and_grads_mut()
        .into_iter()
        .map(|(p, _)| p.clone())
        .collect();
    pairs
        .chunks(2)
        .map(|wb| (wb[0].clone(), wb[1].clone()))
        .collect()
}

/// The composed forward pass: `(pre-activations, layer inputs + output)`.
fn reference_forward(
    layers: &[(Matrix, Matrix)],
    hidden: Activation,
    out: Activation,
    x: &Matrix,
) -> (Vec<Matrix>, Vec<Matrix>) {
    let mut pres = Vec::new();
    let mut hs = vec![x.clone()];
    for (i, (w, b)) in layers.iter().enumerate() {
        let act = if i + 1 == layers.len() { out } else { hidden };
        let pre = hs[i].matmul(w).add_row_broadcast(b);
        hs.push(act.forward(&pre));
        pres.push(pre);
    }
    (pres, hs)
}

/// The composed backward pass from zeroed gradients, accumulated `times`
/// times: the parameter gradients (outermost layer first, weight then
/// bias) and `dL/dinput`.
fn reference_backward(
    layers: &[(Matrix, Matrix)],
    hidden: Activation,
    out: Activation,
    x: &Matrix,
    grad_out: &Matrix,
    times: usize,
) -> (Vec<Matrix>, Matrix) {
    let (pres, hs) = reference_forward(layers, hidden, out, x);
    let mut acc: Vec<Matrix> = layers
        .iter()
        .flat_map(|(w, b)| {
            [
                Matrix::zeros(w.rows(), w.cols()),
                Matrix::zeros(1, b.cols()),
            ]
        })
        .collect();
    let mut grad_in = Matrix::zeros(0, 0);
    for _ in 0..times {
        let mut grad = grad_out.clone();
        for i in (0..layers.len()).rev() {
            let act = if i + 1 == layers.len() { out } else { hidden };
            grad = grad.hadamard(&act.derivative(&pres[i]));
            acc[2 * i].add_scaled_assign(&hs[i].transpose().matmul(&grad), 1.0);
            acc[2 * i + 1].add_scaled_assign(&grad.col_sums(), 1.0);
            grad = grad.matmul(&layers[i].0.transpose());
        }
        grad_in = grad;
    }
    (acc, grad_in)
}

proptest! {
    /// `Linear::forward` is `x·W + b`, bit for bit.
    #[test]
    fn linear_forward_is_bit_identical((dims, batch, seed) in arb_net()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let layer = Linear::new(dims[0], dims[1], &mut rng);
        let mut b = layer.b.clone();
        for (i, v) in b.data_mut().iter_mut().enumerate() {
            *v = (i as f64 * 0.37).sin();
        }
        let layer = Linear { b, ..layer };
        let x = input_with_zeros(batch, dims[0], seed);
        let reference = x.matmul(&layer.w).add_row_broadcast(&layer.b);
        prop_assert!(same_bits(&layer.forward(&x), &reference));
    }

    /// `Mlp::forward`, `Mlp::forward_batch`, the parameter gradients
    /// `Mlp::backward_batch` accumulates over one segment (twice, so the
    /// accumulation order is pinned too) and `Mlp::input_grad` equal the
    /// composed reference bit for bit.
    #[test]
    fn mlp_forward_and_backward_are_bit_identical(
        (dims, batch, seed) in arb_net(),
        hidden in arb_activation(),
        out in arb_activation(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut mlp = Mlp::new(&dims, hidden, out, &mut rng);
        // Nonzero biases and a few exact-zero weights.
        for (k, (p, _)) in mlp.params_and_grads_mut().into_iter().enumerate() {
            for (i, v) in p.data_mut().iter_mut().enumerate() {
                if k % 2 == 1 {
                    *v = ((i + k) as f64 * 0.61).sin() * 0.3;
                } else if (i * 7 + k) % 11 == 0 {
                    *v = 0.0;
                }
            }
        }
        let layers = weights(&mlp);
        let x = input_with_zeros(batch, dims[0], seed);
        let out_dim = *dims.last().unwrap();
        let mut grad_out = input_with_zeros(batch, out_dim, seed.rotate_left(17));
        grad_out.data_mut()[0] = 0.75;

        let (_, hs) = reference_forward(&layers, hidden, out, &x);
        let y_ref = hs.last().unwrap();
        prop_assert!(same_bits(&mlp.forward(&x), y_ref));
        let mut scratch = MlpScratch::default();
        mlp.forward_batch(&x, &mut scratch);
        prop_assert!(same_bits(scratch.output(), y_ref));

        mlp.zero_grad();
        for _ in 0..2 {
            mlp.forward_batch(&x, &mut scratch);
            *scratch.output_and_grad().1 = grad_out.clone();
            mlp.backward_batch(&x, &mut scratch, &[batch]);
        }
        let grad_in = mlp.input_grad(&scratch);
        let (grads_ref, grad_in_ref) =
            reference_backward(&layers, hidden, out, &x, &grad_out, 2);
        let grads = mlp.grads();
        prop_assert_eq!(grads.len(), grads_ref.len());
        for (k, (g, r)) in grads.iter().zip(&grads_ref).enumerate() {
            prop_assert!(same_bits(g, r), "parameter {} gradient differs", k);
        }
        prop_assert!(same_bits(&grad_in, &grad_in_ref));
    }

    /// Each fused `Matrix` kernel equals its composed counterpart bit for
    /// bit. Every run also checks one input row (the value net's shape,
    /// and the policy's when one row is valid), which takes
    /// `add_transposed_matmul_assign`'s one-row path.
    #[test]
    fn fused_kernels_are_bit_identical(
        (rows, inner, cols) in (1usize..10, 1usize..12, 1usize..11),
        seed in any::<u64>(),
    ) {
        for rows in [rows, 1] {
            // Inputs and gradients may hold −0.0 as well as +0.0.
            let mut a = with_negative_zeros(input_with_zeros(rows, inner, seed), seed);
            a.data_mut()[0] = -1.25; // at least one product to add
            let g = with_negative_zeros(input_with_zeros(rows, cols, seed.rotate_left(23)), !seed);

            // Accumulators never hold -0.0 (sums started at +0.0 cannot
            // reach it), which is what lets the kernel skip all-zero rows.
            // A row that does get products is summed from +0.0 first, so
            // there even a -0.0 accumulator comes out as composed.
            let mut acc = input_with_zeros(inner, cols, seed.rotate_left(31));
            if rows == 1 {
                for (row, &x) in acc.data_mut().chunks_exact_mut(cols).zip(a.data()) {
                    if x != 0.0 {
                        row.iter_mut().filter(|v| **v == 0.0).for_each(|v| *v = -0.0);
                    }
                }
            }
            let mut fused = acc.clone();
            fused.add_transposed_matmul_assign(&a, &g);
            let mut composed = acc;
            composed.add_scaled_assign(&a.transpose().matmul(&g), 1.0);
            prop_assert!(same_bits(&fused, &composed), "rows = {}", rows);

            let acc = input_with_zeros(1, cols, seed.rotate_left(41));
            let mut fused = acc.clone();
            fused.add_col_sums_assign(&g);
            let mut composed = acc;
            composed.add_scaled_assign(&g.col_sums(), 1.0);
            prop_assert!(same_bits(&fused, &composed));

            let bias = input_with_zeros(1, cols, seed.rotate_left(47));
            let mut fused = g.clone();
            fused.add_row_map_assign(&bias, f64::tanh);
            prop_assert!(same_bits(&fused, &g.add_row_broadcast(&bias).map(f64::tanh)));
        }
    }
}

/// Segment ends over `rows` rows: random lengths that favour empty and
/// one-row segments, ending at `rows`.
fn random_segments(rows: usize, seed: u64) -> Vec<usize> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5e65);
    let mut ends = Vec::new();
    let mut end = 0;
    while end < rows {
        end = rows.min(end + [0usize, 1, 1, 2, 3, 5][rng.random_range(0..6usize)]);
        ends.push(end);
    }
    if rng.random_range(0..2) == 0 {
        ends.push(rows); // a trailing empty segment
    }
    ends
}

/// Rows `lo..hi` of `m`.
fn rows_of(m: &Matrix, lo: usize, hi: usize) -> Matrix {
    let mut out = Matrix::zeros(0, m.cols());
    (lo..hi).for_each(|r| out.push_row(m.row_slice(r)));
    out
}

proptest! {
    /// The segmented kernels equal the composed ops applied segment by
    /// segment, bit for bit, over random splits with empty and one-row
    /// segments and inputs holding exact `±0.0`; `matmul_into` equals
    /// `matmul`. Widths up to 40 take the kernels' full 16-column blocks
    /// as well as their tails.
    #[test]
    fn segmented_kernels_match_per_segment_composition(
        (rows, inner, cols) in (0usize..24, 1usize..12, 1usize..40),
        seed in any::<u64>(),
    ) {
        let a = with_negative_zeros(input_with_zeros(rows, inner, seed), seed);
        let g = with_negative_zeros(input_with_zeros(rows, cols, seed.rotate_left(23)), !seed);
        let ends = random_segments(rows, seed);

        // Accumulators never hold -0.0 (sums started at +0.0 cannot reach
        // it), which is what lets the kernel skip rows a segment leaves at
        // zero.
        let acc = input_with_zeros(inner, cols, seed.rotate_left(31));
        let mut product = Matrix::from_vec(1, 1, vec![f64::NAN]);
        a.matmul_into(&acc, &mut product);
        prop_assert!(same_bits(&product, &a.matmul(&acc)));
        let mut fused = acc.clone();
        fused.add_segmented_transposed_matmul_assign(&a, &g, &ends);
        let mut composed = acc;
        let mut lo = 0;
        for &hi in &ends {
            let (a_s, g_s) = (rows_of(&a, lo, hi), rows_of(&g, lo, hi));
            composed.add_scaled_assign(&a_s.transpose().matmul(&g_s), 1.0);
            lo = hi;
        }
        prop_assert!(same_bits(&fused, &composed), "ends {:?}", ends);

        // Column sums add every segment's sum, so any accumulator works.
        let acc = with_negative_zeros(input_with_zeros(1, cols, seed.rotate_left(41)), seed);
        let mut fused = acc.clone();
        fused.add_segmented_col_sums_assign(&g, &ends);
        let mut composed = acc;
        let mut lo = 0;
        for &hi in &ends {
            composed.add_scaled_assign(&rows_of(&g, lo, hi).col_sums(), 1.0);
            lo = hi;
        }
        prop_assert!(same_bits(&fused, &composed), "ends {:?}", ends);
    }

    /// `Softmax` over a slice is `MaskedCategorical` with every slot
    /// valid, bit for bit: log-probabilities, argmax, entropy, samples,
    /// and both logit gradients.
    #[test]
    fn softmax_matches_the_all_valid_masked_categorical(
        (logits, _) in arb_logits_and_mask(),
        seed in any::<u64>(),
        coef in -2.0f64..2.0,
    ) {
        let all = vec![true; logits.len()];
        let reference = MaskedCategorical::new(&logits, &all);
        let sm = Softmax::new(&logits);
        for i in 0..logits.len() {
            prop_assert_eq!(sm.log_prob(i).to_bits(), reference.log_prob(i).to_bits());
        }
        prop_assert_eq!(sm.argmax(), reference.argmax());
        prop_assert_eq!(sm.entropy().to_bits(), reference.entropy().to_bits());
        let (mut r1, mut r2) = (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
        for _ in 0..8 {
            prop_assert_eq!(sm.sample(&mut r1), reference.sample(&mut r2));
        }
        let action = (seed % logits.len() as u64) as usize;
        let mut grad = vec![f64::NAN; logits.len()];
        sm.log_prob_grad_into(action, coef, &mut grad);
        let expected = tinynn::log_prob_grad_wrt_logits(&logits, &all, action, coef);
        let mut with_entropy = expected.clone();
        for (d, e) in with_entropy.iter_mut().zip(tinynn::entropy_grad_wrt_logits(&logits, &all)) {
            *d += 0.01 * e;
        }
        prop_assert_eq!(bits(&grad), bits(&expected));
        sm.add_entropy_grad(0.01, &mut grad);
        prop_assert_eq!(bits(&grad), bits(&with_entropy));
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `m` with about half of its exact zeros turned into `-0.0`.
fn with_negative_zeros(mut m: Matrix, seed: u64) -> Matrix {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x2e60);
    for v in m.data_mut() {
        if *v == 0.0 && rng.random_range(0..2) == 0 {
            *v = -0.0;
        }
    }
    m
}
