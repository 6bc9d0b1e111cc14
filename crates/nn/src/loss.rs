//! Loss functions used by the three training phases of the paper.
//!
//! * Phase II (attribute extraction) uses a **weighted binary cross entropy**
//!   between the similarity vector `q = cossim(γ(x), B)` and the ground-truth
//!   attribute indicators, with positive-class weights compensating for the
//!   heavy imbalance between active and inactive attributes.
//! * Phase III (zero-shot classification) uses the standard **cross entropy**
//!   between the class logits `p = cossim(γ(x), ϕ)/K` and the ground-truth
//!   class index.

use tensor::ops::{log_sum_exp, sigmoid, softmax};
use tensor::Matrix;

/// The result of evaluating a loss on a batch: the scalar loss value (mean
/// over the batch) and the gradient with respect to the logits.
#[derive(Debug, Clone, PartialEq)]
pub struct LossOutput {
    /// Mean loss over the batch.
    pub loss: f32,
    /// Gradient of the mean loss with respect to the logits
    /// (same shape as the logits).
    pub grad: Matrix,
}

/// Multi-class cross entropy over a batch of logits.
///
/// `logits` is `B×C`; `targets` holds one class index per batch row.
/// The returned gradient is `(softmax(logits) − one_hot(target)) / B`.
///
/// # Panics
///
/// Panics if `targets.len() != logits.rows()` or any target index is out of
/// range.
///
/// # Example
///
/// ```
/// use tensor::Matrix;
///
/// let logits = Matrix::from_rows(&[vec![5.0, -5.0]]);
/// let out = nn::loss::cross_entropy(&logits, &[0]);
/// assert!(out.loss < 0.01);
/// ```
pub fn cross_entropy(logits: &Matrix, targets: &[usize]) -> LossOutput {
    assert_eq!(
        targets.len(),
        logits.rows(),
        "one target per batch row required ({} vs {})",
        targets.len(),
        logits.rows()
    );
    let batch = logits.rows() as f32;
    let mut grad = Matrix::zeros(logits.rows(), logits.cols());
    let mut total = 0.0f32;
    for (r, &target) in targets.iter().enumerate() {
        assert!(
            target < logits.cols(),
            "target {target} out of range for {} classes",
            logits.cols()
        );
        let row = logits.row(r);
        let lse = log_sum_exp(row);
        total += lse - row[target];
        let probs = softmax(row);
        let grad_row = grad.row_mut(r);
        for (j, (&p, g)) in probs.iter().zip(grad_row.iter_mut()).enumerate() {
            *g = (p - if j == target { 1.0 } else { 0.0 }) / batch;
        }
    }
    LossOutput {
        loss: total / batch,
        grad,
    }
}

/// Binary cross entropy with logits and per-attribute positive weights.
///
/// `logits` and `targets` are `B×α`; `targets` entries must lie in `[0, 1]`
/// (soft targets — the continuous CUB attribute strengths — are allowed).
/// `pos_weight` has one weight per attribute column; the per-element loss is
///
/// ```text
/// -( w·t·log σ(x) + (1−t)·log(1−σ(x)) )
/// ```
///
/// averaged over all `B·α` elements, which matches
/// `torch.nn.BCEWithLogitsLoss(pos_weight=…)`.
///
/// # Panics
///
/// Panics if the shapes disagree or `pos_weight.len() != logits.cols()`.
pub fn weighted_bce_with_logits(
    logits: &Matrix,
    targets: &Matrix,
    pos_weight: &[f32],
) -> LossOutput {
    assert_eq!(
        logits.shape(),
        targets.shape(),
        "logits and targets must have the same shape"
    );
    assert_eq!(
        pos_weight.len(),
        logits.cols(),
        "one positive weight per attribute required"
    );
    let n = (logits.rows() * logits.cols()) as f32;
    let mut grad = Matrix::zeros(logits.rows(), logits.cols());
    let mut total = 0.0f32;
    for r in 0..logits.rows() {
        let x_row = logits.row(r);
        let t_row = targets.row(r);
        let g_row = grad.row_mut(r);
        for (((&x, &t), &w), g) in x_row
            .iter()
            .zip(t_row.iter())
            .zip(pos_weight.iter())
            .zip(g_row.iter_mut())
        {
            debug_assert!((0.0..=1.0).contains(&t), "targets must lie in [0, 1]");
            let s = sigmoid(x);
            // Numerically stable log terms.
            let log_s = -softplus(-x);
            let log_1ms = -softplus(x);
            total += -(w * t * log_s + (1.0 - t) * log_1ms);
            // d/dx [-(w t log σ + (1-t) log(1-σ))] = s(w t + 1 - t) - w t
            *g = (s * (w * t + 1.0 - t) - w * t) / n;
        }
    }
    LossOutput {
        loss: total / n,
        grad,
    }
}

/// Computes per-attribute positive weights `(#negatives / #positives)` from a
/// matrix of (possibly soft) attribute targets, clamping the ratio into
/// `[1, max_weight]`.
///
/// This is the usual recipe for countering the class imbalance called out in
/// §III-A of the paper (most attribute values are inactive for any given
/// image).
///
/// # Panics
///
/// Panics if `targets` has zero rows.
pub fn positive_weights_from_targets(targets: &Matrix, max_weight: f32) -> Vec<f32> {
    assert!(targets.rows() > 0, "need at least one target row");
    let rows = targets.rows() as f32;
    (0..targets.cols())
        .map(|c| {
            let positives: f32 = (0..targets.rows()).map(|r| targets.get(r, c)).sum();
            let negatives = rows - positives;
            if positives <= 0.0 {
                max_weight
            } else {
                (negatives / positives).clamp(1.0, max_weight)
            }
        })
        .collect()
}

/// Numerically stable `log(1 + e^x)`.
fn softplus(x: f32) -> f32 {
    if x > 20.0 {
        x
    } else if x < -20.0 {
        x.exp()
    } else {
        (1.0 + x.exp()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn cross_entropy_perfect_prediction_is_small() {
        let logits = Matrix::from_rows(&[vec![10.0, -10.0, -10.0]]);
        let out = cross_entropy(&logits, &[0]);
        assert!(out.loss < 1e-4);
        // Gradient is ≈ 0 for a saturated correct prediction.
        assert!(out.grad.frobenius_norm() < 1e-3);
    }

    #[test]
    fn cross_entropy_uniform_logits() {
        let logits = Matrix::zeros(2, 4);
        let out = cross_entropy(&logits, &[1, 3]);
        assert!((out.loss - (4.0f32).ln()).abs() < 1e-5);
        // Gradient sums to zero per row.
        for r in 0..2 {
            let s: f32 = out.grad.row(r).iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(1);
        let logits = Matrix::random_uniform(3, 5, 2.0, &mut rng);
        let targets = [2usize, 0, 4];
        let out = cross_entropy(&logits, &targets);
        let eps = 1e-3f32;
        for _ in 0..10 {
            let r = rng.gen_range(0..3);
            let c = rng.gen_range(0..5);
            let mut plus = logits.clone();
            plus.set(r, c, plus.get(r, c) + eps);
            let mut minus = logits.clone();
            minus.set(r, c, minus.get(r, c) - eps);
            let numeric = (cross_entropy(&plus, &targets).loss
                - cross_entropy(&minus, &targets).loss)
                / (2.0 * eps);
            assert!(
                (numeric - out.grad.get(r, c)).abs() < 1e-2,
                "mismatch at ({r},{c})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cross_entropy_rejects_bad_target() {
        let logits = Matrix::zeros(1, 3);
        let _ = cross_entropy(&logits, &[3]);
    }

    #[test]
    fn bce_perfect_prediction_is_small() {
        let logits = Matrix::from_rows(&[vec![12.0, -12.0]]);
        let targets = Matrix::from_rows(&[vec![1.0, 0.0]]);
        let out = weighted_bce_with_logits(&logits, &targets, &[1.0, 1.0]);
        assert!(out.loss < 1e-4);
    }

    #[test]
    fn weighted_bce_upweights_positives() {
        let logits = Matrix::from_rows(&[vec![0.0, 0.0]]);
        let targets = Matrix::from_rows(&[vec![1.0, 0.0]]);
        let unweighted = weighted_bce_with_logits(&logits, &targets, &[1.0, 1.0]);
        let weighted = weighted_bce_with_logits(&logits, &targets, &[4.0, 4.0]);
        // Positive column contributes 4× more loss under the weighting.
        assert!(weighted.loss > unweighted.loss);
        // Gradient on the positive logit is 4× stronger (and negative).
        assert!((weighted.grad.get(0, 0) / unweighted.grad.get(0, 0) - 4.0).abs() < 1e-4);
    }

    #[test]
    fn weighted_bce_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(2);
        let logits = Matrix::random_uniform(2, 6, 2.0, &mut rng);
        let targets = Matrix::random_uniform(2, 6, 0.5, &mut rng).map(|x| x.abs().min(1.0));
        let weights: Vec<f32> = (0..6).map(|i| 1.0 + i as f32).collect();
        let out = weighted_bce_with_logits(&logits, &targets, &weights);
        let eps = 1e-3f32;
        for _ in 0..12 {
            let r = rng.gen_range(0..2);
            let c = rng.gen_range(0..6);
            let mut plus = logits.clone();
            plus.set(r, c, plus.get(r, c) + eps);
            let mut minus = logits.clone();
            minus.set(r, c, minus.get(r, c) - eps);
            let numeric = (weighted_bce_with_logits(&plus, &targets, &weights).loss
                - weighted_bce_with_logits(&minus, &targets, &weights).loss)
                / (2.0 * eps);
            assert!(
                (numeric - out.grad.get(r, c)).abs() < 1e-2,
                "mismatch at ({r},{c}): numeric {numeric} vs {}",
                out.grad.get(r, c)
            );
        }
    }

    #[test]
    fn positive_weights_reflect_imbalance() {
        // Column 0: 1 positive out of 10; column 1: 5 of 10; column 2: none.
        let mut targets = Matrix::zeros(10, 3);
        targets.set(0, 0, 1.0);
        for r in 0..5 {
            targets.set(r, 1, 1.0);
        }
        let w = positive_weights_from_targets(&targets, 50.0);
        assert!((w[0] - 9.0).abs() < 1e-5);
        assert!((w[1] - 1.0).abs() < 1e-5);
        assert_eq!(w[2], 50.0);
    }

    #[test]
    fn positive_weights_clamped_to_max() {
        let mut targets = Matrix::zeros(100, 1);
        targets.set(0, 0, 1.0);
        let w = positive_weights_from_targets(&targets, 10.0);
        assert_eq!(w[0], 10.0);
    }

    #[test]
    fn softplus_stability() {
        assert!((softplus(0.0) - (2.0f32).ln()).abs() < 1e-6);
        assert!((softplus(30.0) - 30.0).abs() < 1e-4);
        assert!(softplus(-30.0) < 1e-9);
    }
}
