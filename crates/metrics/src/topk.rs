//! Top-k classification accuracy.

use tensor::Matrix;

/// Fraction of rows whose highest-scoring class equals the target class.
///
/// `scores` is `B×C`; `targets` holds one class index per row.
///
/// # Panics
///
/// Panics if `targets.len() != scores.rows()`.
pub fn top1_accuracy(scores: &Matrix, targets: &[usize]) -> f32 {
    topk_accuracy(scores, targets, 1)
}

/// Fraction of rows whose target class appears among the `k` highest-scoring
/// classes.
///
/// Returns 0 for an empty batch.
///
/// # Panics
///
/// Panics if `targets.len() != scores.rows()` or `k == 0`.
pub fn topk_accuracy(scores: &Matrix, targets: &[usize], k: usize) -> f32 {
    assert!(k > 0, "k must be positive");
    assert_eq!(
        targets.len(),
        scores.rows(),
        "one target per row required ({} vs {})",
        targets.len(),
        scores.rows()
    );
    if targets.is_empty() {
        return 0.0;
    }
    let top = scores.topk_rows(k);
    let hits = top
        .iter()
        .zip(targets)
        .filter(|(row_top, &target)| row_top.contains(&target))
        .count();
    hits as f32 / targets.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_scores() -> Matrix {
        Matrix::from_rows(&[
            vec![0.9, 0.05, 0.05], // predicts 0
            vec![0.1, 0.2, 0.7],   // predicts 2
            vec![0.3, 0.4, 0.3],   // predicts 1
            vec![0.5, 0.4, 0.1],   // predicts 0
        ])
    }

    #[test]
    fn top1_matches_manual_count() {
        let scores = example_scores();
        // Targets: 0 (hit), 2 (hit), 0 (miss), 1 (miss) → 50%.
        assert_eq!(top1_accuracy(&scores, &[0, 2, 0, 1]), 0.5);
    }

    #[test]
    fn top2_is_more_forgiving() {
        let scores = example_scores();
        let targets = [0usize, 2, 0, 1];
        let top1 = topk_accuracy(&scores, &targets, 1);
        let top2 = topk_accuracy(&scores, &targets, 2);
        assert!(top2 >= top1);
        assert_eq!(top2, 1.0);
    }

    #[test]
    fn topk_with_k_ge_classes_is_always_one() {
        let scores = example_scores();
        assert_eq!(topk_accuracy(&scores, &[2, 1, 0, 2], 3), 1.0);
        assert_eq!(topk_accuracy(&scores, &[2, 1, 0, 2], 10), 1.0);
    }

    #[test]
    fn empty_batch_is_zero() {
        let scores = Matrix::zeros(0, 5);
        assert_eq!(topk_accuracy(&scores, &[], 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let _ = topk_accuracy(&example_scores(), &[0, 0, 0, 0], 0);
    }

    #[test]
    #[should_panic(expected = "one target per row")]
    fn target_length_mismatch_panics() {
        let _ = topk_accuracy(&example_scores(), &[0, 1], 1);
    }
}
