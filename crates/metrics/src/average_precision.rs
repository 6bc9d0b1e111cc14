//! Binary average precision (AP).

/// Average precision of a binary ranking problem.
///
/// `scores` are arbitrary real-valued confidences, `labels` mark the positive
/// items. AP is the mean of the precision values measured at each positive
/// item when items are sorted by descending score (the "area under the
/// precision-recall curve" estimator used by scikit-learn's
/// `average_precision_score` with default settings).
///
/// Returns `None` when there are no positive labels (AP is undefined).
///
/// # Panics
///
/// Panics if `scores.len() != labels.len()`.
///
/// # Example
///
/// ```
/// let ap = metrics::average_precision(&[0.9, 0.8, 0.1], &[true, false, true]);
/// assert!((ap.unwrap() - 0.8333).abs() < 1e-3);
/// ```
pub fn average_precision(scores: &[f32], labels: &[bool]) -> Option<f32> {
    assert_eq!(
        scores.len(),
        labels.len(),
        "scores and labels must have the same length"
    );
    let positives = labels.iter().filter(|&&l| l).count();
    if positives == 0 {
        return None;
    }
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut hits = 0usize;
    let mut sum_precision = 0.0f32;
    for (rank, &idx) in order.iter().enumerate() {
        if labels[idx] {
            hits += 1;
            sum_precision += hits as f32 / (rank + 1) as f32;
        }
    }
    Some(sum_precision / positives as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_ranking_has_ap_one() {
        let ap = average_precision(&[0.9, 0.8, 0.2, 0.1], &[true, true, false, false]);
        assert_eq!(ap, Some(1.0));
    }

    #[test]
    fn worst_ranking_has_low_ap() {
        let ap = average_precision(&[0.9, 0.8, 0.2, 0.1], &[false, false, true, true])
            .expect("has positives");
        // Positives at ranks 3 and 4: AP = (1/3 + 2/4)/2 = 5/12.
        assert!((ap - 5.0 / 12.0).abs() < 1e-6);
    }

    #[test]
    fn mixed_ranking_matches_hand_computation() {
        // Sorted by score: idx0 (pos), idx1 (neg), idx2 (pos).
        let ap = average_precision(&[0.9, 0.8, 0.1], &[true, false, true]).expect("has positives");
        // Precisions at the positives: 1/1 and 2/3 → AP = (1 + 2/3)/2 = 5/6.
        assert!((ap - 5.0 / 6.0).abs() < 1e-6);
    }

    #[test]
    fn no_positives_is_none() {
        assert_eq!(average_precision(&[0.5, 0.4], &[false, false]), None);
    }

    #[test]
    fn all_positives_is_one() {
        assert_eq!(average_precision(&[0.1, 0.9], &[true, true]), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn length_mismatch_panics() {
        let _ = average_precision(&[0.1], &[true, false]);
    }
}
