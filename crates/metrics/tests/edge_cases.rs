//! Edge-case coverage for the metrics crate: top-k with `k` larger than the
//! number of classes, and WMAP in the presence of attributes/classes with
//! zero instances.

use metrics::topk::{top1_accuracy, topk_accuracy};
use metrics::wmap::{group_top1_accuracy, weighted_average_precision};
use tensor::Matrix;

#[test]
fn topk_with_k_beyond_classes_saturates_at_one() {
    // 3 classes; every target is somewhere in the full ranking, so any
    // k >= 3 must give accuracy 1.0 rather than panic or overcount.
    let scores = Matrix::from_rows(&[vec![0.1, 0.7, 0.2], vec![0.5, 0.3, 0.2]]);
    let targets = [2usize, 1];
    assert_eq!(topk_accuracy(&scores, &targets, 3), 1.0);
    assert_eq!(topk_accuracy(&scores, &targets, 10), 1.0);
    // Sanity: the same inputs are not already perfect at k = 1.
    assert!(top1_accuracy(&scores, &targets) < 1.0);
}

#[test]
fn topk_on_empty_batch_is_zero() {
    let scores = Matrix::zeros(0, 5);
    assert_eq!(topk_accuracy(&scores, &[], 3), 0.0);
    assert_eq!(top1_accuracy(&scores, &[]), 0.0);
}

#[test]
fn wmap_skips_attributes_with_zero_positives() {
    // Column 1 has no positive targets at threshold 0.5: it must be skipped,
    // leaving the (perfectly ranked) column 0 as the only contribution.
    let scores = Matrix::from_rows(&[vec![0.9, 0.8], vec![0.1, 0.7]]);
    let targets = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 0.0]]);
    let wmap = weighted_average_precision(&scores, &targets, &[0, 1], 0.5);
    assert!((wmap - 1.0).abs() < 1e-6, "wmap = {wmap}");
}

#[test]
fn wmap_with_no_positive_attributes_is_zero() {
    let scores = Matrix::from_rows(&[vec![0.9, 0.8]]);
    let targets = Matrix::zeros(1, 2);
    assert_eq!(
        weighted_average_precision(&scores, &targets, &[0, 1], 0.5),
        0.0
    );
}

#[test]
fn wmap_upweights_rare_attributes() {
    // Column 0: frequent (2/4 positives), ranked perfectly (AP = 1).
    // Column 1: rare (1/4 positives), ranked worst (positive scored last).
    let scores = Matrix::from_rows(&[
        vec![0.9, 0.9],
        vec![0.8, 0.8],
        vec![0.1, 0.7],
        vec![0.2, 0.1],
    ]);
    let targets = Matrix::from_rows(&[
        vec![1.0, 0.0],
        vec![1.0, 0.0],
        vec![0.0, 0.0],
        vec![0.0, 1.0],
    ]);
    let wmap = weighted_average_precision(&scores, &targets, &[0, 1], 0.5);
    // Unweighted mean of APs would be (1 + 0.25) / 2 = 0.625; the inverse
    // frequency weighting (1/0.5 vs 1/0.25) pulls it down toward the rare,
    // badly-ranked attribute: (2·1 + 4·0.25) / 6 = 0.5.
    assert!((wmap - 0.5).abs() < 1e-6, "wmap = {wmap}");
}

#[test]
fn group_top1_skips_samples_without_annotated_value() {
    // Second sample's strongest target is below threshold: skipped entirely.
    let scores = Matrix::from_rows(&[vec![0.9, 0.1], vec![0.2, 0.8]]);
    let targets = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.1, 0.2]]);
    let acc = group_top1_accuracy(&scores, &targets, &[0, 1], 0.5);
    assert_eq!(acc, 1.0);
    // All samples below threshold: the metric degrades to 0, not NaN.
    let empty_targets = Matrix::zeros(2, 2);
    assert_eq!(
        group_top1_accuracy(&scores, &empty_targets, &[0, 1], 0.5),
        0.0
    );
}
