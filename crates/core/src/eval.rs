//! Evaluation of the two tasks: zero-shot classification and attribute
//! extraction — plus the *generalized* zero-shot protocol
//! ([`evaluate_gzsl`]), where seen and unseen classes compete at query time,
//! and the serve-time rejection calibrator ([`SimilarityCalibrator`]).

use crate::model::ZscModel;
use dataset::AttributeSchema;
use metrics::wmap::{evaluate_groups, mean_over_groups};
use metrics::{partitioned_top1_accuracy, topk_accuracy, GroupMetrics};
use serde::{Deserialize, Serialize};
use tensor::Matrix;

/// Results of a zero-shot classification evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ZscReport {
    /// Top-1 accuracy (fraction in `[0, 1]`).
    pub top1: f32,
    /// Top-5 accuracy (fraction in `[0, 1]`).
    pub top5: f32,
    /// Number of evaluation classes.
    pub num_classes: usize,
    /// Number of evaluated samples.
    pub num_samples: usize,
}

impl std::fmt::Display for ZscReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "top-1 {:.1}%, top-5 {:.1}% over {} classes ({} samples)",
            self.top1 * 100.0,
            self.top5 * 100.0,
            self.num_classes,
            self.num_samples
        )
    }
}

/// Results of a *generalized* zero-shot evaluation: seen and unseen classes
/// compete in one union class set, scored per partition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GzslReport {
    /// Top-1 accuracy over queries whose target class is seen; `None` when
    /// the batch held no seen-class queries.
    pub seen: Option<f32>,
    /// Top-1 accuracy over queries whose target class is unseen; `None` when
    /// the batch held no unseen-class queries.
    pub unseen: Option<f32>,
    /// The harmonic-mean H metric of the two partitions (0 when either
    /// collapses or is empty).
    pub harmonic: f32,
    /// Number of seen classes in the union class set.
    pub num_seen_classes: usize,
    /// Number of unseen classes in the union class set.
    pub num_unseen_classes: usize,
    /// Number of evaluated samples.
    pub num_samples: usize,
}

impl std::fmt::Display for GzslReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pct = |a: Option<f32>| match a {
            Some(a) => format!("{:.1}%", a * 100.0),
            None => "n/a".to_string(),
        };
        write!(
            f,
            "seen {} / unseen {} / H {:.1}% over {}+{} classes ({} samples)",
            pct(self.seen),
            pct(self.unseen),
            self.harmonic * 100.0,
            self.num_seen_classes,
            self.num_unseen_classes,
            self.num_samples
        )
    }
}

/// Evaluates **generalized** zero-shot classification: every feature row is
/// scored against the *union* of seen and unseen classes (`unseen[c]` marks
/// class `c` unseen), and top-1 accuracy is reported per partition together
/// with the harmonic-mean H metric.
///
/// This is the protocol where bias toward seen classes actually shows:
/// under plain [`evaluate_zsc`] the unseen classes only compete with each
/// other, while here a seen lookalike can steal an unseen query — H rewards
/// models that keep both partitions accurate at once.
///
/// # Panics
///
/// Panics if `labels.len() != features.rows()`,
/// `unseen.len() != class_attributes.rows()`, or a label is out of range.
pub fn evaluate_gzsl(
    model: &ZscModel,
    features: &Matrix,
    labels: &[usize],
    class_attributes: &Matrix,
    unseen: &[bool],
) -> GzslReport {
    assert_eq!(
        features.rows(),
        labels.len(),
        "one label per feature row required"
    );
    let logits = model.class_logits(features, class_attributes);
    let partition = partitioned_top1_accuracy(&logits, labels, unseen);
    let num_unseen_classes = unseen.iter().filter(|&&u| u).count();
    GzslReport {
        seen: partition.seen,
        unseen: partition.unseen,
        harmonic: partition.harmonic(),
        num_seen_classes: unseen.len() - num_unseen_classes,
        num_unseen_classes,
        num_samples: features.rows(),
    }
}

/// A fitted serve-time rejection threshold: queries whose top-1 similarity
/// falls **strictly below** `threshold` should be answered `unknown`.
///
/// Persisted inside the v2 checkpoint envelope as an additive field, so the
/// serving layer can restore a calibrated model without refitting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimilarityCalibration {
    /// The rejection threshold on top-1 similarity.
    pub threshold: f32,
    /// The false-reject rate the threshold was fitted to.
    pub target_false_reject: f32,
}

/// Fits a [`SimilarityCalibration`] from held-out *known*-query similarities:
/// the threshold is placed so that at most a target fraction of known
/// queries would be rejected by the strict-less rule.
///
/// Concretely, with the known top-1 similarities sorted ascending and
/// `k = ⌊target · n⌋`, the threshold is the `k`-th similarity: exactly the
/// `k` strictly-smaller similarities are rejected (ties with the threshold
/// survive), so the empirical false-reject rate is `≤ target` by
/// construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimilarityCalibrator {
    target_false_reject: f32,
}

impl SimilarityCalibrator {
    /// A calibrator targeting the given false-reject rate.
    ///
    /// # Panics
    ///
    /// Panics unless `target_false_reject` lies in `[0, 1)` — rejecting
    /// every known query is never a useful calibration.
    pub fn new(target_false_reject: f32) -> Self {
        assert!(
            (0.0..1.0).contains(&target_false_reject),
            "target false-reject rate must lie in [0, 1), got {target_false_reject}"
        );
        Self {
            target_false_reject,
        }
    }

    /// The false-reject rate this calibrator targets.
    pub fn target_false_reject(&self) -> f32 {
        self.target_false_reject
    }

    /// Fits the threshold on held-out known-query top-1 similarities.
    ///
    /// # Panics
    ///
    /// Panics if `known_similarities` is empty or contains a NaN.
    pub fn fit(&self, known_similarities: &[f32]) -> SimilarityCalibration {
        assert!(
            !known_similarities.is_empty(),
            "calibration needs at least one known-query similarity"
        );
        let mut sorted = known_similarities.to_vec();
        sorted.sort_by(|a, b| {
            a.partial_cmp(b)
                .expect("calibration similarities must not be NaN")
        });
        let k = (f64::from(self.target_false_reject) * sorted.len() as f64).floor() as usize;
        SimilarityCalibration {
            threshold: sorted[k.min(sorted.len() - 1)],
            target_false_reject: self.target_false_reject,
        }
    }
}

/// Results of an attribute-extraction evaluation (Table I).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttributeExtractionReport {
    /// Per-group WMAP and top-1 accuracy, in schema group order.
    pub per_group: Vec<GroupMetrics>,
    /// Mean WMAP over the groups, in percent (the "average" row of Table I).
    pub mean_wmap: f32,
    /// Mean top-1 accuracy over the groups, in percent.
    pub mean_top1: f32,
}

/// Evaluates zero-shot classification: computes class logits for every
/// feature row against the evaluation classes' attribute matrix and measures
/// top-1/top-5 accuracy against the local labels.
///
/// The logits flow through the batched inference engine
/// ([`ZscModel::class_logits`], which takes `&self` — evaluation never needs
/// a mutable model and works just as well through a shared
/// [`FrozenModel`](crate::FrozenModel)); the feature batch is chunked across
/// threads and reported accuracies are bit-identical to the serial kernel
/// for every thread count.
///
/// # Panics
///
/// Panics if `labels.len() != features.rows()` or a label is out of range.
pub fn evaluate_zsc(
    model: &ZscModel,
    features: &Matrix,
    labels: &[usize],
    class_attributes: &Matrix,
) -> ZscReport {
    assert_eq!(
        features.rows(),
        labels.len(),
        "one label per feature row required"
    );
    let logits = model.class_logits(features, class_attributes);
    let top1 = topk_accuracy(&logits, labels, 1);
    let top5 = topk_accuracy(&logits, labels, 5.min(class_attributes.rows()));
    ZscReport {
        top1,
        top5,
        num_classes: class_attributes.rows(),
        num_samples: features.rows(),
    }
}

/// Evaluates attribute extraction: predicts attribute scores for every
/// feature row and computes WMAP and top-1 accuracy per attribute group.
///
/// # Panics
///
/// Panics if `attribute_targets.rows() != features.rows()`.
pub fn evaluate_attribute_extraction(
    model: &ZscModel,
    features: &Matrix,
    attribute_targets: &Matrix,
    schema: &AttributeSchema,
) -> AttributeExtractionReport {
    assert_eq!(
        features.rows(),
        attribute_targets.rows(),
        "one attribute-target row per feature row required"
    );
    let scores = model.attribute_logits(features);
    let layout = schema.group_layout();
    let per_group = evaluate_groups(&scores, attribute_targets, &layout, 0.5);
    let mean_wmap = mean_over_groups(&per_group, |g| g.wmap);
    let mean_top1 = mean_over_groups(&per_group, |g| g.top1);
    AttributeExtractionReport {
        per_group,
        mean_wmap,
        mean_top1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelConfig, TrainConfig};
    use crate::train::AttributeExtractionTrainer;
    use dataset::{CubLikeDataset, DatasetConfig, SplitKind};

    fn fixture() -> (CubLikeDataset, AttributeSchema, ZscModel) {
        let data = CubLikeDataset::generate(&DatasetConfig::tiny(11));
        let schema = data.schema().clone();
        let model = ZscModel::new(&ModelConfig::tiny(), &schema, data.config().feature_dim);
        (data, schema, model)
    }

    #[test]
    fn zsc_report_fields_and_display() {
        let (data, _schema, model) = fixture();
        let split = data.split(SplitKind::Zs);
        let (features, labels) = data.features_and_labels(split.eval_classes());
        let local = CubLikeDataset::to_local_labels(&labels, split.eval_classes());
        let attrs = data.class_attribute_matrix(split.eval_classes());
        let report = evaluate_zsc(&model, &features, &local, &attrs);
        assert_eq!(report.num_classes, split.eval_classes().len());
        assert_eq!(report.num_samples, features.rows());
        assert!(report.top5 >= report.top1);
        assert!((0.0..=1.0).contains(&report.top1));
        assert!(report.to_string().contains("top-1"));
    }

    #[test]
    fn gzsl_report_partitions_and_harmonic_are_consistent() {
        let (data, _schema, model) = fixture();
        let split = data.split(SplitKind::Zs);
        // Union class set: train (seen) + eval (unseen) classes, queries
        // drawn from both partitions.
        let union: Vec<usize> = split
            .train_classes()
            .iter()
            .chain(split.eval_classes())
            .copied()
            .collect();
        let unseen: Vec<bool> = union
            .iter()
            .map(|c| split.eval_classes().contains(c))
            .collect();
        let (features, labels) = data.features_and_labels(&union);
        let local = CubLikeDataset::to_local_labels(&labels, &union);
        let attrs = data.class_attribute_matrix(&union);
        let report = evaluate_gzsl(&model, &features, &local, &attrs, &unseen);
        assert_eq!(report.num_samples, features.rows());
        assert_eq!(
            report.num_seen_classes + report.num_unseen_classes,
            union.len()
        );
        assert_eq!(report.num_unseen_classes, split.eval_classes().len());
        let (seen, unseen_acc) = (report.seen.expect("seen"), report.unseen.expect("unseen"));
        assert_eq!(
            report.harmonic,
            metrics::harmonic_mean(seen, unseen_acc),
            "harmonic must be derived from the reported partitions"
        );
        assert!(report.to_string().contains("H "));
    }

    #[test]
    fn gzsl_with_one_empty_partition_scores_zero_harmonic() {
        let (data, _schema, model) = fixture();
        let split = data.split(SplitKind::Zs);
        let eval = split.eval_classes();
        let (features, labels) = data.features_and_labels(eval);
        let local = CubLikeDataset::to_local_labels(&labels, eval);
        let attrs = data.class_attribute_matrix(eval);
        // Every class marked unseen: the seen partition is empty.
        let report = evaluate_gzsl(&model, &features, &local, &attrs, &vec![true; eval.len()]);
        assert_eq!(report.seen, None);
        assert_eq!(report.harmonic, 0.0);
        // All-unseen scoring degenerates to the plain ZSC protocol.
        let plain = evaluate_zsc(&model, &features, &local, &attrs);
        assert_eq!(report.unseen, Some(plain.top1));
    }

    #[test]
    fn calibrator_rejects_at_most_the_target_fraction() {
        let sims: Vec<f32> = (0..100).map(|i| i as f32 / 100.0).collect();
        let calibration = SimilarityCalibrator::new(0.1).fit(&sims);
        assert_eq!(calibration.target_false_reject, 0.1);
        // Threshold is the 10th-smallest similarity; strict `<` rejects
        // exactly the 10 below it.
        assert_eq!(calibration.threshold, 0.10);
        let rejected = sims.iter().filter(|&&s| s < calibration.threshold).count();
        assert_eq!(rejected, 10);
        // Ties with the threshold survive.
        let tied = vec![0.5f32; 8];
        let calibration = SimilarityCalibrator::new(0.25).fit(&tied);
        assert_eq!(calibration.threshold, 0.5);
        assert_eq!(
            tied.iter().filter(|&&s| s < calibration.threshold).count(),
            0
        );
        // Target 0 keeps every known query.
        let calibration = SimilarityCalibrator::new(0.0).fit(&sims);
        assert_eq!(calibration.threshold, 0.0);
        assert_eq!(
            sims.iter().filter(|&&s| s < calibration.threshold).count(),
            0
        );
    }

    #[test]
    fn calibration_serde_round_trip_is_bit_exact() {
        let calibration = SimilarityCalibrator::new(0.05).fit(&[0.31, 0.72, 0.55, 0.48]);
        let text = serde_json::to_string(&calibration).expect("writes");
        let restored: SimilarityCalibration = serde_json::from_str(&text).expect("round trip");
        assert_eq!(
            restored.threshold.to_bits(),
            calibration.threshold.to_bits()
        );
        assert_eq!(restored, calibration);
    }

    #[test]
    #[should_panic(expected = "must lie in [0, 1)")]
    fn calibrator_rejects_degenerate_targets() {
        let _ = SimilarityCalibrator::new(1.0);
    }

    #[test]
    fn attribute_report_covers_all_groups() {
        let (data, schema, model) = fixture();
        let split = data.split(SplitKind::NoZs);
        let (features, targets) = data.features_and_attributes(split.train_classes());
        let report = evaluate_attribute_extraction(&model, &features, &targets, &schema);
        assert_eq!(report.per_group.len(), 28);
        assert!((0.0..=100.0).contains(&report.mean_wmap));
        assert!((0.0..=100.0).contains(&report.mean_top1));
    }

    #[test]
    fn attribute_extraction_training_improves_the_report() {
        let (data, schema, mut model) = fixture();
        let split = data.split(SplitKind::NoZs);
        let (features, targets) = data.features_and_attributes(split.train_classes());
        let before = evaluate_attribute_extraction(&model, &features, &targets, &schema);
        let trainer = AttributeExtractionTrainer::new(TrainConfig::fast().with_epochs(5));
        let _ = trainer.train(&mut model, &features, &targets);
        let after = evaluate_attribute_extraction(&model, &features, &targets, &schema);
        assert!(
            after.mean_top1 > before.mean_top1,
            "training should improve group top-1 ({} vs {})",
            after.mean_top1,
            before.mean_top1
        );
    }
}
