//! The full three-phase pipeline: (simulated) phase-I backbone → phase-II
//! attribute extraction → phase-III zero-shot fine-tuning → evaluation.

use crate::config::{ModelConfig, TrainConfig};
use crate::eval::{
    evaluate_attribute_extraction, evaluate_zsc, AttributeExtractionReport, ZscReport,
};
use crate::model::ZscModel;
use crate::params::ParameterBreakdown;
use crate::train::{AttributeExtractionTrainer, TrainingHistory, ZscTrainer};
use dataset::{CubLikeDataset, SplitKind};
use serde::{Deserialize, Serialize};

/// Everything a single training/evaluation run produces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineOutcome {
    /// Zero-shot (or noZS) classification results on the evaluation side.
    pub zsc: ZscReport,
    /// Attribute-extraction results on the evaluation side.
    pub attribute_extraction: AttributeExtractionReport,
    /// Parameter accounting of the trained model.
    pub params: ParameterBreakdown,
    /// Phase-II loss curve.
    pub phase2_history: TrainingHistory,
    /// Phase-III loss curve.
    pub phase3_history: TrainingHistory,
}

/// Orchestrates the paper's training recipe end to end for one seed.
///
/// # Example
///
/// ```
/// use dataset::{CubLikeDataset, DatasetConfig, SplitKind};
/// use hdc_zsc::{ModelConfig, Pipeline, TrainConfig};
///
/// let data = CubLikeDataset::generate(&DatasetConfig::tiny(2));
/// let outcome = Pipeline::new(ModelConfig::tiny(), TrainConfig::fast())
///     .run(&data, SplitKind::Zs, 0);
/// assert!(outcome.zsc.top1 >= 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline {
    model_config: ModelConfig,
    train_config: TrainConfig,
    run_phase2: bool,
}

impl Pipeline {
    /// Creates a pipeline with the given model and training configurations.
    pub fn new(model_config: ModelConfig, train_config: TrainConfig) -> Self {
        Self {
            model_config,
            train_config,
            run_phase2: true,
        }
    }

    /// Disables phase-II pre-training (Table II rows without the FC layer
    /// skip stage II).
    #[must_use]
    pub fn without_phase2(mut self) -> Self {
        self.run_phase2 = false;
        self
    }

    /// The model configuration.
    pub fn model_config(&self) -> &ModelConfig {
        &self.model_config
    }

    /// The training configuration.
    pub fn train_config(&self) -> &TrainConfig {
        &self.train_config
    }

    /// Runs the full pipeline on `data` under the given split protocol and
    /// seed, returning the evaluation reports.
    ///
    /// For the zero-shot splits (`Zs`, `Validation`) the model trains on the
    /// split's training classes and is evaluated on the *disjoint* evaluation
    /// classes. For `NoZs` the instances of the (shared) classes are divided
    /// 75/25 into train and test — stratified within each class, see
    /// [`stratified_nozs_split`] — matching the supervised protocol used by
    /// the Table I baselines.
    ///
    /// This is a thin wrapper over [`Pipeline::run_returning_model`] that
    /// drops the trained model.
    pub fn run(&self, data: &CubLikeDataset, split_kind: SplitKind, seed: u64) -> PipelineOutcome {
        self.run_returning_model(data, split_kind, seed).0
    }

    /// Runs the pipeline and additionally returns the trained model (for
    /// checkpointing, serving, or extra analyses).
    ///
    /// The returned model is the *exact* object that produced the outcome —
    /// nothing is retrained, so its logits on the evaluation side reproduce
    /// `outcome.zsc` bit for bit. (An earlier revision retrained a second
    /// model here, which on the `NoZs` split trained on all instances of the
    /// shared classes instead of the 75% partition and therefore returned a
    /// model that did *not* match the reported outcome.)
    pub fn run_returning_model(
        &self,
        data: &CubLikeDataset,
        split_kind: SplitKind,
        seed: u64,
    ) -> (PipelineOutcome, ZscModel) {
        let split = data.split(split_kind);
        let model_config = self
            .model_config
            .with_seed(self.model_config.seed.wrapping_add(seed));
        let train_config = self
            .train_config
            .with_seed(self.train_config.seed.wrapping_add(seed));
        let mut model = ZscModel::new(&model_config, data.schema(), data.config().feature_dim);

        // Assemble train/eval instance sets.
        let (train_x, train_labels, train_attr, eval_x, eval_labels, eval_attr) =
            if split.is_zero_shot() {
                let (train_x, train_labels) = data.features_and_labels(split.train_classes());
                let (_, train_attr) = data.features_and_attributes(split.train_classes());
                let (eval_x, eval_labels) = data.features_and_labels(split.eval_classes());
                let (_, eval_attr) = data.features_and_attributes(split.eval_classes());
                (
                    train_x,
                    train_labels,
                    train_attr,
                    eval_x,
                    eval_labels,
                    eval_attr,
                )
            } else {
                // noZS: split the instances of the shared classes 75/25,
                // stratified within each class.
                let (train_idx, eval_idx) = stratified_nozs_split(data, split.train_classes());
                (
                    data.features().select_rows(&train_idx),
                    data.instances().labels(&train_idx),
                    data.instances().attribute_targets(&train_idx),
                    data.features().select_rows(&eval_idx),
                    data.instances().labels(&eval_idx),
                    data.instances().attribute_targets(&eval_idx),
                )
            };

        // Phase II: attribute extraction pre-training on the training side.
        let phase2_history = if self.run_phase2 && model.image_encoder().has_projection() {
            AttributeExtractionTrainer::new(train_config).train(&mut model, &train_x, &train_attr)
        } else {
            TrainingHistory::default()
        };

        // Phase III: classification fine-tuning against the seen classes.
        let train_local = CubLikeDataset::to_local_labels(&train_labels, split.train_classes());
        let train_class_attr = data.class_attribute_matrix(split.train_classes());
        let phase3_history = ZscTrainer::new(train_config).train(
            &mut model,
            &train_x,
            &train_local,
            &train_class_attr,
        );

        // Evaluation on the held-out side (unseen classes for ZS splits).
        let eval_local = CubLikeDataset::to_local_labels(&eval_labels, split.eval_classes());
        let eval_class_attr = data.class_attribute_matrix(split.eval_classes());
        let zsc = evaluate_zsc(&model, &eval_x, &eval_local, &eval_class_attr);
        let attribute_extraction =
            evaluate_attribute_extraction(&model, &eval_x, &eval_attr, data.schema());
        let params = ParameterBreakdown::of(&model);
        let outcome = PipelineOutcome {
            zsc,
            attribute_extraction,
            params,
            phase2_history,
            phase3_history,
        };
        (outcome, model)
    }
}

/// The deterministic 75/25 instance split used by the `NoZs` protocol,
/// stratified **within each class**: every class keeps every 4th of its own
/// instances (per-class positions `3, 7, 11, …`) for evaluation, and a class
/// with at least two instances but no such position contributes its last
/// instance instead, so no class is left without evaluation coverage.
///
/// Returns `(train_indices, eval_indices)`, both in global instance order.
///
/// (An earlier revision assigned every 4th *globally enumerated* index to
/// evaluation, which is not stratified: when `images_per_class % 4 != 0` the
/// holdout drifted across class boundaries, giving classes uneven — possibly
/// zero — evaluation coverage.)
pub fn stratified_nozs_split(data: &CubLikeDataset, classes: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let indices = data.instance_indices(classes);
    let labels = data.instances().labels(&indices);
    // Count instances per class so the small-class fallback knows each
    // class's last position up front.
    let mut counts: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
    for &label in &labels {
        *counts.entry(label).or_insert(0) += 1;
    }
    let mut positions: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
    let mut train = Vec::with_capacity(indices.len());
    let mut eval = Vec::with_capacity(indices.len() / 4 + counts.len());
    for (&idx, &label) in indices.iter().zip(&labels) {
        let n = counts[&label];
        let pos = positions.entry(label).or_insert(0);
        let regular_pick = *pos % 4 == 3;
        // Classes too small for a regular pick (2 or 3 instances) hold out
        // their last instance; singleton classes must stay in training.
        let fallback_pick = (2..4).contains(&n) && *pos == n - 1;
        if regular_pick || fallback_pick {
            eval.push(idx);
        } else {
            train.push(idx);
        }
        *pos += 1;
    }
    (train, eval)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::DatasetConfig;

    #[test]
    fn zero_shot_pipeline_beats_chance() {
        // Slightly larger than the default tiny fixture: zero-shot transfer
        // needs a little more data/dimensionality than the unit-test minimum.
        let mut config = DatasetConfig::tiny(21);
        config.num_classes = 24;
        config.images_per_class = 14;
        config.feature_dim = 128;
        let data = CubLikeDataset::generate(&config);
        let pipeline = Pipeline::new(
            ModelConfig::tiny().with_embedding_dim(128),
            TrainConfig::fast().with_epochs(16),
        );
        let outcome = pipeline.run(&data, SplitKind::Zs, 0);
        let split = data.split(SplitKind::Zs);
        let chance = 1.0 / split.eval_classes().len() as f32;
        assert!(
            outcome.zsc.top1 > 1.4 * chance,
            "zero-shot top-1 {} vs chance {}",
            outcome.zsc.top1,
            chance
        );
        assert!(outcome.phase2_history.epochs() > 0);
        assert!(outcome.phase3_history.epochs() > 0);
        assert_eq!(outcome.attribute_extraction.per_group.len(), 28);
        assert!(outcome.params.total() > 0);
    }

    #[test]
    fn nozs_pipeline_splits_instances() {
        let data = CubLikeDataset::generate(&DatasetConfig::tiny(22));
        let pipeline = Pipeline::new(ModelConfig::tiny(), TrainConfig::fast().with_epochs(8));
        let outcome = pipeline.run(&data, SplitKind::NoZs, 0);
        let split = data.split(SplitKind::NoZs);
        let (train_idx, eval_idx) = stratified_nozs_split(&data, split.train_classes());
        let total = data.instance_indices(split.train_classes()).len();
        assert_eq!(train_idx.len() + eval_idx.len(), total);
        assert_eq!(outcome.zsc.num_samples, eval_idx.len());
        // 6 images per class → every class holds out exactly one instance.
        assert_eq!(eval_idx.len(), split.train_classes().len());
        assert!(outcome.zsc.top1 > 0.0);
    }

    /// Pins the stratified 75/25 rule: every class is held out proportionally
    /// (per-class positions `3, 7, 11, …`), and classes with 2–3 instances
    /// still contribute exactly one evaluation sample instead of zero.
    #[test]
    fn nozs_split_is_stratified_per_class() {
        for (images_per_class, expected_eval_per_class) in
            [(2usize, 1usize), (3, 1), (5, 1), (8, 2)]
        {
            let mut config = DatasetConfig::tiny(26);
            config.images_per_class = images_per_class;
            let data = CubLikeDataset::generate(&config);
            let split = data.split(SplitKind::NoZs);
            let (train_idx, eval_idx) = stratified_nozs_split(&data, split.train_classes());

            // The two sides partition the class's instances.
            let mut all: Vec<usize> = train_idx.iter().chain(&eval_idx).copied().collect();
            all.sort_unstable();
            let mut expected = data.instance_indices(split.train_classes());
            expected.sort_unstable();
            assert_eq!(all, expected, "images_per_class={images_per_class}");

            // Per-class evaluation coverage is uniform and never zero.
            let eval_labels = data.instances().labels(&eval_idx);
            for &class in split.train_classes() {
                let count = eval_labels.iter().filter(|&&l| l == class).count();
                assert_eq!(
                    count, expected_eval_per_class,
                    "class {class} with {images_per_class} images"
                );
            }
        }
    }

    /// Regression test for the `run_returning_model` bug: the returned model
    /// must be the exact model that produced the outcome. Re-evaluating it on
    /// the reconstructed evaluation partition must reproduce `outcome.zsc`
    /// (top-1 and all) *exactly* — the old implementation retrained from
    /// scratch and, on `NoZs`, on the wrong (unpartitioned) training set.
    #[test]
    fn returned_model_reproduces_outcome_exactly() {
        let data = CubLikeDataset::generate(&DatasetConfig::tiny(27));
        let pipeline = Pipeline::new(ModelConfig::tiny(), TrainConfig::fast().with_epochs(2));
        for split_kind in [SplitKind::NoZs, SplitKind::Zs] {
            let (outcome, model) = pipeline.run_returning_model(&data, split_kind, 3);
            let split = data.split(split_kind);
            let (eval_x, eval_labels) = if split.is_zero_shot() {
                data.features_and_labels(split.eval_classes())
            } else {
                let (_, eval_idx) = stratified_nozs_split(&data, split.train_classes());
                (
                    data.features().select_rows(&eval_idx),
                    data.instances().labels(&eval_idx),
                )
            };
            let eval_local = CubLikeDataset::to_local_labels(&eval_labels, split.eval_classes());
            let eval_class_attr = data.class_attribute_matrix(split.eval_classes());
            let report = crate::eval::evaluate_zsc(&model, &eval_x, &eval_local, &eval_class_attr);
            assert_eq!(report, outcome.zsc, "{split_kind}");
            assert_eq!(report.top1.to_bits(), outcome.zsc.top1.to_bits());
        }
    }

    #[test]
    fn without_phase2_skips_pretraining() {
        let data = CubLikeDataset::generate(&DatasetConfig::tiny(23));
        let pipeline =
            Pipeline::new(ModelConfig::tiny(), TrainConfig::fast().with_epochs(2)).without_phase2();
        assert!(pipeline.model_config().use_projection);
        assert_eq!(pipeline.train_config().epochs, 2);
        let outcome = pipeline.run(&data, SplitKind::Zs, 0);
        assert_eq!(outcome.phase2_history.epochs(), 0);
        assert!(outcome.phase3_history.epochs() > 0);
    }
}
