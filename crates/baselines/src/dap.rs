//! Direct Attribute Prediction (DAP)-style baseline (Lampert et al., 2014).
//!
//! A classical two-stage zero-shot pipeline: (1) learn a linear attribute
//! predictor from image features with ridge regression, (2) classify an
//! unseen image by comparing its *predicted* attribute vector against the
//! unseen classes' attribute signatures. It serves as a sanity floor for the
//! experiments: HDC-ZSC and ESZSL should both beat it because they optimise
//! the class decision end to end.

use engine::Pool;
use tensor::{ridge_solve, Matrix};

/// A fitted DAP-style model: a ridge-regression attribute predictor
/// `W ∈ R^{d×α}`.
#[derive(Debug, Clone, PartialEq)]
pub struct DirectAttributePrediction {
    weights: Matrix,
}

impl DirectAttributePrediction {
    /// Fits the attribute predictor with ridge regression:
    /// `W = (XᵀX + γI)⁻¹ Xᵀ T`, where `T` holds one attribute-target row per
    /// training sample.
    ///
    /// # Panics
    ///
    /// Panics if the row counts disagree or the training set is empty.
    pub fn fit(features: &Matrix, attribute_targets: &Matrix, gamma: f32) -> Self {
        assert_eq!(
            features.rows(),
            attribute_targets.rows(),
            "one attribute-target row per feature row required"
        );
        assert!(features.rows() > 0, "cannot fit DAP on an empty set");
        let gram = features.matmul_tn(features); // d×d
        let xt_t = features.matmul_tn(attribute_targets); // d×α
        let weights = ridge_solve(&gram, &xt_t, gamma.max(1e-6))
            .expect("positive ridge keeps the Gram matrix positive definite");
        Self { weights }
    }

    /// The learned predictor `W ∈ R^{d×α}`.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Number of learned parameters.
    pub fn num_params(&self) -> usize {
        self.weights.len()
    }

    /// Predicted attribute scores for a batch of features (`N×α`), computed
    /// through the engine's row-parallel dense path (bit-identical to the
    /// serial matmul).
    ///
    /// # Panics
    ///
    /// Panics if the feature width disagrees with the fitted model.
    fn predict_attributes(&self, features: &Matrix) -> Matrix {
        engine::dense::linear_scores(features, &self.weights, &Pool::auto())
    }

    /// Class scores: cosine similarity between predicted attribute vectors
    /// and the class signatures (`N×C`), computed through the engine's
    /// row-parallel dense path (bit-identical to
    /// `tensor::ops::cosine_similarity_matrix`).
    ///
    /// # Panics
    ///
    /// Panics if the widths disagree.
    pub fn class_scores(&self, features: &Matrix, signatures: &Matrix) -> Matrix {
        engine::dense::cosine_scores(
            &self.predict_attributes(features),
            signatures,
            &Pool::auto(),
        )
    }

    /// Predicts the class (row of `signatures`) of every feature row.
    pub fn predict(&self, features: &Matrix, signatures: &Matrix) -> Vec<usize> {
        self.class_scores(features, signatures).argmax_rows()
    }

    /// Top-1 accuracy against local labels.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != features.rows()`.
    pub fn accuracy(&self, features: &Matrix, labels: &[usize], signatures: &Matrix) -> f32 {
        metrics::top1_accuracy(&self.class_scores(features, signatures), labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn toy_problem(seed: u64) -> (Matrix, Matrix, Matrix, Vec<usize>, Matrix) {
        // Features are noisy copies of binary attribute vectors themselves, so
        // the linear predictor must essentially learn the identity.
        let mut rng = StdRng::seed_from_u64(seed);
        let alpha = 12;
        let train_classes = 6;
        let test_classes = 4;
        let per_class = 8;
        let sig = |n: usize, rng: &mut StdRng| {
            Matrix::random_uniform(n, alpha, 1.0, rng).map(|v| if v > 0.0 { 1.0 } else { 0.0 })
        };
        let train_sigs = sig(train_classes, &mut rng);
        let test_sigs = sig(test_classes, &mut rng);
        let mut train_x = Vec::new();
        let mut train_t = Vec::new();
        for c in 0..train_classes {
            for _ in 0..per_class {
                let row: Vec<f32> = train_sigs
                    .row(c)
                    .iter()
                    .map(|&v| v + 0.2 * (rng.gen::<f32>() - 0.5))
                    .collect();
                train_x.push(row);
                train_t.push(train_sigs.row(c).to_vec());
            }
        }
        let mut test_x = Vec::new();
        let mut test_y = Vec::new();
        for c in 0..test_classes {
            for _ in 0..per_class {
                let row: Vec<f32> = test_sigs
                    .row(c)
                    .iter()
                    .map(|&v| v + 0.2 * (rng.gen::<f32>() - 0.5))
                    .collect();
                test_x.push(row);
                test_y.push(c);
            }
        }
        (
            Matrix::from_rows(&train_x),
            Matrix::from_rows(&train_t),
            Matrix::from_rows(&test_x),
            test_y,
            test_sigs,
        )
    }

    #[test]
    fn attribute_prediction_recovers_targets() {
        let (train_x, train_t, _, _, _) = toy_problem(1);
        let dap = DirectAttributePrediction::fit(&train_x, &train_t, 0.1);
        let predicted = dap.predict_attributes(&train_x);
        // Thresholded predictions should match the binary targets closely.
        let mut agree = 0usize;
        for r in 0..train_t.rows() {
            for c in 0..train_t.cols() {
                let p = if predicted.get(r, c) > 0.5 { 1.0 } else { 0.0 };
                if p == train_t.get(r, c) {
                    agree += 1;
                }
            }
        }
        let frac = agree as f32 / train_t.len() as f32;
        assert!(frac > 0.9, "attribute agreement {frac}");
        assert_eq!(dap.num_params(), 12 * 12);
        assert_eq!(dap.weights().shape(), (12, 12));
    }

    #[test]
    fn zero_shot_classification_beats_chance() {
        let (train_x, train_t, test_x, test_y, test_sigs) = toy_problem(2);
        let dap = DirectAttributePrediction::fit(&train_x, &train_t, 0.1);
        let acc = dap.accuracy(&test_x, &test_y, &test_sigs);
        assert!(acc > 0.5, "DAP accuracy {acc}");
        assert_eq!(dap.predict(&test_x, &test_sigs).len(), test_y.len());
    }

    #[test]
    #[should_panic(expected = "cannot fit DAP on an empty set")]
    fn empty_training_set_panics() {
        let _ = DirectAttributePrediction::fit(&Matrix::zeros(0, 4), &Matrix::zeros(0, 4), 1.0);
    }

    #[test]
    #[should_panic(expected = "cosine scoring requires equal embedding dims")]
    fn predict_rejects_wrong_signature_width() {
        let (train_x, train_t, test_x, _, _) = toy_problem(3);
        let dap = DirectAttributePrediction::fit(&train_x, &train_t, 0.1);
        let _ = dap.predict(&test_x, &Matrix::ones(4, 5));
    }
}
