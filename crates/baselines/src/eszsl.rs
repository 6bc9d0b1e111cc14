//! ESZSL: "An embarrassingly simple approach to zero-shot learning"
//! (Romera-Paredes & Torr, ICML 2015) — the non-generative baseline the
//! paper's headline comparison targets.
//!
//! ESZSL learns a bilinear compatibility `xᵀ V s` between an image feature
//! `x ∈ R^d` and a class attribute signature `s ∈ R^α` by minimising a
//! squared loss with Frobenius regularisation, which has the closed form
//!
//! ```text
//! V = (X Xᵀ + γ I_d)⁻¹  X Y Sᵀ  (S Sᵀ + λ I_α)⁻¹
//! ```
//!
//! where `X ∈ R^{d×N}` stacks the training features, `Y ∈ {−1,1}^{N×C}` the
//! one-vs-rest labels and `S ∈ R^{α×C}` the seen-class signatures. At test
//! time an image is assigned to the unseen class whose signature maximises
//! `xᵀ V s`.

use serde::{Deserialize, Serialize};
use tensor::{ridge_solve, Matrix};

/// Regularisation constants of the ESZSL objective.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EszslConfig {
    /// Feature-space ridge term `γ` (applied to `X Xᵀ`).
    pub gamma: f32,
    /// Signature-space ridge term `λ` (applied to `S Sᵀ`).
    pub lambda: f32,
}

impl Default for EszslConfig {
    /// Moderate regularisation that works well across the synthetic
    /// configurations (the original paper tunes `γ, λ ∈ 10^{−3}…10^{3}` per
    /// dataset).
    fn default() -> Self {
        Self {
            gamma: 1.0,
            lambda: 1.0,
        }
    }
}

/// A fitted ESZSL model: the bilinear compatibility matrix `V ∈ R^{d×α}`.
#[derive(Debug, Clone, PartialEq)]
pub struct Eszsl {
    compatibility: Matrix,
    config: EszslConfig,
}

impl Eszsl {
    /// Fits the closed-form ESZSL solution.
    ///
    /// * `features` — training features, one row per sample (`N×d`);
    /// * `labels` — *local* class indices into `signatures`' rows;
    /// * `signatures` — seen-class attribute signatures (`C×α`).
    ///
    /// # Panics
    ///
    /// Panics if the shapes disagree, a label is out of range, the training
    /// set is empty, or the regularised systems are numerically singular
    /// (which cannot happen for positive `gamma`/`lambda`).
    pub fn fit(
        features: &Matrix,
        labels: &[usize],
        signatures: &Matrix,
        config: &EszslConfig,
    ) -> Self {
        assert_eq!(
            features.rows(),
            labels.len(),
            "one label per feature row required"
        );
        assert!(features.rows() > 0, "cannot fit ESZSL on an empty set");
        assert!(
            labels.iter().all(|&l| l < signatures.rows()),
            "labels must index rows of the signature matrix"
        );
        let num_classes = signatures.rows();
        // Y ∈ {−1, +1}^{N×C}.
        let mut y = Matrix::filled(features.rows(), num_classes, -1.0);
        for (i, &label) in labels.iter().enumerate() {
            y.set(i, label, 1.0);
        }
        // Gram matrices.
        let xxt = features.matmul_tn(features); // d×d  (Xᵀ-free form: Σ xᵢ xᵢᵀ)
        let sst = signatures.matmul_tn(signatures); // α×α

        // Middle term X Y Sᵀ in row-major shapes: (d×N)(N×C)(C×α) = d×α.
        let xy = features.matmul_tn(&y); // d×C
        let xys = xy.matmul(signatures); // d×α

        // Left solve: (X Xᵀ + γI)⁻¹ · XYS.
        let left = ridge_solve(&xxt, &xys, config.gamma)
            .expect("gamma > 0 keeps the feature Gram matrix positive definite");
        // Right solve: left · (S Sᵀ + λI)⁻¹  ⇔  solve the symmetric system on
        // the transpose.
        let right_t = ridge_solve(&sst, &left.transpose(), config.lambda)
            .expect("lambda > 0 keeps the signature Gram matrix positive definite");
        Self {
            compatibility: right_t.transpose(),
            config: *config,
        }
    }

    /// The learned compatibility matrix `V ∈ R^{d×α}`.
    pub fn compatibility(&self) -> &Matrix {
        &self.compatibility
    }

    /// The regularisation configuration used for fitting.
    pub fn config(&self) -> &EszslConfig {
        &self.config
    }

    /// Number of learned parameters (`d × α`), the quantity entering the
    /// Fig. 4 model-size comparison on top of the feature extractor.
    pub fn num_params(&self) -> usize {
        self.compatibility.len()
    }

    /// Compatibility scores of each feature row against each signature row
    /// (`N×C`): the bilinear rule `X·V·Sᵀ`, computed through the engine's
    /// row-parallel dense path (bit-identical to the serial product).
    ///
    /// # Panics
    ///
    /// Panics if the feature or signature width disagrees with the fitted
    /// model.
    pub fn scores(&self, features: &Matrix, signatures: &Matrix) -> Matrix {
        assert_eq!(
            features.cols(),
            self.compatibility.rows(),
            "feature dimensionality changed between fit and predict"
        );
        assert_eq!(
            signatures.cols(),
            self.compatibility.cols(),
            "signature dimensionality changed between fit and predict"
        );
        engine::dense::bilinear_scores(
            features,
            &self.compatibility,
            signatures,
            &engine::Pool::auto(),
        )
    }

    /// Predicts the class (row of `signatures`) of every feature row.
    ///
    /// # Panics
    ///
    /// See [`Eszsl::scores`].
    pub fn predict(&self, features: &Matrix, signatures: &Matrix) -> Vec<usize> {
        self.scores(features, signatures).argmax_rows()
    }

    /// Top-1 accuracy against local labels.
    ///
    /// # Panics
    ///
    /// See [`Eszsl::scores`]; also panics if `labels.len() != features.rows()`.
    pub fn accuracy(&self, features: &Matrix, labels: &[usize], signatures: &Matrix) -> f32 {
        metrics::top1_accuracy(&self.scores(features, signatures), labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Builds a linearly separable synthetic ZSL problem: features are noisy
    /// linear images of the class signatures.
    fn synthetic_problem(
        seed: u64,
        num_train_classes: usize,
        num_test_classes: usize,
        samples_per_class: usize,
        d: usize,
        alpha: usize,
        noise: f32,
    ) -> (Matrix, Vec<usize>, Matrix, Matrix, Vec<usize>, Matrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mixing = Matrix::random_normal(alpha, d, 0.0, 1.0 / (alpha as f32).sqrt(), &mut rng);
        let make_signatures = |n: usize, rng: &mut StdRng| {
            Matrix::random_uniform(n, alpha, 1.0, rng).map(|v| if v > 0.3 { 1.0 } else { 0.0 })
        };
        let train_sigs = make_signatures(num_train_classes, &mut rng);
        let test_sigs = make_signatures(num_test_classes, &mut rng);
        let sample = |sigs: &Matrix, rng: &mut StdRng| {
            let mut rows = Vec::new();
            let mut labels = Vec::new();
            for c in 0..sigs.rows() {
                for _ in 0..samples_per_class {
                    let sig = Matrix::from_rows(&[sigs.row(c).to_vec()]);
                    let clean = sig.matmul(&mixing);
                    let noisy: Vec<f32> = clean
                        .row(0)
                        .iter()
                        .map(|&v| v + noise * (rng.gen::<f32>() - 0.5))
                        .collect();
                    rows.push(noisy);
                    labels.push(c);
                }
            }
            (Matrix::from_rows(&rows), labels)
        };
        let (train_x, train_y) = sample(&train_sigs, &mut rng);
        let (test_x, test_y) = sample(&test_sigs, &mut rng);
        (train_x, train_y, train_sigs, test_x, test_y, test_sigs)
    }

    #[test]
    fn perfectly_separable_training_data_is_memorised() {
        let features = Matrix::identity(4);
        let labels = vec![0usize, 1, 2, 3];
        let signatures = Matrix::identity(4);
        let model = Eszsl::fit(&features, &labels, &signatures, &EszslConfig::default());
        assert_eq!(model.predict(&features, &signatures), labels);
        assert_eq!(model.num_params(), 16);
        assert_eq!(model.config().gamma, 1.0);
        assert_eq!(model.compatibility().shape(), (4, 4));
    }

    #[test]
    fn transfers_to_unseen_classes() {
        let (train_x, train_y, train_s, test_x, test_y, test_s) =
            synthetic_problem(3, 20, 8, 10, 64, 40, 0.3);
        let model = Eszsl::fit(&train_x, &train_y, &train_s, &EszslConfig::default());
        let acc = model.accuracy(&test_x, &test_y, &test_s);
        let chance = 1.0 / 8.0;
        assert!(acc > 4.0 * chance, "ESZSL zero-shot accuracy {acc} too low");
    }

    #[test]
    fn regularisation_controls_overfitting_direction() {
        let (train_x, train_y, train_s, test_x, test_y, test_s) =
            synthetic_problem(5, 15, 6, 8, 48, 30, 0.8);
        let mild = Eszsl::fit(
            &train_x,
            &train_y,
            &train_s,
            &EszslConfig {
                gamma: 1.0,
                lambda: 1.0,
            },
        );
        let extreme = Eszsl::fit(
            &train_x,
            &train_y,
            &train_s,
            &EszslConfig {
                gamma: 1e6,
                lambda: 1e6,
            },
        );
        // Over-regularised model collapses toward zero compatibility and
        // loses accuracy relative to the mild setting.
        let acc_mild = mild.accuracy(&test_x, &test_y, &test_s);
        let acc_extreme = extreme.accuracy(&test_x, &test_y, &test_s);
        assert!(acc_mild >= acc_extreme);
        assert!(extreme.compatibility().frobenius_norm() < mild.compatibility().frobenius_norm());
    }

    #[test]
    fn scores_shape_matches_batch_and_classes() {
        let (train_x, train_y, train_s, test_x, _test_y, test_s) =
            synthetic_problem(7, 10, 5, 4, 32, 20, 0.2);
        let model = Eszsl::fit(&train_x, &train_y, &train_s, &EszslConfig::default());
        let scores = model.scores(&test_x, &test_s);
        assert_eq!(scores.shape(), (test_x.rows(), 5));
    }

    #[test]
    #[should_panic(expected = "one label per feature row")]
    fn label_count_mismatch_panics() {
        let _ = Eszsl::fit(
            &Matrix::identity(3),
            &[0, 1],
            &Matrix::identity(3),
            &EszslConfig::default(),
        );
    }

    #[test]
    #[should_panic(expected = "feature dimensionality changed")]
    fn predict_rejects_wrong_feature_width() {
        let model = Eszsl::fit(
            &Matrix::identity(3),
            &[0, 1, 2],
            &Matrix::identity(3),
            &EszslConfig::default(),
        );
        let _ = model.predict(&Matrix::identity(4), &Matrix::identity(3));
    }

    #[test]
    #[should_panic(expected = "signature dimensionality changed")]
    fn predict_rejects_wrong_signature_width() {
        let model = Eszsl::fit(
            &Matrix::identity(3),
            &[0, 1, 2],
            &Matrix::identity(3),
            &EszslConfig::default(),
        );
        let _ = model.predict(&Matrix::identity(3), &Matrix::identity(4));
    }
}
