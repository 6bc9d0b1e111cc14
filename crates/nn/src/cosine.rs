//! Differentiable batched cosine similarity and temperature scaling — the
//! similarity kernel of the paper (Eq. 1).
//!
//! The kernel relates a batch of image embeddings `γ(X) ∈ R^{B×d}` to a set
//! of class/attribute embeddings `ϕ(A) ∈ R^{C×d}`:
//!
//! ```text
//! cossim(γ(X), ϕ(A)) = (1/K) · γ(X)ᵀ·ϕ(A) / (‖γ(X)‖·‖ϕ(A)‖)
//! ```
//!
//! [`CosineSimilarity`] computes the normalised dot products and provides
//! gradients with respect to **both** operands, so it can train either the
//! image encoder alone (HDC attribute encoder — the second operand is a
//! stationary ±1 dictionary) or the image encoder and a trainable MLP
//! attribute encoder jointly. [`TemperatureScale`] applies the learnable
//! `1/K` factor.

use crate::param::ParamTensor;
use tensor::Matrix;

/// Batched cosine-similarity kernel with full backward support.
///
/// # Example
///
/// ```
/// use nn::CosineSimilarity;
/// use tensor::Matrix;
///
/// let mut kernel = CosineSimilarity::new();
/// let images = Matrix::from_rows(&[vec![1.0, 0.0]]);
/// let classes = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
/// let sims = kernel.forward(&images, &classes, false);
/// assert!((sims.get(0, 0) - 1.0).abs() < 1e-6);
/// assert!(sims.get(0, 1).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CosineSimilarity {
    cache: Option<CosineCache>,
}

#[derive(Debug, Clone)]
struct CosineCache {
    a_hat: Matrix,
    b_hat: Matrix,
    a_norms: Vec<f32>,
    b_norms: Vec<f32>,
}

/// Minimum norm below which an embedding is treated as zero (its similarities
/// and gradients become zero instead of dividing by ~0).
const EPS: f32 = 1e-12;

impl CosineSimilarity {
    /// Creates a similarity kernel with no cached state.
    pub fn new() -> Self {
        Self { cache: None }
    }

    /// Computes the `B×C` matrix of cosine similarities between the rows of
    /// `a` (`B×d`) and the rows of `b` (`C×d`).
    ///
    /// When `train` is `true`, normalised operands are cached for
    /// [`CosineSimilarity::backward`].
    ///
    /// # Panics
    ///
    /// Panics if the embedding dimensionalities differ.
    pub fn forward(&mut self, a: &Matrix, b: &Matrix, train: bool) -> Matrix {
        assert_eq!(
            a.cols(),
            b.cols(),
            "cosine kernel operands must share the embedding dimension ({} vs {})",
            a.cols(),
            b.cols()
        );
        let a_norms: Vec<f32> = (0..a.rows())
            .map(|r| a.row(r).iter().map(|x| x * x).sum::<f32>().sqrt())
            .collect();
        let b_norms: Vec<f32> = (0..b.rows())
            .map(|r| b.row(r).iter().map(|x| x * x).sum::<f32>().sqrt())
            .collect();
        let a_hat = a.normalize_rows(EPS);
        let b_hat = b.normalize_rows(EPS);
        let sims = a_hat.matmul_nt(&b_hat);
        if train {
            self.cache = Some(CosineCache {
                a_hat,
                b_hat,
                a_norms,
                b_norms,
            });
        }
        sims
    }

    /// Back-propagates `grad_output` (gradient of the loss with respect to
    /// the similarity matrix) and returns `(grad_a, grad_b)`.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward(…, train = true)` or if
    /// `grad_output` has the wrong shape.
    pub fn backward(&mut self, grad_output: &Matrix) -> (Matrix, Matrix) {
        let cache = self
            .cache
            .as_ref()
            .expect("backward called before forward(train=true)");
        let (batch, classes) = (cache.a_hat.rows(), cache.b_hat.rows());
        assert_eq!(
            grad_output.shape(),
            (batch, classes),
            "similarity gradient must be {batch}x{classes}"
        );
        // Gradient w.r.t. the normalised operands.
        let grad_a_hat = grad_output.matmul(&cache.b_hat);
        let grad_b_hat = grad_output.matmul_tn(&cache.a_hat);
        // Back through the row normalisation: for â = a/‖a‖,
        // da = (g − (g·â)·â)/‖a‖, and zero where ‖a‖ ≈ 0.
        let grad_a = Self::normalize_backward(&grad_a_hat, &cache.a_hat, &cache.a_norms);
        let grad_b = Self::normalize_backward(&grad_b_hat, &cache.b_hat, &cache.b_norms);
        (grad_a, grad_b)
    }

    fn normalize_backward(grad_hat: &Matrix, hat: &Matrix, norms: &[f32]) -> Matrix {
        let mut out = Matrix::zeros(grad_hat.rows(), grad_hat.cols());
        for (r, &norm) in norms.iter().enumerate().take(grad_hat.rows()) {
            if norm <= EPS {
                continue;
            }
            let g = grad_hat.row(r);
            let h = hat.row(r);
            let dot: f32 = g.iter().zip(h).map(|(x, y)| x * y).sum();
            let out_row = out.row_mut(r);
            for ((o, &gv), &hv) in out_row.iter_mut().zip(g).zip(h) {
                *o = (gv - dot * hv) / norm;
            }
        }
        out
    }
}

/// Learnable temperature scaling `logits = sims / K` (the `1/K` factor of the
/// paper's similarity kernel).
///
/// `K` is stored as a single positive scalar parameter; it is clamped to a
/// small positive lower bound after every update to keep the logits finite.
///
/// # Example
///
/// ```
/// use nn::TemperatureScale;
/// use tensor::Matrix;
///
/// let mut temp = TemperatureScale::new(0.07);
/// let sims = Matrix::from_rows(&[vec![0.5]]);
/// let logits = temp.forward(&sims, false);
/// assert!((logits.get(0, 0) - 0.5 / 0.07).abs() < 1e-4);
/// ```
#[derive(Debug, Clone)]
pub struct TemperatureScale {
    k: ParamTensor,
    learnable: bool,
    cache: Option<Matrix>,
}

impl TemperatureScale {
    /// Smallest admissible temperature.
    pub const MIN_K: f32 = 1e-3;

    /// Creates a learnable temperature with initial value `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k <= 0`.
    pub fn new(k: f32) -> Self {
        assert!(k > 0.0, "temperature must be positive");
        Self {
            k: ParamTensor::new(Matrix::filled(1, 1, k)),
            learnable: true,
            cache: None,
        }
    }

    /// Creates a fixed (non-trainable) temperature.
    ///
    /// # Panics
    ///
    /// Panics if `k <= 0`.
    pub fn fixed(k: f32) -> Self {
        let mut t = Self::new(k);
        t.learnable = false;
        t
    }

    /// The current temperature value `K`.
    pub fn k(&self) -> f32 {
        self.k.values.get(0, 0)
    }

    /// Whether the temperature receives gradient updates.
    pub fn is_learnable(&self) -> bool {
        self.learnable
    }

    /// Number of trainable parameters (1 if learnable, 0 otherwise).
    pub fn num_params(&self) -> usize {
        usize::from(self.learnable)
    }

    /// Immutable inference scaling: applies `1/K` without caching anything.
    /// Bit-identical to [`TemperatureScale::forward`]; safe to call through
    /// a shared (frozen) model from any number of threads.
    pub fn infer(&self, sims: &Matrix) -> Matrix {
        sims.scale(1.0 / self.k())
    }

    /// Applies the `1/K` scaling to a similarity matrix, caching the
    /// similarities for [`TemperatureScale::backward`] when `train` is set.
    pub fn forward(&mut self, sims: &Matrix, train: bool) -> Matrix {
        if train {
            self.cache = Some(sims.clone());
        }
        self.infer(sims)
    }

    /// Back-propagates through the scaling, accumulating the gradient of `K`
    /// (if learnable) and returning the gradient with respect to the
    /// similarities.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward(…, train = true)`.
    pub fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let sims = self
            .cache
            .as_ref()
            .expect("backward called before forward(train=true)");
        let k = self.k();
        if self.learnable {
            // d logits / dK = -sims / K².
            let grad_k: f32 = grad_output
                .as_slice()
                .iter()
                .zip(sims.as_slice())
                .map(|(&g, &s)| g * (-s / (k * k)))
                .sum();
            self.k.accumulate_grad(&Matrix::filled(1, 1, grad_k));
        }
        grad_output.scale(1.0 / k)
    }

    /// Visits the temperature parameter (when learnable) so optimizers can
    /// update it alongside layer parameters.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut ParamTensor)) {
        if self.learnable {
            f(&mut self.k);
        }
    }

    /// Read-only visitation of the temperature parameter (when learnable),
    /// mirroring [`TemperatureScale::visit_params`] for `&self` accounting.
    pub fn visit_params_ref(&self, f: &mut dyn FnMut(&ParamTensor)) {
        if self.learnable {
            f(&self.k);
        }
    }

    /// Clamps the temperature to at least [`TemperatureScale::MIN_K`]; call
    /// after each optimizer step.
    pub fn clamp(&mut self) {
        let k = self.k().max(Self::MIN_K);
        self.k.values.set(0, 0, k);
    }

    /// Zeroes the accumulated temperature gradient.
    pub fn zero_grad(&mut self) {
        self.k.zero_grad();
    }

    /// Drops the similarities a training forward cached and the gradient
    /// storage of `K`, keeping its value.
    pub fn clear_training_state(&mut self) {
        self.cache = None;
        self.k.grad = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn forward_matches_reference_cosine() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::random_uniform(3, 8, 1.0, &mut rng);
        let b = Matrix::random_uniform(5, 8, 1.0, &mut rng);
        let mut kernel = CosineSimilarity::new();
        let sims = kernel.forward(&a, &b, false);
        let reference = tensor::ops::cosine_similarity_matrix(&a, &b);
        assert!(sims.max_abs_diff(&reference) < 1e-6);
    }

    #[test]
    fn zero_rows_produce_zero_similarity_and_gradient() {
        let a = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 0.0]]);
        let b = Matrix::from_rows(&[vec![1.0, 1.0]]);
        let mut kernel = CosineSimilarity::new();
        let sims = kernel.forward(&a, &b, true);
        assert_eq!(sims.get(0, 0), 0.0);
        let (ga, _gb) = kernel.backward(&Matrix::ones(2, 1));
        assert_eq!(ga.row(0), &[0.0, 0.0]);
    }

    /// Finite-difference check of the gradient with respect to both operands
    /// for the scalar loss `L = Σ w ⊙ S` with random weights `w`.
    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Matrix::random_uniform(3, 6, 1.0, &mut rng);
        let b = Matrix::random_uniform(4, 6, 1.0, &mut rng);
        let w = Matrix::random_uniform(3, 4, 1.0, &mut rng);
        let loss = |a: &Matrix, b: &Matrix| -> f32 {
            let mut kernel = CosineSimilarity::new();
            kernel.forward(a, b, false).hadamard(&w).sum()
        };
        let mut kernel = CosineSimilarity::new();
        let _ = kernel.forward(&a, &b, true);
        let (ga, gb) = kernel.backward(&w);
        let eps = 1e-3f32;
        for _ in 0..10 {
            let r = rng.gen_range(0..3);
            let c = rng.gen_range(0..6);
            let mut plus = a.clone();
            plus.set(r, c, plus.get(r, c) + eps);
            let mut minus = a.clone();
            minus.set(r, c, minus.get(r, c) - eps);
            let numeric = (loss(&plus, &b) - loss(&minus, &b)) / (2.0 * eps);
            assert!(
                (numeric - ga.get(r, c)).abs() < 5e-2,
                "grad_a mismatch at ({r},{c}): numeric {numeric} vs analytic {}",
                ga.get(r, c)
            );
        }
        for _ in 0..10 {
            let r = rng.gen_range(0..4);
            let c = rng.gen_range(0..6);
            let mut plus = b.clone();
            plus.set(r, c, plus.get(r, c) + eps);
            let mut minus = b.clone();
            minus.set(r, c, minus.get(r, c) - eps);
            let numeric = (loss(&a, &plus) - loss(&a, &minus)) / (2.0 * eps);
            assert!(
                (numeric - gb.get(r, c)).abs() < 5e-2,
                "grad_b mismatch at ({r},{c}): numeric {numeric} vs analytic {}",
                gb.get(r, c)
            );
        }
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_requires_forward() {
        let mut kernel = CosineSimilarity::new();
        let _ = kernel.backward(&Matrix::ones(1, 1));
    }

    #[test]
    fn temperature_scales_logits() {
        let mut temp = TemperatureScale::new(0.5);
        let sims = Matrix::from_rows(&[vec![0.2, -0.4]]);
        let logits = temp.forward(&sims, false);
        assert!((logits.get(0, 0) - 0.4).abs() < 1e-6);
        assert!((logits.get(0, 1) + 0.8).abs() < 1e-6);
        assert_eq!(temp.num_params(), 1);
        assert!(temp.is_learnable());
    }

    #[test]
    fn temperature_gradient_matches_finite_differences() {
        let sims = Matrix::from_rows(&[vec![0.3, -0.7], vec![0.1, 0.9]]);
        let upstream = Matrix::from_rows(&[vec![1.0, 2.0], vec![-1.0, 0.5]]);
        let k0 = 0.7f32;
        let mut temp = TemperatureScale::new(k0);
        let _ = temp.forward(&sims, true);
        let grad_sims = temp.backward(&upstream);
        // Analytic gradient of sims is upstream / K.
        assert!(grad_sims.max_abs_diff(&upstream.scale(1.0 / k0)) < 1e-6);
        // Finite differences for K on loss = Σ upstream ⊙ (sims / K).
        let loss = |k: f32| -> f32 { upstream.hadamard(&sims.scale(1.0 / k)).sum() };
        let eps = 1e-3;
        let numeric = (loss(k0 + eps) - loss(k0 - eps)) / (2.0 * eps);
        let mut analytic = 0.0;
        temp.visit_params(&mut |p| analytic = p.grad().expect("a backward pass").get(0, 0));
        assert!((numeric - analytic).abs() < 1e-2);
    }

    #[test]
    fn fixed_temperature_has_no_params() {
        let mut temp = TemperatureScale::fixed(0.07);
        assert_eq!(temp.num_params(), 0);
        let mut visited = 0;
        temp.visit_params(&mut |_| visited += 1);
        assert_eq!(visited, 0);
    }

    #[test]
    fn clamp_enforces_lower_bound() {
        let mut temp = TemperatureScale::new(0.5);
        temp.k.values.set(0, 0, -3.0);
        temp.clamp();
        assert_eq!(temp.k(), TemperatureScale::MIN_K);
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn rejects_non_positive_temperature() {
        let _ = TemperatureScale::new(0.0);
    }
}
