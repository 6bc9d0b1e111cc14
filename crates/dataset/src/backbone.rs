//! Simulated pretrained image backbones (phase-I stand-in).
//!
//! The paper's image encoder starts from a ResNet50 (or ResNet101) that was
//! pre-trained on ImageNet1K (phase I). Training CNNs on pixel data is out of
//! scope for this reproduction (see DESIGN.md §1); instead,
//! [`SyntheticBackbone`] plays the role of the *already pre-trained* backbone:
//! a fixed random non-linear projection from an image's ground-truth
//! attribute realisation (plus instance noise and nuisance directions) to a
//! `d' = 2048`-dimensional feature vector.
//!
//! What matters for the downstream contribution is preserved:
//!
//! * the features carry attribute information in an *entangled, distributed*
//!   form (a linear readout cannot trivially invert them — the FC projection
//!   has to be trained, as in phase II/III);
//! * the mapping is *shared across classes*, so a projection trained on seen
//!   classes transfers to unseen classes — the mechanism zero-shot transfer
//!   relies on;
//! * feature quality differs between backbone variants (the ResNet101
//!   simulation is noisier, matching the paper's Table II observation that
//!   the larger backbone does not pay off);
//! * parameter counts use the real torchvision numbers so Fig. 4 / Table II
//!   model sizes are realistic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use tensor::Matrix;

/// The backbone architectures examined in Table II of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BackboneKind {
    /// ResNet50 (the paper's preferred backbone).
    ResNet50,
    /// ResNet101 (larger, but not better on this task — Table II).
    ResNet101,
}

impl BackboneKind {
    /// Dimensionality of the backbone's penultimate feature vector (`d'`).
    pub fn feature_dim(self) -> usize {
        2048
    }

    /// Number of parameters of the real architecture (torchvision counts,
    /// used for the model-size axis of Fig. 4 and Table II).
    pub fn param_count(self) -> usize {
        match self {
            BackboneKind::ResNet50 => 25_557_032,
            BackboneKind::ResNet101 => 44_549_160,
        }
    }

    /// Standard deviation of the per-feature noise of the simulated backbone.
    ///
    /// The ResNet101 simulation is noisier: with the small fine-grained
    /// dataset the larger backbone generalises slightly worse, reproducing
    /// the ordering observed in Table II.
    fn feature_noise(self) -> f32 {
        match self {
            BackboneKind::ResNet50 => 0.30,
            BackboneKind::ResNet101 => 0.55,
        }
    }

    /// Human-readable architecture name.
    pub fn name(self) -> &'static str {
        match self {
            BackboneKind::ResNet50 => "ResNet50",
            BackboneKind::ResNet101 => "ResNet101",
        }
    }
}

impl std::fmt::Display for BackboneKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A frozen, simulated, ImageNet-pretrained image backbone.
///
/// # Example
///
/// ```
/// use dataset::{BackboneKind, SyntheticBackbone};
///
/// let backbone = SyntheticBackbone::pretrain(BackboneKind::ResNet50, 312, 99);
/// let attributes = vec![0.0; 312];
/// let features = backbone.features(&attributes, 7);
/// assert_eq!(features.len(), 2048);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticBackbone {
    kind: BackboneKind,
    /// Fixed random projection `α × d'` (the "pretrained weights").
    projection: Matrix,
    /// Fixed random per-feature bias.
    bias: Vec<f32>,
    /// Second-order mixing matrix `d' × d'` applied after the non-linearity,
    /// entangling the attribute directions.
    mixing: Matrix,
    noise_std: f32,
    alpha: usize,
    feature_dim: usize,
}

impl SyntheticBackbone {
    /// "Pre-trains" (constructs) a backbone: the projection, bias and mixing
    /// matrices are drawn once from `seed` and then frozen, playing the role
    /// of the ImageNet phase-I weights. The feature dimensionality is the
    /// architecture's native `d' = 2048`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha == 0`.
    pub fn pretrain(kind: BackboneKind, alpha: usize, seed: u64) -> Self {
        Self::pretrain_with_dim(kind, alpha, kind.feature_dim(), seed)
    }

    /// Like [`SyntheticBackbone::pretrain`] but with an explicit feature
    /// dimensionality — used by tests and scaled-down experiments where the
    /// full 2048-dimensional simulation would be unnecessarily slow.
    ///
    /// # Panics
    ///
    /// Panics if `alpha == 0` or `feature_dim == 0`.
    pub fn pretrain_with_dim(
        kind: BackboneKind,
        alpha: usize,
        feature_dim: usize,
        seed: u64,
    ) -> Self {
        assert!(alpha > 0, "attribute dimensionality must be positive");
        assert!(feature_dim > 0, "feature dimensionality must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let d = feature_dim;
        let scale = 1.0 / (alpha as f32).sqrt();
        let projection = Matrix::random_normal(alpha, d, 0.0, scale, &mut rng);
        let bias: Vec<f32> = (0..d).map(|_| rng.gen_range(-0.1..0.1)).collect();
        // A sparse orthogonal-ish mixing step: each output feature blends a
        // handful of post-activation features, further entangling attributes.
        let mut mixing = Matrix::zeros(d, d);
        for r in 0..d {
            mixing.set(r, r, 1.0);
            for _ in 0..3 {
                let c = rng.gen_range(0..d);
                mixing.set(r, c, mixing.get(r, c) + rng.gen_range(-0.3f32..0.3));
            }
        }
        Self {
            kind,
            projection,
            bias,
            mixing,
            noise_std: kind.feature_noise(),
            alpha,
            feature_dim: d,
        }
    }

    /// Returns a copy whose per-feature noise is scaled by `scale` (≥ 0).
    /// Used to control the difficulty of the simulated recognition task
    /// without changing the architecture accounting.
    #[must_use]
    pub fn with_noise_scale(mut self, scale: f32) -> Self {
        assert!(scale >= 0.0, "noise scale must be non-negative");
        self.noise_std = self.kind.feature_noise() * scale;
        self
    }

    /// The simulated architecture.
    pub fn kind(&self) -> BackboneKind {
        self.kind
    }

    /// Output feature dimensionality `d'`.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// Attribute dimensionality `α` the backbone was built for.
    pub fn alpha(&self) -> usize {
        self.alpha
    }

    /// Parameter count of the simulated architecture (real ResNet numbers).
    pub fn param_count(&self) -> usize {
        self.kind.param_count()
    }

    /// Extracts features for one image given its binary/continuous attribute
    /// realisation. `instance_seed` individualises the augmentation noise so
    /// repeated calls for the same instance are deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `attributes.len() != self.alpha()`.
    pub fn features(&self, attributes: &[f32], instance_seed: u64) -> Vec<f32> {
        assert_eq!(
            attributes.len(),
            self.alpha,
            "expected {} attribute entries, got {}",
            self.alpha,
            attributes.len()
        );
        let mut rng = StdRng::seed_from_u64(instance_seed);
        let d = self.feature_dim();
        // Attribute jitter models imperfect visual evidence (occlusion, pose).
        let jittered: Vec<f32> = attributes
            .iter()
            .map(|&a| a + rng.gen_range(-0.05f32..0.05))
            .collect();
        // Linear projection + bias + tanh non-linearity.
        let mut hidden = vec![0.0f32; d];
        for (i, &a) in jittered.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            let row = self.projection.row(i);
            for (h, &w) in hidden.iter_mut().zip(row) {
                *h += a * w;
            }
        }
        for (h, &b) in hidden.iter_mut().zip(&self.bias) {
            *h = (*h * 3.0 + b).tanh();
        }
        // Mixing + per-feature Gaussian noise.
        self.mixing
            .matvec(&hidden)
            .iter()
            .map(|&x| {
                let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
                let u2: f32 = rng.gen_range(0.0..1.0);
                let noise = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
                x + self.noise_std * noise
            })
            .collect()
    }

    /// Extracts features for a batch of attribute realisations (`N×α`),
    /// producing an `N×d'` feature matrix. Row `i` uses
    /// `base_seed + i` as its instance seed.
    ///
    /// # Panics
    ///
    /// Panics if `attributes.cols() != self.alpha()`.
    pub fn features_batch(&self, attributes: &Matrix, base_seed: u64) -> Matrix {
        let rows: Vec<Vec<f32>> = (0..attributes.rows())
            .map(|r| self.features(attributes.row(r), base_seed.wrapping_add(r as u64)))
            .collect();
        if rows.is_empty() {
            Matrix::zeros(0, self.feature_dim())
        } else {
            Matrix::from_rows(&rows)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cosine similarity of two feature rows (0 when either is ~zero).
    fn cosine(a: &[f32], b: &[f32]) -> f32 {
        let dot = |x: &[f32], y: &[f32]| x.iter().zip(y).map(|(p, q)| p * q).sum::<f32>();
        let denom = dot(a, a).sqrt() * dot(b, b).sqrt();
        if denom < 1e-12 {
            0.0
        } else {
            dot(a, b) / denom
        }
    }

    #[test]
    fn kinds_report_real_parameter_counts() {
        assert_eq!(BackboneKind::ResNet50.param_count(), 25_557_032);
        assert_eq!(BackboneKind::ResNet101.param_count(), 44_549_160);
        assert!(BackboneKind::ResNet101.param_count() > BackboneKind::ResNet50.param_count());
        assert_eq!(BackboneKind::ResNet50.feature_dim(), 2048);
        assert_eq!(BackboneKind::ResNet50.to_string(), "ResNet50");
        assert!(BackboneKind::ResNet101.feature_noise() > BackboneKind::ResNet50.feature_noise());
    }

    #[test]
    fn pretraining_is_deterministic() {
        let a = SyntheticBackbone::pretrain(BackboneKind::ResNet50, 312, 1);
        let b = SyntheticBackbone::pretrain(BackboneKind::ResNet50, 312, 1);
        assert_eq!(a, b);
        let c = SyntheticBackbone::pretrain(BackboneKind::ResNet50, 312, 2);
        assert_ne!(a, c);
    }

    #[test]
    fn features_are_deterministic_per_instance_seed() {
        let backbone = SyntheticBackbone::pretrain(BackboneKind::ResNet50, 32, 3);
        let attrs = vec![1.0; 32];
        let f1 = backbone.features(&attrs, 10);
        let f2 = backbone.features(&attrs, 10);
        let f3 = backbone.features(&attrs, 11);
        assert_eq!(f1, f2);
        assert_ne!(
            f1, f3,
            "different instance seeds give different augmentations"
        );
        assert_eq!(f1.len(), 2048);
    }

    #[test]
    fn different_attribute_patterns_give_distinguishable_features() {
        let backbone = SyntheticBackbone::pretrain(BackboneKind::ResNet50, 64, 4);
        let mut a = vec![0.0f32; 64];
        let mut b = vec![0.0f32; 64];
        for i in 0..16 {
            a[i] = 1.0;
            b[63 - i] = 1.0;
        }
        let fa = backbone.features(&a, 1);
        let fb = backbone.features(&b, 2);
        let fa2 = backbone.features(&a, 3);
        // Same attribute pattern under different augmentation is much closer
        // than different patterns.
        assert!(cosine(&fa, &fa2) > cosine(&fa, &fb) + 0.1);
    }

    #[test]
    fn resnet101_features_are_noisier() {
        let r50 = SyntheticBackbone::pretrain(BackboneKind::ResNet50, 64, 5);
        let r101 = SyntheticBackbone::pretrain(BackboneKind::ResNet101, 64, 5);
        let attrs: Vec<f32> = (0..64)
            .map(|i| if i % 4 == 0 { 1.0 } else { 0.0 })
            .collect();
        let self_sim =
            |b: &SyntheticBackbone| cosine(&b.features(&attrs, 100), &b.features(&attrs, 200));
        assert!(self_sim(&r50) > self_sim(&r101));
    }

    #[test]
    fn batch_features_match_single_calls() {
        let backbone = SyntheticBackbone::pretrain(BackboneKind::ResNet50, 16, 6);
        let attrs = Matrix::from_rows(&[vec![1.0; 16], vec![0.0; 16]]);
        let batch = backbone.features_batch(&attrs, 500);
        assert_eq!(batch.shape(), (2, 2048));
        assert_eq!(batch.row(0), &backbone.features(&[1.0; 16], 500)[..]);
        assert_eq!(batch.row(1), &backbone.features(&[0.0; 16], 501)[..]);
        assert_eq!(backbone.features_batch(&Matrix::zeros(0, 16), 0).rows(), 0);
    }

    #[test]
    fn custom_feature_dim_is_respected() {
        let backbone = SyntheticBackbone::pretrain_with_dim(BackboneKind::ResNet50, 16, 64, 8);
        assert_eq!(backbone.feature_dim(), 64);
        assert_eq!(backbone.features(&[0.5; 16], 1).len(), 64);
        // Parameter accounting still reports the real architecture size.
        assert_eq!(backbone.param_count(), 25_557_032);
    }

    #[test]
    #[should_panic(expected = "expected 16 attribute entries")]
    fn wrong_attribute_length_panics() {
        let backbone = SyntheticBackbone::pretrain(BackboneKind::ResNet50, 16, 7);
        let _ = backbone.features(&[0.0; 8], 0);
    }
}
