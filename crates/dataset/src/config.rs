//! Dataset generation configuration.

use crate::backbone::BackboneKind;
use crate::instances::InstanceNoise;
use serde::{Deserialize, Serialize};

/// Configuration of the synthetic CUB-200-like dataset generator.
///
/// The defaults mirror the real dataset: 200 classes with ~59 images each
/// (11,788 images total) and 2048-dimensional backbone features. Smaller
/// presets are provided for unit tests ([`DatasetConfig::tiny`]) and for the
/// hyper-parameter sweeps ([`DatasetConfig::reduced`]), which the experiment
/// harnesses document in `EXPERIMENTS.md`.
///
/// # Example
///
/// ```
/// use dataset::DatasetConfig;
///
/// let full = DatasetConfig::cub200_full(0);
/// assert_eq!(full.num_classes, 200);
/// let tiny = DatasetConfig::tiny(0);
/// assert!(tiny.num_classes < full.num_classes);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DatasetConfig {
    /// Number of classes `C`.
    pub num_classes: usize,
    /// Number of images sampled per class.
    pub images_per_class: usize,
    /// Simulated backbone architecture.
    pub backbone: BackboneKind,
    /// Backbone feature dimensionality `d'` (2048 for the full simulation;
    /// smaller values speed up tests without changing the code paths).
    pub feature_dim: usize,
    /// Instance-level annotation noise.
    pub noise: InstanceNoise,
    /// Multiplier on the backbone's per-feature noise (1.0 = the
    /// architecture's nominal noise; larger values make the simulated
    /// recognition task harder).
    pub feature_noise_scale: f32,
    /// Number of class families (genera). `0` makes every class independent;
    /// a positive value groups classes into families whose members differ in
    /// only [`DatasetConfig::family_distinct_groups`] attribute groups —
    /// the fine-grained regime of CUB-200.
    pub num_families: usize,
    /// Number of attribute groups in which a class differs from its family
    /// prototype (ignored when `num_families == 0`).
    pub family_distinct_groups: usize,
    /// Master seed: class attributes, instances and the backbone are all
    /// derived deterministically from it.
    pub seed: u64,
}

impl DatasetConfig {
    /// Full-scale configuration matching the real CUB-200-2011 statistics
    /// (200 classes × 59 images ≈ 11,800 images, 2048-d features).
    pub fn cub200_full(seed: u64) -> Self {
        Self {
            num_classes: 200,
            images_per_class: 59,
            backbone: BackboneKind::ResNet50,
            feature_dim: BackboneKind::ResNet50.feature_dim(),
            noise: InstanceNoise::default(),
            feature_noise_scale: 1.0,
            num_families: 0,
            family_distinct_groups: 0,
            seed,
        }
    }

    /// Reduced configuration used by the experiment harnesses when a full run
    /// would be too slow (fewer images per class, 512-d features); the class
    /// count and attribute structure are unchanged so split protocols remain
    /// identical to the paper's.
    pub fn reduced(seed: u64) -> Self {
        Self {
            num_classes: 200,
            images_per_class: 12,
            backbone: BackboneKind::ResNet50,
            feature_dim: 256,
            noise: InstanceNoise::default(),
            feature_noise_scale: 1.0,
            num_families: 0,
            family_distinct_groups: 0,
            seed,
        }
    }

    /// Tiny configuration for unit tests: 20 classes, 6 images each, 64-d
    /// features.
    pub fn tiny(seed: u64) -> Self {
        Self {
            num_classes: 20,
            images_per_class: 6,
            backbone: BackboneKind::ResNet50,
            feature_dim: 64,
            noise: InstanceNoise::default(),
            feature_noise_scale: 1.0,
            num_families: 0,
            family_distinct_groups: 0,
            seed,
        }
    }

    /// Returns a copy with a different family structure (used to dial in the
    /// fine-grained difficulty of the synthetic task).
    #[must_use]
    pub fn with_families(mut self, num_families: usize, distinct_groups: usize) -> Self {
        self.num_families = num_families;
        self.family_distinct_groups = distinct_groups;
        self
    }

    /// Returns a copy with a different backbone architecture (used by the
    /// Table II ablation).
    #[must_use]
    pub fn with_backbone(mut self, backbone: BackboneKind) -> Self {
        self.backbone = backbone;
        self
    }

    /// Returns a copy with a different seed (used for the five-trial µ ± σ
    /// protocol).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Total number of images this configuration will generate.
    pub fn total_images(&self) -> usize {
        self.num_classes * self.images_per_class
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_config_matches_cub_statistics() {
        let cfg = DatasetConfig::cub200_full(1);
        assert_eq!(cfg.num_classes, 200);
        assert_eq!(cfg.total_images(), 11_800);
        assert_eq!(cfg.feature_dim, 2048);
    }

    #[test]
    fn builders_override_fields() {
        let cfg = DatasetConfig::tiny(1)
            .with_backbone(BackboneKind::ResNet101)
            .with_seed(9)
            .with_families(25, 4);
        assert_eq!(cfg.backbone, BackboneKind::ResNet101);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.num_families, 25);
        assert_eq!(cfg.family_distinct_groups, 4);
    }

    #[test]
    fn presets_default_to_the_easy_regime() {
        let cfg = DatasetConfig::reduced(0);
        assert_eq!(cfg.num_families, 0);
        assert_eq!(cfg.feature_noise_scale, 1.0);
    }

    #[test]
    fn presets_are_ordered_by_size() {
        assert!(DatasetConfig::tiny(0).total_images() < DatasetConfig::reduced(0).total_images());
        assert!(
            DatasetConfig::reduced(0).total_images() < DatasetConfig::cub200_full(0).total_images()
        );
    }
}
