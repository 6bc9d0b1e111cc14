//! Model and training configuration.

use crate::attribute_encoder::AttributeEncoderKind;
use dataset::BackboneKind;
use serde::{Deserialize, Serialize};

/// Architecture configuration of an HDC-ZSC model.
///
/// The defaults match the paper's preferred configuration: a ResNet50
/// backbone with an FC projection to `d = 1536` and the stationary HDC
/// attribute encoder (Table II, row 2).
///
/// # Example
///
/// ```
/// use hdc_zsc::ModelConfig;
///
/// let cfg = ModelConfig::paper_default();
/// assert_eq!(cfg.embedding_dim, 1536);
/// assert!(cfg.use_projection);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Backbone architecture (parameter accounting and feature simulation).
    pub backbone: BackboneKind,
    /// Whether an FC projection maps backbone features to `embedding_dim`.
    /// Without it the raw backbone features are used directly (Table II rows
    /// "ResNet50"/"ResNet101" where pre-training stage II is skipped).
    pub use_projection: bool,
    /// Shared embedding dimensionality `d`.
    pub embedding_dim: usize,
    /// Attribute encoder variant (stationary HDC codebooks vs trainable MLP).
    pub attribute_encoder: AttributeEncoderKind,
    /// Hidden width of the trainable-MLP attribute encoder (ignored for HDC).
    pub mlp_hidden_dim: usize,
    /// Initial value of the learnable temperature `K`.
    pub temperature: f32,
    /// Whether the temperature is trainable.
    pub learnable_temperature: bool,
    /// Seed for the stationary codebooks / MLP initialisation.
    pub seed: u64,
}

impl ModelConfig {
    /// The paper's preferred configuration: ResNet50 + FC, `d = 1536`, HDC
    /// attribute encoder.
    pub fn paper_default() -> Self {
        Self {
            backbone: BackboneKind::ResNet50,
            use_projection: true,
            embedding_dim: 1536,
            attribute_encoder: AttributeEncoderKind::Hdc,
            mlp_hidden_dim: 1024,
            temperature: 0.07,
            learnable_temperature: true,
            seed: 0,
        }
    }

    /// A small configuration for tests (64-dimensional embeddings).
    pub fn tiny() -> Self {
        Self {
            embedding_dim: 64,
            mlp_hidden_dim: 32,
            ..Self::paper_default()
        }
    }

    /// Returns a copy with a different embedding dimensionality.
    #[must_use]
    pub fn with_embedding_dim(mut self, d: usize) -> Self {
        self.embedding_dim = d;
        self
    }

    /// Returns a copy with/without the FC projection.
    #[must_use]
    pub fn with_projection(mut self, use_projection: bool) -> Self {
        self.use_projection = use_projection;
        self
    }

    /// Returns a copy with a different backbone.
    #[must_use]
    pub fn with_backbone(mut self, backbone: BackboneKind) -> Self {
        self.backbone = backbone;
        self
    }

    /// Returns a copy with a different attribute encoder kind.
    #[must_use]
    pub fn with_attribute_encoder(mut self, kind: AttributeEncoderKind) -> Self {
        self.attribute_encoder = kind;
        self
    }

    /// Returns a copy with a different seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Hyper-parameters of the phase-II / phase-III training loops.
///
/// Defaults follow §IV-A and Fig. 5: AdamW with default moments, cosine
/// annealing, ~10 epochs, batch size 16.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Initial learning rate.
    pub learning_rate: f32,
    /// AdamW decoupled weight decay.
    pub weight_decay: f32,
    /// Maximum positive-class weight for the phase-II weighted BCE.
    pub max_pos_weight: f32,
    /// Shuffling seed.
    pub seed: u64,
}

impl TrainConfig {
    /// The paper's best hyper-parameter combination (Fig. 5): ~10 epochs,
    /// batch 16, learning rate 1e-3, weight decay 1e-4.
    pub fn paper_default() -> Self {
        Self {
            epochs: 10,
            batch_size: 16,
            learning_rate: 1e-3,
            weight_decay: 1e-4,
            max_pos_weight: 20.0,
            seed: 0,
        }
    }

    /// A fast configuration for unit tests and examples.
    pub fn fast() -> Self {
        Self {
            epochs: 4,
            batch_size: 32,
            learning_rate: 3e-3,
            ..Self::paper_default()
        }
    }

    /// Returns a copy with a different epoch count.
    #[must_use]
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Returns a copy with a different batch size.
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Returns a copy with a different learning rate.
    #[must_use]
    pub fn with_learning_rate(mut self, lr: f32) -> Self {
        self.learning_rate = lr;
        self
    }

    /// Returns a copy with a different weight decay.
    #[must_use]
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Returns a copy with a different shuffling seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table_ii_preferred_row() {
        let cfg = ModelConfig::paper_default();
        assert_eq!(cfg.backbone, BackboneKind::ResNet50);
        assert!(cfg.use_projection);
        assert_eq!(cfg.embedding_dim, 1536);
        assert_eq!(cfg.attribute_encoder, AttributeEncoderKind::Hdc);
        assert_eq!(ModelConfig::default(), cfg);
    }

    #[test]
    fn builders_compose() {
        let cfg = ModelConfig::paper_default()
            .with_embedding_dim(2048)
            .with_projection(false)
            .with_backbone(BackboneKind::ResNet101)
            .with_attribute_encoder(AttributeEncoderKind::TrainableMlp)
            .with_seed(5);
        assert_eq!(cfg.embedding_dim, 2048);
        assert!(!cfg.use_projection);
        assert_eq!(cfg.backbone, BackboneKind::ResNet101);
        assert_eq!(cfg.attribute_encoder, AttributeEncoderKind::TrainableMlp);
        assert_eq!(cfg.seed, 5);
    }

    #[test]
    fn train_config_defaults_match_fig5_optimum() {
        let cfg = TrainConfig::paper_default();
        assert_eq!(cfg.epochs, 10);
        assert_eq!(cfg.batch_size, 16);
        assert!((cfg.learning_rate - 1e-3).abs() < 1e-9);
        assert_eq!(TrainConfig::default(), cfg);
        let fast = TrainConfig::fast()
            .with_epochs(2)
            .with_batch_size(8)
            .with_learning_rate(0.01)
            .with_weight_decay(0.0)
            .with_seed(3);
        assert_eq!(fast.epochs, 2);
        assert_eq!(fast.batch_size, 8);
        assert_eq!(fast.seed, 3);
    }
}
