//! The image encoder `γ(·)`: a frozen (simulated) backbone plus an optional
//! trainable FC projection to the shared embedding dimension.

use crate::checkpoint::CheckpointError;
use dataset::BackboneKind;
use nn::{init::Init, Layer, Linear, ParamTensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::Matrix;

/// The image encoder of the paper: backbone features (already extracted by
/// the `dataset` crate's simulated backbone) followed by an optional FC
/// projection `d' → d`.
///
/// Only the FC projection is trainable; the backbone stays frozen in phases
/// II and III, exactly as in Fig. 2/3 of the paper.
///
/// # Example
///
/// ```
/// use dataset::BackboneKind;
/// use hdc_zsc::ImageEncoder;
/// use tensor::Matrix;
///
/// let mut encoder = ImageEncoder::new(BackboneKind::ResNet50, 2048, Some(1536), 0);
/// let features = Matrix::ones(4, 2048);
/// let embeddings = encoder.forward(&features, false);
/// assert_eq!(embeddings.shape(), (4, 1536));
/// ```
#[derive(Debug, Clone)]
pub struct ImageEncoder {
    backbone: BackboneKind,
    feature_dim: usize,
    projection: Option<Linear>,
}

impl ImageEncoder {
    /// Assembles an encoder from its parts, checking that the projection
    /// (if any) ingests `feature_dim`-wide features. The model file loader
    /// builds image encoders through it.
    pub(crate) fn from_parts(
        backbone: BackboneKind,
        feature_dim: usize,
        projection: Option<Linear>,
    ) -> Result<Self, CheckpointError> {
        if feature_dim == 0 {
            return Err(CheckpointError::Malformed(
                "ImageEncoder: feature dimensionality must be positive".to_string(),
            ));
        }
        if let Some(fc) = &projection {
            if fc.in_features() != feature_dim {
                return Err(CheckpointError::Malformed(format!(
                    "ImageEncoder: projection expects {}-dimensional features, encoder declares {feature_dim}",
                    fc.in_features()
                )));
            }
        }
        Ok(Self {
            backbone,
            feature_dim,
            projection,
        })
    }

    /// Creates an image encoder for `backbone` features of width
    /// `feature_dim`. With `projection_dim = Some(d)` an FC layer projects to
    /// `d`; with `None` the features are used directly (and the embedding
    /// dimension equals `feature_dim`).
    ///
    /// # Panics
    ///
    /// Panics if `feature_dim == 0` or `projection_dim == Some(0)`.
    pub fn new(
        backbone: BackboneKind,
        feature_dim: usize,
        projection_dim: Option<usize>,
        seed: u64,
    ) -> Self {
        assert!(feature_dim > 0, "feature dimensionality must be positive");
        let projection = projection_dim.map(|d| {
            assert!(d > 0, "projection dimensionality must be positive");
            let mut rng = StdRng::seed_from_u64(seed);
            Linear::new(feature_dim, d, Init::XavierUniform, &mut rng)
        });
        Self {
            backbone,
            feature_dim,
            projection,
        }
    }

    /// The backbone architecture this encoder sits on.
    pub fn backbone(&self) -> BackboneKind {
        self.backbone
    }

    /// Width of the incoming backbone features (`d'`).
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// Output embedding dimensionality `d` (the projection width, or the
    /// feature width if no projection is used).
    pub fn embedding_dim(&self) -> usize {
        self.projection
            .as_ref()
            .map_or(self.feature_dim, Linear::out_features)
    }

    /// Whether the encoder has a trainable FC projection.
    pub fn has_projection(&self) -> bool {
        self.projection.is_some()
    }

    /// The FC projection, if the encoder has one.
    pub(crate) fn projection(&self) -> Option<&Linear> {
        self.projection.as_ref()
    }

    /// Immutable inference forward: maps backbone features (`B×d'`) to
    /// embeddings (`B×d`) through `&self`, caching nothing. Bit-identical to
    /// [`ImageEncoder::forward`]; this is the path a shared
    /// [`FrozenModel`](crate::FrozenModel) serves queries through.
    ///
    /// # Panics
    ///
    /// Panics if `features.cols() != self.feature_dim()`.
    pub fn infer(&self, features: &Matrix) -> Matrix {
        assert_eq!(
            features.cols(),
            self.feature_dim,
            "expected {}-dimensional backbone features, got {}",
            self.feature_dim,
            features.cols()
        );
        match &self.projection {
            Some(fc) => fc.infer(features),
            None => features.clone(),
        }
    }

    /// Maps backbone features (`B×d'`) to embeddings (`B×d`). With `train`
    /// set, activations are cached for [`ImageEncoder::backward`];
    /// inference calls delegate to [`ImageEncoder::infer`].
    ///
    /// # Panics
    ///
    /// Panics if `features.cols() != self.feature_dim()`.
    pub fn forward(&mut self, features: &Matrix, train: bool) -> Matrix {
        if !train {
            return self.infer(features);
        }
        assert_eq!(
            features.cols(),
            self.feature_dim,
            "expected {}-dimensional backbone features, got {}",
            self.feature_dim,
            features.cols()
        );
        match &mut self.projection {
            Some(fc) => fc.forward_train(features),
            None => features.clone(),
        }
    }

    /// Back-propagates the gradient of the loss with respect to the
    /// embeddings into the FC projection (a no-op without a projection, since
    /// the backbone is frozen either way).
    pub fn backward(&mut self, grad_embeddings: &Matrix) {
        if let Some(fc) = &mut self.projection {
            let _ = fc.backward(grad_embeddings);
        }
    }

    /// Number of trainable parameters (the FC projection only).
    pub fn num_trainable_params(&self) -> usize {
        self.projection.as_ref().map_or(0, Layer::num_params)
    }

    /// Visits the trainable parameters.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut ParamTensor)) {
        if let Some(fc) = &mut self.projection {
            fc.visit_params(f);
        }
    }

    /// Read-only visitation of the trainable parameters, in the same order
    /// as [`ImageEncoder::visit_params`].
    pub fn visit_params_ref(&self, f: &mut dyn FnMut(&ParamTensor)) {
        if let Some(fc) = &self.projection {
            fc.visit_params_ref(f);
        }
    }

    /// Zeroes accumulated gradients.
    pub fn zero_grad(&mut self) {
        if let Some(fc) = &mut self.projection {
            fc.zero_grad();
        }
    }

    /// Drops the projection's gradients and cached activations.
    pub(crate) fn clear_training_state(&mut self) {
        if let Some(fc) = &mut self.projection {
            fc.clear_training_state();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_changes_embedding_dim() {
        let mut with_fc = ImageEncoder::new(BackboneKind::ResNet50, 128, Some(64), 1);
        assert!(with_fc.has_projection());
        assert_eq!(with_fc.embedding_dim(), 64);
        assert_eq!(with_fc.feature_dim(), 128);
        assert_eq!(with_fc.backbone(), BackboneKind::ResNet50);
        assert_eq!(with_fc.num_trainable_params(), 128 * 64 + 64);
        let out = with_fc.forward(&Matrix::ones(3, 128), false);
        assert_eq!(out.shape(), (3, 64));
    }

    #[test]
    fn identity_encoder_passes_features_through() {
        let mut plain = ImageEncoder::new(BackboneKind::ResNet101, 96, None, 1);
        assert!(!plain.has_projection());
        assert_eq!(plain.embedding_dim(), 96);
        assert_eq!(plain.num_trainable_params(), 0);
        let x = Matrix::from_rows(&[vec![0.5; 96]]);
        let out = plain.forward(&x, true);
        assert_eq!(out, x);
        // backward must be a no-op (no panic).
        plain.backward(&Matrix::ones(1, 96));
        plain.zero_grad();
        let mut visits = 0;
        plain.visit_params(&mut |_| visits += 1);
        assert_eq!(visits, 0);
    }

    #[test]
    fn backward_accumulates_projection_gradients() {
        let mut enc = ImageEncoder::new(BackboneKind::ResNet50, 16, Some(8), 2);
        let x = Matrix::ones(2, 16);
        let out = enc.forward(&x, true);
        enc.zero_grad();
        enc.backward(&out);
        let mut grad_norm = 0.0;
        enc.visit_params(&mut |p| grad_norm += p.grad_norm());
        assert!(grad_norm > 0.0);
        enc.zero_grad();
        let mut grad_norm_after = 0.0;
        enc.visit_params(&mut |p| grad_norm_after += p.grad_norm());
        assert_eq!(grad_norm_after, 0.0);
    }

    #[test]
    fn forward_is_deterministic_in_seed() {
        let mut a = ImageEncoder::new(BackboneKind::ResNet50, 32, Some(16), 3);
        let mut b = ImageEncoder::new(BackboneKind::ResNet50, 32, Some(16), 3);
        let x = Matrix::ones(1, 32);
        assert_eq!(a.forward(&x, false), b.forward(&x, false));
    }

    #[test]
    #[should_panic(expected = "expected 32-dimensional backbone features")]
    fn wrong_feature_width_panics() {
        let mut enc = ImageEncoder::new(BackboneKind::ResNet50, 32, Some(16), 4);
        let _ = enc.forward(&Matrix::ones(1, 64), false);
    }
}
