//! Model-size accounting for the Pareto analysis of Fig. 4 and the model
//! comparison of Table II.
//!
//! The paper reports **26.6 M** trainable parameters for HDC-ZSC: the
//! ResNet50 trunk (without its ImageNet classification head) plus the FC
//! projection; the stationary HDC attribute encoder contributes none. The
//! helpers here reproduce that accounting so the harnesses can place every
//! model on the same parameter axis as the paper.

use crate::model::ZscModel;
use dataset::BackboneKind;
use serde::{Deserialize, Serialize};

/// Parameters of the ImageNet classification head (`2048 × 1000 + 1000`)
/// that is discarded after phase I and therefore excluded from the model
/// size, as in the paper's 26.6 M figure.
const IMAGENET_HEAD_PARAMS: usize = 2048 * 1000 + 1000;

/// Returns the backbone trunk size: the full architecture minus the ImageNet
/// classification head.
pub fn backbone_trunk_params(kind: BackboneKind) -> usize {
    kind.param_count() - IMAGENET_HEAD_PARAMS
}

/// A per-component breakdown of a model's parameter count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParameterBreakdown {
    /// Backbone trunk parameters (frozen after phase II, but part of the
    /// deployed model and of the paper's Fig. 4 axis).
    pub backbone: usize,
    /// FC projection parameters.
    pub projection: usize,
    /// Trainable attribute-encoder parameters (0 for the HDC encoder).
    pub attribute_encoder: usize,
    /// Temperature parameters (1 when learnable).
    pub temperature: usize,
}

impl ParameterBreakdown {
    /// Computes the breakdown of a model, combining the simulated backbone's
    /// *real-architecture* parameter count with the actual trainable
    /// parameter counts of the Rust components. Accounting is read-only
    /// (`&self` everywhere), so it also runs against a shared
    /// [`FrozenModel`](crate::FrozenModel).
    pub fn of(model: &ZscModel) -> Self {
        let backbone = backbone_trunk_params(model.image_encoder().backbone());
        // Count the components separately through the visitation order:
        // image encoder first, then temperature, then attribute encoder.
        let projection = model.image_encoder().num_trainable_params();
        let attribute_encoder = model.attribute_encoder().num_trainable_params();
        let temperature = model.num_trainable_params() - projection - attribute_encoder;
        Self {
            backbone,
            projection,
            attribute_encoder,
            temperature,
        }
    }

    /// Total deployed-model parameter count (the Fig. 4 x-axis).
    pub fn total(&self) -> usize {
        self.backbone + self.projection + self.attribute_encoder + self.temperature
    }

    /// Parameters updated during phases II/III (everything except the frozen
    /// backbone trunk).
    pub fn trainable(&self) -> usize {
        self.projection + self.attribute_encoder + self.temperature
    }

    /// Total in millions, as plotted in Fig. 4.
    pub fn total_millions(&self) -> f32 {
        self.total() as f32 / 1.0e6
    }
}

impl std::fmt::Display for ParameterBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.1}M total (backbone {:.1}M, projection {:.2}M, attribute encoder {:.2}M)",
            self.total_millions(),
            self.backbone as f32 / 1e6,
            self.projection as f32 / 1e6,
            self.attribute_encoder as f32 / 1e6
        )
    }
}

/// Parameter count of the paper's preferred HDC-ZSC configuration
/// (ResNet50 trunk + FC 2048→1536), for cross-checking against the published
/// 26.6 M figure without building a model.
pub fn paper_hdc_zsc_params() -> usize {
    backbone_trunk_params(BackboneKind::ResNet50) + 2048 * 1536 + 1536
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute_encoder::AttributeEncoderKind;
    use crate::config::ModelConfig;
    use dataset::AttributeSchema;

    #[test]
    fn trunk_excludes_imagenet_head() {
        assert_eq!(
            backbone_trunk_params(BackboneKind::ResNet50),
            25_557_032 - IMAGENET_HEAD_PARAMS
        );
        assert!(
            backbone_trunk_params(BackboneKind::ResNet101)
                > backbone_trunk_params(BackboneKind::ResNet50)
        );
    }

    #[test]
    fn paper_headline_parameter_count_is_26_6_million() {
        let total = paper_hdc_zsc_params() as f32 / 1e6;
        assert!(
            (total - 26.6).abs() < 0.2,
            "expected ≈26.6M parameters, computed {total:.2}M"
        );
    }

    #[test]
    fn breakdown_of_full_scale_model_matches_paper() {
        let schema = AttributeSchema::cub200();
        let model = ZscModel::new(&ModelConfig::paper_default(), &schema, 2048);
        let breakdown = ParameterBreakdown::of(&model);
        assert_eq!(breakdown.attribute_encoder, 0, "HDC encoder is stationary");
        assert_eq!(breakdown.projection, 2048 * 1536 + 1536);
        assert_eq!(breakdown.temperature, 1);
        assert!((breakdown.total_millions() - 26.6).abs() < 0.2);
        assert!(breakdown.trainable() < breakdown.total());
        assert!(format!("{breakdown}").contains("total"));
    }

    #[test]
    fn mlp_variant_has_more_trainable_params() {
        let schema = AttributeSchema::cub200();
        let hdc_model = ZscModel::new(&ModelConfig::tiny(), &schema, 48);
        let mlp_model = ZscModel::new(
            &ModelConfig::tiny().with_attribute_encoder(AttributeEncoderKind::TrainableMlp),
            &schema,
            48,
        );
        let hdc = ParameterBreakdown::of(&hdc_model);
        let mlp = ParameterBreakdown::of(&mlp_model);
        assert!(mlp.attribute_encoder > 0);
        assert!(mlp.total() > hdc.total());
        assert_eq!(hdc.backbone, mlp.backbone);
    }
}
