//! The assembled HDC-ZSC model: image encoder + attribute encoder +
//! similarity kernel + temperature.

use crate::attribute_encoder::{AttributeEncoder, AttributeEncoderKind};
use crate::checkpoint::CheckpointError;
use crate::config::ModelConfig;
use crate::image_encoder::ImageEncoder;
use dataset::AttributeSchema;
use engine::{Pool, ShardedClassMemory};
use nn::{CosineSimilarity, ParamTensor, TemperatureScale};
use tensor::Matrix;

/// A complete zero-shot classification model in the architecture of Fig. 1:
/// `γ(·)` (image encoder), `ϕ(·)` (attribute encoder) and the cosine
/// similarity kernel with learnable temperature.
///
/// The same model object supports both tasks of the paper:
///
/// * **attribute extraction** (phase II): [`ZscModel::attribute_logits`]
///   compares image embeddings against the stationary attribute dictionary
///   `B` (312 rows);
/// * **zero-shot classification** (phase III and inference):
///   [`ZscModel::class_logits`] compares image embeddings against class
///   embeddings `ϕ(A) = A × B` (or the trainable-MLP encoding of `A`).
///
/// # Inference vs. training receivers
///
/// Every inference entry point — [`ZscModel::embed_images`],
/// [`ZscModel::attribute_logits`], [`ZscModel::class_logits`],
/// [`ZscModel::predict`], the packed/sharded class-memory exports — takes
/// `&self`: the forward passes cache nothing, so a model wrapped in a
/// [`FrozenModel`](crate::FrozenModel) can serve any number of concurrent
/// readers without a single deep copy. The `&mut self` training handles
/// ([`ZscModel::attribute_logits_train`], [`ZscModel::class_logits_train`],
/// the `backward_*` pair, `visit_params`) stay with the trainers and produce
/// bit-identical forward values.
///
/// # Example
///
/// ```
/// use dataset::AttributeSchema;
/// use hdc_zsc::{ModelConfig, ZscModel};
/// use tensor::Matrix;
///
/// let schema = AttributeSchema::cub200();
/// let model = ZscModel::new(&ModelConfig::tiny(), &schema, 64);
/// let features = Matrix::ones(2, 64);
/// let class_attributes = Matrix::ones(5, 312);
/// // Inference needs only `&self` — the model can be shared as-is.
/// let logits = model.class_logits(&features, &class_attributes);
/// assert_eq!(logits.shape(), (2, 5));
/// ```
#[derive(Debug, Clone)]
pub struct ZscModel {
    config: ModelConfig,
    image_encoder: ImageEncoder,
    attribute_encoder: AttributeEncoder,
    kernel: CosineSimilarity,
    temperature: TemperatureScale,
    /// Thread pool used by the batched inference (`train = false`) scoring
    /// paths; similarities are bit-identical for every pool width.
    inference_pool: Pool,
}

impl ZscModel {
    /// Builds a model for backbone features of width `feature_dim`.
    ///
    /// The embedding dimension is `config.embedding_dim` when the FC
    /// projection is enabled, otherwise `feature_dim` (Table II rows without
    /// the FC layer).
    pub fn new(config: &ModelConfig, schema: &AttributeSchema, feature_dim: usize) -> Self {
        let embedding_dim = if config.use_projection {
            config.embedding_dim
        } else {
            feature_dim
        };
        let image_encoder = ImageEncoder::new(
            config.backbone,
            feature_dim,
            config.use_projection.then_some(embedding_dim),
            config.seed,
        );
        let attribute_encoder = AttributeEncoder::build(
            config.attribute_encoder,
            schema,
            embedding_dim,
            config.mlp_hidden_dim,
            attribute_encoder_seed(config),
        );
        Self::from_parts(
            *config,
            schema,
            image_encoder,
            attribute_encoder,
            config.temperature,
            config.learnable_temperature,
        )
        .expect("a model built from its configuration is consistent")
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The image encoder `γ(·)`.
    pub fn image_encoder(&self) -> &ImageEncoder {
        &self.image_encoder
    }

    /// The attribute encoder `ϕ(·)`.
    pub fn attribute_encoder(&self) -> &AttributeEncoder {
        &self.attribute_encoder
    }

    /// The attribute-encoder variant in use.
    pub fn attribute_encoder_kind(&self) -> AttributeEncoderKind {
        self.attribute_encoder.kind()
    }

    /// Embedding dimensionality `d`.
    pub fn embedding_dim(&self) -> usize {
        self.image_encoder.embedding_dim()
    }

    /// Current value of the temperature `K`.
    pub fn temperature(&self) -> f32 {
        self.temperature_scale().k()
    }

    fn temperature_scale(&self) -> &TemperatureScale {
        &self.temperature
    }

    /// The stationary attribute dictionary used for attribute extraction:
    /// the HDC encoder's own dictionary, or the MLP variant's.
    pub fn phase2_dictionary(&self) -> &Matrix {
        self.attribute_encoder.phase2_dictionary()
    }

    /// Image embeddings `γ(X)` for a batch of backbone features, through the
    /// immutable inference forward (`&self`, no caches).
    pub fn embed_images(&self, features: &Matrix) -> Matrix {
        self.image_encoder.infer(features)
    }

    // ------------------------------------------------------------------
    // Attribute extraction (phase II)
    // ------------------------------------------------------------------

    /// Attribute logits `q/K` for a batch of backbone features: the cosine
    /// similarity of every image embedding against every attribute
    /// codevector, scaled by the temperature so it can be consumed by a
    /// BCE-with-logits loss.
    ///
    /// Scored by the batched engine (`engine::dense`), which chunks the
    /// batch across threads and is bit-identical to the serial training
    /// kernel — and to [`ZscModel::attribute_logits_train`].
    pub fn attribute_logits(&self, features: &Matrix) -> Matrix {
        let embeddings = self.image_encoder.infer(features);
        let sims = engine::dense::cosine_scores(
            &embeddings,
            self.phase2_dictionary(),
            &self.inference_pool,
        );
        self.temperature.infer(&sims)
    }

    /// Training-mode variant of [`ZscModel::attribute_logits`]: runs the
    /// differentiable serial kernel and caches activations so
    /// [`ZscModel::backward_attribute`] can follow. Forward values are
    /// bit-identical to the inference path.
    pub fn attribute_logits_train(&mut self, features: &Matrix) -> Matrix {
        let embeddings = self.image_encoder.forward(features, true);
        let dictionary = self.attribute_encoder.phase2_dictionary();
        let sims = self.kernel.forward(&embeddings, dictionary, true);
        self.temperature.forward(&sims, true)
    }

    /// Back-propagates a gradient with respect to the attribute logits into
    /// the image encoder (the dictionary is stationary and receives no
    /// update).
    ///
    /// # Panics
    ///
    /// Panics if [`ZscModel::attribute_logits_train`] did not run first.
    pub fn backward_attribute(&mut self, grad_logits: &Matrix) {
        let grad_sims = self.temperature.backward(grad_logits);
        let (grad_embeddings, _grad_dictionary) = self.kernel.backward(&grad_sims);
        self.image_encoder.backward(&grad_embeddings);
    }

    // ------------------------------------------------------------------
    // Zero-shot classification (phase III / inference)
    // ------------------------------------------------------------------

    /// Class logits `cossim(γ(X), ϕ(A)) / K` for a batch of backbone features
    /// and a class-attribute matrix `A ∈ R^{C×α}`.
    ///
    /// Scored by the batched engine (`engine::dense`), which chunks the
    /// batch across an auto-sized thread pool and is bit-identical to the
    /// serial kernel — and to [`ZscModel::class_logits_train`].
    pub fn class_logits(&self, features: &Matrix, class_attributes: &Matrix) -> Matrix {
        let embeddings = self.image_encoder.infer(features);
        let class_embeddings = self.attribute_encoder.infer_classes(class_attributes);
        let sims =
            engine::dense::cosine_scores(&embeddings, &class_embeddings, &self.inference_pool);
        self.temperature.infer(&sims)
    }

    /// Training-mode variant of [`ZscModel::class_logits`]: runs the
    /// differentiable [`CosineSimilarity`] kernel and caches activations so
    /// [`ZscModel::backward_class`] can follow. Forward values are
    /// bit-identical to the inference path.
    pub fn class_logits_train(&mut self, features: &Matrix, class_attributes: &Matrix) -> Matrix {
        let embeddings = self.image_encoder.forward(features, true);
        let class_embeddings = self
            .attribute_encoder
            .encode_classes(class_attributes, true);
        let sims = self.kernel.forward(&embeddings, &class_embeddings, true);
        self.temperature.forward(&sims, true)
    }

    /// Packs the sign-binarized class signatures `sign(ϕ(A))` into an
    /// [`engine::ShardedClassMemory`] of `shards` shards, one row per
    /// class-attribute row, so trained models serve nearest-class queries
    /// through the engine's popcount path. The serving layer registers,
    /// updates and removes classes incrementally (repacking only the touched
    /// shard) while lookups stay bit-identical to one monolithic
    /// [`engine::PackedClassMemory`] for every shard count.
    ///
    /// # Panics
    ///
    /// Panics if the label count differs from `class_attributes.rows()` or
    /// `shards == 0`.
    pub fn sharded_class_memory<L, S>(
        &self,
        labels: L,
        class_attributes: &Matrix,
        shards: usize,
    ) -> ShardedClassMemory
    where
        L: IntoIterator<Item = S>,
        S: Into<std::sync::Arc<str>>,
    {
        let class_embeddings = self.attribute_encoder.infer_classes(class_attributes);
        ShardedClassMemory::from_sign_matrix(labels, &class_embeddings, shards)
    }

    /// Encodes one class-attribute row into its sign-binarized packed class
    /// signature — the row [`ZscModel::sharded_class_memory`] would store for
    /// it. This is the single-class primitive behind serve-time
    /// `register_class`: encoding one new class costs one attribute-encoder
    /// forward instead of re-encoding the whole class set.
    ///
    /// # Panics
    ///
    /// Panics if `attributes.len()` differs from the attribute encoder's
    /// expected width.
    pub fn packed_class_signature(&self, attributes: &[f32]) -> Vec<u64> {
        let row = Matrix::from_rows(&[attributes.to_vec()]);
        let embedding = self.attribute_encoder.infer_classes(&row);
        engine::pack_float_signs(embedding.row(0))
    }

    /// Back-propagates a gradient with respect to the class logits into the
    /// image encoder, the temperature, and (for the trainable-MLP variant)
    /// the attribute encoder.
    ///
    /// # Panics
    ///
    /// Panics if [`ZscModel::class_logits_train`] did not run first.
    pub fn backward_class(&mut self, grad_logits: &Matrix) {
        let grad_sims = self.temperature.backward(grad_logits);
        let (grad_embeddings, grad_class_embeddings) = self.kernel.backward(&grad_sims);
        self.image_encoder.backward(&grad_embeddings);
        self.attribute_encoder.backward(&grad_class_embeddings);
    }

    /// Predicts the class index (into the rows of `class_attributes`) of
    /// every feature row — the `argmax` rule of Eq. (2).
    pub fn predict(&self, features: &Matrix, class_attributes: &Matrix) -> Vec<usize> {
        self.class_logits(features, class_attributes).argmax_rows()
    }

    // ------------------------------------------------------------------
    // Parameter plumbing
    // ------------------------------------------------------------------

    /// Visits every trainable parameter (FC projection, temperature, and the
    /// MLP attribute encoder when present) in a fixed order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut ParamTensor)) {
        self.image_encoder.visit_params(f);
        self.temperature.visit_params(f);
        self.attribute_encoder.visit_params(f);
    }

    /// Read-only visitation of every trainable parameter, in the same fixed
    /// order as [`ZscModel::visit_params`] — parameter accounting through a
    /// shared frozen model.
    pub fn visit_params_ref(&self, f: &mut dyn FnMut(&ParamTensor)) {
        self.image_encoder.visit_params_ref(f);
        self.temperature.visit_params_ref(f);
        self.attribute_encoder.visit_params_ref(f);
    }

    /// Zeroes every accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.image_encoder.zero_grad();
        self.temperature.zero_grad();
        self.attribute_encoder.zero_grad();
    }

    /// Drops what training left behind — every gradient and every cached
    /// activation — keeping the weights in place.
    pub(crate) fn clear_training_state(&mut self) {
        self.image_encoder.clear_training_state();
        self.attribute_encoder.clear_training_state();
        self.kernel = CosineSimilarity::new(); // holds nothing but its cache
        self.temperature.clear_training_state();
    }

    /// Clamps the temperature after an optimizer step.
    pub fn post_step(&mut self) {
        self.temperature.clamp();
    }

    /// Number of trainable parameters, counted through the read-only
    /// visitation (no `&mut` needed).
    pub fn num_trainable_params(&self) -> usize {
        let mut n = 0;
        self.visit_params_ref(&mut |p| n += p.len());
        n
    }

    /// Consumes the model into an immutable, cheaply clonable
    /// [`FrozenModel`](crate::FrozenModel) — the `Send + Sync` handle the
    /// serving layer shares across threads without deep-copying weights.
    /// Gradients and cached activations are dropped on the way.
    pub fn freeze(self) -> crate::FrozenModel {
        crate::FrozenModel::new(self)
    }
}

/// The seed [`ZscModel::new`] draws the attribute encoder from (and with
/// it the MLP variant's phase-II dictionary); the model file loader redraws
/// that dictionary from it.
pub(crate) fn attribute_encoder_seed(config: &ModelConfig) -> u64 {
    config.seed.wrapping_add(1)
}

impl ZscModel {
    /// Assembles a model from its parts, checking that the encoders, the
    /// configuration and `schema`'s attribute count agree and that the
    /// temperature is a positive finite value. [`ZscModel::new`] and the
    /// model file loader build models through it.
    pub(crate) fn from_parts(
        config: ModelConfig,
        schema: &AttributeSchema,
        image_encoder: ImageEncoder,
        attribute_encoder: AttributeEncoder,
        temperature_k: f32,
        temperature_learnable: bool,
    ) -> Result<Self, CheckpointError> {
        let malformed = |msg: String| CheckpointError::Malformed(format!("ZscModel: {msg}"));
        let embedding_dim = image_encoder.embedding_dim();
        if attribute_encoder.dim() != embedding_dim {
            return Err(malformed(format!(
                "attribute encoder dim {} does not match the image encoder's {embedding_dim}",
                attribute_encoder.dim()
            )));
        }
        if attribute_encoder.kind() != config.attribute_encoder {
            return Err(malformed(format!(
                "attribute encoder kind {} disagrees with the configuration's {}",
                attribute_encoder.kind(),
                config.attribute_encoder
            )));
        }
        if config.use_projection != image_encoder.has_projection() {
            return Err(malformed(
                "projection flag disagrees between configuration and image encoder".to_string(),
            ));
        }
        // Without this check an internally consistent but differently sized
        // encoder would load and panic at the first query.
        if attribute_encoder.num_attributes() != schema.num_attributes() {
            return Err(CheckpointError::DimensionMismatch {
                what: "attribute encoder α",
                expected: schema.num_attributes(),
                found: attribute_encoder.num_attributes(),
            });
        }
        if !(temperature_k.is_finite() && temperature_k > 0.0) {
            return Err(malformed(format!(
                "temperature must be a positive finite value, got {temperature_k}"
            )));
        }
        let temperature = if temperature_learnable {
            TemperatureScale::new(temperature_k)
        } else {
            TemperatureScale::fixed(temperature_k)
        };
        Ok(Self {
            config,
            image_encoder,
            attribute_encoder,
            kernel: CosineSimilarity::new(),
            temperature,
            inference_pool: Pool::auto(),
        })
    }

    /// Whether the temperature is trained.
    pub(crate) fn temperature_learnable(&self) -> bool {
        self.temperature.is_learnable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schema() -> AttributeSchema {
        AttributeSchema::cub200()
    }

    fn tiny_model() -> ZscModel {
        ZscModel::new(&ModelConfig::tiny(), &schema(), 48)
    }

    #[test]
    fn construction_respects_config() {
        let model = tiny_model();
        assert_eq!(model.embedding_dim(), 64);
        assert_eq!(model.attribute_encoder_kind(), AttributeEncoderKind::Hdc);
        assert!((model.temperature() - 0.07).abs() < 1e-6);
        assert_eq!(model.phase2_dictionary().shape(), (312, 64));
        assert!(model.num_trainable_params() > 0);
        assert_eq!(model.config().embedding_dim, 64);
        assert!(model.image_encoder().has_projection());
    }

    #[test]
    fn no_projection_model_uses_feature_dim() {
        let cfg = ModelConfig::tiny().with_projection(false);
        let model = ZscModel::new(&cfg, &schema(), 80);
        assert_eq!(model.embedding_dim(), 80);
        // Trainable params: only the temperature scalar.
        assert_eq!(model.num_trainable_params(), 1);
    }

    #[test]
    fn mlp_variant_shares_phase2_dictionary_with_hdc() {
        let s = schema();
        let hdc_model = ZscModel::new(&ModelConfig::tiny(), &s, 48);
        let mlp_model = ZscModel::new(
            &ModelConfig::tiny().with_attribute_encoder(AttributeEncoderKind::TrainableMlp),
            &s,
            48,
        );
        // Same seed → same stationary dictionary for phase II.
        assert_eq!(hdc_model.phase2_dictionary(), mlp_model.phase2_dictionary());
        assert_eq!(
            mlp_model.attribute_encoder().kind(),
            AttributeEncoderKind::TrainableMlp
        );
    }

    #[test]
    fn logit_shapes() {
        let model = tiny_model();
        let mut rng = StdRng::seed_from_u64(1);
        let features = Matrix::random_uniform(3, 48, 1.0, &mut rng);
        let class_attributes = Matrix::random_uniform(7, 312, 0.5, &mut rng).map(f32::abs);
        assert_eq!(model.attribute_logits(&features).shape(), (3, 312));
        assert_eq!(
            model.class_logits(&features, &class_attributes).shape(),
            (3, 7)
        );
        assert_eq!(model.predict(&features, &class_attributes).len(), 3);
        assert_eq!(model.embed_images(&features).shape(), (3, 64));
    }

    #[test]
    fn class_backward_accumulates_projection_gradients() {
        let mut model = tiny_model();
        let mut rng = StdRng::seed_from_u64(2);
        let features = Matrix::random_uniform(4, 48, 1.0, &mut rng);
        let class_attributes = Matrix::random_uniform(5, 312, 0.5, &mut rng).map(f32::abs);
        model.zero_grad();
        let logits = model.class_logits_train(&features, &class_attributes);
        model.backward_class(&Matrix::ones(logits.rows(), logits.cols()));
        let mut grad_norm = 0.0;
        model.visit_params(&mut |p| grad_norm += p.grad_norm());
        assert!(grad_norm > 0.0);
        model.zero_grad();
        let mut after = 0.0;
        model.visit_params(&mut |p| after += p.grad_norm());
        assert_eq!(after, 0.0);
    }

    #[test]
    fn attribute_backward_touches_only_image_encoder_and_temperature() {
        let cfg = ModelConfig::tiny().with_attribute_encoder(AttributeEncoderKind::TrainableMlp);
        let mut model = ZscModel::new(&cfg, &schema(), 48);
        let mut rng = StdRng::seed_from_u64(3);
        let features = Matrix::random_uniform(2, 48, 1.0, &mut rng);
        model.zero_grad();
        let logits = model.attribute_logits_train(&features);
        model.backward_attribute(&Matrix::ones(logits.rows(), logits.cols()));
        // The MLP attribute encoder must have received no gradient.
        let mut mlp_grad = 0.0;
        model
            .attribute_encoder()
            .visit_params_ref(&mut |p| mlp_grad += p.grad_norm());
        assert_eq!(mlp_grad, 0.0);
    }

    #[test]
    fn predictions_are_deterministic() {
        let s = schema();
        let mut rng = StdRng::seed_from_u64(4);
        let features = Matrix::random_uniform(5, 48, 1.0, &mut rng);
        let class_attributes = Matrix::random_uniform(6, 312, 0.5, &mut rng).map(f32::abs);
        let a = ZscModel::new(&ModelConfig::tiny().with_seed(9), &s, 48);
        let b = ZscModel::new(&ModelConfig::tiny().with_seed(9), &s, 48);
        assert_eq!(
            a.predict(&features, &class_attributes),
            b.predict(&features, &class_attributes)
        );
    }

    #[test]
    fn engine_inference_logits_bit_identical_to_training_kernel() {
        let mut rng = StdRng::seed_from_u64(5);
        let features = Matrix::random_uniform(6, 48, 1.0, &mut rng);
        let class_attributes = Matrix::random_uniform(9, 312, 0.5, &mut rng).map(f32::abs);
        let mut model = tiny_model();
        // The training path uses the differentiable serial kernel; the
        // inference path goes through the batched engine. Both must produce
        // the same bits for any thread count.
        let train_logits = model.class_logits_train(&features, &class_attributes);
        for threads in [1usize, 2, 7] {
            model.inference_pool = Pool::new(threads);
            let infer_logits = model.class_logits(&features, &class_attributes);
            assert_eq!(
                infer_logits.as_slice(),
                train_logits.as_slice(),
                "threads={threads}"
            );
            let train_attr = model.attribute_logits_train(&features);
            let infer_attr = model.attribute_logits(&features);
            assert_eq!(infer_attr.as_slice(), train_attr.as_slice());
        }
    }

    #[test]
    fn packed_class_memory_serves_signature_lookups() {
        let mut rng = StdRng::seed_from_u64(6);
        let model = tiny_model();
        let class_attributes = Matrix::random_uniform(7, 312, 0.5, &mut rng).map(f32::abs);
        let labels: Vec<String> = (0..7).map(|c| format!("bird{c}")).collect();
        let memory = model.sharded_class_memory(labels.clone(), &class_attributes, 1);
        assert_eq!(memory.len(), 7);
        assert_eq!(memory.dim(), model.embedding_dim());
        // Each class's own binarized signature must resolve to that class.
        let class_embeddings = model.attribute_encoder().infer_classes(&class_attributes);
        for (c, label) in labels.iter().enumerate() {
            let query = engine::pack_float_signs(class_embeddings.row(c));
            let top1 = memory.top_k(&query, 1);
            assert_eq!(top1[0].0, label);
        }
    }

    /// The sharded export must hold exactly the monolithic memory's class
    /// signatures, and the per-class signature primitive must reproduce the
    /// rows the bulk export stores.
    #[test]
    fn sharded_class_memory_matches_monolithic_export() {
        let mut rng = StdRng::seed_from_u64(7);
        let model = tiny_model();
        let class_attributes = Matrix::random_uniform(9, 312, 0.5, &mut rng).map(f32::abs);
        let labels: Vec<String> = (0..9).map(|c| format!("bird{c}")).collect();
        let mono = engine::PackedClassMemory::from_sign_matrix(
            labels.clone(),
            &model.attribute_encoder().infer_classes(&class_attributes),
        );
        for shards in [1usize, 2, 3, 7] {
            let sharded = model.sharded_class_memory(labels.clone(), &class_attributes, shards);
            assert_eq!(sharded.len(), mono.len());
            assert_eq!(sharded.num_shards(), shards);
            for (c, label) in labels.iter().enumerate() {
                assert_eq!(
                    sharded.class_words(label).expect("stored"),
                    mono.row_words(c),
                    "shards={shards} label={label}"
                );
                let signature = model.packed_class_signature(class_attributes.row(c));
                assert_eq!(signature, mono.row_words(c), "label={label}");
            }
        }
    }

    #[test]
    fn post_step_keeps_temperature_positive() {
        let mut model = tiny_model();
        // Force the temperature negative as an optimizer might, then clamp.
        model.visit_params(&mut |p| {
            if p.shape() == (1, 1) {
                p.values.set(0, 0, -1.0);
            }
        });
        model.post_step();
        assert!(model.temperature() > 0.0);
    }
}
