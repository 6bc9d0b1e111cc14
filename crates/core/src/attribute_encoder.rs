//! Attribute encoders `ϕ(·)`: the stationary HDC encoder (the paper's
//! contribution) and the trainable-MLP baseline.

use crate::checkpoint::CheckpointError;
use dataset::AttributeSchema;
use hdc::{Codebook, CodebookMemory, HdcConfig};
use nn::{ActivationKind, Layer, Mlp, ParamTensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use tensor::Matrix;

/// Which attribute-encoder variant a model uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttributeEncoderKind {
    /// Stationary binary/bipolar HDC codebooks (the paper's HDC-ZSC).
    Hdc,
    /// A trainable 2-layer MLP (the paper's *Trainable-MLP* reference model).
    TrainableMlp,
}

impl std::fmt::Display for AttributeEncoderKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttributeEncoderKind::Hdc => f.write_str("HDC"),
            AttributeEncoderKind::TrainableMlp => f.write_str("Trainable-MLP"),
        }
    }
}

/// The stationary HDC attribute encoder of §III-A.
///
/// Two codebooks of random bipolar atomic hypervectors are drawn once — one
/// per attribute **group** (`G = 28` for CUB) and one per attribute **value**
/// (`V = 61`) — and never trained. The `α = 312` attribute codevectors are
/// materialised by *binding* the matching group and value hypervectors
/// (`bₓ = g_y ⊙ v_z`), and class embeddings are the product of the continuous
/// class-attribute matrix with the attribute dictionary, `ϕ(A) = A × B`.
///
/// # Example
///
/// ```
/// use dataset::AttributeSchema;
/// use hdc_zsc::HdcAttributeEncoder;
/// use tensor::Matrix;
///
/// let schema = AttributeSchema::cub200();
/// let encoder = HdcAttributeEncoder::new(&schema, 1536, 7);
/// assert_eq!(encoder.dictionary().shape(), (312, 1536));
/// let class_attributes = Matrix::ones(3, 312);
/// assert_eq!(encoder.encode_classes(&class_attributes).shape(), (3, 1536));
/// ```
#[derive(Debug, Clone)]
pub struct HdcAttributeEncoder {
    groups: Codebook,
    values: Codebook,
    dictionary: Matrix,
    dim: usize,
    schema_counts: (usize, usize, usize),
}

impl HdcAttributeEncoder {
    /// Draws the group/value codebooks from `seed` and materialises the
    /// attribute dictionary for the given schema.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(schema: &AttributeSchema, dim: usize, seed: u64) -> Self {
        let cfg = HdcConfig::new(dim);
        let mut rng = StdRng::seed_from_u64(seed);
        let groups = Codebook::random(schema.num_groups(), &cfg, &mut rng);
        let values = Codebook::random(schema.num_values(), &cfg, &mut rng);
        Self::from_codebooks(groups, values, schema).expect("codebooks drawn for the schema fit it")
    }

    /// Materialises the attribute dictionary from given codebooks: row `k`
    /// is the binding of the group and value codevectors `schema` pairs
    /// attribute `k` with. The model file loader builds HDC encoders
    /// through it, so a loaded dictionary cannot contradict its codebooks.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::DimensionMismatch`] when a codebook's size is not
    /// the schema's group or value count, or the two differ in width.
    pub(crate) fn from_codebooks(
        groups: Codebook,
        values: Codebook,
        schema: &AttributeSchema,
    ) -> Result<Self, CheckpointError> {
        let dim = groups.dim();
        let counts = (
            schema.num_groups(),
            schema.num_values(),
            schema.num_attributes(),
        );
        for (what, expected, found) in [
            ("group codebook size G", counts.0, groups.len()),
            ("value codebook size V", counts.1, values.len()),
            ("value codebook width", dim, values.dim()),
        ] {
            if expected != found {
                return Err(CheckpointError::DimensionMismatch {
                    what,
                    expected,
                    found,
                });
            }
        }
        let mut data = Vec::with_capacity(counts.2 * dim);
        for &(g, v) in schema.pairs() {
            let bound = groups
                .bind_with(g, &values, v)
                .expect("schema indices are within codebooks of the schema's sizes");
            data.extend(bound.as_slice().iter().map(|&s| f32::from(s)));
        }
        Ok(Self {
            groups,
            values,
            dictionary: Matrix::from_vec(counts.2, dim, data),
            dim,
            schema_counts: counts,
        })
    }

    /// Embedding dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The attribute dictionary `B ∈ {−1,+1}^{α×d}` as a float matrix.
    pub fn dictionary(&self) -> &Matrix {
        &self.dictionary
    }

    /// The group codebook (28 atomic hypervectors for CUB).
    pub fn group_codebook(&self) -> &Codebook {
        &self.groups
    }

    /// The value codebook (61 atomic hypervectors for CUB).
    pub fn value_codebook(&self) -> &Codebook {
        &self.values
    }

    /// Encodes a class-attribute matrix `A ∈ R^{C×α}` into class embeddings
    /// `ϕ(A) = A × B ∈ R^{C×d}`.
    ///
    /// # Panics
    ///
    /// Panics if `class_attributes.cols()` differs from the schema's `α`.
    pub fn encode_classes(&self, class_attributes: &Matrix) -> Matrix {
        assert_eq!(
            class_attributes.cols(),
            self.dictionary.rows(),
            "class attribute matrix width {} does not match the dictionary ({} attributes)",
            class_attributes.cols(),
            self.dictionary.rows()
        );
        class_attributes.matmul(&self.dictionary)
    }

    /// Number of trainable parameters — zero: the encoder is stationary.
    pub fn num_trainable_params(&self) -> usize {
        0
    }

    /// Memory accounting of the factored codebooks (the paper's 71% / 17 KB
    /// claim).
    pub fn memory(&self) -> CodebookMemory {
        let (g, v, a) = self.schema_counts;
        CodebookMemory::new(g, v, a, self.dim)
    }
}

/// The paper's *Trainable-MLP* reference attribute encoder: a 2-layer MLP
/// mapping the `α`-dimensional class-attribute vector to the shared embedding
/// space.
///
/// The MLP only replaces the *class* encoder of phase III: phase II still
/// pre-trains against a stationary HDC dictionary, the one an
/// [`HdcAttributeEncoder`] of the same seed binds. The encoder holds it, so
/// it is drawn from the seed wherever the encoder is built, and no model
/// file stores it.
#[derive(Debug, Clone)]
pub struct MlpAttributeEncoder {
    mlp: Mlp,
    alpha: usize,
    dim: usize,
    phase2_dictionary: Matrix,
}

impl MlpAttributeEncoder {
    /// Wraps a trained MLP, drawing the phase-II dictionary from `seed`
    /// as [`MlpAttributeEncoder::new`] does. The model file loader builds
    /// MLP encoders through it.
    pub(crate) fn from_mlp(mlp: Mlp, schema: &AttributeSchema, seed: u64) -> Self {
        let dims = mlp.dims();
        let (alpha, dim) = (dims[0], dims[dims.len() - 1]);
        let phase2_dictionary = HdcAttributeEncoder::new(schema, dim, seed).dictionary;
        Self {
            mlp,
            alpha,
            dim,
            phase2_dictionary,
        }
    }

    /// Builds the MLP `α → hidden → d` with ReLU in between.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(schema: &AttributeSchema, hidden: usize, dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mlp = Mlp::new(
            &[schema.num_attributes(), hidden, dim],
            ActivationKind::Relu,
            &mut rng,
        );
        Self::from_mlp(mlp, schema, seed)
    }

    /// Embedding dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Attribute dimensionality `α`.
    pub fn alpha(&self) -> usize {
        self.alpha
    }

    /// The underlying MLP.
    pub(crate) fn mlp(&self) -> &Mlp {
        &self.mlp
    }

    /// Immutable inference encoding: maps class attributes to embeddings
    /// through `&self`, caching nothing. Bit-identical to the training
    /// forward; this is the path a shared
    /// [`FrozenModel`](crate::FrozenModel) encodes classes through.
    ///
    /// # Panics
    ///
    /// Panics if `class_attributes.cols() != self.alpha()`.
    pub fn infer_classes(&self, class_attributes: &Matrix) -> Matrix {
        self.mlp.infer(class_attributes)
    }

    /// Encodes class attributes into embeddings, caching activations when
    /// `train` is `true` so that [`MlpAttributeEncoder::backward`] can run.
    ///
    /// # Panics
    ///
    /// Panics if `class_attributes.cols() != self.alpha()`.
    pub fn encode_classes(&mut self, class_attributes: &Matrix, train: bool) -> Matrix {
        self.mlp.forward(class_attributes, train)
    }

    /// Back-propagates the gradient of the loss with respect to the class
    /// embeddings, accumulating the MLP parameter gradients.
    pub fn backward(&mut self, grad_embeddings: &Matrix) -> Matrix {
        self.mlp.backward(grad_embeddings)
    }

    /// Number of trainable parameters.
    pub fn num_trainable_params(&self) -> usize {
        self.mlp.num_params()
    }

    /// Visits the MLP parameters (for the optimizer).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut ParamTensor)) {
        self.mlp.visit_params(f);
    }

    /// Read-only visitation of the MLP parameters, in the same order as
    /// [`MlpAttributeEncoder::visit_params`].
    pub fn visit_params_ref(&self, f: &mut dyn FnMut(&ParamTensor)) {
        self.mlp.visit_params_ref(f);
    }

    /// Zeroes accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.mlp.zero_grad();
    }
}

/// An attribute encoder of either kind, presenting the minimal common
/// interface the trainers need.
#[derive(Debug, Clone)]
pub enum AttributeEncoder {
    /// Stationary HDC encoder.
    Hdc(HdcAttributeEncoder),
    /// Trainable 2-layer MLP encoder.
    Mlp(MlpAttributeEncoder),
}

impl AttributeEncoder {
    /// Builds an encoder of the requested kind.
    pub fn build(
        kind: AttributeEncoderKind,
        schema: &AttributeSchema,
        dim: usize,
        mlp_hidden: usize,
        seed: u64,
    ) -> Self {
        match kind {
            AttributeEncoderKind::Hdc => Self::Hdc(HdcAttributeEncoder::new(schema, dim, seed)),
            AttributeEncoderKind::TrainableMlp => {
                Self::Mlp(MlpAttributeEncoder::new(schema, mlp_hidden, dim, seed))
            }
        }
    }

    /// The encoder kind.
    pub fn kind(&self) -> AttributeEncoderKind {
        match self {
            AttributeEncoder::Hdc(_) => AttributeEncoderKind::Hdc,
            AttributeEncoder::Mlp(_) => AttributeEncoderKind::TrainableMlp,
        }
    }

    /// Embedding dimensionality `d`.
    pub fn dim(&self) -> usize {
        match self {
            AttributeEncoder::Hdc(e) => e.dim(),
            AttributeEncoder::Mlp(e) => e.dim(),
        }
    }

    /// Attribute dimensionality `α` the encoder ingests (the width of the
    /// class-attribute matrices it accepts).
    pub fn num_attributes(&self) -> usize {
        match self {
            AttributeEncoder::Hdc(e) => e.dictionary().rows(),
            AttributeEncoder::Mlp(e) => e.alpha(),
        }
    }

    /// The stationary dictionary phase II pre-trains against: the HDC
    /// encoder's own, or the one the MLP variant draws from its seed.
    pub(crate) fn phase2_dictionary(&self) -> &Matrix {
        match self {
            AttributeEncoder::Hdc(e) => &e.dictionary,
            AttributeEncoder::Mlp(e) => &e.phase2_dictionary,
        }
    }

    /// Immutable inference encoding of a class-attribute matrix into class
    /// embeddings through `&self`; bit-identical to
    /// [`AttributeEncoder::encode_classes`]. The HDC encoder is stationary
    /// either way; the MLP variant skips its activation caches.
    pub fn infer_classes(&self, class_attributes: &Matrix) -> Matrix {
        match self {
            AttributeEncoder::Hdc(e) => e.encode_classes(class_attributes),
            AttributeEncoder::Mlp(e) => e.infer_classes(class_attributes),
        }
    }

    /// Encodes a class-attribute matrix into class embeddings, caching
    /// activations for the backward pass when `train` is set.
    pub fn encode_classes(&mut self, class_attributes: &Matrix, train: bool) -> Matrix {
        match self {
            AttributeEncoder::Hdc(e) => e.encode_classes(class_attributes),
            AttributeEncoder::Mlp(e) => e.encode_classes(class_attributes, train),
        }
    }

    /// Back-propagates the gradient with respect to the class embeddings; a
    /// no-op for the stationary HDC encoder.
    pub fn backward(&mut self, grad_embeddings: &Matrix) {
        if let AttributeEncoder::Mlp(e) = self {
            let _ = e.backward(grad_embeddings);
        }
    }

    /// Number of trainable parameters.
    pub fn num_trainable_params(&self) -> usize {
        match self {
            AttributeEncoder::Hdc(e) => e.num_trainable_params(),
            AttributeEncoder::Mlp(e) => e.num_trainable_params(),
        }
    }

    /// Visits trainable parameters (none for HDC).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut ParamTensor)) {
        if let AttributeEncoder::Mlp(e) = self {
            e.visit_params(f);
        }
    }

    /// Read-only visitation of the trainable parameters (none for HDC), in
    /// the same order as [`AttributeEncoder::visit_params`].
    pub fn visit_params_ref(&self, f: &mut dyn FnMut(&ParamTensor)) {
        if let AttributeEncoder::Mlp(e) = self {
            e.visit_params_ref(f);
        }
    }

    /// Zeroes accumulated gradients (no-op for HDC).
    pub fn zero_grad(&mut self) {
        if let AttributeEncoder::Mlp(e) = self {
            e.zero_grad();
        }
    }

    /// Drops the MLP's gradients and cached activations (no-op for HDC).
    pub(crate) fn clear_training_state(&mut self) {
        if let AttributeEncoder::Mlp(e) = self {
            e.mlp.clear_training_state();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::similarity::cosine_to_dictionary;

    fn schema() -> AttributeSchema {
        AttributeSchema::cub200()
    }

    #[test]
    fn hdc_encoder_dictionary_shape_and_values() {
        let encoder = HdcAttributeEncoder::new(&schema(), 256, 1);
        let dict = encoder.dictionary();
        assert_eq!(dict.shape(), (312, 256));
        assert!(dict.as_slice().iter().all(|&v| v == 1.0 || v == -1.0));
        assert_eq!(encoder.dim(), 256);
        assert_eq!(encoder.num_trainable_params(), 0);
        assert_eq!(encoder.group_codebook().len(), 28);
        assert_eq!(encoder.value_codebook().len(), 61);
    }

    #[test]
    fn hdc_encoder_is_deterministic_in_seed() {
        let s = schema();
        let a = HdcAttributeEncoder::new(&s, 128, 3);
        let b = HdcAttributeEncoder::new(&s, 128, 3);
        let c = HdcAttributeEncoder::new(&s, 128, 4);
        assert_eq!(a.dictionary(), b.dictionary());
        assert!(a.dictionary().max_abs_diff(c.dictionary()) > 0.0);
    }

    #[test]
    fn dictionary_rows_are_bound_pairs() {
        // Row x must equal group_of(x) ⊙ value_of(x).
        let s = schema();
        let encoder = HdcAttributeEncoder::new(&s, 512, 5);
        for &attr in &[0usize, 50, 150, 311] {
            let (g, v) = s.pair_of(attr);
            let expected = encoder
                .group_codebook()
                .get(g)
                .bind(encoder.value_codebook().get(v));
            assert_eq!(encoder.dictionary().row(attr), &expected.to_f32()[..]);
        }
    }

    #[test]
    fn dictionary_rows_are_quasi_orthogonal() {
        let s = schema();
        let encoder = HdcAttributeEncoder::new(&s, 4096, 6);
        // Attributes sharing a group or value are still quasi-orthogonal
        // because binding randomises the result.
        let dict = encoder.dictionary();
        let r0 = dict.row(0).to_vec();
        let sims = cosine_to_dictionary(&r0, dict);
        for (i, s) in sims.iter().enumerate() {
            if i == 0 {
                assert!((s - 1.0).abs() < 1e-5);
            } else {
                assert!(s.abs() < 0.1, "attribute 0 vs {i}: |cos| = {}", s.abs());
            }
        }
    }

    #[test]
    fn encode_classes_matches_manual_product() {
        let s = schema();
        let encoder = HdcAttributeEncoder::new(&s, 64, 7);
        let a = Matrix::random_uniform(4, 312, 1.0, &mut StdRng::seed_from_u64(1));
        let phi = encoder.encode_classes(&a);
        let manual = a.matmul(encoder.dictionary());
        assert!(phi.max_abs_diff(&manual) < 1e-5);
    }

    #[test]
    fn memory_accounting_matches_paper() {
        let encoder = HdcAttributeEncoder::new(&schema(), 1536, 8);
        let mem = encoder.memory();
        assert!((mem.reduction_fraction() - 0.71).abs() < 0.01);
        assert!(mem.factored_bytes() < 18 * 1024);
    }

    #[test]
    fn mlp_encoder_shapes_and_training_interface() {
        let s = schema();
        let mut encoder = MlpAttributeEncoder::new(&s, 64, 32, 9);
        assert_eq!(encoder.dim(), 32);
        assert_eq!(encoder.alpha(), 312);
        assert!(encoder.num_trainable_params() > 0);
        let a = Matrix::ones(5, 312);
        let phi = encoder.encode_classes(&a, true);
        assert_eq!(phi.shape(), (5, 32));
        let grad_back = encoder.backward(&Matrix::ones(5, 32));
        assert_eq!(grad_back.shape(), (5, 312));
        encoder.zero_grad();
    }

    #[test]
    fn enum_dispatch_consistency() {
        let s = schema();
        let mut hdc_enc = AttributeEncoder::build(AttributeEncoderKind::Hdc, &s, 64, 32, 1);
        let mut mlp_enc =
            AttributeEncoder::build(AttributeEncoderKind::TrainableMlp, &s, 64, 32, 1);
        assert_eq!(hdc_enc.kind(), AttributeEncoderKind::Hdc);
        assert_eq!(mlp_enc.kind(), AttributeEncoderKind::TrainableMlp);
        assert_eq!(hdc_enc.dim(), 64);
        assert_eq!(mlp_enc.dim(), 64);
        assert_eq!(hdc_enc.num_trainable_params(), 0);
        assert!(mlp_enc.num_trainable_params() > 0);
        let a = Matrix::ones(2, 312);
        assert_eq!(hdc_enc.encode_classes(&a, false).shape(), (2, 64));
        assert_eq!(mlp_enc.encode_classes(&a, true).shape(), (2, 64));
        // backward is a no-op for HDC and must not panic.
        hdc_enc.backward(&Matrix::ones(2, 64));
        mlp_enc.backward(&Matrix::ones(2, 64));
        let mut hdc_visits = 0;
        hdc_enc.visit_params(&mut |_| hdc_visits += 1);
        assert_eq!(hdc_visits, 0);
        let mut mlp_visits = 0;
        mlp_enc.visit_params(&mut |_| mlp_visits += 1);
        assert_eq!(mlp_visits, 4);
        hdc_enc.zero_grad();
        mlp_enc.zero_grad();
        assert_eq!(AttributeEncoderKind::Hdc.to_string(), "HDC");
        assert_eq!(
            AttributeEncoderKind::TrainableMlp.to_string(),
            "Trainable-MLP"
        );
    }
}
