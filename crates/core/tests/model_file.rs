//! Property tests for the binary model file: write → load must give back
//! the model's weights bit for bit and the same inference outputs, for
//! both attribute-encoder kinds and random shapes, and every truncation or
//! flipped byte must be a typed [`CheckpointError`], never a panic.

use dataset::AttributeSchema;
use hdc_zsc::checkpoint::MAX_MODEL_DIM;
use hdc_zsc::{AttributeEncoderKind, CheckpointError, ModelConfig, ModelFile, ZscModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::Matrix;

fn build_model(
    schema: &AttributeSchema,
    embedding_dim: usize,
    feature_dim: usize,
    use_projection: bool,
    mlp_encoder: bool,
    seed: u64,
) -> ZscModel {
    let kind = if mlp_encoder {
        AttributeEncoderKind::TrainableMlp
    } else {
        AttributeEncoderKind::Hdc
    };
    let config = ModelConfig::tiny()
        .with_embedding_dim(embedding_dim)
        .with_projection(use_projection)
        .with_attribute_encoder(kind)
        .with_seed(seed);
    ZscModel::new(&config, schema, feature_dim)
}

proptest! {
    /// The decoded model encodes to the same bytes as the original (so
    /// every weight, codebook, configuration field and the temperature
    /// carry the same bits, and the same model gets the same name), and
    /// embeds images and encodes class signatures identically.
    #[test]
    fn model_files_round_trip_bit_identically(
        groups in 1usize..6,
        values_per_group in 1usize..5,
        embedding_dim in 1usize..140,
        feature_dim in 1usize..40,
        use_projection in any::<bool>(),
        mlp_encoder in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let schema = AttributeSchema::synthetic(groups, values_per_group);
        let model = build_model(
            &schema,
            embedding_dim,
            feature_dim,
            use_projection,
            mlp_encoder,
            seed,
        );
        let file = ModelFile::encode(&model, &schema);
        let restored =
            ModelFile::decode(file.name(), file.bytes(), &schema).expect("model file decodes");
        let again = ModelFile::encode(&restored, &schema);
        prop_assert_eq!(again.name(), file.name());
        prop_assert!(again.bytes() == file.bytes());
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let features = Matrix::random_uniform(3, feature_dim, 1.0, &mut rng);
        prop_assert_eq!(
            restored.embed_images(&features).as_slice(),
            model.embed_images(&features).as_slice()
        );
        let attributes = Matrix::random_uniform(1, schema.num_attributes(), 0.5, &mut rng);
        prop_assert_eq!(
            restored.packed_class_signature(attributes.row(0)),
            model.packed_class_signature(attributes.row(0))
        );
    }
}

fn small_schema() -> AttributeSchema {
    AttributeSchema::synthetic(3, 2)
}

fn small_file(mlp_encoder: bool) -> ModelFile {
    let schema = small_schema();
    ModelFile::encode(&build_model(&schema, 70, 5, true, mlp_encoder, 11), &schema)
}

/// Cutting the file at every length short of its end is a typed error.
#[test]
fn every_truncation_is_a_typed_error() {
    let schema = small_schema();
    for mlp_encoder in [false, true] {
        let file = small_file(mlp_encoder);
        for cut in 0..file.bytes().len() {
            match ModelFile::decode(file.name(), &file.bytes()[..cut], &schema) {
                Err(CheckpointError::Malformed(_)) => {}
                other => panic!(
                    "cut at {cut}: expected Malformed, got {:?}",
                    other.map(|_| ())
                ),
            }
        }
    }
}

/// Flipping any one byte is a typed error: a damaged magic or length is
/// malformed, a damaged version unsupported, and a damaged CRC-64 or
/// payload fails the checksum.
#[test]
fn every_flipped_byte_is_a_typed_error() {
    let schema = small_schema();
    for mlp_encoder in [false, true] {
        let file = small_file(mlp_encoder);
        for at in 0..file.bytes().len() {
            let mut bytes = file.bytes().to_vec();
            bytes[at] ^= 0x10;
            let result = ModelFile::decode(file.name(), &bytes, &schema);
            let expected = match at {
                0..=7 | 12..=15 => matches!(result, Err(CheckpointError::Malformed(_))),
                8..=11 => matches!(result, Err(CheckpointError::UnsupportedVersion { .. })),
                // 16..=23 is the CRC-64, the rest the payload.
                _ => matches!(result, Err(CheckpointError::ChecksumMismatch { .. })),
            };
            assert!(expected, "flip at {at}: got {:?}", result.map(|_| ()));
        }
    }
}

/// A file that declares a tensor wider than `MAX_MODEL_DIM` is refused
/// before the decoder allocates the dictionary that width implies. The
/// files are real encodings of models one wider than the bound, with and
/// without a projection and for both encoder kinds, so every other check
/// passes.
#[test]
fn a_tensor_wider_than_the_bound_is_refused_before_decoding() {
    let schema = small_schema();
    let wide = MAX_MODEL_DIM + 1;
    for (use_projection, mlp_encoder) in [(true, false), (false, false), (true, true)] {
        let (embedding_dim, feature_dim) = if use_projection {
            (wide, 3)
        } else {
            (64, wide)
        };
        let model = build_model(
            &schema,
            embedding_dim,
            feature_dim,
            use_projection,
            mlp_encoder,
            5,
        );
        let file = ModelFile::encode(&model, &schema);
        drop(model);
        match ModelFile::decode(file.name(), file.bytes(), &schema) {
            Err(CheckpointError::Malformed(reason)) => {
                assert!(reason.contains("MAX_MODEL_DIM"), "{reason}")
            }
            other => panic!(
                "projection {use_projection}, MLP {mlp_encoder}: expected Malformed, got {:?}",
                other.map(|_| ())
            ),
        }
    }
}

/// Intact bytes under another model's name are not that model.
#[test]
fn a_file_under_another_name_fails_its_fingerprint() {
    let (hdc, mlp) = (small_file(false), small_file(true));
    assert_ne!(hdc.name(), mlp.name());
    assert!(matches!(
        ModelFile::decode(mlp.name(), hdc.bytes(), &small_schema()),
        Err(CheckpointError::FingerprintMismatch { .. })
    ));
    for name in [
        "model.bin",
        "model-XYZ.bin",
        "../model-0000000000000000.bin",
    ] {
        assert!(matches!(
            ModelFile::decode(name, hdc.bytes(), &small_schema()),
            Err(CheckpointError::Malformed(_))
        ));
    }
}

/// The file stores the weights as 4-byte floats and the two codebooks as
/// sign bits, and no dictionary: at the serving shape of the durable
/// benchmark workload (128-d features to d = 256, CUB schema) its length
/// is exactly the projection's floats, the codebooks' bits, the 24-byte
/// frame header and the length-prefixed JSON header.
#[test]
fn weights_are_raw_floats_and_only_the_codebooks_are_bits() {
    let schema = AttributeSchema::cub200();
    let model = ZscModel::new(
        &ModelConfig::paper_default().with_embedding_dim(256),
        &schema,
        128,
    );
    let file = ModelFile::encode(&model, &schema);
    let floats = (128 * 256 + 256) * 4;
    let bits = (schema.num_groups() + schema.num_values()) * 256 / 8;
    let json = u32::from_le_bytes(file.bytes()[24..28].try_into().expect("4 bytes")) as usize;
    assert!(json < 1024, "a {json}-byte JSON header");
    assert_eq!(file.bytes().len(), 24 + 4 + json + floats + bits);
}

/// Every trainable parameter of `model`, and whether any holds gradient
/// storage.
fn params_with_grad(model: &ZscModel) -> (usize, usize) {
    let (mut params, mut with_grad) = (0, 0);
    model.visit_params_ref(&mut |p| {
        params += 1;
        with_grad += usize::from(p.grad().is_some());
    });
    (params, with_grad)
}

/// A model that is only served holds each weight once: building one at
/// the paper shape (2048-d features to d = 1536) and decoding its model
/// file allocate no gradient storage, for either encoder kind. The first
/// backward pass allocates it.
#[test]
fn built_and_loaded_models_hold_no_gradient_storage() {
    let schema = AttributeSchema::cub200();
    let paper = ZscModel::new(&ModelConfig::paper_default(), &schema, 2048);
    assert_eq!(
        params_with_grad(&paper),
        (3, 0),
        "projection, bias, temperature"
    );
    let file = ModelFile::encode(&paper, &schema);
    let decoded = ModelFile::decode(file.name(), file.bytes(), &schema).expect("decode");
    assert_eq!(params_with_grad(&decoded), (3, 0));

    let schema = small_schema();
    let mut mlp = build_model(&schema, 24, 5, true, true, 3);
    let file = ModelFile::encode(&mlp, &schema);
    let decoded = ModelFile::decode(file.name(), file.bytes(), &schema).expect("decode");
    let (params, with_grad) = params_with_grad(&decoded);
    assert!(params > 3 && with_grad == 0, "{with_grad} of {params}");

    let features = Matrix::filled(2, 5, 0.5);
    let attributes = Matrix::filled(2, schema.num_attributes(), 1.0);
    let logits = mlp.class_logits_train(&features, &attributes);
    mlp.backward_class(&logits);
    assert_eq!(params_with_grad(&mlp), (params, params));
}
