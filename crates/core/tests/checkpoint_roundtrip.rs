//! Property tests for saving and loading a model: a model file decoded
//! straight into the frozen serving view must be bit-identical to the
//! original on the model's entire inference surface across tiny
//! configurations, and files that are well framed but break an invariant
//! inside must be rejected with typed errors, never panics.

use dataset::{AttributeSchema, CubLikeDataset, DatasetConfig, SplitKind};
use hdc_zsc::{
    AttributeEncoderKind, CheckpointDelta, CheckpointError, ModelConfig, ModelFile, Pipeline,
    TrainConfig, ZscModel,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;
use tensor::Matrix;

fn schema() -> AttributeSchema {
    AttributeSchema::cub200()
}

/// Builds a model across the configuration axes a model file must cover:
/// both encoder kinds, with/without the FC projection, varying dims.
fn build_model(
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
    ZscModel::new(&config, &schema(), feature_dim)
}

/// Bytes of a model file before its payload: magic, version, length, CRC.
const FILE_HEADER_LEN: usize = 24;

/// A model file taken apart: its JSON header as a document tree, and each
/// tensor's bytes in the header's table order.
struct Parts {
    header: Value,
    tensors: Vec<Vec<u8>>,
}

/// The tensor table of a model file's header; the other keys are skipped.
#[derive(serde::Deserialize)]
struct Table {
    tensors: Vec<Shape>,
}

/// The name and shape of one tensor in a model file's table.
#[derive(serde::Deserialize)]
struct Shape {
    name: String,
    rows: usize,
    cols: usize,
}

/// The value under `key` in an object.
fn entry_mut<'v>(value: &'v mut Value, key: &str) -> &'v mut Value {
    let Value::Object(entries) = value else {
        panic!("expected an object while looking for `{key}`");
    };
    &mut entries
        .iter_mut()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("missing key `{key}`"))
        .1
}

/// The tensor table of a header.
fn table(header: &mut Value) -> &mut Vec<Value> {
    match entry_mut(header, "tensors") {
        Value::Array(entries) => entries,
        other => panic!("the tensor table is an array, got {}", other.kind()),
    }
}

/// Splits a model file along its documented layout.
fn split(file: &ModelFile) -> Parts {
    let payload = &file.bytes()[FILE_HEADER_LEN..];
    let header_len = u32::from_le_bytes(payload[..4].try_into().expect("4 bytes")) as usize;
    let text = std::str::from_utf8(&payload[4..4 + header_len]).expect("header is UTF-8");
    let header = serde_json::parse_value(text).expect("header parses");
    let Table { tensors: shapes } = serde_json::from_str(text).expect("table parses");
    let mut data = &payload[4 + header_len..];
    let tensors = shapes
        .iter()
        .map(|t| {
            let row_bytes = if matches!(t.name.as_str(), "hdc.groups" | "hdc.values") {
                t.cols.div_ceil(64) * 8
            } else {
                t.cols * 4
            };
            let (bytes, rest) = data.split_at(t.rows * row_bytes);
            data = rest;
            bytes.to_vec()
        })
        .collect();
    Parts { header, tensors }
}

/// CRC-64/XZ, one bit at a time: a model file's checksum and the
/// fingerprint its name carries.
fn crc64(bytes: &[u8]) -> u64 {
    !bytes.iter().fold(!0u64, |mut c, &b| {
        c ^= u64::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xC96C_5795_D787_0F42 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        c
    })
}

/// Frames `parts` as a model file with a correct length, CRC-64 and name,
/// so the decoder gets past the frame to what the parts say. Returns the
/// name and the bytes.
fn join(parts: &Parts) -> (String, Vec<u8>) {
    let header = serde_json::to_string(&parts.header).expect("header renders");
    let mut payload = (header.len() as u32).to_le_bytes().to_vec();
    payload.extend_from_slice(header.as_bytes());
    for tensor in &parts.tensors {
        payload.extend_from_slice(tensor);
    }
    let mut bytes = b"ZSCMODL\n".to_vec();
    bytes.extend_from_slice(&2u32.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crc64(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    (format!("model-{:016x}.bin", crc64(&payload)), bytes)
}

/// Takes `file` apart, lets `edit` change the parts, and decodes the
/// re-framed result against the CUB schema.
fn decode_edited(
    file: &ModelFile,
    edit: impl FnOnce(&mut Parts),
) -> Result<ZscModel, CheckpointError> {
    let mut parts = split(file);
    edit(&mut parts);
    let (name, bytes) = join(&parts);
    ModelFile::decode(&name, &bytes, &schema())
}

proptest! {
    /// save → load → `class_logits` / `attribute_logits` bit-identical to
    /// the original model, across tiny configs.
    #[test]
    fn round_trip_is_bit_identical(
        embedding_dim in 8usize..48,
        feature_dim in 4usize..32,
        use_projection in proptest::arbitrary::any::<bool>(),
        mlp_encoder in proptest::arbitrary::any::<bool>(),
        seed in 0u64..1_000,
        batch in 1usize..5,
    ) {
        let s = schema();
        let model =
            build_model(embedding_dim, feature_dim, use_projection, mlp_encoder, seed);
        let file = ModelFile::encode(&model, &s);
        // The serving load path: straight into the immutable frozen view.
        let restored = ModelFile::decode(file.name(), file.bytes(), &s)
            .expect("round trip decodes")
            .freeze();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
        let features = Matrix::random_uniform(batch, feature_dim, 1.0, &mut rng);
        let class_attributes = Matrix::random_uniform(5, 312, 0.5, &mut rng).map(f32::abs);
        let original = model.class_logits(&features, &class_attributes);
        let loaded = restored.class_logits(&features, &class_attributes);
        prop_assert_eq!(original.as_slice(), loaded.as_slice());
        let original_attr = model.attribute_logits(&features);
        let loaded_attr = restored.attribute_logits(&features);
        prop_assert_eq!(original_attr.as_slice(), loaded_attr.as_slice());
    }
}

/// A *trained* model round-trips too: the pipeline's returned model, saved
/// and reloaded, reproduces the reported zero-shot evaluation exactly.
#[test]
fn trained_model_round_trip_reproduces_outcome() {
    let data = CubLikeDataset::generate(&DatasetConfig::tiny(31));
    let pipeline = Pipeline::new(ModelConfig::tiny(), TrainConfig::fast().with_epochs(2));
    let (outcome, model) = pipeline.run_returning_model(&data, SplitKind::Zs, 1);
    let file = ModelFile::encode(&model, data.schema());
    drop(model);
    let restored = ModelFile::decode(file.name(), file.bytes(), data.schema())
        .expect("decodes")
        .freeze();
    let split = data.split(SplitKind::Zs);
    let (eval_x, eval_labels) = data.features_and_labels(split.eval_classes());
    let eval_local = CubLikeDataset::to_local_labels(&eval_labels, split.eval_classes());
    let eval_class_attr = data.class_attribute_matrix(split.eval_classes());
    let report = hdc_zsc::evaluate_zsc(&restored, &eval_x, &eval_local, &eval_class_attr);
    assert_eq!(report, outcome.zsc);
}

/// Corruptions that keep the file well framed (correct length, CRC-64 and
/// name) but break an invariant inside must surface as typed errors naming
/// the broken part.
#[test]
fn structurally_corrupted_documents_are_rejected_with_typed_errors() {
    let s = schema();
    let file = ModelFile::encode(&build_model(16, 8, true, false, 3), &s);
    let malformed = |result: Result<ZscModel, CheckpointError>, part: &str| match result {
        Err(CheckpointError::Malformed(message)) => {
            assert!(message.contains(part), "`{part}` not named: {message}")
        }
        other => panic!(
            "expected Malformed naming `{part}`, got {:?}",
            other.map(|_| ())
        ),
    };

    // Not a model file at all.
    malformed(
        ModelFile::decode(file.name(), b"not a model file", &s),
        "magic",
    );
    // A header that is JSON, but not a header.
    malformed(
        decode_edited(&file, |parts| parts.header = Value::Array(vec![])),
        "header",
    );
    // A header missing a field.
    malformed(
        decode_edited(&file, |parts| {
            let Value::Object(entries) = &mut parts.header else {
                panic!("headers are objects");
            };
            entries.retain(|(k, _)| k != "feature_dim");
        }),
        "feature_dim",
    );
    // An HDC encoder without its group codebook.
    malformed(
        decode_edited(&file, |parts| {
            let tensors = table(&mut parts.header);
            let at = tensors
                .iter_mut()
                .position(|entry| *entry_mut(entry, "name") == Value::String("hdc.groups".into()))
                .expect("a group codebook");
            tensors.remove(at);
            parts.tensors.remove(at);
        }),
        "hdc.groups",
    );
    // Header and projection disagree on the feature width.
    malformed(
        decode_edited(&file, |parts| {
            let width = entry_mut(&mut parts.header, "feature_dim");
            assert_eq!(*width, Value::Number(8.0));
            *width = Value::Number(9.0);
        }),
        "projection",
    );
    // Negative temperature.
    malformed(
        decode_edited(&file, |parts| {
            let bits = f64::from((-0.5f32).to_bits());
            *entry_mut(&mut parts.header, "temperature_bits") = Value::Number(bits);
        }),
        "temperature",
    );

    // The untouched parts still decode (guards against the corruptions
    // above silently not applying).
    assert!(decode_edited(&file, |_| {}).is_ok());
}

/// An *internally consistent* attribute encoder whose α disagrees with the
/// schema fingerprint must still be rejected with a typed error — not
/// accepted and left to panic at the first query.
#[test]
fn encoder_attribute_count_mismatch_is_rejected() {
    // No projection, so the MLP's input layer is the first tensor.
    let config = ModelConfig::tiny()
        .with_projection(false)
        .with_attribute_encoder(AttributeEncoderKind::TrainableMlp)
        .with_seed(4);
    let cub = schema();
    let full = ModelFile::encode(&ZscModel::new(&config, &cub, 8), &cub);
    // Same configuration, but an attribute space of α = 12 instead of 312.
    let small_schema = AttributeSchema::synthetic(4, 3);
    let small = split(&ModelFile::encode(
        &ZscModel::new(&config, &small_schema, 8),
        &small_schema,
    ));
    // Splice the α = 12 input layer (valid on its own) into the α = 312
    // file; everything else — the schema fingerprint, which the phase-II
    // dictionary is bound along — still says 312.
    let result = decode_edited(&full, |parts| {
        let layer = &mut table(&mut parts.header)[0];
        assert_eq!(
            *entry_mut(layer, "name"),
            Value::String("mlp.0.weight".into())
        );
        *entry_mut(layer, "rows") = Value::Number(12.0);
        parts.tensors[0] = small.tensors[0].clone();
    });
    match result {
        Err(CheckpointError::DimensionMismatch {
            what,
            expected: 312,
            found: 12,
        }) => assert!(what.contains("encoder")),
        other => panic!(
            "expected an encoder-α DimensionMismatch, got {:?}",
            other.map(|_| ())
        ),
    }
}

/// A serve delta written pretty-printed by an earlier build, in the
/// version-2 layout that embedded the whole model as decimal JSON, is
/// refused by version: the current layout embeds the model file.
#[test]
fn pretty_version_2_deltas_from_an_earlier_build_are_refused() {
    let delta_text = include_str!("pretty_v2/delta.json");
    assert!(
        delta_text.contains("\n  \"kind\": "),
        "fixture is pretty-printed"
    );
    match CheckpointDelta::from_json_str(delta_text) {
        Err(CheckpointError::UnsupportedVersion {
            found: 2,
            supported: 3,
        }) => {}
        other => panic!(
            "expected UnsupportedVersion {{ found: 2, supported: 3 }}, got {:?}",
            other.map(|_| ())
        ),
    }
}
