//! Property tests for the checkpoint subsystem: save → load must be
//! bit-identical for the model's entire inference surface across tiny
//! configurations, and malformed documents must be rejected with typed
//! errors, never panics.

use dataset::{AttributeSchema, CubLikeDataset, DatasetConfig, SplitKind};
use hdc_zsc::{
    AttributeEncoderKind, Checkpoint, CheckpointDelta, CheckpointError, ModelConfig, Pipeline,
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

/// Parses `json`, lets `edit` change the document tree, and renders it
/// back: edits reach the key they name whatever the text's layout.
fn edited(json: &str, edit: impl FnOnce(&mut Value)) -> String {
    let mut doc = serde_json::parse_value(json).expect("checkpoint JSON parses");
    edit(&mut doc);
    serde_json::to_string(&doc).expect("render edited document")
}

/// Builds a model across the configuration axes the checkpoint must cover:
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
        let json = Checkpoint::capture(&model, &s).to_json();
        // The serving load path: straight into the immutable frozen view.
        let restored = Checkpoint::from_json_str(&json)
            .expect("round trip parses")
            .into_frozen(&s)
            .expect("schema matches");
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

    /// Truncating a checkpoint document anywhere must produce a typed error
    /// (never a panic, never a silently-accepted document).
    #[test]
    fn truncated_documents_are_rejected(
        cut_per_mille in 0usize..1000,
        seed in 0u64..100,
    ) {
        let s = schema();
        let model = build_model(12, 6, true, false, seed);
        let json = Checkpoint::capture(&model, &s).to_json();
        let cut = json.len() * cut_per_mille / 1000;
        // Cut on a char boundary.
        let mut end = cut.min(json.len().saturating_sub(1));
        while !json.is_char_boundary(end) {
            end -= 1;
        }
        let truncated = &json[..end];
        match Checkpoint::from_json_str(truncated) {
            Err(CheckpointError::Malformed(_)) => {}
            Err(other) => prop_assert!(false, "expected Malformed, got {other:?}"),
            Ok(_) => prop_assert!(false, "truncated document was accepted"),
        }
    }
}

/// A *trained* model round-trips too: the pipeline's returned model, saved
/// and reloaded, reproduces the reported zero-shot evaluation exactly.
#[test]
fn trained_model_round_trip_reproduces_outcome() {
    let data = CubLikeDataset::generate(&DatasetConfig::tiny(31));
    let pipeline = Pipeline::new(ModelConfig::tiny(), TrainConfig::fast().with_epochs(2));
    let (outcome, model) = pipeline.run_returning_model(&data, SplitKind::Zs, 1);
    let json = Checkpoint::capture(&model, data.schema()).to_json();
    drop(model);
    let restored = Checkpoint::from_json_str(&json)
        .expect("parses")
        .into_frozen(data.schema())
        .expect("schema matches");
    let split = data.split(SplitKind::Zs);
    let (eval_x, eval_labels) = data.features_and_labels(split.eval_classes());
    let eval_local = CubLikeDataset::to_local_labels(&eval_labels, split.eval_classes());
    let eval_class_attr = data.class_attribute_matrix(split.eval_classes());
    let report = hdc_zsc::evaluate_zsc(&restored, &eval_x, &eval_local, &eval_class_attr);
    assert_eq!(report, outcome.zsc);
}

/// Corruptions that keep the JSON well-formed but break an invariant must
/// surface as typed errors naming the broken part.
#[test]
fn structurally_corrupted_documents_are_rejected_with_typed_errors() {
    let s = schema();
    let model = build_model(16, 8, true, false, 3);
    let json = Checkpoint::capture(&model, &s).to_json();

    // Not JSON at all.
    assert!(matches!(
        Checkpoint::from_json_str("not json {"),
        Err(CheckpointError::Malformed(_))
    ));
    // Valid JSON, wrong shape entirely.
    assert!(matches!(
        Checkpoint::from_json_str("[1, 2, 3]"),
        Err(CheckpointError::Malformed(_))
    ));
    // Missing version field.
    let no_version = edited(&json, |doc| {
        let Value::Object(entries) = doc else {
            panic!("envelopes are objects");
        };
        entries.retain(|(k, _)| k != "format_version");
    });
    assert!(matches!(
        Checkpoint::from_json_str(&no_version),
        Err(CheckpointError::Malformed(_))
    ));
    // Future version: rejected before the payload is even decoded.
    let future = edited(&json, |doc| {
        *entry_mut(doc, "format_version") = Value::Number(7.0);
    });
    assert!(matches!(
        Checkpoint::from_json_str(&future),
        Err(CheckpointError::UnsupportedVersion { found: 7, .. })
    ));
    // An HDC encoder without its dictionary.
    let bad_dict = edited(&json, |doc| {
        let hdc = entry_mut(
            entry_mut(entry_mut(doc, "model"), "attribute_encoder"),
            "hdc",
        );
        let Value::Object(entries) = hdc else {
            panic!("the HDC encoder is an object");
        };
        let (key, _) = entries
            .iter_mut()
            .find(|(k, _)| k == "dictionary")
            .expect("dictionary present");
        *key = "dictionary_gone".to_string();
    });
    let err = Checkpoint::from_json_str(&bad_dict).unwrap_err();
    let message = err.to_string();
    assert!(
        matches!(err, CheckpointError::Malformed(_)) && message.contains("dictionary"),
        "unexpected error: {message}"
    );
    // Envelope/payload disagreement on the feature width.
    let bad_width = edited(&json, |doc| {
        assert_eq!(*entry_mut(doc, "feature_dim"), Value::Number(8.0));
        *entry_mut(doc, "feature_dim") = Value::Number(9.0);
    });
    assert!(matches!(
        Checkpoint::from_json_str(&bad_width),
        Err(CheckpointError::DimensionMismatch { .. })
    ));
    // Negative temperature.
    let bad_temp = edited(&json, |doc| {
        *entry_mut(entry_mut(doc, "model"), "temperature_k") = Value::Number(-0.5);
    });
    assert!(matches!(
        Checkpoint::from_json_str(&bad_temp),
        Err(CheckpointError::Malformed(_))
    ));

    // The untouched document still parses (guards against the corruptions
    // above silently not applying).
    assert!(Checkpoint::from_json_str(&json).is_ok());
}

/// An *internally consistent* attribute encoder whose α disagrees with the
/// envelope must still be rejected with a typed error — not accepted and
/// left to panic at the first query.
#[test]
fn encoder_attribute_count_mismatch_is_rejected() {
    let config = ModelConfig::tiny()
        .with_attribute_encoder(AttributeEncoderKind::TrainableMlp)
        .with_seed(4);
    let cub = schema();
    let full = ZscModel::new(&config, &cub, 8);
    // Same configuration, but an attribute space of α = 12 instead of 312.
    let small_schema = AttributeSchema::synthetic(4, 3);
    let small = ZscModel::new(&config, &small_schema, 8);

    let mut doc = serde_json::parse_value(&Checkpoint::capture(&full, &cub).to_json())
        .expect("checkpoint JSON parses");
    let small_doc = serde_json::parse_value(&Checkpoint::capture(&small, &small_schema).to_json())
        .expect("checkpoint JSON parses");
    // Splice the α = 12 encoder (valid on its own) into the α = 312
    // envelope; everything else — fingerprint, phase-II dictionary — still
    // says 312.
    let small_encoder = small_doc
        .get("model")
        .and_then(|m| m.get("attribute_encoder"))
        .expect("encoder subtree present")
        .clone();
    *entry_mut(entry_mut(&mut doc, "model"), "attribute_encoder") = small_encoder;

    let tampered = serde_json::to_string(&doc).expect("render tampered document");
    match Checkpoint::from_json_str(&tampered) {
        Err(CheckpointError::DimensionMismatch {
            what,
            expected: 312,
            found: 12,
        }) => assert!(what.contains("encoder")),
        other => panic!("expected an encoder-α DimensionMismatch, got {other:?}"),
    }
}

/// Documents written pretty-printed by an earlier build (a tiny calibrated
/// model checkpoint, and a serve delta with a routed index, a threshold and
/// stream counters) still load, and the compact documents the current
/// writer renders from them hold the same tree.
#[test]
fn pretty_documents_from_an_earlier_build_still_load() {
    let model_text = include_str!("pretty_v2/model.json");
    let delta_text = include_str!("pretty_v2/delta.json");
    for text in [model_text, delta_text] {
        assert!(text.contains("\n  \"kind\": "), "fixture is pretty-printed");
    }

    let checkpoint = Checkpoint::from_json_str(model_text).expect("pretty checkpoint loads");
    assert!(checkpoint.calibration.is_some());
    let compact = checkpoint.to_json();
    assert!(!compact.contains('\n'), "the writer renders compact");
    assert_eq!(
        serde_json::parse_value(&compact).expect("compact parses"),
        serde_json::parse_value(model_text).expect("fixture parses")
    );

    let delta = CheckpointDelta::from_json_str(delta_text).expect("pretty delta loads");
    assert!(delta.routed.is_some() && delta.threshold.is_some() && delta.stream.is_some());
    let compact = delta.to_json();
    assert!(!compact.contains('\n'), "the writer renders compact");
    assert_eq!(
        serde_json::parse_value(&compact).expect("compact parses"),
        serde_json::parse_value(delta_text).expect("fixture parses")
    );
}
