//! Model checkpointing: a versioned JSON envelope around a trained
//! [`ZscModel`], so models are trained once and served many times.
//!
//! A [`Checkpoint`] pins three things next to the model weights:
//!
//! * a **format version**, checked *before* the model payload is decoded so
//!   future layout changes fail fast with a typed error;
//! * the **model configuration** the model was built from;
//! * a **schema fingerprint** (`G`/`V`/`α` counts), so a checkpoint trained
//!   against one attribute schema cannot be silently served against another.
//!
//! Loading validates dimensions and invariants end to end (see the
//! hand-written `Deserialize` impls on the model parts) and reports every
//! failure as a [`CheckpointError`] instead of panicking. Derived state —
//! gradient buffers, similarity-kernel caches, the engine's packed class
//! memories, thread pools — is intentionally not persisted and is rebuilt on
//! load.
//!
//! # Layout versions and kinds
//!
//! Version 2 (current) adds a `kind` discriminator to the envelope so the
//! two on-disk documents this crate writes — a plain model checkpoint
//! (`"model"`) and a serve-time [`CheckpointDelta`] (`"serve-delta"`, the
//! compaction base of the serving layer's write-ahead log) — cannot be
//! confused for one another: loading a delta through the model loader (or
//! vice versa) fails with [`CheckpointError::WrongKind`] instead of a
//! confusing payload error.
//!
//! Only version 2 loads: version 1 (no `kind` field), which no build has
//! written since the delta envelope was introduced, fails with
//! [`CheckpointError::UnsupportedVersion`]. A delta must carry
//! its `routed`, `threshold` and `stream` keys — the writer always emits
//! them, as `null` when empty — so a missing one is
//! [`CheckpointError::Malformed`]. A model checkpoint's `calibration` key
//! stays optional: an uncalibrated checkpoint is written without it. Every
//! document the current writer produces loads.
//!
//! Both documents are written as compact JSON, with no whitespace between
//! tokens. The loaders ignore whitespace, so pretty-printed documents that
//! earlier builds wrote load unchanged, and those builds load compact ones.
//!
//! All saves are atomic: the document is written to a sibling `.tmp` file,
//! fsynced, and `rename`d over the destination, so a crash mid-save can
//! never corrupt the only good checkpoint.
//!
//! # Example
//!
//! ```
//! use dataset::AttributeSchema;
//! use hdc_zsc::{Checkpoint, ModelConfig, ZscModel};
//!
//! let schema = AttributeSchema::cub200();
//! let model = ZscModel::new(&ModelConfig::tiny(), &schema, 48);
//! let checkpoint = Checkpoint::capture(&model, &schema);
//! let json = checkpoint.to_json();
//! let restored = Checkpoint::from_json_str(&json)
//!     .and_then(|c| c.into_model(&schema))
//!     .expect("round trip");
//! assert_eq!(restored.embedding_dim(), 64);
//! ```

use crate::config::ModelConfig;
use crate::eval::SimilarityCalibration;
use crate::model::ZscModel;
use dataset::AttributeSchema;
use engine::{RoutedClassMemory, ShardedClassMemory};
use serde::{de, DeError, Deserialize, Serialize, Value};
use std::io::Write;
use std::path::Path;

/// Version of the on-disk checkpoint layout produced by this crate.
///
/// Version 2 added the `kind` discriminator and the [`CheckpointDelta`]
/// envelope; it is the only version this build reads.
pub const CHECKPOINT_FORMAT_VERSION: u32 = 2;

/// `kind` discriminator of a plain model checkpoint.
const KIND_MODEL: &str = "model";

/// `kind` discriminator of a serve-time checkpoint delta.
const KIND_DELTA: &str = "serve-delta";

/// The attribute-schema shape a checkpoint was trained against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchemaFingerprint {
    /// Number of attribute groups (`G`).
    pub groups: usize,
    /// Number of unique attribute values (`V`).
    pub values: usize,
    /// Number of attributes (`α`).
    pub attributes: usize,
}

impl SchemaFingerprint {
    /// The fingerprint of a concrete schema.
    pub fn of(schema: &AttributeSchema) -> Self {
        Self {
            groups: schema.num_groups(),
            values: schema.num_values(),
            attributes: schema.num_attributes(),
        }
    }
}

impl std::fmt::Display for SchemaFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "G={} V={} α={}",
            self.groups, self.values, self.attributes
        )
    }
}

/// Why a checkpoint could not be saved or loaded.
///
/// Marked `#[non_exhaustive]`: future layouts may add failure modes, so
/// downstream matches must keep a wildcard arm.
#[derive(Debug)]
#[must_use = "a checkpoint error describes why the model cannot be served and should be handled"]
#[non_exhaustive]
pub enum CheckpointError {
    /// Reading or writing the file failed.
    Io(std::io::Error),
    /// The document is not valid JSON or does not decode into a checkpoint.
    Malformed(String),
    /// The document declares a layout version this build cannot read.
    UnsupportedVersion {
        /// Version found in the document.
        found: u32,
        /// Version this build writes and reads.
        supported: u32,
    },
    /// The checkpoint was trained against a different attribute schema.
    SchemaMismatch {
        /// Fingerprint stored in the checkpoint.
        checkpoint: SchemaFingerprint,
        /// Fingerprint of the schema the caller wants to serve.
        requested: SchemaFingerprint,
    },
    /// Two parts of the checkpoint disagree about a dimension.
    DimensionMismatch {
        /// Which dimension disagrees.
        what: &'static str,
        /// Value implied by one part.
        expected: usize,
        /// Value found in the other.
        found: usize,
    },
    /// The document is a valid envelope of a different kind — e.g. a
    /// serve-time delta handed to the model loader, or vice versa.
    WrongKind {
        /// The `kind` declared by the document.
        found: String,
        /// The kind the loader expected.
        expected: &'static str,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            CheckpointError::Malformed(msg) => write!(f, "malformed checkpoint: {msg}"),
            CheckpointError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported checkpoint format version {found} (this build reads {supported})"
            ),
            CheckpointError::SchemaMismatch {
                checkpoint,
                requested,
            } => write!(
                f,
                "schema mismatch: checkpoint was trained against {checkpoint}, \
                 requested schema is {requested}"
            ),
            CheckpointError::DimensionMismatch {
                what,
                expected,
                found,
            } => write!(
                f,
                "dimension mismatch: {what} should be {expected}, found {found}"
            ),
            CheckpointError::WrongKind { found, expected } => write!(
                f,
                "wrong checkpoint kind: expected `{expected}`, found `{found}`"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// A versioned, self-describing envelope around a trained [`ZscModel`].
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Layout version; always [`CHECKPOINT_FORMAT_VERSION`], the only
    /// version this build reads and writes.
    pub format_version: u32,
    /// The configuration the model was constructed from.
    pub model_config: ModelConfig,
    /// Backbone feature width `d'` the model ingests.
    pub feature_dim: usize,
    /// Shape of the attribute schema the model was trained against.
    pub schema: SchemaFingerprint,
    /// A fitted serve-time rejection threshold, if the model has been
    /// calibrated ([`SimilarityCalibrator`](crate::SimilarityCalibrator)).
    /// An uncalibrated checkpoint writes no `calibration` key and loads as
    /// `None`.
    pub calibration: Option<SimilarityCalibration>,
    /// The model weights.
    pub model: ZscModel,
}

/// Envelope layout, kept field-by-field so the optional `calibration` key
/// can stay additive — the derived impl would reject documents missing it.
impl Serialize for Checkpoint {
    fn to_value(&self) -> Value {
        let mut entries = vec![
            (
                "format_version".to_string(),
                CHECKPOINT_FORMAT_VERSION.to_value(),
            ),
            ("model_config".to_string(), self.model_config.to_value()),
            ("feature_dim".to_string(), self.feature_dim.to_value()),
            ("schema".to_string(), self.schema.to_value()),
        ];
        if let Some(calibration) = &self.calibration {
            entries.push(("calibration".to_string(), calibration.to_value()));
        }
        entries.push(("model".to_string(), self.model.to_value()));
        Value::Object(entries)
    }
}

impl Deserialize for Checkpoint {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let entries = de::expect_object(value, "Checkpoint")?;
        // Uncalibrated checkpoints carry no `calibration` key; treat a
        // missing key exactly like an explicit null.
        let calibration = match value.get("calibration") {
            None => None,
            Some(v) => Option::<SimilarityCalibration>::from_value(v)
                .map_err(|e| e.in_field("Checkpoint"))?,
        };
        Ok(Self {
            format_version: de::field(entries, "format_version", "Checkpoint")?,
            model_config: de::field(entries, "model_config", "Checkpoint")?,
            feature_dim: de::field(entries, "feature_dim", "Checkpoint")?,
            schema: de::field(entries, "schema", "Checkpoint")?,
            calibration,
            model: de::field(entries, "model", "Checkpoint")?,
        })
    }
}

impl Checkpoint {
    /// Captures a model (cloning its weights) together with the schema it
    /// was trained against.
    pub fn capture(model: &ZscModel, schema: &AttributeSchema) -> Self {
        Self {
            format_version: CHECKPOINT_FORMAT_VERSION,
            model_config: *model.config(),
            feature_dim: model.image_encoder().feature_dim(),
            schema: SchemaFingerprint::of(schema),
            calibration: None,
            model: model.clone(),
        }
    }

    /// Attaches a fitted rejection calibration to the checkpoint.
    pub fn with_calibration(mut self, calibration: SimilarityCalibration) -> Self {
        self.calibration = Some(calibration);
        self
    }

    /// Renders the checkpoint as compact JSON in the current layout
    /// (version [`CHECKPOINT_FORMAT_VERSION`], kind `"model"`).
    pub fn to_json(&self) -> String {
        let mut entries = match Serialize::to_value(self) {
            Value::Object(entries) => entries,
            _ => unreachable!("checkpoints serialize as objects"),
        };
        entries.insert(1, ("kind".to_string(), KIND_MODEL.to_string().to_value()));
        serde_json::to_string(&Value::Object(entries))
            .expect("checkpoint serialization is infallible")
    }

    /// Writes the checkpoint as JSON to `path` through [`atomic_write`], so
    /// a crash mid-save leaves any previous checkpoint at `path` intact.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] if the file cannot be written.
    pub fn save_json(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        atomic_write(path.as_ref(), self.to_json().as_bytes()).map_err(CheckpointError::from)
    }

    /// Parses a checkpoint from a JSON string.
    ///
    /// The format version is checked *before* the model payload is decoded,
    /// so documents of any other layout version (the retired version 1
    /// included) fail with [`CheckpointError::UnsupportedVersion`] rather
    /// than a decoding error. The document must be `kind: "model"`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Malformed`] for syntactically or
    /// structurally invalid documents,
    /// [`CheckpointError::UnsupportedVersion`] for version mismatches, and
    /// [`CheckpointError::WrongKind`] when the document is a different
    /// envelope (e.g. a serve-time [`CheckpointDelta`]).
    pub fn from_json_str(json: &str) -> Result<Self, CheckpointError> {
        let value =
            serde_json::parse_value(json).map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        expect_envelope(&value, KIND_MODEL)?;
        let checkpoint: Checkpoint = serde_json::from_value(&value)
            .map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        checkpoint.validate_internal()?;
        Ok(checkpoint)
    }

    /// Reads and parses a checkpoint from a JSON file.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] on read failures, plus everything
    /// [`Checkpoint::from_json_str`] reports.
    pub fn load_json(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let json = std::fs::read_to_string(path)?;
        Self::from_json_str(&json)
    }

    /// Checks the checkpoint against the schema the caller intends to serve.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::SchemaMismatch`] if the fingerprints
    /// disagree.
    pub fn validate_schema(&self, schema: &AttributeSchema) -> Result<(), CheckpointError> {
        let requested = SchemaFingerprint::of(schema);
        if self.schema != requested {
            return Err(CheckpointError::SchemaMismatch {
                checkpoint: self.schema,
                requested,
            });
        }
        Ok(())
    }

    /// Consumes the checkpoint and hands back the model, after validating it
    /// against the serving schema.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::SchemaMismatch`] if the schema fingerprints
    /// disagree.
    pub fn into_model(self, schema: &AttributeSchema) -> Result<ZscModel, CheckpointError> {
        self.validate_schema(schema)?;
        Ok(self.model)
    }

    /// Consumes the checkpoint straight into an immutable
    /// [`FrozenModel`](crate::FrozenModel), after validating it against the
    /// serving schema — the load path of the serving layer: no intermediate
    /// mutable model, no extra copy.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::SchemaMismatch`] if the schema fingerprints
    /// disagree.
    pub fn into_frozen(
        self,
        schema: &AttributeSchema,
    ) -> Result<crate::FrozenModel, CheckpointError> {
        self.into_model(schema).map(crate::FrozenModel::new)
    }

    /// Envelope-level consistency: the fields outside the model payload must
    /// agree with the payload itself.
    fn validate_internal(&self) -> Result<(), CheckpointError> {
        let model_feature_dim = self.model.image_encoder().feature_dim();
        if self.feature_dim != model_feature_dim {
            return Err(CheckpointError::DimensionMismatch {
                what: "backbone feature width",
                expected: self.feature_dim,
                found: model_feature_dim,
            });
        }
        if self.schema.attributes != self.model.phase2_dictionary().rows() {
            return Err(CheckpointError::DimensionMismatch {
                what: "attribute count α",
                expected: self.schema.attributes,
                found: self.model.phase2_dictionary().rows(),
            });
        }
        // The attribute encoder itself must ingest α-wide class-attribute
        // matrices too; without this check an internally-consistent but
        // differently-sized encoder would pass load and panic at first
        // query instead of failing typed.
        let encoder_alpha = self.model.attribute_encoder().num_attributes();
        if self.schema.attributes != encoder_alpha {
            return Err(CheckpointError::DimensionMismatch {
                what: "attribute encoder α",
                expected: self.schema.attributes,
                found: encoder_alpha,
            });
        }
        if self.model_config != *self.model.config() {
            return Err(CheckpointError::Malformed(
                "envelope model_config disagrees with the model payload".to_string(),
            ));
        }
        if let Some(calibration) = &self.calibration {
            if !calibration.threshold.is_finite() {
                return Err(CheckpointError::Malformed(
                    "calibration threshold must be finite".to_string(),
                ));
            }
            if !(0.0..1.0).contains(&calibration.target_false_reject) {
                return Err(CheckpointError::Malformed(
                    "calibration target false-reject rate must lie in [0, 1)".to_string(),
                ));
            }
        }
        Ok(())
    }
}

/// Checks an envelope document's `format_version` (which must be
/// [`CHECKPOINT_FORMAT_VERSION`]) and then its `kind` discriminator.
fn expect_envelope(value: &Value, expected: &'static str) -> Result<(), CheckpointError> {
    let version_value = value
        .get("format_version")
        .ok_or_else(|| CheckpointError::Malformed("missing `format_version`".to_string()))?;
    let found = serde_json::from_value::<u32>(version_value)
        .map_err(|e| CheckpointError::Malformed(e.to_string()))?;
    if found != CHECKPOINT_FORMAT_VERSION {
        return Err(CheckpointError::UnsupportedVersion {
            found,
            supported: CHECKPOINT_FORMAT_VERSION,
        });
    }
    let kind_value = value
        .get("kind")
        .ok_or_else(|| CheckpointError::Malformed("missing `kind`".to_string()))?;
    let found = serde_json::from_value::<String>(kind_value)
        .map_err(|e| CheckpointError::Malformed(e.to_string()))?;
    if found != expected {
        return Err(CheckpointError::WrongKind { found, expected });
    }
    Ok(())
}

/// Writes `contents` to `path` atomically: a sibling `<name>.tmp` file,
/// fsync, `rename` over `path`, then an fsync of the directory that makes
/// the rename durable. A crash at any point leaves either the old file or
/// the new one, never a torn mix. This is the workspace's one atomic
/// replace: both checkpoint saves and the write-ahead log's create and
/// rotate go through it.
///
/// # Errors
///
/// Any I/O error of the four steps. An error from the directory fsync comes
/// after the rename, so `path` may then already hold `contents`.
pub fn atomic_write(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    let file_name = path
        .file_name()
        .ok_or_else(|| std::io::Error::other("path has no file name"))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(contents)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    let dir = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)?.sync_all()
}

/// Continual-learning stream state captured inside a [`CheckpointDelta`]:
/// the exact per-class prototype counters plus the publication batching
/// position at compaction time.
///
/// The counters are the ground truth of streamed learning — prototypes are
/// re-derived from them by re-signing, so persisting them exactly (i32
/// sums, observation counts) makes recovery counter-exact even when the
/// compaction base was written mid-batch: `pending` names the classes whose
/// counters have changed since their last publication, and `since_publish`
/// is how far the automatic `publish_every` cadence had advanced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamCheckpoint {
    /// Exact per-class bundling counters (see [`hdc::ClassAccumulator`]).
    pub accumulators: hdc::ClassAccumulator,
    /// Labels observed since their last publication, in sorted order —
    /// the classes the next publication boundary will re-sign.
    pub pending: Vec<String>,
    /// Observes folded since the last publication boundary; the automatic
    /// boundary fires when this reaches the server's `publish_every`.
    pub since_publish: u64,
}

/// A serve-time compaction base: a model [`Checkpoint`] plus the exact
/// sharded class memory at a known snapshot version, with the write-ahead
/// log sequence number the memory already folds in.
///
/// This is the "checkpoint delta" half of the serving layer's durability
/// contract (`serve::wal`): recovery loads the delta, rebuilds the class
/// memory bit-identically (shard assignment included, see
/// [`ShardedClassMemory`]'s serde docs), and replays only WAL records with
/// `seq >= next_record_seq` on top.
///
/// Serialized as a version-2 envelope with `kind: "serve-delta"`, so it can
/// never be confused with a plain model checkpoint.
#[derive(Debug, Clone)]
pub struct CheckpointDelta {
    /// Snapshot version of the serving memory at capture time; recovery
    /// resumes version numbering from here.
    pub snapshot_version: u64,
    /// The WAL sequence number of the first record *not* folded into
    /// `memory` — replay applies records with `seq >= next_record_seq`.
    pub next_record_seq: u64,
    /// The model that encodes class attributes into prototypes.
    pub base: Checkpoint,
    /// The exact sharded class memory at capture time.
    pub memory: ShardedClassMemory,
    /// The exact routed coarse-to-fine index at capture time, for servers
    /// running in routed mode. Routing structure evolves *incrementally*
    /// under class mutations, so it cannot be re-derived from `memory`
    /// alone — the delta captures it exactly (cluster assignment, centroids,
    /// drift counter) so recovery resumes the identical index. `None` for
    /// non-routed servers; otherwise it holds exactly `memory`'s classes,
    /// word for word (a routed server writes its clusters as `memory`).
    pub routed: Option<RoutedClassMemory>,
    /// The serve-time rejection threshold active at capture time, set and
    /// cleared over the wire mid-traffic (so it can differ from the base
    /// checkpoint's fitted calibration); `None` when no threshold is set.
    pub threshold: Option<f32>,
    /// Continual-learning stream state at capture time: exact per-class
    /// prototype counters plus the publication batching position, over
    /// labels `memory` holds; `None` for servers that never observed an
    /// example.
    pub stream: Option<StreamCheckpoint>,
}

impl CheckpointDelta {
    /// Renders the delta as compact JSON (version-2 envelope, kind
    /// `"serve-delta"`).
    pub fn to_json(&self) -> String {
        let value = Value::Object(vec![
            (
                "format_version".to_string(),
                CHECKPOINT_FORMAT_VERSION.to_value(),
            ),
            ("kind".to_string(), KIND_DELTA.to_string().to_value()),
            (
                "snapshot_version".to_string(),
                self.snapshot_version.to_value(),
            ),
            (
                "next_record_seq".to_string(),
                self.next_record_seq.to_value(),
            ),
            ("base".to_string(), Serialize::to_value(&self.base)),
            ("memory".to_string(), self.memory.to_value()),
            ("routed".to_string(), self.routed.to_value()),
            ("threshold".to_string(), self.threshold.to_value()),
            ("stream".to_string(), self.stream.to_value()),
        ]);
        serde_json::to_string(&value).expect("delta serialization is infallible")
    }

    /// Parses a delta from a JSON string, validating the envelope (version
    /// checked before the payload, kind must be `"serve-delta"`), the model
    /// payload, the memory's structural invariants, that the memory's
    /// prototype dimensionality matches the model's embedding width, that
    /// the routed index holds exactly the memory's classes with the same
    /// words, and that the stream counters name only classes the memory
    /// holds.
    ///
    /// # Errors
    ///
    /// Everything [`Checkpoint::from_json_str`] reports, plus
    /// [`CheckpointError::DimensionMismatch`] when the memory, routed index
    /// or stream counters do not fit the model, and
    /// [`CheckpointError::Malformed`] when a `routed`, `threshold` or
    /// `stream` key is missing, the routed index disagrees with the
    /// memory's classes or words, or the stream counters name a class the
    /// memory does not hold.
    pub fn from_json_str(json: &str) -> Result<Self, CheckpointError> {
        let value =
            serde_json::parse_value(json).map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        expect_envelope(&value, KIND_DELTA)?;
        let field = |name: &'static str| {
            value
                .get(name)
                .ok_or_else(|| CheckpointError::Malformed(format!("missing `{name}`")))
        };
        let snapshot_version = serde_json::from_value::<u64>(field("snapshot_version")?)
            .map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        let next_record_seq = serde_json::from_value::<u64>(field("next_record_seq")?)
            .map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        let base = serde_json::from_value::<Checkpoint>(field("base")?)
            .map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        base.validate_internal()?;
        let memory = serde_json::from_value::<ShardedClassMemory>(field("memory")?)
            .map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        let routed = serde_json::from_value::<Option<RoutedClassMemory>>(field("routed")?)
            .map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        if let Some(routed) = routed.as_ref().map(RoutedClassMemory::as_sharded) {
            if routed.dim() != memory.dim() {
                return Err(CheckpointError::DimensionMismatch {
                    what: "routed index dimensionality",
                    expected: memory.dim(),
                    found: routed.dim(),
                });
            }
            // A routed server scores through `routed` when it is present,
            // while registration and the stream seed read `memory`, so both
            // must hold the same classes with the same words.
            if routed.len() != memory.len()
                || !routed
                    .labels()
                    .all(|l| memory.class_words(l) == routed.class_words(l))
            {
                return Err(CheckpointError::Malformed(
                    "routed index labels or words differ from the memory's".to_string(),
                ));
            }
        }
        let threshold = serde_json::from_value::<Option<f32>>(field("threshold")?)
            .map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        if let Some(threshold) = threshold {
            if !threshold.is_finite() {
                return Err(CheckpointError::Malformed(
                    "serve threshold must be finite".to_string(),
                ));
            }
        }
        let stream = serde_json::from_value::<Option<StreamCheckpoint>>(field("stream")?)
            .map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        if let Some(stream) = &stream {
            if stream.accumulators.dim() != memory.dim() {
                return Err(CheckpointError::DimensionMismatch {
                    what: "stream accumulator dimensionality",
                    expected: memory.dim(),
                    found: stream.accumulators.dim(),
                });
            }
            // Removing a class drops its counters, and publishing a pending
            // counter re-adds its class, so a counter for a class `memory`
            // does not hold would resurrect it.
            for label in stream.accumulators.labels() {
                if !memory.contains(label) {
                    return Err(CheckpointError::Malformed(format!(
                        "stream accumulator `{label}` names no registered class"
                    )));
                }
            }
            for label in &stream.pending {
                if !stream.accumulators.contains(label) {
                    return Err(CheckpointError::Malformed(format!(
                        "stream pending label `{label}` has no accumulator"
                    )));
                }
            }
        }
        if memory.dim() != base.model.embedding_dim() {
            return Err(CheckpointError::DimensionMismatch {
                what: "class prototype dimensionality",
                expected: base.model.embedding_dim(),
                found: memory.dim(),
            });
        }
        Ok(Self {
            snapshot_version,
            next_record_seq,
            base,
            memory,
            routed,
            threshold,
            stream,
        })
    }

    /// Writes the delta as JSON to `path` through [`atomic_write`].
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] if the file cannot be written.
    pub fn save_json(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        atomic_write(path.as_ref(), self.to_json().as_bytes()).map_err(CheckpointError::from)
    }

    /// Reads and parses a delta from a JSON file.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] on read failures, plus everything
    /// [`CheckpointDelta::from_json_str`] reports.
    pub fn load_json(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let json = std::fs::read_to_string(path)?;
        Self::from_json_str(&json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute_encoder::AttributeEncoderKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensor::Matrix;

    fn schema() -> AttributeSchema {
        AttributeSchema::cub200()
    }

    fn fixture_model(kind: AttributeEncoderKind) -> ZscModel {
        ZscModel::new(
            &ModelConfig::tiny()
                .with_attribute_encoder(kind)
                .with_seed(7),
            &schema(),
            48,
        )
    }

    /// Parses `json`, lets `edit` change the document tree, and renders it
    /// back: edits reach the key they name whatever the text's layout.
    fn edited(json: &str, edit: impl FnOnce(&mut Vec<(String, Value)>)) -> String {
        let mut value = serde_json::parse_value(json).expect("document parses");
        let Value::Object(entries) = &mut value else {
            panic!("envelopes are objects");
        };
        edit(entries);
        serde_json::to_string(&value).expect("document renders")
    }

    /// The value under `key` in an object's entries.
    fn entry<'v>(entries: &'v mut [(String, Value)], key: &str) -> &'v mut Value {
        &mut entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("missing key `{key}`"))
            .1
    }

    /// Drops `key` from an object's entries.
    fn remove(entries: &mut Vec<(String, Value)>, key: &str) {
        let before = entries.len();
        entries.retain(|(k, _)| k != key);
        assert_eq!(entries.len() + 1, before, "`{key}` removed once");
    }

    #[test]
    fn round_trip_preserves_logits_bit_exactly() {
        let s = schema();
        let mut rng = StdRng::seed_from_u64(1);
        let features = Matrix::random_uniform(4, 48, 1.0, &mut rng);
        let class_attributes = Matrix::random_uniform(6, 312, 0.5, &mut rng).map(f32::abs);
        for kind in [
            AttributeEncoderKind::Hdc,
            AttributeEncoderKind::TrainableMlp,
        ] {
            let model = fixture_model(kind);
            let json = Checkpoint::capture(&model, &s).to_json();
            let restored = Checkpoint::from_json_str(&json)
                .and_then(|c| c.into_frozen(&s))
                .expect("round trip");
            let original = model.class_logits(&features, &class_attributes);
            let loaded = restored.class_logits(&features, &class_attributes);
            assert_eq!(original.as_slice(), loaded.as_slice(), "{kind}");
            let original_attr = model.attribute_logits(&features);
            let loaded_attr = restored.attribute_logits(&features);
            assert_eq!(original_attr.as_slice(), loaded_attr.as_slice(), "{kind}");
        }
    }

    #[test]
    fn wrong_version_is_rejected_before_the_payload() {
        let s = schema();
        let model = fixture_model(AttributeEncoderKind::Hdc);
        let json = edited(&Checkpoint::capture(&model, &s).to_json(), |doc| {
            *entry(doc, "format_version") = Value::Number(99.0);
        });
        match Checkpoint::from_json_str(&json) {
            Err(CheckpointError::UnsupportedVersion {
                found: 99,
                supported,
            }) => {
                assert_eq!(supported, CHECKPOINT_FORMAT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    /// The retired version-1 layout — no `kind` field, `format_version: 1` —
    /// fails typed through both loaders.
    #[test]
    fn version_1_documents_are_rejected() {
        let s = schema();
        let model = fixture_model(AttributeEncoderKind::Hdc);
        // Drop only the envelope's own kind (the model payload nests a
        // `kind` of its own).
        let v1 = edited(&Checkpoint::capture(&model, &s).to_json(), |doc| {
            *entry(doc, "format_version") = Value::Number(1.0);
            remove(doc, "kind");
        });
        for result in [
            Checkpoint::from_json_str(&v1).map(|_| ()),
            CheckpointDelta::from_json_str(&v1).map(|_| ()),
        ] {
            assert!(
                matches!(
                    result,
                    Err(CheckpointError::UnsupportedVersion {
                        found: 1,
                        supported: CHECKPOINT_FORMAT_VERSION,
                    })
                ),
                "{result:?}"
            );
        }
    }

    /// The optional `calibration` field: present it round-trips bit-exactly,
    /// and an uncalibrated checkpoint writes no key at all and loads as
    /// `None`.
    #[test]
    fn calibration_is_additive_and_round_trips_bit_exactly() {
        let s = schema();
        let model = fixture_model(AttributeEncoderKind::Hdc);
        let uncalibrated = Checkpoint::capture(&model, &s);
        assert!(uncalibrated.calibration.is_none());
        assert!(!uncalibrated.to_json().contains("\"calibration\""));
        let restored =
            Checkpoint::from_json_str(&uncalibrated.to_json()).expect("uncalibrated loads");
        assert!(restored.calibration.is_none());

        let calibration = crate::SimilarityCalibrator::new(0.1).fit(&[0.2, 0.5, 0.9, 0.7]);
        let calibrated = Checkpoint::capture(&model, &s).with_calibration(calibration);
        let json = calibrated.to_json();
        assert!(json.contains("\"calibration\""));
        let restored = Checkpoint::from_json_str(&json).expect("calibrated loads");
        let restored_calibration = restored.calibration.expect("calibration survives");
        assert_eq!(
            restored_calibration.threshold.to_bits(),
            calibration.threshold.to_bits()
        );
        assert_eq!(restored_calibration, calibration);

        // A garbage threshold is a typed malformed-checkpoint error, not a
        // panic at first query.
        let bad = edited(&json, |doc| {
            let Value::Object(calibration) = entry(doc, "calibration") else {
                panic!("calibration is an object");
            };
            *entry(calibration, "threshold") = Value::Null;
        });
        assert_ne!(bad, json);
        assert!(matches!(
            Checkpoint::from_json_str(&bad),
            Err(CheckpointError::Malformed(_))
        ));
    }

    /// A current-layout document with the wrong (or a missing) kind is a
    /// different envelope, not a malformed checkpoint.
    #[test]
    fn wrong_kind_is_rejected() {
        let s = schema();
        let model = fixture_model(AttributeEncoderKind::Hdc);
        let json = Checkpoint::capture(&model, &s).to_json();
        let delta_kind = edited(&json, |doc| {
            *entry(doc, "kind") = Value::String("serve-delta".to_string());
        });
        match Checkpoint::from_json_str(&delta_kind) {
            Err(CheckpointError::WrongKind { found, expected }) => {
                assert_eq!(found, "serve-delta");
                assert_eq!(expected, "model");
            }
            other => panic!("expected WrongKind, got {other:?}"),
        }
        let missing_kind = edited(&json, |doc| remove(doc, "kind"));
        assert!(matches!(
            Checkpoint::from_json_str(&missing_kind),
            Err(CheckpointError::Malformed(_))
        ));
    }

    /// The satellite bugfix: saving goes through a temp file + rename, so a
    /// stale partial `.tmp` (a crashed half-save) never shadows the valid
    /// checkpoint, and a successful save cleans up after itself.
    #[test]
    fn save_is_atomic_and_partial_temp_files_never_shadow_a_checkpoint() {
        let s = schema();
        let model = fixture_model(AttributeEncoderKind::Hdc);
        let checkpoint = Checkpoint::capture(&model, &s);
        let dir = std::env::temp_dir().join(format!("zsc-ckpt-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("ckpt.json");
        checkpoint.save_json(&path).expect("first save");
        assert!(!dir.join("ckpt.json.tmp").exists(), "temp file cleaned up");
        // Simulate a crash mid-save: a torn temp file next to the good one.
        std::fs::write(dir.join("ckpt.json.tmp"), "{\"format_version\": 2, \"ki")
            .expect("write torn temp");
        let restored = Checkpoint::load_json(&path).expect("good checkpoint untouched");
        assert_eq!(restored.feature_dim, checkpoint.feature_dim);
        // A subsequent save replaces both the torn temp and the file.
        checkpoint.save_json(&path).expect("second save");
        assert!(!dir.join("ckpt.json.tmp").exists());
        Checkpoint::load_json(&path).expect("still valid");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Delta round trip: memory (shard assignment included) and sequence
    /// bookkeeping survive bit-exactly, the `routed`, `threshold` and
    /// `stream` keys are required (as `null` when empty), and the two
    /// envelope kinds cannot be confused for each other.
    #[test]
    fn delta_round_trips_and_kinds_do_not_cross() {
        let s = schema();
        let model = fixture_model(AttributeEncoderKind::Hdc);
        let mut rng = StdRng::seed_from_u64(3);
        let class_attributes = Matrix::random_uniform(5, 312, 0.5, &mut rng).map(f32::abs);
        let labels: Vec<String> = (0..5).map(|c| format!("class{c}")).collect();
        let memory = model.sharded_class_memory(labels.clone(), &class_attributes, 3);
        let routed = RoutedClassMemory::from_sign_matrix(
            labels,
            &model.attribute_encoder().infer_classes(&class_attributes),
            engine::RoutedConfig {
                clusters: 2,
                ..engine::RoutedConfig::default()
            },
        );
        let mut accumulators = hdc::ClassAccumulator::new(memory.dim());
        let example = hdc::BipolarHypervector::random(memory.dim(), &mut rng);
        accumulators
            .observe("class1", &example)
            .expect("observe fits");
        let stream = StreamCheckpoint {
            accumulators,
            pending: vec!["class1".to_string()],
            since_publish: 1,
        };
        let delta = CheckpointDelta {
            snapshot_version: 41,
            next_record_seq: 17,
            base: Checkpoint::capture(&model, &s),
            memory: memory.clone(),
            routed: Some(routed.clone()),
            threshold: Some(0.314),
            stream: Some(stream.clone()),
        };
        let json = delta.to_json();
        let restored = CheckpointDelta::from_json_str(&json).expect("delta round trip");
        assert_eq!(restored.snapshot_version, 41);
        assert_eq!(restored.next_record_seq, 17);
        assert_eq!(restored.memory, memory);
        // The serve threshold round-trips bit-exactly, the routed index
        // exactly — structure, drift and all — and the stream counters
        // exactly (counts, observation tallies, batching position).
        assert_eq!(
            restored.threshold.map(f32::to_bits),
            Some(0.314f32.to_bits())
        );
        assert_eq!(restored.routed.as_ref(), Some(&routed));
        assert_eq!(restored.stream.as_ref(), Some(&stream));
        restored.base.validate_schema(&s).expect("schema preserved");
        // Empty optional state is written as explicit nulls and loads back
        // as `None`; a missing key is malformed.
        let empty = CheckpointDelta {
            routed: None,
            threshold: None,
            stream: None,
            ..delta
        }
        .to_json();
        let restored = CheckpointDelta::from_json_str(&empty).expect("null keys load");
        assert!(restored.routed.is_none());
        assert!(restored.threshold.is_none());
        assert!(restored.stream.is_none());
        for key in ["routed", "threshold", "stream"] {
            let missing = edited(&empty, |doc| {
                let (k, _) = doc.iter_mut().find(|(k, _)| k == key).expect("key present");
                *k = "renamed".to_string();
            });
            assert_ne!(missing, empty);
            assert!(
                matches!(
                    CheckpointDelta::from_json_str(&missing),
                    Err(CheckpointError::Malformed(reason)) if reason.contains(key)
                ),
                "missing `{key}`"
            );
        }
        // A delta is not a model checkpoint, and vice versa.
        assert!(matches!(
            Checkpoint::from_json_str(&json),
            Err(CheckpointError::WrongKind { .. })
        ));
        let model_json = Checkpoint::capture(&model, &s).to_json();
        assert!(matches!(
            CheckpointDelta::from_json_str(&model_json),
            Err(CheckpointError::WrongKind { .. })
        ));
    }

    /// Stream state and the routed index are cross-validated against the
    /// memory they ride with: a counter set of the wrong dimensionality, a
    /// counter for a class the memory does not hold, a pending label with no
    /// accumulator, or a routed index over other labels or other words is
    /// rejected instead of resurrected or served.
    #[test]
    fn delta_rejects_inconsistent_stream_state() {
        let s = schema();
        let model = fixture_model(AttributeEncoderKind::Hdc);
        let mut rng = StdRng::seed_from_u64(5);
        let class_attributes = Matrix::random_uniform(3, 312, 0.5, &mut rng).map(f32::abs);
        let labels: Vec<String> = (0..3).map(|c| format!("class{c}")).collect();
        let memory = model.sharded_class_memory(labels, &class_attributes, 2);
        let delta_with = |routed, stream| CheckpointDelta {
            snapshot_version: 0,
            next_record_seq: 0,
            base: Checkpoint::capture(&model, &s),
            memory: memory.clone(),
            routed,
            threshold: None,
            stream,
        };
        let delta = |stream| delta_with(None, Some(stream));
        // Wrong dimensionality.
        let mut narrow = hdc::ClassAccumulator::new(memory.dim() / 2);
        narrow
            .observe(
                "class0",
                &hdc::BipolarHypervector::random(memory.dim() / 2, &mut rng),
            )
            .expect("observe fits");
        let json = delta(StreamCheckpoint {
            accumulators: narrow,
            pending: Vec::new(),
            since_publish: 0,
        })
        .to_json();
        assert!(matches!(
            CheckpointDelta::from_json_str(&json),
            Err(CheckpointError::DimensionMismatch {
                what: "stream accumulator dimensionality",
                ..
            })
        ));
        // Pending label with no counters behind it.
        let json = delta(StreamCheckpoint {
            accumulators: hdc::ClassAccumulator::new(memory.dim()),
            pending: vec!["ghost".to_string()],
            since_publish: 1,
        })
        .to_json();
        assert!(matches!(
            CheckpointDelta::from_json_str(&json),
            Err(CheckpointError::Malformed(reason)) if reason.contains("ghost")
        ));
        // Counters for a class the memory does not hold: publishing them
        // would resurrect the class.
        let mut ghost = hdc::ClassAccumulator::new(memory.dim());
        ghost
            .observe(
                "ghost",
                &hdc::BipolarHypervector::random(memory.dim(), &mut rng),
            )
            .expect("observe fits");
        let json = delta(StreamCheckpoint {
            accumulators: ghost,
            pending: vec!["ghost".to_string()],
            since_publish: 1,
        })
        .to_json();
        assert!(matches!(
            CheckpointDelta::from_json_str(&json),
            Err(CheckpointError::Malformed(reason)) if reason.contains("ghost")
        ));
        // A routed index over a different label set of the same size.
        let other_labels = ["class0", "class1", "ghost"];
        let routed = RoutedClassMemory::from_sign_matrix(
            other_labels,
            &model.attribute_encoder().infer_classes(&class_attributes),
            engine::RoutedConfig::default(),
        );
        let json = delta_with(Some(routed), None).to_json();
        assert!(matches!(
            CheckpointDelta::from_json_str(&json),
            Err(CheckpointError::Malformed(reason)) if reason.contains("routed")
        ));
        // The same labels, but one class's words differ from the memory's:
        // the server would score other bits than registration and the
        // stream seed read.
        let mut routed = RoutedClassMemory::from_sign_matrix(
            ["class0", "class1", "class2"],
            &model.attribute_encoder().infer_classes(&class_attributes),
            engine::RoutedConfig::default(),
        );
        let same = delta_with(Some(routed.clone()), None).to_json();
        assert!(CheckpointDelta::from_json_str(&same).is_ok());
        let flipped: Vec<u64> = routed
            .class_words("class1")
            .expect("stored")
            .iter()
            .map(|word| !word)
            .collect();
        routed.add_class_packed("class1", &flipped);
        let json = delta_with(Some(routed), None).to_json();
        assert!(matches!(
            CheckpointDelta::from_json_str(&json),
            Err(CheckpointError::Malformed(reason)) if reason.contains("routed")
        ));
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let s = schema();
        let model = fixture_model(AttributeEncoderKind::Hdc);
        let checkpoint = Checkpoint::capture(&model, &s);
        let other = AttributeSchema::synthetic(4, 5);
        assert!(matches!(
            checkpoint.validate_schema(&other),
            Err(CheckpointError::SchemaMismatch { .. })
        ));
        assert!(matches!(
            checkpoint.into_model(&other),
            Err(CheckpointError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn io_errors_are_typed() {
        let missing = Checkpoint::load_json("/nonexistent/dir/ckpt.json");
        assert!(matches!(missing, Err(CheckpointError::Io(_))));
        let s = schema();
        let model = fixture_model(AttributeEncoderKind::Hdc);
        let bad_path = Checkpoint::capture(&model, &s).save_json("/nonexistent/dir/ckpt.json");
        assert!(matches!(bad_path, Err(CheckpointError::Io(_))));
    }

    #[test]
    fn error_display_is_informative() {
        let err = CheckpointError::UnsupportedVersion {
            found: 2,
            supported: 1,
        };
        assert!(err.to_string().contains("version 2"));
        let err = CheckpointError::DimensionMismatch {
            what: "embedding dim",
            expected: 64,
            found: 32,
        };
        assert!(err.to_string().contains("embedding dim"));
    }
}
