//! Model persistence: the binary [`ModelFile`] a trained [`ZscModel`] is
//! saved, loaded and shipped as, and the [`ServeBase`] of class state that
//! opens a durable server's write-ahead log.
//!
//! A model file pins three things next to the model weights:
//!
//! * a **format version**, checked *before* the payload is decoded so
//!   future layout changes fail fast with a typed error;
//! * the **model configuration** the model was built from;
//! * a **schema fingerprint** (`G`/`V`/`α` counts): [`ModelFile::decode`]
//!   takes the serving schema, so a model trained against one attribute
//!   schema cannot be silently served against another.
//!
//! Loading validates dimensions and invariants end to end and reports every
//! failure as a [`CheckpointError`] instead of panicking. Derived state —
//! gradient buffers, similarity-kernel caches, the engine's packed class
//! memories, thread pools — is intentionally not persisted and is rebuilt on
//! load.
//!
//! # JSON documents
//!
//! One JSON envelope remains, with a `format_version` checked before its
//! payload and a `kind` discriminator: the standalone [`CheckpointDelta`]
//! (version 3, kind `"serve-delta"`) — class state plus the [`ModelFile`]
//! of the model that encodes it, embedded as
//! `{"model_file": <name>, "bytes": <lowercase hex>}`. A document of
//! another kind fails with [`CheckpointError::WrongKind`], of another
//! version (the version-2 documents that embedded the model as decimal
//! JSON included) with [`CheckpointError::UnsupportedVersion`]. A delta
//! must carry its `routed`, `threshold` and `stream` keys — the writer
//! always emits them, as `null` when empty — so a missing one is
//! [`CheckpointError::Malformed`]. A [`ServeBase`] has no envelope: it is
//! a record of the write-ahead log, whose frame and position say what it
//! is.
//!
//! Both are written as compact JSON, with no whitespace between tokens;
//! the loaders ignore whitespace.
//!
//! All saves are atomic ([`write_temp`], then [`rename_temp`]): the bytes
//! are written to a sibling `.tmp` file, fsynced, and `rename`d over the
//! destination, so a crash mid-save can never corrupt the only good copy.
//!
//! # Example
//!
//! ```
//! use dataset::AttributeSchema;
//! use hdc_zsc::{ModelConfig, ModelFile, ZscModel};
//!
//! let schema = AttributeSchema::cub200();
//! let model = ZscModel::new(&ModelConfig::tiny(), &schema, 48);
//! let file = ModelFile::encode(&model, &schema);
//! let restored = ModelFile::decode(file.name(), file.bytes(), &schema).expect("round trip");
//! assert_eq!(restored.embedding_dim(), 64);
//! ```

use crate::attribute_encoder::{AttributeEncoder, HdcAttributeEncoder, MlpAttributeEncoder};
use crate::config::ModelConfig;
use crate::image_encoder::ImageEncoder;
use crate::model::{attribute_encoder_seed, ZscModel};
use dataset::AttributeSchema;
use engine::{ClassIndex, RoutedClassMemory, ShardedClassMemory};
use serde::{json, DeError, Deserialize, Serialize};
use std::collections::BTreeSet;
use std::io::Write;
use std::path::Path;
use tensor::Matrix;

/// Version of the [`CheckpointDelta`] layout; the only version this build
/// reads.
pub const CHECKPOINT_FORMAT_VERSION: u32 = 3;

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
    /// A binary model file's payload fails its CRC-64: the bytes on disk
    /// are not the bytes that were written.
    ChecksumMismatch {
        /// The CRC-64 the file's header declares.
        stored: u64,
        /// The CRC-64 of the payload as read.
        computed: u64,
    },
    /// A binary model file's content fingerprint differs from the one its
    /// file name carries: the file is not the model the name refers to.
    FingerprintMismatch {
        /// The fingerprint in the file name.
        named: u64,
        /// The fingerprint of the payload as read.
        computed: u64,
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
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "model file fails its checksum: header declares {stored:016x}, payload has {computed:016x}"
            ),
            CheckpointError::FingerprintMismatch { named, computed } => write!(
                f,
                "model file fingerprint {computed:016x} differs from the {named:016x} its name carries"
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

/// The model a [`CheckpointDelta`] embeds: its [`ModelFile`], written
/// into the document as `{"model_file": <name>, "bytes": <lowercase hex>}`.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The model file.
    pub file: ModelFile,
}

impl Checkpoint {
    /// Encodes a model, trained against `schema`, into its model file.
    pub fn capture(model: &ZscModel, schema: &AttributeSchema) -> Self {
        Self {
            file: ModelFile::encode(model, schema),
        }
    }

    /// Reads the embedded model file, decoding its hex straight from the
    /// text, and checks its frame ([`ModelFile::frame`]); returns it with
    /// its embedding width. No model is built: nothing reads one from a
    /// delta.
    fn read_json(r: &mut json::Reader<'_>) -> Result<(Self, usize), CheckpointError> {
        let (mut name, mut hex) = (None, None);
        let mut read = || -> Result<(), json::Error> {
            r.begin_object()?;
            while let Some(key) = r.next_key()? {
                match &*key {
                    "model_file" => r.field::<String>(&mut name, "model_file")?,
                    "bytes" => r.field_with(&mut hex, "bytes", json::Reader::str)?,
                    _ => r.skip()?,
                }
            }
            Ok(())
        };
        read().map_err(malformed)?;
        let name = name.ok_or_else(|| missing("model_file"))?;
        let hex = hex.ok_or_else(|| missing("bytes"))?;
        if !hex.len().is_multiple_of(2) {
            return Err(CheckpointError::Malformed(
                "model file bytes have an odd number of hex digits".to_string(),
            ));
        }
        let digit = |c: u8| match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            _ => Err(CheckpointError::Malformed(format!(
                "model file bytes hold `{}`, not a lowercase hex digit",
                char::from(c)
            ))),
        };
        let bytes = hex
            .as_bytes()
            .chunks_exact(2)
            .map(|pair| Ok(digit(pair[0])? << 4 | digit(pair[1])?))
            .collect::<Result<Vec<u8>, CheckpointError>>()?;
        let embedding_dim = ModelFile::frame(&name, &bytes)?.embedding_dim();
        Ok((
            Self {
                file: ModelFile { name, bytes },
            },
            embedding_dim,
        ))
    }
}

/// Written as `{"model_file": <name>, "bytes": <lowercase hex>}`, the hex
/// straight into the output.
impl Serialize for Checkpoint {
    fn write_json(&self, out: &mut String) {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let bytes = self.file.bytes();
        out.reserve(2 * bytes.len() + 64);
        out.push_str("{\"model_file\":");
        json::write_str(self.file.name(), out);
        out.push_str(",\"bytes\":\"");
        for &b in bytes {
            out.push(char::from(DIGITS[usize::from(b >> 4)]));
            out.push(char::from(DIGITS[usize::from(b & 0xF)]));
        }
        out.push_str("\"}");
    }
}

/// A JSON error as [`CheckpointError::Malformed`].
fn malformed(e: json::Error) -> CheckpointError {
    CheckpointError::Malformed(e.to_string())
}

/// A missing field, as [`CheckpointError::Malformed`].
fn missing(name: &str) -> CheckpointError {
    CheckpointError::Malformed(format!("missing `{name}`"))
}

/// The reader at a field's value; a missing field is
/// [`CheckpointError::Malformed`].
fn required<'a>(
    slot: Option<json::Reader<'a>>,
    name: &str,
) -> Result<json::Reader<'a>, CheckpointError> {
    slot.ok_or_else(|| missing(name))
}

/// A field's value, decoded; a missing or ill-typed one is
/// [`CheckpointError::Malformed`].
fn decode<T: Deserialize>(
    slot: Option<json::Reader<'_>>,
    name: &str,
) -> Result<T, CheckpointError> {
    T::read_json(&mut required(slot, name)?).map_err(|e| malformed(e.in_field(name)))
}

/// Writes `contents` to `path` atomically: [`write_temp`], then
/// [`rename_temp`]. A crash at any point leaves either the old file or the
/// new one, never a torn mix. Model files and delta documents are saved
/// through it, and every new write-ahead log through its two steps.
pub(crate) fn atomic_write(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    write_temp(path, contents)?;
    rename_temp(path)
}

/// The sibling `<name>.tmp` of `path`.
fn temp_path(path: &Path) -> std::io::Result<std::path::PathBuf> {
    let mut name = path
        .file_name()
        .ok_or_else(|| std::io::Error::other("path has no file name"))?
        .to_os_string();
    name.push(".tmp");
    Ok(path.with_file_name(name))
}

/// The first step of an atomic replace: writes `contents` to the sibling
/// `<name>.tmp` of `path` and fsyncs it. `path` itself is not touched.
///
/// # Errors
///
/// Any I/O error creating, writing or fsyncing the temp file.
pub fn write_temp(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    let mut file = std::fs::File::create(temp_path(path)?)?;
    file.write_all(contents)?;
    file.sync_all()
}

/// The second step, the commit: renames the temp file [`write_temp`]
/// wrote over `path`, then fsyncs the directory to make the rename durable.
///
/// # Errors
///
/// Any I/O error of the rename or of the directory fsync, after which
/// `path` already names the new file.
pub fn rename_temp(path: &Path) -> std::io::Result<()> {
    std::fs::rename(temp_path(path)?, path)?;
    let dir = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)?.sync_all()
}

/// Continual-learning stream state captured inside a [`ServeBase`] (or a
/// [`CheckpointDelta`]): the exact per-class prototype counters plus the
/// publication batching position at compaction time.
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
    /// Labels observed since their last publication — the classes the
    /// next publication boundary will re-sign, in sorted order.
    pub pending: BTreeSet<String>,
    /// Observes folded since the last publication boundary; the automatic
    /// boundary fires when this reaches the server's `publish_every`.
    pub since_publish: u64,
}

/// The exact sharded class memory at a known snapshot version, the
/// write-ahead log sequence number the memory already folds in, and the
/// [`Checkpoint`] of the model that encodes it: the serving layer's
/// compaction base before the write-ahead log held its own. The serving
/// layer now writes a [`ServeBase`] naming a [`ModelFile`] instead; this
/// type stays as a standalone document.
///
/// Serialized as a version-3 envelope with `kind: "serve-delta"`, so it can
/// never be confused with another document.
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
    /// Renders the delta as compact JSON (version-3 envelope, kind
    /// `"serve-delta"`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut object = json::Object::new(&mut out);
        object
            .field("format_version", &CHECKPOINT_FORMAT_VERSION)
            .field("kind", KIND_DELTA)
            .field("snapshot_version", &self.snapshot_version)
            .field("next_record_seq", &self.next_record_seq)
            .field("base", &self.base)
            .field("memory", &self.memory)
            .field("routed", &self.routed)
            .field("threshold", &self.threshold)
            .field("stream", &self.stream);
        object.end();
        out
    }

    /// Parses a delta from a JSON string, validating the envelope (version
    /// checked before the payload, kind must be `"serve-delta"`), the
    /// embedded model file up to its tensor table (what
    /// [`ModelFile::decode`] checks before it needs a schema; no model is
    /// built), the memory's structural invariants, that the memory's
    /// prototype dimensionality matches the model's embedding width, that
    /// the routed index holds exactly the memory's classes with the same
    /// words, and that the stream counters name only classes the memory
    /// holds.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] for syntactically or structurally
    /// invalid documents (model file bytes that are not lowercase hex
    /// included), [`CheckpointError::UnsupportedVersion`] for another
    /// layout version, [`CheckpointError::WrongKind`] for another envelope,
    /// what [`ModelFile::decode`] reports for a damaged frame,
    /// [`CheckpointError::DimensionMismatch`] when the memory, routed index
    /// or stream counters do not fit each other or the model, and
    /// [`CheckpointError::Malformed`] when a `routed`, `threshold` or
    /// `stream` key is missing, the routed index disagrees with the
    /// memory's classes or words, or the stream counters name a class the
    /// memory does not hold.
    pub fn from_json_str(json: &str) -> Result<Self, CheckpointError> {
        let mut r = json::Reader::new(json);
        // Every field is kept in place and decoded in the order of the
        // checks, so the version is checked before the payload is read.
        let [version, kind, snapshot_version, next_record_seq, base, memory, routed, threshold, stream] =
            r.defer_fields([
                "format_version",
                "kind",
                "snapshot_version",
                "next_record_seq",
                "base",
                "memory",
                "routed",
                "threshold",
                "stream",
            ])
            .map_err(malformed)?;
        r.finish().map_err(malformed)?;
        let found = decode(version, "format_version")?;
        if found != CHECKPOINT_FORMAT_VERSION {
            return Err(CheckpointError::UnsupportedVersion {
                found,
                supported: CHECKPOINT_FORMAT_VERSION,
            });
        }
        let found: String = decode(kind, "kind")?;
        if found != KIND_DELTA {
            return Err(CheckpointError::WrongKind {
                found,
                expected: KIND_DELTA,
            });
        }
        let (base, embedding_dim) = Checkpoint::read_json(&mut required(base, "base")?)?;
        let memory: ShardedClassMemory = decode(memory, "memory")?;
        let routed: Option<RoutedClassMemory> = decode(routed, "routed")?;
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
        let threshold: Option<f32> = decode(threshold, "threshold")?;
        let stream: Option<StreamCheckpoint> = decode(stream, "stream")?;
        validate_class_state(&memory, threshold, stream.as_ref())?;
        check_prototype_dim(&memory, embedding_dim)?;
        Ok(Self {
            snapshot_version: decode(snapshot_version, "snapshot_version")?,
            next_record_seq: decode(next_record_seq, "next_record_seq")?,
            base,
            memory,
            routed,
            threshold,
            stream,
        })
    }

    /// Writes the delta as JSON to `path` through the atomic replace
    /// ([`write_temp`], [`rename_temp`]).
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

/// The checks every persisted class state must pass, whichever document
/// carries it: a finite threshold, and stream counters of the memory's
/// dimensionality that name only classes the memory holds, with every
/// pending label backed by counters.
fn validate_class_state(
    memory: &ShardedClassMemory,
    threshold: Option<f32>,
    stream: Option<&StreamCheckpoint>,
) -> Result<(), CheckpointError> {
    if threshold.is_some_and(|threshold| !threshold.is_finite()) {
        return Err(CheckpointError::Malformed(
            "serve threshold must be finite".to_string(),
        ));
    }
    let Some(stream) = stream else {
        return Ok(());
    };
    if stream.accumulators.dim() != memory.dim() {
        return Err(CheckpointError::DimensionMismatch {
            what: "stream accumulator dimensionality",
            expected: memory.dim(),
            found: stream.accumulators.dim(),
        });
    }
    // Removing a class drops its counters, and publishing a pending
    // counter re-adds its class, so a counter for a class `memory` does
    // not hold would resurrect it.
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
    Ok(())
}

/// The memory's prototypes must be as wide as the model's embeddings.
fn check_prototype_dim(
    memory: &ShardedClassMemory,
    embedding_dim: usize,
) -> Result<(), CheckpointError> {
    if memory.dim() != embedding_dim {
        return Err(CheckpointError::DimensionMismatch {
            what: "class prototype dimensionality",
            expected: embedding_dim,
            found: memory.dim(),
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Serve bases
// ---------------------------------------------------------------------------

/// A serve-time compaction base: the class state at a known snapshot
/// version, the publication cadence the log after it is written under,
/// and the name of the binary [`ModelFile`] that holds the model.
///
/// A durable server's write-ahead log opens with one, as its first record:
/// recovery loads it and its model file, rebuilds the index
/// bit-identically, and folds the records after it on top. The model is
/// written once per model (at start and on every swap), never per
/// compaction.
///
/// `S` is how the base holds its stream state: a loaded base owns a
/// [`StreamCheckpoint`], and a server writes its base from a borrowed
/// `&StreamCheckpoint`, so the counters are not copied. Both write the
/// same JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBase<S = StreamCheckpoint> {
    /// Snapshot version of the serving state at capture time; recovery
    /// resumes version numbering from here.
    pub snapshot_version: u64,
    /// The `publish_every` cadence the records after this base were
    /// written under: replay re-derives their automatic publications from
    /// it. At least 1.
    pub publish_every: u32,
    /// File name of the model, `model-<fingerprint>.bin`, in the base's
    /// directory ([`ModelFile::name`]).
    pub model_file: String,
    /// The class index at capture time.
    pub index: ClassIndex,
    /// The serve-time rejection threshold, stored as `f32` bits; `None`
    /// when no threshold is set.
    pub threshold: Option<f32>,
    /// Continual-learning stream state at capture time, over labels the
    /// index holds; `None` for servers that never observed an example.
    pub stream: Option<S>,
}

/// Written straight into the output: a base holds every class's words and
/// every streamed class's counters.
impl<S: Serialize> Serialize for ServeBase<S> {
    fn write_json(&self, out: &mut String) {
        let mut object = json::Object::new(out);
        object
            .field("snapshot_version", &self.snapshot_version)
            .field("publish_every", &self.publish_every)
            .field("model_file", &self.model_file);
        match &self.index {
            ClassIndex::Sharded(memory) => {
                object.field("index", "sharded").field("classes", memory)
            }
            ClassIndex::Routed(routed) => object.field("index", "routed").field("classes", routed),
        };
        object
            .field("threshold_bits", &self.threshold.map(f32::to_bits))
            .field("stream", &self.stream);
        object.end();
    }
}

impl ServeBase {
    /// Parses a base from the JSON text [`Serialize::write_json`] writes;
    /// see [`ServeBase::read_json`].
    ///
    /// # Errors
    ///
    /// As [`ServeBase::read_json`], and [`CheckpointError::Malformed`] for
    /// text after the base.
    pub fn from_json_str(json: &str) -> Result<Self, CheckpointError> {
        let mut r = json::Reader::new(json);
        let base = Self::read_json(&mut r)?;
        r.finish().map_err(malformed)?;
        Ok(base)
    }

    /// Reads a base straight from JSON text into its final types: the class
    /// state, validated like a [`CheckpointDelta`]'s, the cadence and the
    /// model file's name. Keys may come in any order; unknown keys are
    /// skipped and a repeated key is refused.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] for malformed text, a missing or
    /// repeated key, an unknown index kind, a zero cadence, a name that is
    /// not a model file's, or an inconsistent class state, and
    /// [`CheckpointError::DimensionMismatch`] for stream counters of the
    /// wrong width.
    pub fn read_json(r: &mut json::Reader<'_>) -> Result<Self, CheckpointError> {
        // The classes' type depends on `index`: read at once when `index`
        // came first (as the writer puts it), else kept to read after it.
        enum Classes<'a> {
            Read(ClassIndex),
            Later(json::Reader<'a>),
        }
        let (mut snapshot_version, mut publish_every, mut model_file) = (None, None, None);
        let (mut index, mut classes, mut threshold_bits, mut stream) = (None, None, None, None);
        let mut read = || -> Result<(), json::Error> {
            r.begin_object()?;
            while let Some(key) = r.next_key()? {
                match &*key {
                    "snapshot_version" => r.field(&mut snapshot_version, "snapshot_version")?,
                    "publish_every" => r.field(&mut publish_every, "publish_every")?,
                    "model_file" => r.field(&mut model_file, "model_file")?,
                    "index" => r.field(&mut index, "index")?,
                    "classes" => {
                        r.field_with(&mut classes, "classes", |r| match index.as_deref() {
                            Some(kind) if is_index_kind(kind) => {
                                read_index(kind, r).map(Classes::Read)
                            }
                            _ => r.defer().map(Classes::Later),
                        })?
                    }
                    "threshold_bits" => {
                        r.field::<Option<u32>>(&mut threshold_bits, "threshold_bits")?
                    }
                    "stream" => r.field(&mut stream, "stream")?,
                    _ => r.skip()?,
                }
            }
            Ok(())
        };
        read().map_err(malformed)?;
        let model_file: String = model_file.ok_or_else(|| missing("model_file"))?;
        if model_file_fingerprint(&model_file).is_none() {
            return Err(CheckpointError::Malformed(format!(
                "`{model_file}` is not a model file name"
            )));
        }
        let publish_every: u32 = publish_every.ok_or_else(|| missing("publish_every"))?;
        if publish_every == 0 {
            return Err(CheckpointError::Malformed(
                "a base's publish_every must be at least 1".to_string(),
            ));
        }
        let kind: String = index.ok_or_else(|| missing("index"))?;
        if !is_index_kind(&kind) {
            return Err(CheckpointError::Malformed(format!(
                "unknown index kind `{kind}`"
            )));
        }
        let index = match classes.ok_or_else(|| missing("classes"))? {
            Classes::Read(index) => index,
            Classes::Later(mut r) => {
                read_index(&kind, &mut r).map_err(|e| malformed(e.in_field("classes")))?
            }
        };
        let threshold = threshold_bits
            .ok_or_else(|| missing("threshold_bits"))?
            .map(f32::from_bits);
        let stream: Option<StreamCheckpoint> = stream.ok_or_else(|| missing("stream"))?;
        validate_class_state(index.memory(), threshold, stream.as_ref())?;
        Ok(Self {
            snapshot_version: snapshot_version.ok_or_else(|| missing("snapshot_version"))?,
            publish_every,
            model_file,
            index,
            threshold,
            stream,
        })
    }

    /// Checks the base's classes against the model its file holds.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::DimensionMismatch`] when the prototypes are not
    /// as wide as the model's embeddings.
    pub fn validate_model(&self, model: &ZscModel) -> Result<(), CheckpointError> {
        check_prototype_dim(self.index.memory(), model.embedding_dim())
    }
}

/// Whether `kind` names a [`ClassIndex`] variant.
fn is_index_kind(kind: &str) -> bool {
    matches!(kind, "sharded" | "routed")
}

/// Reads the classes of a base whose index is of `kind`, one
/// [`is_index_kind`] accepts.
fn read_index(kind: &str, r: &mut json::Reader<'_>) -> Result<ClassIndex, json::Error> {
    Ok(if kind == "sharded" {
        ClassIndex::Sharded(ShardedClassMemory::read_json(r)?)
    } else {
        ClassIndex::Routed(RoutedClassMemory::read_json(r)?)
    })
}

// ---------------------------------------------------------------------------
// Binary model files
// ---------------------------------------------------------------------------

/// Magic bytes opening every binary model file.
const MODEL_FILE_MAGIC: &[u8; 8] = b"ZSCMODL\n";

/// Version of the binary model-file layout ([`ModelFile`]).
const MODEL_FILE_FORMAT_VERSION: u32 = 2;

/// Magic, format version, payload length and CRC-64.
const MODEL_FILE_HEADER_LEN: usize = 8 + 4 + 4 + 8;

/// The largest dimension a model file's tensor may declare; a wider one is
/// refused before decoding allocates. Decoding binds an `α × d` `f32`
/// dictionary from `(G + V) × d` codebook bits, 110 times their size at the
/// CUB shape, so this caps the CUB dictionary at 82 MB.
pub const MAX_MODEL_DIM: usize = 1 << 16;

/// Slicing-by-8 tables for the reflected CRC with polynomial `poly`: `[0]`
/// is the bytewise table, and `[t][i]` is the CRC register after byte `i`
/// is followed by `t` zero bytes. A 32-bit polynomial yields 32-bit
/// entries, so one generator serves both CRCs.
const fn crc_tables(poly: u64) -> [[u64; 256]; 8] {
    let mut tables = [[0u64; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u64;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { poly ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC32_TABLES: [[u64; 256]; 8] = crc_tables(0xEDB8_8320);

/// The CRC-64/XZ polynomial (ECMA-182, reflected).
const CRC64_POLY: u64 = 0xC96C_5795_D787_0F42;

static CRC64_TABLES: [[u64; 256]; 8] = crc_tables(CRC64_POLY);

/// Runs the reflected CRC register `c` over `bytes`: eight bytes per step
/// (slicing-by-8), then the rest one at a time.
fn crc_update(t: &[[u64; 256]; 8], mut c: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let x = c ^ u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        c = t[7][(x & 0xFF) as usize]
            ^ t[6][((x >> 8) & 0xFF) as usize]
            ^ t[5][((x >> 16) & 0xFF) as usize]
            ^ t[4][((x >> 24) & 0xFF) as usize]
            ^ t[3][((x >> 32) & 0xFF) as usize]
            ^ t[2][((x >> 40) & 0xFF) as usize]
            ^ t[1][((x >> 48) & 0xFF) as usize]
            ^ t[0][(x >> 56) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u64::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// IEEE CRC-32 (reflected, polynomial `0xEDB88320`) of `bytes` — the
/// checksum guarding every write-ahead-log record and wire frame.
pub fn crc32(bytes: &[u8]) -> u32 {
    !(crc_update(&CRC32_TABLES, 0xFFFF_FFFF, bytes) as u32)
}

/// CRC-64/XZ of `bytes`: a model file's checksum and the fingerprint its
/// name carries.
fn crc64(bytes: &[u8]) -> u64 {
    !crc_update(&CRC64_TABLES, !0, bytes)
}

/// The fingerprint a model file name `model-<16 lowercase hex>.bin`
/// carries; `None` for any other name.
pub fn model_file_fingerprint(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("model-")?.strip_suffix(".bin")?;
    let lowercase_hex =
        hex.len() == 16 && hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    lowercase_hex
        .then(|| u64::from_str_radix(hex, 16).ok())
        .flatten()
}

/// The header of a model file's payload: everything but the tensors, and
/// the table that names and shapes them in payload order.
#[derive(Debug, Serialize, Deserialize)]
struct ModelFileHeader {
    model_config: ModelConfig,
    feature_dim: usize,
    schema: SchemaFingerprint,
    backbone: dataset::BackboneKind,
    temperature_bits: u32,
    temperature_learnable: bool,
    mlp_activation: Option<nn::ActivationKind>,
    tensors: Vec<TensorEntry>,
}

/// The tensors stored as packed sign bits: the HDC encoder's codebooks.
const CODEBOOKS: [&str; 2] = ["hdc.groups", "hdc.values"];

/// One tensor of a model file: `rows × cols`, stored as packed sign bits
/// (`rows` rows of `⌈cols/64⌉` little-endian `u64` words, set bit = −1)
/// when it is one of the [`CODEBOOKS`], as raw little-endian `f32` bits
/// otherwise.
#[derive(Debug, Serialize, Deserialize)]
struct TensorEntry {
    name: String,
    rows: usize,
    cols: usize,
}

impl TensorEntry {
    fn byte_len(&self) -> Option<usize> {
        if CODEBOOKS.contains(&self.name.as_str()) {
            self.rows
                .checked_mul(self.cols.div_ceil(64))?
                .checked_mul(8)
        } else {
            self.rows.checked_mul(self.cols)?.checked_mul(4)
        }
    }
}

/// A tensor a model file is encoded from, borrowed from the model.
enum TensorSource<'a> {
    Matrix(&'a Matrix),
    Codebook(&'a hdc::Codebook),
}

impl TensorSource<'_> {
    /// This tensor with the table entry naming and shaping it.
    fn named(self, name: &str) -> (TensorEntry, Self) {
        let (rows, cols) = match self {
            TensorSource::Matrix(m) => m.shape(),
            TensorSource::Codebook(c) => (c.len(), c.dim()),
        };
        let entry = TensorEntry {
            name: name.to_string(),
            rows,
            cols,
        };
        (entry, self)
    }

    /// Appends the tensor's bytes to `out`.
    fn write(&self, out: &mut Vec<u8>) {
        match self {
            TensorSource::Matrix(m) => {
                for x in m.as_slice() {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            TensorSource::Codebook(c) => {
                for word in c.iter().flat_map(|hv| engine::pack_signs(hv.as_slice())) {
                    out.extend_from_slice(&word.to_le_bytes());
                }
            }
        }
    }
}

/// The tensors of a model file being decoded, taken by name.
struct Tensors<'a> {
    entries: Vec<(TensorEntry, &'a [u8])>,
}

impl<'a> Tensors<'a> {
    /// Splits `data` along the header's tensor table; every byte must
    /// belong to exactly one tensor.
    fn split(table: Vec<TensorEntry>, mut data: &'a [u8]) -> Result<Self, CheckpointError> {
        let mut entries = Vec::with_capacity(table.len());
        for entry in table {
            if entry.rows == 0 || entry.cols == 0 {
                return Err(CheckpointError::Malformed(format!(
                    "model file tensor `{}` is empty",
                    entry.name
                )));
            }
            if entry.rows.max(entry.cols) > MAX_MODEL_DIM {
                return Err(CheckpointError::Malformed(format!(
                    "model file tensor `{}` is {}×{}, wider than MAX_MODEL_DIM ({MAX_MODEL_DIM})",
                    entry.name, entry.rows, entry.cols
                )));
            }
            let len = entry
                .byte_len()
                .filter(|&len| len <= data.len())
                .ok_or_else(|| {
                    CheckpointError::Malformed(format!(
                        "model file ends inside tensor `{}`",
                        entry.name
                    ))
                })?;
            let (bytes, rest) = data.split_at(len);
            entries.push((entry, bytes));
            data = rest;
        }
        if !data.is_empty() {
            return Err(CheckpointError::Malformed(format!(
                "model file holds {} bytes past its last tensor",
                data.len()
            )));
        }
        Ok(Self { entries })
    }

    fn take(&mut self, name: &str) -> Option<(TensorEntry, &'a [u8])> {
        let at = self
            .entries
            .iter()
            .position(|(entry, _)| entry.name == name)?;
        Some(self.entries.swap_remove(at))
    }

    fn require(&mut self, name: &str) -> Result<(TensorEntry, &'a [u8]), CheckpointError> {
        self.take(name)
            .ok_or_else(|| CheckpointError::Malformed(format!("model file lacks tensor `{name}`")))
    }

    /// The named `f32` tensor as a matrix.
    fn matrix(&mut self, name: &str) -> Result<Matrix, CheckpointError> {
        let (entry, bytes) = self.require(name)?;
        Ok(decode_matrix(&entry, bytes))
    }

    /// The named sign-bit tensor as a codebook. A row's little-endian
    /// words put bit `c` in byte `c / 8` at bit `c % 8`.
    fn codebook(&mut self, name: &str) -> Result<hdc::Codebook, CheckpointError> {
        let (entry, bytes) = self.require(name)?;
        let rows = bytes
            .chunks_exact(entry.cols.div_ceil(64) * 8)
            .map(|row| {
                let signs: Vec<i8> = (0..entry.cols)
                    .map(|c| 1 - 2 * (row[c / 8] >> (c % 8) & 1) as i8)
                    .collect();
                hdc::BipolarHypervector::from_signs(&signs)
            })
            .collect();
        Ok(hdc::Codebook::from_entries(rows))
    }

    /// Every tensor must have been taken.
    fn finish(self) -> Result<(), CheckpointError> {
        match self.entries.first() {
            Some((entry, _)) => Err(CheckpointError::Malformed(format!(
                "model file holds an unexpected tensor `{}`",
                entry.name
            ))),
            None => Ok(()),
        }
    }
}

fn decode_matrix(entry: &TensorEntry, bytes: &[u8]) -> Matrix {
    let data = bytes
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes(b.try_into().expect("4-byte chunk")))
        .collect();
    Matrix::from_vec(entry.rows, entry.cols, data)
}

/// A model encoded as a binary model file, named by its content:
/// `model-<fingerprint>.bin`, the fingerprint being the CRC-64/XZ of the
/// payload in 16 lowercase hex digits. It is the one format a model is
/// saved, loaded and shipped in: a durable server writes one per model it
/// serves, at start and on every swap (its base and swap records name the
/// file), and the wire `swap_model` request carries one.
///
/// ```text
/// ┌─────────────────────────── file header (24 bytes) ───────────────────────────┐
/// │ magic "ZSCMODL\n" (8) │ format u32 LE (=2) │ len u32 LE │ crc64 u64 LE       │
/// ├──────────────────────────── payload (len bytes) ─────────────────────────────┤
/// │ header_len u32 LE │ header (compact JSON) │ tensors, in the header's order   │
/// └──────────────────────────────────────────────────────────────────────────────┘
/// ```
///
/// The header holds the model configuration, the feature width, the schema
/// fingerprint, the backbone, the temperature (`f32` bits) and a table of
/// tensors: name and shape. The weights are stored as raw little-endian
/// `f32` bits, and the HDC encoder's two stationary codebooks
/// (`hdc.groups`, `hdc.values`) as packed sign bits; a tensor's name says
/// which. No file stores a ±1 dictionary: [`ModelFile::decode`] binds the
/// codebooks along the serving schema's `(group, value)` pairs, and the
/// trainable-MLP variant's phase-II dictionary is redrawn from its
/// configuration's seed, as [`ZscModel::new`] draws it. The CRC-64 in the
/// header is computed once per encode and once per decode; it both guards
/// the payload and names the file.
///
/// ```
/// use dataset::AttributeSchema;
/// use hdc_zsc::{ModelConfig, ModelFile, ZscModel};
///
/// let schema = AttributeSchema::cub200();
/// let file = ModelFile::encode(&ZscModel::new(&ModelConfig::tiny(), &schema, 48), &schema);
/// assert!(file.name().starts_with("model-") && file.name().ends_with(".bin"));
/// ```
#[derive(Debug, Clone)]
pub struct ModelFile {
    name: String,
    bytes: Vec<u8>,
}

impl ModelFile {
    /// Encodes `model`, trained against `schema`, straight from its
    /// weights into one buffer: the tensor table is computed from the
    /// shapes first, so the file's exact length is reserved before any
    /// tensor is written (no intermediate copy of the model or its data).
    pub fn encode(model: &ZscModel, schema: &AttributeSchema) -> Self {
        let mut tensors = Vec::new();
        let image_encoder = model.image_encoder();
        if let Some(projection) = image_encoder.projection() {
            let (weight, bias) = (&projection.weight().values, &projection.bias().values);
            tensors.push(TensorSource::Matrix(weight).named("projection.weight"));
            tensors.push(TensorSource::Matrix(bias).named("projection.bias"));
        }
        let mut mlp_activation = None;
        match model.attribute_encoder() {
            AttributeEncoder::Hdc(hdc) => {
                tensors.push(TensorSource::Codebook(hdc.group_codebook()).named(CODEBOOKS[0]));
                tensors.push(TensorSource::Codebook(hdc.value_codebook()).named(CODEBOOKS[1]));
            }
            AttributeEncoder::Mlp(mlp) => {
                mlp_activation = Some(mlp.mlp().activation());
                for (i, layer) in mlp.mlp().layers().iter().enumerate() {
                    let (weight, bias) = (&layer.weight().values, &layer.bias().values);
                    tensors.push(TensorSource::Matrix(weight).named(&format!("mlp.{i}.weight")));
                    tensors.push(TensorSource::Matrix(bias).named(&format!("mlp.{i}.bias")));
                }
            }
        }
        let (tensors, sources): (Vec<_>, Vec<_>) = tensors.into_iter().unzip();
        let header = ModelFileHeader {
            model_config: *model.config(),
            feature_dim: image_encoder.feature_dim(),
            schema: SchemaFingerprint::of(schema),
            backbone: image_encoder.backbone(),
            temperature_bits: model.temperature().to_bits(),
            temperature_learnable: model.temperature_learnable(),
            mlp_activation,
            tensors,
        };
        let json = serde_json::to_string(&header).expect("header serialization is infallible");
        let data_len: usize = header
            .tensors
            .iter()
            .map(|entry| entry.byte_len().expect("an in-memory tensor's size fits"))
            .sum();
        let payload_len = 4 + json.len() + data_len;
        let mut bytes = Vec::with_capacity(MODEL_FILE_HEADER_LEN + payload_len);
        bytes.extend_from_slice(MODEL_FILE_MAGIC);
        bytes.extend_from_slice(&MODEL_FILE_FORMAT_VERSION.to_le_bytes());
        let len = u32::try_from(payload_len).expect("a model file payload fits in 4 GiB");
        bytes.extend_from_slice(&len.to_le_bytes());
        bytes.extend_from_slice(&[0; 8]);
        bytes.extend_from_slice(&(json.len() as u32).to_le_bytes());
        bytes.extend_from_slice(json.as_bytes());
        for source in &sources {
            source.write(&mut bytes);
        }
        debug_assert_eq!(bytes.len(), MODEL_FILE_HEADER_LEN + payload_len);
        let crc = crc64(&bytes[MODEL_FILE_HEADER_LEN..]);
        bytes[16..24].copy_from_slice(&crc.to_le_bytes());
        Self {
            name: format!("model-{crc:016x}.bin"),
            bytes,
        }
    }

    /// The file name, `model-<fingerprint>.bin`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The encoded file.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Writes the file into `dir` under its name, through the atomic
    /// replace ([`write_temp`], [`rename_temp`]).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the file cannot be written.
    pub fn save(&self, dir: &Path) -> Result<(), CheckpointError> {
        atomic_write(&dir.join(&self.name), &self.bytes).map_err(CheckpointError::from)
    }

    /// Reads the model file `name` from `dir` and decodes it against
    /// `schema` ([`ModelFile::decode`]).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the file cannot be read (a missing one
    /// included), plus everything [`ModelFile::decode`] reports.
    pub fn load(
        dir: &Path,
        name: &str,
        schema: &AttributeSchema,
    ) -> Result<ZscModel, CheckpointError> {
        if model_file_fingerprint(name).is_none() {
            return Err(CheckpointError::Malformed(format!(
                "`{name}` is not a model file name"
            )));
        }
        Self::decode(name, &std::fs::read(dir.join(name))?, schema)
    }

    /// Checks the frame of the model file `name` without building the
    /// model: the magic, the format version, the frame's length and
    /// CRC-64, that `name` carries that CRC-64, and that the header parses
    /// and its tensor table, no dimension over [`MAX_MODEL_DIM`], covers
    /// the tensor bytes exactly. [`ModelFile::decode`] starts here; a
    /// [`CheckpointDelta`] runs only this.
    fn frame<'a>(name: &str, bytes: &'a [u8]) -> Result<Frame<'a>, CheckpointError> {
        let malformed = |reason: &str| CheckpointError::Malformed(format!("model file {reason}"));
        if bytes.len() < 8 || &bytes[..8] != MODEL_FILE_MAGIC {
            return Err(malformed("lacks its magic bytes"));
        }
        if bytes.len() < MODEL_FILE_HEADER_LEN {
            return Err(malformed("ends inside its header"));
        }
        let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        let format = u32_at(8);
        if format != MODEL_FILE_FORMAT_VERSION {
            return Err(CheckpointError::UnsupportedVersion {
                found: format,
                supported: MODEL_FILE_FORMAT_VERSION,
            });
        }
        let len = u32_at(12) as usize;
        let stored = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
        let payload = &bytes[MODEL_FILE_HEADER_LEN..];
        if payload.len() != len {
            return Err(malformed(&format!(
                "holds {} payload bytes, its frame declares {len}",
                payload.len()
            )));
        }
        let computed = crc64(payload);
        if computed != stored {
            return Err(CheckpointError::ChecksumMismatch { stored, computed });
        }
        let named = model_file_fingerprint(name).ok_or_else(|| malformed("has a bad name"))?;
        if named != computed {
            return Err(CheckpointError::FingerprintMismatch { named, computed });
        }
        let header_len = payload
            .get(..4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize)
            .filter(|&n| n <= payload.len() - 4)
            .ok_or_else(|| malformed("ends inside its header"))?;
        let header = std::str::from_utf8(&payload[4..4 + header_len])
            .map_err(|_| malformed("header is not UTF-8"))?;
        let mut header: ModelFileHeader = serde_json::from_str(header)
            .map_err(|e| CheckpointError::Malformed(format!("model file header: {e}")))?;
        let table = std::mem::take(&mut header.tensors);
        let tensors = Tensors::split(table, &payload[4 + header_len..])?;
        Ok(Frame { header, tensors })
    }

    /// Decodes the bytes of the model file `name` into the model, checked
    /// against the schema it is to be served with: the format version, the
    /// frame's length and CRC-64, that `name` carries that CRC-64, the
    /// schema fingerprint and every dimension. The HDC dictionary is bound
    /// from the loaded codebooks along `schema`'s pairs.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::ChecksumMismatch`] and
    /// [`CheckpointError::FingerprintMismatch`] for damaged or substituted
    /// bytes, [`CheckpointError::UnsupportedVersion`] for another layout
    /// (format 1 included), [`CheckpointError::Malformed`] for a wrong
    /// magic, a truncated file, a bad name or header, a tensor table that
    /// does not fit the model, or a tensor dimension over
    /// [`MAX_MODEL_DIM`] (refused before anything is allocated for it),
    /// [`CheckpointError::SchemaMismatch`]
    /// when the model was trained against another schema, and
    /// [`CheckpointError::DimensionMismatch`] when the header, the
    /// codebooks and the weights disagree.
    pub fn decode(
        name: &str,
        bytes: &[u8],
        schema: &AttributeSchema,
    ) -> Result<ZscModel, CheckpointError> {
        let Frame {
            header,
            mut tensors,
        } = Self::frame(name, bytes)?;
        let requested = SchemaFingerprint::of(schema);
        if header.schema != requested {
            return Err(CheckpointError::SchemaMismatch {
                checkpoint: header.schema,
                requested,
            });
        }
        let parts = |e: DeError| CheckpointError::Malformed(e.to_string());
        let projection = match tensors.take("projection.weight") {
            Some((entry, bytes)) => {
                let weight = decode_matrix(&entry, bytes);
                let bias = tensors.matrix("projection.bias")?;
                Some(nn::Linear::try_from_parts(weight, bias).map_err(parts)?)
            }
            None => None,
        };
        let image_encoder =
            ImageEncoder::from_parts(header.backbone, header.feature_dim, projection)?;
        let attribute_encoder = match header.mlp_activation {
            None => {
                let groups = tensors.codebook(CODEBOOKS[0])?;
                let values = tensors.codebook(CODEBOOKS[1])?;
                AttributeEncoder::Hdc(HdcAttributeEncoder::from_codebooks(groups, values, schema)?)
            }
            Some(activation) => {
                let mut layers = Vec::new();
                while let Some((entry, bytes)) =
                    tensors.take(&format!("mlp.{}.weight", layers.len()))
                {
                    let weight = decode_matrix(&entry, bytes);
                    let bias = tensors.matrix(&format!("mlp.{}.bias", layers.len()))?;
                    layers.push(nn::Linear::try_from_parts(weight, bias).map_err(parts)?);
                }
                let mut dims: Vec<usize> = layers
                    .first()
                    .map(nn::Linear::in_features)
                    .into_iter()
                    .collect();
                dims.extend(layers.iter().map(nn::Linear::out_features));
                let mlp = nn::Mlp::try_from_layers(dims, activation, layers).map_err(parts)?;
                let seed = attribute_encoder_seed(&header.model_config);
                AttributeEncoder::Mlp(MlpAttributeEncoder::from_mlp(mlp, schema, seed))
            }
        };
        tensors.finish()?;
        ZscModel::from_parts(
            header.model_config,
            schema,
            image_encoder,
            attribute_encoder,
            f32::from_bits(header.temperature_bits),
            header.temperature_learnable,
        )
    }
}

/// A model file whose frame [`ModelFile::frame`] has checked: its header
/// (the tensor table moved out) and its tensors.
struct Frame<'a> {
    header: ModelFileHeader,
    tensors: Tensors<'a>,
}

impl Frame<'_> {
    /// The width of the model's embeddings: its projection's output, or
    /// the feature width without one.
    fn embedding_dim(&self) -> usize {
        self.tensors
            .entries
            .iter()
            .find(|(entry, _)| entry.name == "projection.weight")
            .map_or(self.header.feature_dim, |(entry, _)| entry.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute_encoder::AttributeEncoderKind;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use serde::Value;
    use tensor::Matrix;

    fn schema() -> AttributeSchema {
        AttributeSchema::cub200()
    }

    /// The bytewise CRC-32 the slicing-by-8 one must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(!0u32, |c, &b| {
            CRC32_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] as u32 ^ (c >> 8)
        })
    }

    /// CRC-64/XZ one bit at a time, straight from the polynomial.
    fn crc64_bitwise(bytes: &[u8]) -> u64 {
        !bytes.iter().fold(!0u64, |mut c, &b| {
            c ^= u64::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    CRC64_POLY ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            c
        })
    }

    /// The slicing-by-8 CRC-64 is CRC-64/XZ: its check value, and the
    /// bit-at-a-time reference at every length that leaves 0–7 tail bytes
    /// after 0–2 whole words, and on one long slice starting off a word
    /// boundary.
    #[test]
    fn crc64_is_crc64_xz() {
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        let mut rng = StdRng::seed_from_u64(64);
        let buffer: Vec<u8> = (0..4099).map(|_| rng.gen_range(0u8..=255)).collect();
        for len in 0..=17 {
            assert_eq!(
                crc64(&buffer[..len]),
                crc64_bitwise(&buffer[..len]),
                "{len}"
            );
        }
        assert_eq!(crc64(&buffer[3..]), crc64_bitwise(&buffer[3..]));
    }

    proptest! {
        /// Every length in 0..=64 at every start offset in 0..8, so each
        /// alignment meets each count of whole words and tail bytes.
        #[test]
        fn crc32_matches_the_bytewise_reference(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let buffer: Vec<u8> = (0..72).map(|_| rng.gen_range(0u8..=255)).collect();
            for start in 0..8 {
                for len in 0..=64 {
                    let bytes = &buffer[start..start + len];
                    prop_assert_eq!(crc32(bytes), crc32_bytewise(bytes), "{} at {}", len, start);
                }
            }
        }
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

    /// A version-2 delta document an earlier build wrote, pretty-printed.
    const PRETTY_DELTA: &str = include_str!("../tests/pretty_v2/delta.json");

    /// A delta of the fixture model over three classes, with every
    /// optional key `null`.
    fn fresh_delta() -> CheckpointDelta {
        let s = schema();
        let model = fixture_model(AttributeEncoderKind::Hdc);
        let mut rng = StdRng::seed_from_u64(11);
        let class_attributes = Matrix::random_uniform(3, 312, 0.5, &mut rng).map(f32::abs);
        let labels: Vec<String> = (0..3).map(|c| format!("class{c}")).collect();
        CheckpointDelta {
            snapshot_version: 2,
            next_record_seq: 5,
            base: Checkpoint::capture(&model, &s),
            memory: model.sharded_class_memory(labels, &class_attributes, 2),
            routed: None,
            threshold: None,
            stream: None,
        }
    }

    /// A model file framed around `payload`: a correct length, CRC-64 and
    /// name, so only what the payload says is checked.
    fn reframed(payload: &[u8]) -> ModelFile {
        let mut bytes = MODEL_FILE_MAGIC.to_vec();
        bytes.extend_from_slice(&MODEL_FILE_FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc64(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        ModelFile {
            name: format!("model-{:016x}.bin", crc64(payload)),
            bytes,
        }
    }

    /// The payload range tensor `name` of `file` occupies.
    fn tensor_range(file: &ModelFile, name: &str) -> (TensorEntry, std::ops::Range<usize>) {
        let payload = &file.bytes()[MODEL_FILE_HEADER_LEN..];
        let header_len = u32::from_le_bytes(payload[..4].try_into().expect("4 bytes")) as usize;
        let header: ModelFileHeader =
            serde_json::from_str(std::str::from_utf8(&payload[4..4 + header_len]).expect("UTF-8"))
                .expect("header parses");
        let mut at = 4 + header_len;
        for entry in header.tensors {
            let len = entry.byte_len().expect("fits");
            if entry.name == name {
                return (entry, at..at + len);
            }
            at += len;
        }
        panic!("no tensor `{name}`");
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
            let file = ModelFile::encode(&model, &s);
            let restored = ModelFile::decode(file.name(), file.bytes(), &s)
                .expect("round trip")
                .freeze();
            let original = model.class_logits(&features, &class_attributes);
            let loaded = restored.class_logits(&features, &class_attributes);
            assert_eq!(original.as_slice(), loaded.as_slice(), "{kind}");
            let original_attr = model.attribute_logits(&features);
            let loaded_attr = restored.attribute_logits(&features);
            assert_eq!(original_attr.as_slice(), loaded_attr.as_slice(), "{kind}");
        }
    }

    /// The format version is read before anything else: a model file of
    /// another version is refused by version even when its payload is
    /// damaged too.
    #[test]
    fn wrong_version_is_rejected_before_the_payload() {
        let s = schema();
        let file = ModelFile::encode(&fixture_model(AttributeEncoderKind::Hdc), &s);
        let mut bytes = file.bytes().to_vec();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        *bytes.last_mut().expect("non-empty") ^= 0xFF;
        match ModelFile::decode(file.name(), &bytes, &s) {
            Err(CheckpointError::UnsupportedVersion {
                found: 99,
                supported,
            }) => {
                assert_eq!(supported, MODEL_FILE_FORMAT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {:?}", other.map(|_| ())),
        }
    }

    /// The retired version-1 layout — no `kind` field, `format_version: 1` —
    /// fails typed.
    #[test]
    fn version_1_documents_are_rejected() {
        let v1 = edited(&fresh_delta().to_json(), |doc| {
            *entry(doc, "format_version") = Value::Number(1.0);
            remove(doc, "kind");
        });
        let result = CheckpointDelta::from_json_str(&v1);
        assert!(
            matches!(
                result,
                Err(CheckpointError::UnsupportedVersion {
                    found: 1,
                    supported: CHECKPOINT_FORMAT_VERSION,
                })
            ),
            "{:?}",
            result.map(|_| ())
        );
    }

    /// A current-layout document with the wrong (or a missing) kind is a
    /// different envelope, not a malformed delta.
    #[test]
    fn wrong_kind_is_rejected() {
        let json = fresh_delta().to_json();
        let model_kind = edited(&json, |doc| {
            *entry(doc, "kind") = Value::String("model".to_string());
        });
        match CheckpointDelta::from_json_str(&model_kind) {
            Err(CheckpointError::WrongKind { found, expected }) => {
                assert_eq!(found, "model");
                assert_eq!(expected, "serve-delta");
            }
            other => panic!("expected WrongKind, got {:?}", other.map(|_| ())),
        }
        let missing_kind = edited(&json, |doc| remove(doc, "kind"));
        assert!(matches!(
            CheckpointDelta::from_json_str(&missing_kind),
            Err(CheckpointError::Malformed(_))
        ));
    }

    /// Saving goes through a temp file + rename, so a stale partial `.tmp`
    /// (a crashed half-save) never shadows the valid model file, and a
    /// successful save cleans up after itself.
    #[test]
    fn save_is_atomic_and_partial_temp_files_never_shadow_a_checkpoint() {
        let s = schema();
        let file = ModelFile::encode(&fixture_model(AttributeEncoderKind::Hdc), &s);
        let dir = std::env::temp_dir().join(format!("zsc-ckpt-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let tmp = dir.join(format!("{}.tmp", file.name()));
        file.save(&dir).expect("first save");
        assert!(!tmp.exists(), "temp file cleaned up");
        // Simulate a crash mid-save: a torn temp file next to the good one.
        std::fs::write(&tmp, &file.bytes()[..100]).expect("write torn temp");
        let restored = ModelFile::load(&dir, file.name(), &s).expect("good file untouched");
        assert_eq!(ModelFile::encode(&restored, &s).bytes(), file.bytes());
        // A subsequent save replaces both the torn temp and the file.
        file.save(&dir).expect("second save");
        assert!(!tmp.exists());
        ModelFile::load(&dir, file.name(), &s).expect("still valid");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Delta round trip: the embedded model file, memory (shard assignment
    /// included) and sequence bookkeeping survive bit-exactly, the
    /// `routed`, `threshold` and `stream` keys are required (as `null` when
    /// empty), and a delta is not a serve base.
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
            pending: BTreeSet::from(["class1".to_string()]),
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
        assert_eq!(restored.base.file.name(), delta.base.file.name());
        assert!(restored.base.file.bytes() == delta.base.file.bytes());
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
        // A delta is not a serve base.
        assert!(matches!(
            ServeBase::from_json_str(&json),
            Err(CheckpointError::Malformed(_))
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
            pending: BTreeSet::new(),
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
            pending: BTreeSet::from(["ghost".to_string()]),
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
            pending: BTreeSet::from(["ghost".to_string()]),
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

    /// A delta whose embedded model file is damaged is refused with a
    /// typed error, never a panic: bytes that are not lowercase hex, a
    /// flipped or a missing byte, a name that does not carry the file's
    /// CRC-64, and a model whose embeddings are not as wide as the
    /// memory's prototypes.
    #[test]
    fn delta_rejects_hostile_model_files() {
        let delta = fresh_delta();
        let json = delta.to_json();
        let file = &delta.base.file;
        let hex = |bytes: &[u8]| -> String { bytes.iter().map(|b| format!("{b:02x}")).collect() };
        let good = hex(file.bytes());
        let mut flipped = file.bytes().to_vec();
        *flipped.last_mut().expect("non-empty") ^= 0x01;
        let narrow = ModelFile::encode(
            &ZscModel::new(&ModelConfig::tiny().with_embedding_dim(32), &schema(), 48),
            &schema(),
        );
        type Expect = fn(&CheckpointError) -> bool;
        let cases: [(&str, &str, String, Expect); 7] = [
            (
                "odd-length hex",
                file.name(),
                good[1..].to_string(),
                |e| matches!(e, CheckpointError::Malformed(m) if m.contains("odd")),
            ),
            (
                "a non-hex digit",
                file.name(),
                format!("g{}", &good[1..]),
                |e| matches!(e, CheckpointError::Malformed(m) if m.contains("hex digit")),
            ),
            (
                "uppercase hex",
                file.name(),
                good.to_uppercase(),
                |e| matches!(e, CheckpointError::Malformed(m) if m.contains("hex digit")),
            ),
            ("a flipped byte", file.name(), hex(&flipped), |e| {
                matches!(e, CheckpointError::ChecksumMismatch { .. })
            }),
            ("another name", narrow.name(), good.clone(), |e| {
                matches!(e, CheckpointError::FingerprintMismatch { .. })
            }),
            (
                "a truncated file",
                file.name(),
                hex(&file.bytes()[..file.bytes().len() - 8]),
                |e| matches!(e, CheckpointError::Malformed(m) if m.contains("payload bytes")),
            ),
            (
                "a narrower model",
                narrow.name(),
                hex(narrow.bytes()),
                |e| {
                    matches!(
                        e,
                        CheckpointError::DimensionMismatch {
                            what: "class prototype dimensionality",
                            expected: 32,
                            found: 64,
                        }
                    )
                },
            ),
        ];
        let with_base = |name: &str, bytes: String| {
            edited(&json, |doc| {
                *entry(doc, "base") = Value::Object(vec![
                    ("model_file".to_string(), Value::String(name.to_string())),
                    ("bytes".to_string(), Value::String(bytes)),
                ]);
            })
        };
        assert!(CheckpointDelta::from_json_str(&with_base(file.name(), good.clone())).is_ok());
        for (what, name, bytes, expected) in cases {
            match CheckpointDelta::from_json_str(&with_base(name, bytes)) {
                Err(e) => assert!(expected(&e), "{what}: {e:?}"),
                Ok(_) => panic!("{what}: the delta loaded"),
            }
        }
    }

    /// A serve base round-trips either index kind exactly, stores the
    /// threshold as bits, and names its model file and its cadence; it runs
    /// the delta's class-state checks; and a version-2 delta — what an
    /// earlier build wrote as `base.json` — is not a base.
    #[test]
    fn serve_base_round_trips_and_refuses_version_2_deltas() {
        let s = schema();
        let model = fixture_model(AttributeEncoderKind::Hdc);
        let mut rng = StdRng::seed_from_u64(9);
        let class_attributes = Matrix::random_uniform(4, 312, 0.5, &mut rng).map(f32::abs);
        let labels: Vec<String> = (0..4).map(|c| format!("class{c}")).collect();
        let memory = model.sharded_class_memory(labels.clone(), &class_attributes, 2);
        let routed = RoutedClassMemory::from_sign_matrix(
            labels,
            &model.attribute_encoder().infer_classes(&class_attributes),
            engine::RoutedConfig {
                clusters: 2,
                ..engine::RoutedConfig::default()
            },
        );
        let model_file = ModelFile::encode(&model, &s).name().to_string();
        let base = |index, stream| ServeBase {
            snapshot_version: 7,
            publish_every: 3,
            model_file: model_file.clone(),
            index,
            threshold: Some(-0.0),
            stream,
        };
        for index in [
            ClassIndex::Sharded(memory.clone()),
            ClassIndex::Routed(routed.clone()),
        ] {
            let saved = base(index, None);
            let text = serde_json::to_string(&saved).expect("base renders");
            let restored = ServeBase::from_json_str(&text).expect("base loads");
            assert_eq!(
                restored.threshold.map(f32::to_bits),
                Some((-0.0f32).to_bits())
            );
            assert_eq!(restored, saved);
            restored
                .validate_model(&model)
                .expect("prototypes fit the model");
        }
        let mut ghost = hdc::ClassAccumulator::new(memory.dim());
        ghost
            .observe(
                "ghost",
                &hdc::BipolarHypervector::random(memory.dim(), &mut rng),
            )
            .expect("observe fits");
        let stream = StreamCheckpoint {
            accumulators: ghost,
            pending: BTreeSet::new(),
            since_publish: 0,
        };
        let text = serde_json::to_string(&base(ClassIndex::Sharded(memory.clone()), Some(stream)))
            .expect("base renders");
        assert!(matches!(
            ServeBase::from_json_str(&text),
            Err(CheckpointError::Malformed(reason)) if reason.contains("ghost")
        ));
        let sharded = serde_json::to_string(&base(ClassIndex::Sharded(memory.clone()), None))
            .expect("base renders");
        for (key, bad) in [
            ("model_file", Value::String("../model.bin".to_string())),
            ("publish_every", Value::Number(0.0)),
        ] {
            let edited = edited(&sharded, |doc| *entry(doc, key) = bad);
            assert!(
                matches!(
                    ServeBase::from_json_str(&edited),
                    Err(CheckpointError::Malformed(_))
                ),
                "a bad `{key}`"
            );
        }
        assert!(matches!(
            ServeBase::from_json_str(PRETTY_DELTA),
            Err(CheckpointError::Malformed(reason)) if reason.contains("model_file")
        ));
    }

    /// A base over two classes, the first word of each at least 2^53 (so
    /// written quoted), with one observation folded into `é😀` (every count
    /// 1), as text.
    fn hostile_base_text() -> (ServeBase, String) {
        let mut memory = ShardedClassMemory::new(64, 2);
        memory.add_class_packed("é😀", &[u64::MAX - 5]);
        memory.add_class_packed("b", &[1 << 60]);
        let mut accumulators = hdc::ClassAccumulator::new(64);
        accumulators
            .observe("é😀", &hdc::BipolarHypervector::from_signs(&[1; 64]))
            .expect("observe fits");
        let base = ServeBase {
            snapshot_version: 7,
            publish_every: 3,
            model_file: format!("model-{:016x}.bin", 7),
            index: ClassIndex::Sharded(memory),
            threshold: None,
            stream: Some(StreamCheckpoint {
                accumulators,
                pending: BTreeSet::from(["é😀".to_string()]),
                since_publish: 1,
            }),
        };
        let text = serde_json::to_string(&base).expect("base renders");
        (base, text)
    }

    /// The base reader refuses hostile text with a typed error, never a
    /// panic: a repeated key at the top or inside the classes, an unknown
    /// key nested past `MAX_DEPTH`, an unquoted word from 2^53 on, a count
    /// above its class's observations, and counts that are strings. Quoted
    /// counts below 2^53 load, as they always have.
    #[test]
    fn serve_base_reader_refuses_hostile_text() {
        let (base, text) = hostile_base_text();
        assert_eq!(ServeBase::from_json_str(&text).expect("base loads"), base);
        let deep = format!(
            "{{\"deep\":{}{},",
            "[".repeat(json::MAX_DEPTH + 1),
            "]".repeat(json::MAX_DEPTH + 1)
        );
        let ones = format!("[{}]", vec!["1"; 64].join(","));
        let cases = [
            (
                "a repeated key",
                "\"publish_every\":3,",
                "\"publish_every\":3,\"publish_every\":3,",
            ),
            (
                "a repeated nested key",
                "\"dim\":64,\"shards\"",
                "\"dim\":64,\"dim\":64,\"shards\"",
            ),
            ("a deep unknown key", "{", deep.as_str()),
            (
                "an unquoted word",
                "\"18446744073709551610\"",
                "18446744073709551610",
            ),
            ("a count above n", "\"counts\":[1,", "\"counts\":[2,"),
            (
                "counts as a string",
                "\"counts\":[",
                "\"counts\":\"1\",\"rest\":[",
            ),
            (
                "a count that is no number",
                "\"counts\":[1,",
                "\"counts\":[\"x\",",
            ),
            ("a truncated document", &text[text.len() - 2..], "}"),
        ];
        for (what, from, to) in cases {
            assert!(text.contains(from), "{what}: `{from}` in the base");
            let hostile = text.replacen(from, to, 1);
            assert!(
                matches!(
                    ServeBase::from_json_str(&hostile),
                    Err(CheckpointError::Malformed(_))
                ),
                "{what}: {:?}",
                ServeBase::from_json_str(&hostile).map(|_| ())
            );
        }
        let quoted = text.replacen(&ones, &ones.replace('1', "\"1\""), 1);
        assert_ne!(quoted, text);
        assert_eq!(
            ServeBase::from_json_str(&quoted).expect("quoted counts"),
            base
        );
    }

    /// Keys load in any order, unknown keys of any shape are skipped, and
    /// labels written with `\u` escapes (a surrogate pair included) read
    /// back as the labels they spell.
    #[test]
    fn serve_base_reader_takes_any_key_order_and_escaped_labels() {
        let (base, text) = hostile_base_text();
        let reordered = edited(&text, |doc| {
            doc.reverse();
            doc.insert(
                2,
                (
                    "extra".to_string(),
                    Value::Object(vec![(
                        "classes".to_string(),
                        Value::Array(vec![Value::Null]),
                    )]),
                ),
            );
        });
        assert!(reordered.find("\"classes\"") < reordered.find("\"index\""));
        assert_eq!(
            ServeBase::from_json_str(&reordered).expect("reordered"),
            base
        );
        let escaped = text.replace("é😀", "\\u00e9\\ud83d\\ude00");
        assert_eq!(escaped.matches("\\ud83d").count(), 3);
        assert_eq!(ServeBase::from_json_str(&escaped).expect("escaped"), base);
    }

    /// A base's writer emits the layout fixed before it existed, key by
    /// key, owned or with borrowed stream counters, for both index kinds,
    /// both threshold states, and with and without stream state.
    #[test]
    fn base_writer_matches_the_value_rendering() {
        let mut memory = ShardedClassMemory::new(64, 2);
        memory.add_class_packed("a\"\\", &[5]);
        let routed = RoutedClassMemory::from_sharded(
            &memory,
            engine::RoutedConfig {
                clusters: 2,
                ..engine::RoutedConfig::default()
            },
        );
        let mut counters = hdc::ClassAccumulator::new(64);
        let signs: Vec<i8> = (0..64).map(|i| if i % 3 == 0 { -1 } else { 1 }).collect();
        counters
            .observe("a\"\\", &hdc::BipolarHypervector::from_signs(&signs))
            .expect("observe fits");
        let stream = StreamCheckpoint {
            accumulators: counters,
            pending: BTreeSet::from(["a\"\\".to_string()]),
            since_publish: 1 << 53,
        };
        let base = |index, threshold, stream| ServeBase {
            snapshot_version: u64::MAX,
            publish_every: 3,
            model_file: format!("model-{:016x}.bin", 1),
            index,
            threshold,
            stream,
        };
        let mut bases = Vec::new();
        for index in [
            ClassIndex::Sharded(memory.clone()),
            ClassIndex::Routed(routed),
        ] {
            for threshold in [None, Some(-0.0), Some(0.25)] {
                for stream in [None, Some(stream.clone())] {
                    bases.push(base(index.clone(), threshold, stream));
                }
            }
        }
        let write = |x: &dyn Fn(&mut String)| {
            let mut out = String::new();
            x(&mut out);
            out
        };
        for saved in &bases {
            let text = serde_json::to_string(saved).expect("writes");
            let (kind, classes) = match &saved.index {
                ClassIndex::Sharded(memory) => ("sharded", write(&|out| memory.write_json(out))),
                ClassIndex::Routed(routed) => ("routed", write(&|out| routed.write_json(out))),
            };
            assert_eq!(
                text,
                format!(
                    r#"{{"snapshot_version":"18446744073709551615","publish_every":3,"model_file":"model-0000000000000001.bin","index":"{kind}","classes":{classes},"threshold_bits":{},"stream":{}}}"#,
                    write(&|out| saved.threshold.map(f32::to_bits).write_json(out)),
                    write(&|out| saved.stream.write_json(out)),
                )
            );
            let borrowed = ServeBase {
                snapshot_version: saved.snapshot_version,
                publish_every: saved.publish_every,
                model_file: saved.model_file.clone(),
                index: saved.index.clone(),
                threshold: saved.threshold,
                stream: saved.stream.as_ref(),
            };
            assert_eq!(serde_json::to_string(&borrowed).expect("writes"), text);
        }
        assert_eq!(
            serde_json::to_string(&base(ClassIndex::Sharded(memory), Some(-0.0), None))
                .expect("writes"),
            r#"{"snapshot_version":"18446744073709551615","publish_every":3,"model_file":"model-0000000000000001.bin","index":"sharded","classes":{"dim":64,"shards":[{"dim":64,"words_per_row":1,"labels":["a\"\\"],"words":[5]},{"dim":64,"words_per_row":1,"labels":[],"words":[]}]},"threshold_bits":2147483648,"stream":null}"#
        );
    }

    /// The delta's embedded model writes its file's name and its bytes as
    /// lowercase hex.
    #[test]
    fn checkpoint_writer_matches_the_value_rendering() {
        let s = schema();
        let checkpoint = Checkpoint::capture(&fixture_model(AttributeEncoderKind::Hdc), &s);
        let hex: String = checkpoint
            .file
            .bytes()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        let text = serde_json::to_string(&checkpoint).expect("writes");
        assert_eq!(
            text,
            format!(
                r#"{{"model_file":"{}","bytes":"{hex}"}}"#,
                checkpoint.file.name()
            )
        );
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let s = schema();
        let file = ModelFile::encode(&fixture_model(AttributeEncoderKind::Hdc), &s);
        let other = AttributeSchema::synthetic(4, 5);
        let requested = SchemaFingerprint::of(&other);
        assert!(matches!(
            ModelFile::decode(file.name(), file.bytes(), &other),
            Err(CheckpointError::SchemaMismatch { checkpoint, requested: r })
                if checkpoint == SchemaFingerprint::of(&s) && r == requested
        ));
    }

    /// A model file's payload with `edit` applied to its header's tensor
    /// table and its tensor bytes, re-framed with a correct CRC-64 and name.
    fn edited_tensors(
        file: &ModelFile,
        edit: impl FnOnce(&mut Vec<TensorEntry>, &mut Vec<u8>),
    ) -> ModelFile {
        let payload = &file.bytes()[MODEL_FILE_HEADER_LEN..];
        let header_len = u32::from_le_bytes(payload[..4].try_into().expect("4 bytes")) as usize;
        let mut header: ModelFileHeader =
            serde_json::from_str(std::str::from_utf8(&payload[4..4 + header_len]).expect("UTF-8"))
                .expect("header parses");
        let mut data = payload[4 + header_len..].to_vec();
        edit(&mut header.tensors, &mut data);
        let json = serde_json::to_string(&header).expect("header renders");
        let mut payload = (json.len() as u32).to_le_bytes().to_vec();
        payload.extend_from_slice(json.as_bytes());
        payload.extend_from_slice(&data);
        reframed(&payload)
    }

    /// A file that adds a ±1 dictionary tensor beside the codebooks, framed
    /// correctly, is refused: the layout has no place for one.
    #[test]
    fn a_file_holding_a_dictionary_tensor_is_refused() {
        let s = schema();
        let model = fixture_model(AttributeEncoderKind::Hdc);
        let file = ModelFile::encode(&model, &s);
        let dictionary = model.phase2_dictionary();
        let tampered = edited_tensors(&file, |table, data| {
            table.push(TensorEntry {
                name: "hdc.dictionary".to_string(),
                rows: dictionary.rows(),
                cols: dictionary.cols(),
            });
            for x in dictionary.as_slice() {
                data.extend_from_slice(&x.to_le_bytes());
            }
        });
        match ModelFile::decode(tampered.name(), tampered.bytes(), &s) {
            Err(CheckpointError::Malformed(message)) => {
                assert!(message.contains("hdc.dictionary"), "{message}")
            }
            other => panic!("expected Malformed, got {:?}", other.map(|_| ())),
        }
    }

    /// A file with one value-codebook sign flipped, re-framed with a
    /// correct CRC-64 and name, is a different model, not a contradiction:
    /// it loads, and every dictionary row is the binding of its loaded
    /// codebooks.
    #[test]
    fn a_flipped_codebook_sign_is_bound_into_the_dictionary() {
        let s = schema();
        let original = fixture_model(AttributeEncoderKind::Hdc);
        let file = ModelFile::encode(&original, &s);
        let (_, range) = tensor_range(&file, "hdc.values");
        let mut payload = file.bytes()[MODEL_FILE_HEADER_LEN..].to_vec();
        payload[range.start] ^= 0b1000;
        let tampered = reframed(&payload);
        assert_ne!(tampered.name(), file.name());
        let model = ModelFile::decode(tampered.name(), tampered.bytes(), &s).expect("loads");
        let (AttributeEncoder::Hdc(hdc), AttributeEncoder::Hdc(before)) =
            (model.attribute_encoder(), original.attribute_encoder())
        else {
            panic!("HDC models");
        };
        assert_eq!(
            hdc.value_codebook().get(0).get(3),
            -before.value_codebook().get(0).get(3)
        );
        for (k, &(g, v)) in s.pairs().iter().enumerate() {
            let bound = hdc
                .group_codebook()
                .get(g)
                .bind(hdc.value_codebook().get(v));
            assert_eq!(hdc.dictionary().row(k), &bound.to_f32()[..], "row {k}");
        }
        // The untouched bytes re-framed the same way are the same file.
        let same = reframed(&file.bytes()[MODEL_FILE_HEADER_LEN..]);
        assert_eq!(same.name(), file.name());
        assert!(same.bytes() == file.bytes());
    }

    /// A codebook one row short of the schema's count, framed correctly,
    /// is a typed error: nothing panics binding it.
    #[test]
    fn a_codebook_one_row_short_is_a_typed_error() {
        let s = schema();
        let file = ModelFile::encode(&fixture_model(AttributeEncoderKind::Hdc), &s);
        for name in CODEBOOKS {
            let tampered = edited_tensors(&file, |table, data| {
                let at = table.iter().position(|e| e.name == name).expect("stored");
                let start: usize = table[..at]
                    .iter()
                    .map(|e| e.byte_len().expect("fits"))
                    .sum();
                let row_bytes = table[at].byte_len().expect("fits") / table[at].rows;
                table[at].rows -= 1;
                data.drain(start..start + row_bytes);
            });
            match ModelFile::decode(tampered.name(), tampered.bytes(), &s) {
                Err(CheckpointError::DimensionMismatch {
                    what,
                    expected,
                    found,
                }) => {
                    assert_eq!(found + 1, expected, "{what}");
                    assert!(what.contains("codebook size"), "{what}");
                }
                other => panic!(
                    "{name}: expected DimensionMismatch, got {:?}",
                    other.map(|_| ())
                ),
            }
        }
    }

    #[test]
    fn io_errors_are_typed() {
        let s = schema();
        let file = ModelFile::encode(&fixture_model(AttributeEncoderKind::Hdc), &s);
        let missing = Path::new("/nonexistent/dir");
        assert!(matches!(
            ModelFile::load(missing, file.name(), &s),
            Err(CheckpointError::Io(_))
        ));
        assert!(matches!(file.save(missing), Err(CheckpointError::Io(_))));
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
