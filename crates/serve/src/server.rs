//! The query server: a micro-batching admission queue in front of the
//! batched inference engine, serving an **atomically hot-swappable** model
//! snapshot.
//!
//! Concurrent callers submit single backbone-feature rows (or small batches)
//! through [`QueryServer::query`] / [`QueryServer::query_batch`]. A
//! dedicated dispatcher thread coalesces whatever is queued — up to
//! [`ServerConfig::max_batch`] requests within a window of
//! [`ServerConfig::max_wait_us`] after the first arrival — and spends that
//! window computing: it embeds the rows it holds through the model's image
//! encoder and sign-binarizes them, then embeds each top-up of rows that
//! arrive before the window closes. The whole batch is then scored against
//! the snapshot's class index — a sharded packed class memory
//! ([`engine::ShardedClassMemory`]), or in routed mode a routed index
//! ([`engine::RoutedClassMemory`]) — and each caller receives its own top-k
//! labels.
//!
//! # Snapshots and hot swap
//!
//! All serving state lives in an immutable [`ModelSnapshot`] behind an
//! `Arc`: a [`FrozenModel`] (shared weights, `&self` inference — parameters
//! never mutate while serving) plus the class index. The
//! dispatcher picks up the current snapshot once per coalesced batch, so
//! every batch is scored against exactly one snapshot and a swap never
//! tears a batch. Rows that arrive after a swap inside an open window are
//! not topped up into it: they open the next batch, on the new snapshot.
//!
//! **Zero model copies on the query path.** Since the model's entire
//! inference surface takes `&self`, neither the dispatcher, nor
//! [`ModelSnapshot::solo_topk`], nor the class-registration control plane
//! ever deep-copies a `ZscModel`; everything embeds through the one shared
//! [`FrozenModel`] allocation. (Earlier revisions cloned the full model per
//! dispatcher hand-off, per `solo_topk` call, and once more into the control
//! plane — the `zero_copy` stress test pins, via `FrozenModel::ptr_eq` /
//! `strong_count` probes, that those copies are gone for good.)
//!
//! Mutations — [`QueryServer::register_class`],
//! [`QueryServer::update_class`], [`QueryServer::remove_class`],
//! [`QueryServer::swap_model`], [`QueryServer::set_threshold`] /
//! [`QueryServer::clear_threshold`], [`QueryServer::observe`] /
//! [`QueryServer::flush`] — validate their inputs first, then build the
//! next snapshot on the caller's thread and publish it with one `Arc`
//! store. The next snapshot comes from one state transition that
//! [`QueryServer::recover`] also folds over the write-ahead log, so a
//! recovered server cannot diverge from the live one. The sharded
//! memory's copy-on-write shards make the incremental
//! paths cheap: registering a class clones `Arc` handles for every shard
//! except the one the class routes to, which alone is repacked — and a
//! request that fails validation (wrong width, unknown label) returns its
//! typed error before any shard is cloned or repacked. In-flight queries
//! keep scoring against the old snapshot until the dispatcher's next
//! pickup; nothing drains, nothing blocks on the queue.
//!
//! # Exactness
//!
//! Results are **bit-identical** to scoring the same query alone against the
//! snapshot that served it: per-query scores are independent rows of the
//! engine's batched popcount sweep and the sharded top-k merge is
//! bit-identical to the monolithic scorer (the engine's exactness
//! contract), so micro-batching and sharding trade latency for throughput
//! without changing a single output bit. [`QueryServer::query_traced`]
//! returns the serving snapshot's version alongside the labels so callers
//! (and the hot-swap stress test) can verify exactly that.

use crate::wal::{self, SyncPolicy, WalError, WalOp, WriteAheadLog};
use dataset::AttributeSchema;
use engine::{ClassIndex, PackedQueryBatch, RoutedClassMemory, RoutedConfig, ShardedClassMemory};
use hdc::{BipolarHypervector, ClassAccumulator};
use hdc_zsc::{FrozenModel, ModelFile, ServeBase, StreamCheckpoint};
use metrics::{DriftReport, StreamDriftConfig, StreamDriftDetector};
use std::collections::{BTreeSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tensor::Matrix;

/// Admission-queue and scoring configuration of a [`QueryServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Largest batch the dispatcher hands to the engine at once.
    pub max_batch: usize,
    /// How long (µs) after the first queued request the dispatcher keeps a
    /// partial batch open for more requests to coalesce. The window is spent
    /// embedding the rows that have arrived, not sleeping: when embedding
    /// outlasts it, a lone request pays the embed and no wait.
    pub max_wait_us: u64,
    /// Thread count of the engine pool the batch is scored across.
    pub threads: usize,
    /// How many labels each query gets back, most similar first. When this
    /// exceeds the number of currently-registered classes, each query gets
    /// every class — `min(top_k, classes)` labels (the engine's truncation
    /// contract), never an error.
    pub top_k: usize,
    /// Number of shards the class memory is split across. Lookup results are
    /// bit-identical for every shard count; more shards make serve-time
    /// class registration cheaper (only the touched shard is repacked) at a
    /// small merge cost per query. In routed mode a class set is encoded at
    /// this width before it is clustered, and the clustering depends on it.
    pub shards: usize,
    /// `Some` runs the server in **routed** mode: instead of a sharded
    /// memory, every snapshot stores its classes in a coarse-to-fine
    /// [`engine::RoutedClassMemory`] under this configuration and queries
    /// are scored through it. With the config's default full probing
    /// results stay bit-identical to the exhaustive path; a partial
    /// `nprobe` shortlists a few clusters per query — the sub-linear mode
    /// for very large class sets. `None` (the default) serves exhaustively.
    pub routed: Option<RoutedConfig>,
    /// How many streamed observations ([`QueryServer::observe`]) are folded
    /// into the per-class counters before the touched prototypes are
    /// re-signed and published as one snapshot. `1` (the default) publishes
    /// after every observe; larger values batch the snapshot churn while the
    /// counters — and the write-ahead log — still advance per observe, so
    /// nothing acknowledged is ever lost. [`QueryServer::flush`] publishes a
    /// partial batch on demand. Must be at least 1.
    ///
    /// A durable server's log records the cadence it is written under, so
    /// [`QueryServer::recover`] takes any value: it replays under the
    /// logged one and serves on under this one.
    pub publish_every: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_batch: 64,
            max_wait_us: 200,
            threads: engine::Pool::auto().threads(),
            top_k: 5,
            shards: 4,
            routed: None,
            publish_every: 1,
        }
    }
}

/// One scored label: `(class label, similarity in [-1, 1])`.
pub type ScoredLabel = (String, f32);

/// The open-set verdict a calibrated snapshot attaches to a served query.
///
/// Only produced when the serving snapshot carries a rejection threshold
/// ([`QueryServer::set_threshold`], typically with the threshold of a
/// [`SimilarityCalibration`](hdc_zsc::SimilarityCalibration)):
/// the verdict is [`Verdict::Unknown`] exactly when the query's best
/// similarity falls **strictly below** the threshold — the same strict-less
/// rule [`hdc_zsc::SimilarityCalibrator`] fits its target false-reject rate
/// against, so ties with the threshold stay `Known`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The best similarity cleared the threshold; the top-1 label is an
    /// in-distribution answer.
    Known,
    /// The best similarity fell strictly below the threshold; the query
    /// likely belongs to no registered class.
    Unknown,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Known => write!(f, "known"),
            Verdict::Unknown => write!(f, "unknown"),
        }
    }
}

/// Why a query could not be served.
///
/// Marked `#[non_exhaustive]`: the serving surface may grow new failure
/// modes, so downstream matches must keep a wildcard arm.
#[derive(Debug)]
#[must_use = "a serve error says why the request was rejected and should be handled"]
#[non_exhaustive]
pub enum ServeError {
    /// The server was (or is being) shut down before the query completed.
    Stopped,
    /// A submitted feature row has the wrong width.
    FeatureWidth {
        /// Width the model's backbone expects.
        expected: usize,
        /// Width the caller submitted.
        found: usize,
    },
    /// A submitted class-attribute row has the wrong width.
    AttributeWidth {
        /// Width the model's attribute encoder expects.
        expected: usize,
        /// Width the caller submitted.
        found: usize,
    },
    /// A class label was not found (e.g. removing an unregistered class).
    UnknownClass(String),
    /// A class label is already registered. Registration never silently
    /// overwrites; use [`QueryServer::update_class`] to re-point an existing
    /// class (this also keeps WAL replay idempotence well-defined — every
    /// logged register is a genuine insert).
    DuplicateLabel(String),
    /// The server is draining: [`QueryServer::stop`] was called, queries
    /// already admitted are being scored, and no new ones are accepted.
    Draining,
    /// The network front-end's bounded admission queue was full, so the
    /// request was load-shed instead of being queued behind the dispatcher.
    /// Rejection is immediate and cheap — the caller should back off and
    /// retry; admitted requests are unaffected (see [`crate::net`]).
    Overloaded {
        /// Capacity of the admission queue that was full.
        capacity: usize,
    },
    /// A network connection used up its per-connection request quota and is
    /// being closed (see [`crate::net::NetConfig::connection_quota`]).
    QuotaExhausted {
        /// The quota the connection was admitted under.
        limit: u64,
    },
    /// The server could not be constructed from the given parts, or a
    /// mutation would leave it unservable (e.g. removing the last class).
    InvalidConfig(String),
    /// A model file or compaction base could not be loaded or validated.
    Checkpoint(hdc_zsc::CheckpointError),
    /// The write-ahead log could not be written, read, or replayed.
    Wal(WalError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Stopped => write!(f, "query server is stopped"),
            ServeError::FeatureWidth { expected, found } => write!(
                f,
                "feature row has width {found}, the model expects {expected}"
            ),
            ServeError::AttributeWidth { expected, found } => write!(
                f,
                "class-attribute row has width {found}, the model expects {expected}"
            ),
            ServeError::UnknownClass(label) => write!(f, "no class registered as `{label}`"),
            ServeError::DuplicateLabel(label) => write!(
                f,
                "class `{label}` is already registered (use update_class to overwrite)"
            ),
            ServeError::Draining => write!(f, "query server is draining and rejects new queries"),
            ServeError::Overloaded { capacity } => write!(
                f,
                "admission queue full ({capacity} in flight); request load-shed, back off and retry"
            ),
            ServeError::QuotaExhausted { limit } => {
                write!(f, "connection exhausted its request quota of {limit}")
            }
            ServeError::InvalidConfig(msg) => write!(f, "invalid server configuration: {msg}"),
            ServeError::Checkpoint(e) => write!(f, "checkpoint rejected: {e}"),
            ServeError::Wal(e) => write!(f, "write-ahead log failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Checkpoint(e) => Some(e),
            ServeError::Wal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<hdc_zsc::CheckpointError> for ServeError {
    fn from(e: hdc_zsc::CheckpointError) -> Self {
        ServeError::Checkpoint(e)
    }
}

impl From<WalError> for ServeError {
    fn from(e: WalError) -> Self {
        ServeError::Wal(e)
    }
}

/// How a durable server persists its mutation plane; see
/// [`QueryServer::start_durable`] and the [`crate::wal`] module docs.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the write-ahead log (`wal.log`, which opens with
    /// the compaction base) and the binary model files it names
    /// (`model-<fingerprint>.bin`). Created if missing;
    /// [`QueryServer::start_durable`] refuses a directory that already
    /// holds a log.
    pub dir: PathBuf,
    /// When appended records are fsynced: [`SyncPolicy::Always`], the one
    /// policy. Every record is fsynced before its mutation is acknowledged.
    pub sync: SyncPolicy,
    /// Fold the WAL into a fresh compaction base after this many records
    /// (`0` disables automatic compaction; [`QueryServer::compact`] is
    /// always available). Defaults to 64.
    pub compact_every: u64,
}

impl DurabilityConfig {
    /// Per-record fsync, compaction every 64 records, logs under `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            sync: SyncPolicy::Always,
            compact_every: 64,
        }
    }
}

/// What [`QueryServer::recover`] rebuilt from disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a recovery report says how much state was rebuilt and should be checked"]
pub struct RecoveryReport {
    /// The snapshot version the recovered server resumes at — the
    /// compaction base's version plus one per replayed *publication*
    /// (classic mutation records each published one snapshot; streamed
    /// observe records publish on the `publish_every` cadence the base
    /// records, with flush records marking the explicit boundaries), i.e.
    /// exactly the version the pre-crash server last acknowledged.
    pub snapshot_version: u64,
    /// Mutation records replayed on top of the compaction base.
    pub replayed_records: u64,
    /// Whether a torn final record was detected (and cleanly ignored): the
    /// signature of a crash mid-append.
    pub torn_tail: bool,
}

/// The durable half of the control plane: the open WAL plus everything
/// compaction needs. Lives inside the control mutex, so WAL appends are
/// ordered exactly like the mutations they log.
#[derive(Debug)]
struct DurableState {
    wal: WriteAheadLog,
    dir: PathBuf,
    /// The serving schema, pinned at startup; model files are written
    /// against it, and swapped-in models must keep matching it.
    schema: AttributeSchema,
    compact_every: u64,
    since_compact: u64,
    /// The file holding the serving model: the base's, or the last logged
    /// swap's. The next base names it.
    model_file: String,
    /// Size of that model file in bytes.
    model_bytes: u64,
    /// Wall time of the last successful compaction (0 before the first).
    last_compaction_us: u64,
}

impl DurableState {
    /// Initialises `durability.dir` for a fresh server serving `snapshot`.
    /// A directory that already holds a log is refused before anything is
    /// written: overwriting it would destroy a recoverable state. The model
    /// file first, then the log that opens with the base naming it: a
    /// crash in between leaves no log, which `recover` rejects loudly.
    fn create(
        snapshot: &ModelSnapshot,
        stream: &StreamControl,
        schema: &AttributeSchema,
        durability: DurabilityConfig,
    ) -> Result<Self, ServeError> {
        let path = wal::wal_path(&durability.dir);
        if path.exists() {
            return Err(ServeError::InvalidConfig(format!(
                "{} already holds a durable server state; recover it with \
                 QueryServer::recover or remove it",
                durability.dir.display()
            )));
        }
        std::fs::create_dir_all(&durability.dir).map_err(|e| ServeError::Wal(WalError::Io(e)))?;
        let model = ModelFile::encode(&snapshot.model, schema);
        wal::save_model(&durability.dir, &model)?;
        let base = base(snapshot, stream, model.name());
        Ok(Self {
            wal: WriteAheadLog::headed(path, Some(&base))?,
            dir: durability.dir,
            schema: schema.clone(),
            compact_every: durability.compact_every,
            since_compact: 0,
            model_file: model.name().to_string(),
            model_bytes: model.bytes().len() as u64,
            last_compaction_us: 0,
        })
    }

    /// Appends the record logging `mutation`: the record itself, or for a
    /// swap one naming the model file it writes first, so the record never
    /// names a file that is not on disk; a failed model write logs nothing
    /// and leaves the log live.
    fn log(&mut self, mutation: &Mutation) -> Result<(), ServeError> {
        match mutation {
            Mutation::Logged(op) => {
                self.wal.append(op)?;
            }
            Mutation::Swap { model, memory } => {
                // A stopped log takes no record, so it gets no model file.
                self.wal.ensure_live()?;
                let file = ModelFile::encode(model, &self.schema);
                wal::save_model(&self.dir, &file)?;
                self.wal.append(&WalOp::Swap {
                    model_file: file.name().to_string(),
                    memory: memory.clone(),
                })?;
                self.model_file = file.name().to_string();
                self.model_bytes = file.bytes().len() as u64;
            }
        }
        Ok(())
    }

    /// Replaces the log with one that opens with `snapshot` and `stream`
    /// (counters and batching position, so a base written mid-batch
    /// recovers counter-exactly) as its base, then deletes every model file
    /// but the serving one. A failure before the new log's rename leaves
    /// the old log live.
    fn compact(
        &mut self,
        snapshot: &ModelSnapshot,
        stream: &StreamControl,
    ) -> Result<(), WalError> {
        let start = Instant::now();
        let base = base(snapshot, stream, &self.model_file);
        self.wal.compact(Some(&base))?;
        wal::remove_models_except(&self.dir, &self.model_file);
        self.since_compact = 0;
        self.last_compaction_us = start.elapsed().as_micros() as u64;
        Ok(())
    }
}

/// The compaction base of `snapshot` and `stream`, naming `model_file`. It
/// borrows the stream counters: a base is written, never kept.
fn base<'a>(
    snapshot: &ModelSnapshot,
    stream: &'a StreamControl,
    model_file: &str,
) -> ServeBase<&'a StreamCheckpoint> {
    ServeBase {
        snapshot_version: snapshot.version,
        publish_every: stream.publish_every,
        model_file: model_file.to_string(),
        index: snapshot.index.clone(),
        threshold: snapshot.threshold,
        stream: stream.checkpoint(),
    }
}

/// The continual-learning half of the control plane: exact per-class
/// bundling counters, the publication batching position, and the drift
/// detector fed one displacement per published class version. Lives inside
/// the control mutex like every other mutation-plane state, so observes are
/// ordered exactly like the WAL records that log them.
#[derive(Debug)]
struct StreamControl {
    /// Copy of [`ServerConfig::publish_every`] — the automatic publication
    /// cadence.
    publish_every: u32,
    /// What a compaction base persists: the exact i32 counters per
    /// streamed class (prototypes are re-signed from these at every
    /// publication boundary, so folding is order-independent and
    /// bit-reproducible from the counters alone), the classes observed
    /// since their last publication (what the next boundary re-signs, in
    /// sorted order, so publication order is deterministic), and the
    /// observes folded since the last boundary.
    state: StreamCheckpoint,
    /// Lifetime observes accepted (pre- and post-publication).
    observes: u64,
    /// EWMA + Page–Hinkley change-point detection over per-class prototype
    /// displacement between published versions.
    drift: StreamDriftDetector,
}

impl StreamControl {
    fn fresh(dim: usize, publish_every: u32) -> Self {
        Self {
            publish_every,
            state: StreamCheckpoint {
                accumulators: ClassAccumulator::new(dim),
                pending: BTreeSet::new(),
                since_publish: 0,
            },
            observes: 0,
            drift: StreamDriftDetector::new(StreamDriftConfig::default()),
        }
    }

    /// The state a compaction base persists, borrowed (`None` when
    /// nothing has been streamed, keeping pre-streaming bases
    /// byte-stable).
    fn checkpoint(&self) -> Option<&StreamCheckpoint> {
        let state = &self.state;
        (!state.accumulators.is_empty() || state.since_publish != 0).then_some(state)
    }
}

/// Streaming continual-learning counters of a [`QueryServer`]; see
/// [`QueryServer::stream_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct StreamStats {
    /// Observations accepted over the server's lifetime (on a recovered
    /// server: since the compaction base, i.e. replayed plus live).
    pub observes: u64,
    /// Classes with counter changes not yet re-signed into a published
    /// snapshot.
    pub pending_classes: u64,
    /// Observations folded since the last publication boundary.
    pub since_publish: u64,
    /// Class-version publications the drift detector has scored.
    pub publishes: u64,
    /// Page–Hinkley drift alarms raised so far.
    pub drift_alarms: u64,
}

/// Durability counters of a durable [`QueryServer`]; see
/// [`QueryServer::durability_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct DurabilityStats {
    /// Size of the live write-ahead log file in bytes (header included).
    pub wal_bytes: u64,
    /// WAL records appended since the last compaction folded the log into
    /// a fresh base.
    pub records_since_compaction: u64,
    /// The sequence number the next appended record will carry.
    pub next_record_seq: u64,
    /// Size in bytes of the base record the live log opens with.
    pub base_bytes: u64,
    /// Size of the serving model's binary file in bytes.
    pub model_bytes: u64,
    /// Wall time of the last successful compaction in microseconds: new
    /// log written and renamed, model files swept. 0 before the first.
    pub last_compaction_us: u64,
}

/// Counters describing the batching and hot-swap behaviour observed so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize)]
pub struct ServerStats {
    /// Queries answered.
    pub queries: u64,
    /// Engine dispatches (each serving one coalesced batch).
    pub batches: u64,
    /// Largest coalesced batch observed.
    pub max_batch_observed: usize,
    /// Snapshot swaps published (class registrations/updates/removals and
    /// full model swaps).
    pub swaps: u64,
}

impl ServerStats {
    /// Mean coalesced batch size (0 when nothing was dispatched).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.queries as f64 / self.batches as f64
        }
    }
}

/// One immutable serving state: the frozen model plus the one class index
/// derived from it — a sharded memory, or in routed mode a routed index —
/// tagged with a monotonically increasing version.
///
/// Snapshots are cheap to derive from one another — the model is shared
/// through the [`FrozenModel`]'s `Arc` and the index's shards or clusters
/// are copy-on-write — and are never mutated after publication, so a reader
/// holding an `Arc<ModelSnapshot>` can score against it indefinitely, swap
/// or no swap.
#[derive(Debug, Clone)]
pub struct ModelSnapshot {
    version: u64,
    model: FrozenModel,
    index: ClassIndex,
    /// The calibrated open-set rejection threshold, when one is set; see
    /// [`Verdict`]. Carried by the snapshot so a threshold change is one
    /// more atomic hot swap: every query is judged by exactly the snapshot
    /// that scored it.
    threshold: Option<f32>,
}

impl ModelSnapshot {
    /// The snapshot's version: 0 for the server's initial state, +1 per
    /// published swap.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The snapshot's classes as a sharded memory: the memory queries are
    /// scored against, or — in routed mode — the routed index's own
    /// clusters, one shard per cluster ([`RoutedClassMemory::as_sharded`]).
    /// Either way it is the one stored form of every class.
    pub fn memory(&self) -> &ShardedClassMemory {
        self.index.memory()
    }

    /// The routed coarse-to-fine index queries are scored through, for
    /// snapshots published by a server running in routed mode
    /// ([`ServerConfig::routed`]).
    pub fn routed(&self) -> Option<&RoutedClassMemory> {
        match &self.index {
            ClassIndex::Sharded(_) => None,
            ClassIndex::Routed(routed) => Some(routed),
        }
    }

    /// The frozen model embedding the queries. Cloning the returned handle
    /// clones an `Arc`, never the weights.
    pub fn model(&self) -> &FrozenModel {
        &self.model
    }

    /// The open-set rejection threshold this snapshot judges queries by,
    /// when one is set ([`QueryServer::set_threshold`]).
    pub fn threshold(&self) -> Option<f32> {
        self.threshold
    }

    /// The verdict this snapshot assigns to a served top-k: `None` when no
    /// threshold is set, otherwise [`Verdict::Unknown`] iff the best
    /// similarity is **strictly below** the threshold (an empty top-k —
    /// `k = 0` — is `Unknown` under a threshold, since nothing cleared it).
    ///
    /// Deterministic in the similarity *bits*, so recomputing over
    /// [`ModelSnapshot::solo_topk`] reproduces the served verdict exactly.
    pub fn verdict(&self, top: &[ScoredLabel]) -> Option<Verdict> {
        self.threshold.map(|threshold| match top.first() {
            Some(&(_, sim)) if sim >= threshold => Verdict::Known,
            _ => Verdict::Unknown,
        })
    }

    /// Scores one feature row against this snapshot exactly as the server
    /// does, but solo — no admission queue, no batching. The serving
    /// contract is that a query answered under version `v` is bit-identical
    /// to `solo_topk` on the version-`v` snapshot.
    ///
    /// Embeds through the shared [`FrozenModel`] (`&self` inference), so
    /// this copies nothing and is itself as cheap as one dispatcher row.
    pub fn solo_topk(&self, features: &[f32], k: usize) -> Vec<ScoredLabel> {
        let embedding = self
            .model
            .embed_images(&Matrix::from_rows(&[features.to_vec()]));
        let packed = engine::pack_float_signs(embedding.row(0));
        let top = match &self.index {
            ClassIndex::Sharded(memory) => memory.top_k(&packed, k),
            ClassIndex::Routed(routed) => routed.top_k(&packed, k),
        };
        top.into_iter()
            .map(|(label, sim)| (label.to_string(), sim))
            .collect()
    }
}

/// One served query result: the snapshot version that scored it, the top-k
/// labels, and the snapshot's open-set verdict (`None` when no threshold
/// was set).
pub type ServedResult = (u64, Vec<ScoredLabel>, Option<Verdict>);

/// One queued query: the feature row plus the channel its result goes back
/// on.
#[derive(Debug)]
struct Request {
    features: Vec<f32>,
    responder: mpsc::Sender<ServedResult>,
}

/// State shared between callers and the dispatcher thread.
#[derive(Debug)]
struct Shared {
    queue: Mutex<QueueState>,
    arrivals: Condvar,
    stats: Mutex<ServerStats>,
    /// The current serving snapshot; the dispatcher clones the `Arc` once
    /// per coalesced batch, mutators store a new one.
    snapshot: Mutex<Arc<ModelSnapshot>>,
    feature_dim: usize,
}

#[derive(Debug)]
struct QueueState {
    pending: VecDeque<Request>,
    shutdown: bool,
}

/// The control plane guarded by one mutex, serializing mutations so
/// concurrent callers publish strictly ordered versions. It holds no model:
/// class encoding runs through the *serving snapshot's* shared
/// [`FrozenModel`] (`&self` inference), so registering a class costs one
/// attribute-encoder forward and zero weight copies.
#[derive(Debug)]
struct ControlPlane {
    /// `Some` for servers started with [`QueryServer::start_durable`] or
    /// [`QueryServer::recover`]: every mutation is WAL-appended and
    /// fsynced *before* its snapshot is published.
    durable: Option<DurableState>,
    /// Streaming continual-learning state; see [`StreamControl`].
    stream: StreamControl,
    /// Copy of [`ServerConfig::shards`], the width a swap encodes at (a
    /// routed snapshot's memory has one shard per cluster).
    shards: usize,
}

/// A running query server; see the module docs.
///
/// Dropping the server (or calling [`QueryServer::stop`]) drains every
/// already-queued request — each gets its response — then stops the
/// dispatcher thread; submissions arriving after the stop are rejected with
/// [`ServeError::Draining`].
///
/// Started through [`QueryServer::start_durable`] (or rebuilt by
/// [`QueryServer::recover`]), the server additionally write-ahead-logs
/// every class mutation before publishing it, making the mutation plane
/// crash-safe; see the [`crate::wal`] module docs for the full contract.
///
/// # Example
///
/// ```
/// use dataset::AttributeSchema;
/// use hdc_zsc::{ModelConfig, ZscModel};
/// use serve::{QueryServer, ServerConfig};
/// use tensor::Matrix;
///
/// let schema = AttributeSchema::cub200();
/// let model = ZscModel::new(&ModelConfig::tiny(), &schema, 16);
/// let class_attributes = Matrix::ones(3, 312);
/// let labels = vec!["a".into(), "b".into(), "c".into()];
/// let server =
///     QueryServer::start(model, labels, &class_attributes, ServerConfig::default()).unwrap();
/// let top = server.query(&[0.25; 16]).unwrap();
/// assert!(!top.is_empty());
/// // A class registered mid-flight becomes servable without a restart.
/// server.register_class("d", &vec![1.0; 312]).unwrap();
/// assert!(server.snapshot().memory().contains("d"));
/// ```
#[derive(Debug)]
pub struct QueryServer {
    shared: Arc<Shared>,
    control: Mutex<ControlPlane>,
    /// Taken (and joined) by whichever of [`QueryServer::stop`] / `Drop`
    /// runs first; behind its own mutex so `stop` works through `&self`.
    dispatcher: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl QueryServer {
    /// Starts a server around a trained model and the class set it serves:
    /// one label per row of `class_attributes`.
    ///
    /// Accepts anything convertible into a [`FrozenModel`]: a `ZscModel` by
    /// value (frozen here — the server takes ownership, no copy) or an
    /// already-frozen handle. The
    /// class-attribute matrix is encoded once into sign-binarized class
    /// signatures split across [`ServerConfig::shards`] shards; queries then
    /// run entirely through the popcount path against that one shared
    /// model allocation.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when the labels, matrix and
    /// configuration do not line up.
    pub fn start(
        model: impl Into<FrozenModel>,
        labels: Vec<String>,
        class_attributes: &Matrix,
        config: ServerConfig,
    ) -> Result<Self, ServeError> {
        Self::start_fresh(model.into(), labels, class_attributes, config, None)
    }

    /// The one construction path of a fresh server: validates the class
    /// set and configuration, encodes the class memory (and routed index),
    /// and — for a durable server — initialises the WAL directory before
    /// serving. [`QueryServer::start_durable`] passes its schema and
    /// durability settings.
    fn start_fresh(
        model: FrozenModel,
        labels: Vec<String>,
        class_attributes: &Matrix,
        config: ServerConfig,
        durability: Option<(&AttributeSchema, DurabilityConfig)>,
    ) -> Result<Self, ServeError> {
        validate_class_set(&labels, class_attributes)?;
        validate_config(&config)?;
        if let Some((schema, _)) = &durability {
            if model.attribute_encoder().num_attributes() != schema.num_attributes() {
                return Err(ServeError::InvalidConfig(format!(
                    "model encodes {} attributes, the serving schema declares {}",
                    model.attribute_encoder().num_attributes(),
                    schema.num_attributes()
                )));
            }
        }
        let memory = model
            .sharded_class_memory(labels, class_attributes, config.shards)
            .with_threads(config.threads);
        let stream = StreamControl::fresh(memory.dim(), config.publish_every);
        let snapshot = ModelSnapshot {
            version: 0,
            model,
            index: ClassIndex::new(memory, config.routed),
            threshold: None,
        };
        let durable = durability
            .map(|(schema, durability)| {
                DurableState::create(&snapshot, &stream, schema, durability)
            })
            .transpose()?;
        Ok(Self::start_with_parts(snapshot, config, durable, stream))
    }

    /// The one spawn point every constructor funnels through: publishes the
    /// already-validated initial snapshot and starts the dispatcher thread.
    fn start_with_parts(
        snapshot: ModelSnapshot,
        config: ServerConfig,
        durable: Option<DurableState>,
        stream: StreamControl,
    ) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                pending: VecDeque::new(),
                shutdown: false,
            }),
            arrivals: Condvar::new(),
            stats: Mutex::new(ServerStats::default()),
            feature_dim: snapshot.model.image_encoder().feature_dim(),
            snapshot: Mutex::new(Arc::new(snapshot)),
        });
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || dispatch_loop(&shared, config))
        };
        Self {
            shared,
            control: Mutex::new(ControlPlane {
                durable,
                stream,
                shards: config.shards,
            }),
            dispatcher: Mutex::new(Some(dispatcher)),
        }
    }

    /// Starts a **durable** server: like [`QueryServer::start`], but every
    /// accepted class mutation is appended and fsynced to a write-ahead log
    /// under [`DurabilityConfig::dir`] *before* its snapshot is published,
    /// and the initial state is saved there: the model as a binary model
    /// file, then the log, whose first record is the compaction base naming
    /// it. After a crash,
    /// [`QueryServer::recover`] on the same directory rebuilds the exact
    /// pre-crash serving state — bit-identical class memory, same snapshot
    /// version.
    ///
    /// The attribute `schema` is pinned for the server's lifetime: model
    /// files are written against it, and [`QueryServer::swap_model`]
    /// rejects models whose attribute space no longer matches it.
    ///
    /// # Errors
    ///
    /// Everything [`QueryServer::start`] reports, plus
    /// [`ServeError::InvalidConfig`] when the model's attribute encoder does
    /// not match `schema` or when [`DurabilityConfig::dir`] already holds a
    /// `wal.log` (a state to [`QueryServer::recover`], never to
    /// overwrite), and [`ServeError::Wal`] / [`ServeError::Checkpoint`]
    /// when the WAL directory cannot be initialised.
    pub fn start_durable(
        model: impl Into<FrozenModel>,
        labels: Vec<String>,
        class_attributes: &Matrix,
        schema: &AttributeSchema,
        config: ServerConfig,
        durability: DurabilityConfig,
    ) -> Result<Self, ServeError> {
        Self::start_fresh(
            model.into(),
            labels,
            class_attributes,
            config,
            Some((schema, durability)),
        )
    }

    /// Rebuilds a durable server from its WAL directory after a crash (or a
    /// clean shutdown — recovery cannot tell and does not need to): loads
    /// the compaction base the log opens with and the model file it names,
    /// replays the records after it, truncates away a torn final record if
    /// one is found, and resumes serving — and logging — exactly where the
    /// pre-crash server left off.
    ///
    /// Replay is the live mutation path's own state transition folded over
    /// the log, so the rebuilt class memory is **bit-identical** to the last
    /// acknowledged pre-crash snapshot: register/update/observe records
    /// replay the packed words the original server encoded, so no model
    /// arithmetic is ever re-run. Automatic publications are re-derived
    /// from the `publish_every` the base records, so any `config` recovers
    /// the same state; when its `publish_every` differs, the server first
    /// compacts into a fresh log of the new cadence.
    ///
    /// # Errors
    ///
    /// [`ServeError::Checkpoint`] when a model file the base or a replayed
    /// swap names is missing, malformed, damaged
    /// ([`CheckpointError::ChecksumMismatch`](hdc_zsc::CheckpointError::ChecksumMismatch),
    /// [`CheckpointError::FingerprintMismatch`](hdc_zsc::CheckpointError::FingerprintMismatch))
    /// or does not match `schema`; [`ServeError::Wal`] when the log is
    /// missing, unreadable, corrupt *before* its final record, or opens
    /// with no base ([`WalError::MissingBase`], as an earlier build's
    /// two-file directory does), or a fresh log cannot be written;
    /// [`ServeError::InvalidConfig`] for a bad `config` or a recovered
    /// state with no classes.
    pub fn recover(
        schema: &AttributeSchema,
        config: ServerConfig,
        durability: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport), ServeError> {
        validate_config(&config)?;
        let dir = &durability.dir;
        let (log, replay) = WriteAheadLog::open(wal::wal_path(dir), durability.sync)?;
        let base = replay.base.ok_or(WalError::MissingBase)?;
        let model = ModelFile::load(dir, &base.model_file, schema)?;
        base.validate_model(&model)?;
        let ServeBase {
            snapshot_version,
            publish_every,
            mut model_file,
            index,
            threshold,
            stream,
        } = base;
        let mut current = ModelSnapshot {
            version: snapshot_version,
            model: model.freeze(),
            // Resume the base's routed index only when it was built under
            // exactly the requested routed configuration: replaying the same
            // records into the same structure reproduces the pre-crash index
            // bit-for-bit. Otherwise (config changed, routing newly
            // requested, or an unrouted base) replay runs on the base's
            // sharded memory and a fresh deterministic build follows it.
            index: match (config.routed, index) {
                (Some(rc), ClassIndex::Routed(saved)) if saved.config() == rc => {
                    ClassIndex::Routed(saved.with_threads(config.threads))
                }
                (_, index) => {
                    ClassIndex::Sharded(index.memory().clone().with_threads(config.threads))
                }
            },
            threshold,
        };
        // Stream state resumes from the base (mid-batch compaction persists
        // the exact counters and batching position); the drift detector is
        // not persisted and is rebuilt by replaying the same publication
        // boundaries the pre-crash server published.
        let mut stream = match stream {
            Some(state) => StreamControl {
                publish_every,
                state,
                observes: 0,
                drift: StreamDriftDetector::new(StreamDriftConfig::default()),
            },
            None => StreamControl::fresh(current.memory().dim(), publish_every),
        };
        let mut replayed_records = 0u64;
        for entry in replay.entries {
            if let WalOp::Swap {
                model_file: name, ..
            } = &entry.op
            {
                model_file.clone_from(name);
            }
            let mutation = Mutation::from_record(entry.op, dir, schema)?;
            check(&current, &mutation).map_err(|rejected| WalError::Corrupt {
                offset: entry.end_offset,
                reason: format!("record {} refused: {rejected}", entry.seq),
            })?;
            if let Some(next) = apply(&current, &mut stream, mutation) {
                current = next;
            }
            replayed_records += 1;
        }
        if current.memory().is_empty() {
            return Err(ServeError::InvalidConfig(
                "recovered state has no registered classes".to_string(),
            ));
        }
        if let (Some(_), ClassIndex::Sharded(memory)) = (config.routed, &current.index) {
            current.index = ClassIndex::new(memory.clone(), config.routed);
        }
        let report = RecoveryReport {
            snapshot_version: current.version,
            replayed_records,
            torn_tail: replay.torn_tail.is_some(),
        };
        let model_bytes = std::fs::metadata(dir.join(&model_file)).map_or(0, |m| m.len());
        let mut durable = DurableState {
            wal: log,
            schema: schema.clone(),
            compact_every: durability.compact_every,
            since_compact: replayed_records,
            model_file,
            model_bytes,
            last_compaction_us: 0,
            dir: durability.dir,
        };
        if stream.publish_every != config.publish_every {
            stream.publish_every = config.publish_every;
            durable.compact(&current, &stream)?;
        }
        Ok((
            Self::start_with_parts(current, config, Some(durable), stream),
            report,
        ))
    }

    /// Width of the backbone feature rows the server expects.
    pub fn feature_dim(&self) -> usize {
        self.shared.feature_dim
    }

    /// Width of the class-attribute rows the mutation plane currently
    /// expects ([`QueryServer::register_class`] /
    /// [`QueryServer::update_class`]). Tracks the serving model across
    /// [`QueryServer::swap_model`].
    pub fn attribute_dim(&self) -> usize {
        self.snapshot().model.attribute_encoder().num_attributes()
    }

    /// Batching and hot-swap counters observed so far.
    pub fn stats(&self) -> ServerStats {
        *self.shared.stats.lock().expect("stats mutex poisoned")
    }

    /// The snapshot queries are currently being scored against. Batches
    /// already in flight may still complete against an older snapshot.
    pub fn snapshot(&self) -> Arc<ModelSnapshot> {
        Arc::clone(
            &self
                .shared
                .snapshot
                .lock()
                .expect("snapshot mutex poisoned"),
        )
    }

    /// Registers a **new** class under `label` from its class-attribute
    /// row, atomically publishing a new snapshot. The class is servable by
    /// the next coalesced batch — no restart, no queue drain; only the
    /// shard the class routes to is repacked.
    ///
    /// Registration never silently overwrites: re-registering an existing
    /// label is rejected with [`ServeError::DuplicateLabel`] — use
    /// [`QueryServer::update_class`] to re-point an existing class. (This
    /// also keeps the durable log replayable without ambiguity: every
    /// logged register is a genuine insert.)
    ///
    /// Returns the snapshot now serving, so callers can record exactly which
    /// version their class became visible in.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::DuplicateLabel`] when `label` is already
    /// registered, [`ServeError::AttributeWidth`] for a mis-sized attribute
    /// row, and [`ServeError::Wal`] when a durable server cannot log the
    /// mutation (nothing is published then). A failed automatic compaction
    /// after the mutation is logged and published is not an error; see
    /// [`DurabilityConfig::compact_every`].
    pub fn register_class(
        &self,
        label: impl Into<String>,
        attributes: &[f32],
    ) -> Result<Arc<ModelSnapshot>, ServeError> {
        let mut control = self.control.lock().expect("control mutex poisoned");
        let label = label.into();
        if self.snapshot().memory().contains(&label) {
            return Err(ServeError::DuplicateLabel(label));
        }
        self.register_locked(&mut control, label, attributes, false)
    }

    /// Replaces the attribute row of an *already registered* class; see
    /// [`QueryServer::register_class`] for inserting a new one. The
    /// existence check and the publish happen under one control-mutex
    /// critical section, so a concurrent `remove_class` cannot slip in
    /// between (the update can never resurrect a just-removed class).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownClass`] when `label` is not registered,
    /// [`ServeError::AttributeWidth`] for a mis-sized row, and
    /// [`ServeError::Wal`] when a durable server cannot log the mutation. A
    /// failed automatic compaction is not an error, as for
    /// [`QueryServer::register_class`].
    pub fn update_class(
        &self,
        label: &str,
        attributes: &[f32],
    ) -> Result<Arc<ModelSnapshot>, ServeError> {
        let mut control = self.control.lock().expect("control mutex poisoned");
        if !self.snapshot().memory().contains(label) {
            return Err(ServeError::UnknownClass(label.to_string()));
        }
        self.register_locked(&mut control, label.to_string(), attributes, true)
    }

    /// The shared register/update body; the caller must hold the control
    /// mutex (and have done the existence check for its verb) so checks,
    /// encoding, the WAL append, and the publish are atomic with respect to
    /// every other mutation.
    ///
    /// Validation-before-derivation: the attribute-width check runs before
    /// the signature is encoded and before any snapshot state is cloned, so
    /// a rejected request costs nothing but the check. Encoding runs through
    /// the serving snapshot's shared [`FrozenModel`] — one attribute-encoder
    /// forward, zero weight copies.
    fn register_locked(
        &self,
        control: &mut ControlPlane,
        label: String,
        attributes: &[f32],
        is_update: bool,
    ) -> Result<Arc<ModelSnapshot>, ServeError> {
        let snapshot = self.snapshot();
        let model = &snapshot.model;
        let expected = model.attribute_encoder().num_attributes();
        if attributes.len() != expected {
            return Err(ServeError::AttributeWidth {
                expected,
                found: attributes.len(),
            });
        }
        let words = model.packed_class_signature(attributes);
        let op = if is_update {
            WalOp::Update { label, words }
        } else {
            WalOp::Register { label, words }
        };
        self.commit_publishing(control, Mutation::Logged(op))
    }

    /// Unregisters a class, atomically publishing a snapshot without it;
    /// only the shard that held the class is repacked.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownClass`] when `label` is not registered,
    /// [`ServeError::InvalidConfig`] when removing it would leave the
    /// server with no classes at all, and [`ServeError::Wal`] when a
    /// durable server cannot log the removal (nothing is published then). A
    /// failed automatic compaction is not an error, as for
    /// [`QueryServer::register_class`].
    pub fn remove_class(&self, label: &str) -> Result<Arc<ModelSnapshot>, ServeError> {
        let mut control = self.control.lock().expect("control mutex poisoned");
        let current = self.snapshot();
        if !current.memory().contains(label) {
            return Err(ServeError::UnknownClass(label.to_string()));
        }
        if current.memory().len() == 1 {
            return Err(ServeError::InvalidConfig(
                "cannot remove the last registered class".to_string(),
            ));
        }
        self.commit_publishing(
            &mut control,
            Mutation::Logged(WalOp::Remove {
                label: label.to_string(),
            }),
        )
    }

    /// Replaces the entire serving state — model and class set — with one
    /// atomic snapshot publication (e.g. rolling out a retrained
    /// model). Queries already coalesced keep their old snapshot; the
    /// next batch is scored by the new model.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::AttributeWidth`] when the matrix width does not
    /// match the new model's attribute encoder, and
    /// [`ServeError::InvalidConfig`] when the labels and matrix do not line
    /// up, the class set is empty, or the new model expects a different
    /// backbone feature width than the server was started with (in-flight
    /// and future callers would be rejected by the width check). A durable
    /// server additionally rejects models whose attribute space no longer
    /// matches the schema pinned at startup, and reports
    /// [`ServeError::Wal`] when the swap cannot be logged (nothing is
    /// published then). A failed automatic compaction is not an error, as
    /// for [`QueryServer::register_class`].
    ///
    /// A durable swap first writes the new model's binary file into the
    /// WAL directory, then logs a record naming it. If the model file
    /// cannot be written, [`ServeError::Checkpoint`] is returned, nothing
    /// is logged or published, and the log stays live.
    pub fn swap_model(
        &self,
        model: impl Into<FrozenModel>,
        labels: Vec<String>,
        class_attributes: &Matrix,
    ) -> Result<Arc<ModelSnapshot>, ServeError> {
        let model: FrozenModel = model.into();
        validate_class_set(&labels, class_attributes)?;
        if model.image_encoder().feature_dim() != self.shared.feature_dim {
            return Err(ServeError::InvalidConfig(format!(
                "swapped model expects feature width {}, the server serves {}",
                model.image_encoder().feature_dim(),
                self.shared.feature_dim
            )));
        }
        // Validated before the control mutex is taken: the attribute encoder
        // asserts this width, and a panic while holding the lock would
        // poison the whole mutation plane.
        let expected_attributes = model.attribute_encoder().num_attributes();
        if class_attributes.cols() != expected_attributes {
            return Err(ServeError::AttributeWidth {
                expected: expected_attributes,
                found: class_attributes.cols(),
            });
        }
        let mut control = self.control.lock().expect("control mutex poisoned");
        if let Some(durable) = control.durable.as_ref() {
            if expected_attributes != durable.schema.num_attributes() {
                return Err(ServeError::InvalidConfig(format!(
                    "swapped model encodes {} attributes, the durable schema pins {}",
                    expected_attributes,
                    durable.schema.num_attributes()
                )));
            }
        }
        let memory = model.sharded_class_memory(labels, class_attributes, control.shards);
        self.commit_publishing(&mut control, Mutation::Swap { model, memory })
    }

    /// Sets the open-set rejection threshold, atomically publishing a
    /// snapshot that judges every subsequent query by it: a served top-1
    /// similarity **strictly below** `threshold` comes back with
    /// [`Verdict::Unknown`]. Typically fed from a
    /// [`hdc_zsc::SimilarityCalibrator`] fit offline; the change is one
    /// hot swap — queries already coalesced keep the old snapshot's
    /// verdict rule, nothing drains.
    ///
    /// On a durable server the change is WAL-logged (bit-exactly, as
    /// `f32` bits) before publication, so recovery resumes with the same
    /// verdict boundary.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for a non-finite threshold and
    /// [`ServeError::Wal`] when a durable server cannot log the change
    /// (nothing is published then). A failed automatic compaction is not an
    /// error, as for [`QueryServer::register_class`].
    pub fn set_threshold(&self, threshold: f32) -> Result<Arc<ModelSnapshot>, ServeError> {
        let mut control = self.control.lock().expect("control mutex poisoned");
        let op = WalOp::SetThreshold {
            bits: Some(threshold.to_bits()),
        };
        self.commit_publishing(&mut control, Mutation::Logged(op))
    }

    /// Clears the open-set rejection threshold, atomically publishing a
    /// snapshot that serves every query without a verdict — the behaviour
    /// of an uncalibrated server.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Wal`] when a durable server cannot log the
    /// change (nothing is published then). A failed automatic compaction is
    /// not an error, as for [`QueryServer::register_class`].
    pub fn clear_threshold(&self) -> Result<Arc<ModelSnapshot>, ServeError> {
        let mut control = self.control.lock().expect("control mutex poisoned");
        let op = WalOp::SetThreshold { bits: None };
        self.commit_publishing(&mut control, Mutation::Logged(op))
    }

    /// Folds one **streamed labeled example** into `label`'s exact
    /// per-class counters — the continual-learning verb. The example is
    /// encoded through the serving snapshot's shared model (one
    /// image-encoder forward, sign-binarized into the packed layout), its
    /// packed words are WAL-logged on a durable server (model-independent
    /// replay, like every other mutation), and the counters advance
    /// immediately. The *served* prototype re-signs at the next publication
    /// boundary: every [`ServerConfig::publish_every`]-th observe, or an
    /// explicit [`QueryServer::flush`].
    ///
    /// The first observe of a class seeds its counters with the
    /// currently-published prototype as one pseudo-example, so the stream
    /// refines the class instead of restarting it. Counters are exact i32
    /// sums — folding is order-independent and the published prototype is a
    /// pure function of the counters, which is what makes kill-and-recover
    /// bit-identical to the uninterrupted run.
    ///
    /// Returns the snapshot published by this observe when it landed on a
    /// publication boundary, `None` otherwise (the counters advanced, the
    /// served prototype did not change yet).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::FeatureWidth`] for a mis-sized feature row,
    /// [`ServeError::UnknownClass`] when `label` is not registered (streams
    /// refine existing classes; register first), and [`ServeError::Wal`]
    /// when a durable server cannot log the observation (nothing is folded
    /// then). A failed automatic compaction is not an error, as for
    /// [`QueryServer::register_class`].
    pub fn observe(
        &self,
        label: &str,
        features: &[f32],
    ) -> Result<Option<Arc<ModelSnapshot>>, ServeError> {
        if features.len() != self.shared.feature_dim {
            return Err(ServeError::FeatureWidth {
                expected: self.shared.feature_dim,
                found: features.len(),
            });
        }
        let mut control = self.control.lock().expect("control mutex poisoned");
        // Encode through the serving snapshot's shared model — the same
        // embed-then-sign path queries take, zero weight copies.
        let embedding = self
            .snapshot()
            .model
            .embed_images(&Matrix::from_rows(&[features.to_vec()]));
        let op = WalOp::Observe {
            label: label.to_string(),
            words: engine::pack_float_signs(embedding.row(0)),
        };
        self.commit(&mut control, Mutation::Logged(op))
    }

    /// Publishes every pending streamed-class update right now, without
    /// waiting for the [`ServerConfig::publish_every`] cadence: re-signs
    /// each pending class from its exact counters and hot-swaps one
    /// snapshot carrying all of them. A no-op returning the current
    /// snapshot when nothing is pending (and nothing is logged then).
    ///
    /// On a durable server the explicit boundary is WAL-logged (a `flush`
    /// record), so replay reproduces the exact same publication — and
    /// version — sequence.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Wal`] when a durable server cannot log the
    /// boundary (nothing is published then). A failed automatic compaction
    /// is not an error, as for [`QueryServer::register_class`].
    pub fn flush(&self) -> Result<Arc<ModelSnapshot>, ServeError> {
        let mut control = self.control.lock().expect("control mutex poisoned");
        if control.stream.state.pending.is_empty() {
            return Ok(self.snapshot());
        }
        self.commit_publishing(&mut control, Mutation::Logged(WalOp::Flush))
    }

    /// Streaming continual-learning counters: lifetime observes, the
    /// batching position, and the drift detector's publication/alarm
    /// totals.
    pub fn stream_stats(&self) -> StreamStats {
        let control = self.control.lock().expect("control mutex poisoned");
        let stream = &control.stream;
        StreamStats {
            observes: stream.observes,
            pending_classes: stream.state.pending.len() as u64,
            since_publish: stream.state.since_publish,
            publishes: stream.drift.publishes(),
            drift_alarms: stream.drift.alarms(),
        }
    }

    /// The full per-class drift report — EWMA displacement trends and
    /// Page–Hinkley statistics for every streamed class; see
    /// [`metrics::stream`].
    pub fn drift_report(&self) -> DriftReport {
        self.control
            .lock()
            .expect("control mutex poisoned")
            .stream
            .drift
            .report()
    }

    /// Durability counters of a durable server — the acknowledged WAL size,
    /// records since the last compaction, the next record sequence number,
    /// the base and model-file sizes, and the last compaction's wall time.
    /// `None` on a non-durable server.
    pub fn durability_stats(&self) -> Option<DurabilityStats> {
        let control = self.control.lock().expect("control mutex poisoned");
        control.durable.as_ref().map(|durable| DurabilityStats {
            wal_bytes: durable.wal.end(),
            records_since_compaction: durable.since_compact,
            next_record_seq: durable.wal.next_seq(),
            base_bytes: durable.wal.base_bytes(),
            model_bytes: durable.model_bytes,
            last_compaction_us: durable.last_compaction_us,
        })
    }

    /// Folds the log into a fresh compaction base right now, regardless of
    /// the [`DurabilityConfig::compact_every`] policy. Returns `Ok(true)`
    /// when a base was written, `Ok(false)` on a non-durable server.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Wal`] when the new log cannot be written; the
    /// directory still recovers the acknowledged state. A failure before
    /// its rename can be retried; after a failed rename or reopen, or an
    /// earlier failed append, the log answers [`WalError::Failed`].
    pub fn compact(&self) -> Result<bool, ServeError> {
        let mut control = self.control.lock().expect("control mutex poisoned");
        let ControlPlane {
            durable, stream, ..
        } = &mut *control;
        let Some(durable) = durable.as_mut() else {
            return Ok(false);
        };
        durable.compact(&self.snapshot(), stream)?;
        Ok(true)
    }

    /// The tail of every live mutation, once its verb-specific checks and
    /// encoding are done: the shared [`check`], the WAL append (durable
    /// servers), the shared [`apply`] transition, the store, and the
    /// compaction policy. The caller must hold the control mutex, so
    /// versions are strictly ordered and the log is ordered like the
    /// publications. A rejected check or a failed append returns its error
    /// with nothing logged, folded or published.
    ///
    /// Returns the published snapshot, or `None` when `mutation` did not
    /// land on a publication boundary.
    fn commit(
        &self,
        control: &mut ControlPlane,
        mutation: Mutation,
    ) -> Result<Option<Arc<ModelSnapshot>>, ServeError> {
        let current = self.snapshot();
        check(&current, &mutation)?;
        if let Some(durable) = control.durable.as_mut() {
            durable.log(&mutation)?;
        }
        let published = apply(&current, &mut control.stream, mutation).map(|next| self.store(next));
        let ControlPlane {
            durable, stream, ..
        } = control;
        if let Some(durable) = durable.as_mut() {
            durable.since_compact += 1;
            if durable.compact_every != 0 && durable.since_compact >= durable.compact_every {
                // The mutation is logged and published, so a failed fold
                // is not its failure. `since_compact` stays due: the next
                // mutation retries it (unless it stopped the log), and
                // `records_since_compaction` grows.
                let served = published.as_deref().unwrap_or(&current);
                let _ = durable.compact(served, stream);
            }
        }
        Ok(published)
    }

    /// [`QueryServer::commit`] for a mutation that always publishes (every
    /// kind but an observe; a flush once something is pending).
    fn commit_publishing(
        &self,
        control: &mut ControlPlane,
        mutation: Mutation,
    ) -> Result<Arc<ModelSnapshot>, ServeError> {
        Ok(self
            .commit(control, mutation)?
            .expect("only an observe can fall between publication boundaries"))
    }

    /// Stores `next` as the serving snapshot; the caller must hold the
    /// control mutex.
    fn store(&self, next: ModelSnapshot) -> Arc<ModelSnapshot> {
        let next = Arc::new(next);
        *self
            .shared
            .snapshot
            .lock()
            .expect("snapshot mutex poisoned") = Arc::clone(&next);
        self.shared
            .stats
            .lock()
            .expect("stats mutex poisoned")
            .swaps += 1;
        next
    }

    /// Submits one backbone-feature row and blocks until its top-k labels
    /// come back.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::FeatureWidth`] for mis-sized rows,
    /// [`ServeError::Draining`] when the server was already stopping at
    /// submission, and [`ServeError::Stopped`] when it dies mid-query.
    pub fn query(&self, features: &[f32]) -> Result<Vec<ScoredLabel>, ServeError> {
        self.query_traced(features).map(|(_, top)| top)
    }

    /// Like [`QueryServer::query`], additionally reporting the version of
    /// the [`ModelSnapshot`] that served the query — the handle for
    /// verifying the bit-identity contract under concurrent hot swaps.
    ///
    /// # Errors
    ///
    /// Same as [`QueryServer::query`].
    pub fn query_traced(&self, features: &[f32]) -> Result<(u64, Vec<ScoredLabel>), ServeError> {
        self.query_with_verdict(features)
            .map(|(version, top, _)| (version, top))
    }

    /// Like [`QueryServer::query_traced`], additionally reporting the
    /// serving snapshot's open-set [`Verdict`] — `None` when that snapshot
    /// carried no rejection threshold. The verdict is computed by the
    /// dispatcher against the *same* snapshot that scored the query, so a
    /// concurrent [`QueryServer::set_threshold`] can never judge a query by
    /// a threshold the reported version does not carry.
    ///
    /// # Errors
    ///
    /// Same as [`QueryServer::query`].
    pub fn query_with_verdict(&self, features: &[f32]) -> Result<ServedResult, ServeError> {
        let mut results = self.enqueue(vec![features.to_vec()])?;
        Ok(results.pop().expect("one result per submitted row"))
    }

    /// Submits a small batch of feature rows and blocks until all of their
    /// top-k results come back (in submission order).
    ///
    /// The rows enter the same admission queue as everyone else's, so they
    /// may be coalesced with other callers' queries or split across engine
    /// dispatches (and, across a hot swap, even be served by different
    /// snapshot versions).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::FeatureWidth`] for mis-sized rows (the whole
    /// batch is rejected before anything is enqueued),
    /// [`ServeError::Draining`] when the server was already stopping at
    /// submission, and [`ServeError::Stopped`] when it dies mid-query.
    pub fn query_batch(&self, rows: &[Vec<f32>]) -> Result<Vec<Vec<ScoredLabel>>, ServeError> {
        Ok(self
            .enqueue(rows.to_vec())?
            .into_iter()
            .map(|(_, top, _)| top)
            .collect())
    }

    /// Validates widths, enqueues the owned rows (no further copies — the
    /// dispatcher moves them out of the queue), and blocks for the results.
    fn enqueue(&self, rows: Vec<Vec<f32>>) -> Result<Vec<ServedResult>, ServeError> {
        for row in &rows {
            if row.len() != self.shared.feature_dim {
                return Err(ServeError::FeatureWidth {
                    expected: self.shared.feature_dim,
                    found: row.len(),
                });
            }
        }
        let mut receivers = Vec::with_capacity(rows.len());
        {
            let mut queue = self.shared.queue.lock().expect("queue mutex poisoned");
            if queue.shutdown {
                return Err(ServeError::Draining);
            }
            for features in rows {
                let (tx, rx) = mpsc::channel();
                queue.pending.push_back(Request {
                    features,
                    responder: tx,
                });
                receivers.push(rx);
            }
        }
        self.shared.arrivals.notify_all();
        receivers
            .into_iter()
            .map(|rx| rx.recv().map_err(|_| ServeError::Stopped))
            .collect()
    }

    /// Stops the server, draining first: queries already admitted are still
    /// scored and answered, submissions arriving from now on are rejected
    /// with [`ServeError::Draining`], and the call blocks until the
    /// dispatcher has answered the last drained query. A durable server's
    /// log needs nothing more: every acknowledged record is already fsynced.
    ///
    /// Idempotent and callable from any thread holding `&self`; `Drop` runs
    /// it too, so an explicit call is only needed to stop a shared server
    /// while other handles are still alive.
    pub fn stop(&self) {
        {
            let mut queue = self.shared.queue.lock().expect("queue mutex poisoned");
            queue.shutdown = true;
        }
        self.shared.arrivals.notify_all();
        let handle = self
            .dispatcher
            .lock()
            .expect("dispatcher mutex poisoned")
            .take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl Drop for QueryServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One mutation of the serving state, as the shared transition consumes
/// it: the [`WalOp`] that logs it, except that a swap carries the decoded
/// model rather than its file name — the live path already holds the
/// model, and replay decodes its file once ([`Mutation::from_record`]).
#[derive(Debug)]
enum Mutation {
    /// Every mutation but a swap, as its record.
    Logged(WalOp),
    Swap {
        model: FrozenModel,
        memory: ShardedClassMemory,
    },
}

impl Mutation {
    /// The mutation a replayed record logs; loads a swap's model file from
    /// `dir` and checks it against `schema`.
    fn from_record(op: WalOp, dir: &Path, schema: &AttributeSchema) -> Result<Self, ServeError> {
        Ok(match op {
            WalOp::Swap { model_file, memory } => Mutation::Swap {
                model: ModelFile::load(dir, &model_file, schema)?.freeze(),
                memory,
            },
            op => Mutation::Logged(op),
        })
    }
}

/// The checks [`apply`] relies on, shared by the live path and replay: the
/// live path returns the error before logging anything, and replay reports
/// it as [`WalError::Corrupt`] at the offending record.
fn check(current: &ModelSnapshot, mutation: &Mutation) -> Result<(), ServeError> {
    let served = current.memory();
    match mutation {
        Mutation::Logged(
            WalOp::Register { words, .. }
            | WalOp::Update { words, .. }
            | WalOp::Observe { words, .. },
        ) if words.len() != served.words_per_row() => Err(ServeError::InvalidConfig(format!(
            "mutation carries {} packed words, the memory packs {}",
            words.len(),
            served.words_per_row()
        ))),
        Mutation::Logged(WalOp::Observe { label, .. }) if !served.contains(label) => {
            Err(ServeError::UnknownClass(label.clone()))
        }
        Mutation::Logged(WalOp::SetThreshold { bits: Some(bits) })
            if !f32::from_bits(*bits).is_finite() =>
        {
            Err(ServeError::InvalidConfig(format!(
                "rejection threshold must be finite, got {}",
                f32::from_bits(*bits)
            )))
        }
        Mutation::Swap { model, memory } if memory.dim() != model.embedding_dim() => {
            Err(ServeError::InvalidConfig(format!(
                "swapped class memory has dimension {}, the model embeds at {}",
                memory.dim(),
                model.embedding_dim()
            )))
        }
        Mutation::Logged(WalOp::Swap { .. }) => Err(ServeError::InvalidConfig(
            "a swap needs its decoded model".to_string(),
        )),
        _ => Ok(()),
    }
}

/// **The** state transition of the mutation plane: the effect of one
/// [`check`]ed mutation on the serving snapshot and the stream state. The
/// live verbs call it right after their WAL append, and
/// [`QueryServer::recover`] folds it over the log, so a recovered server
/// matches the live one by construction.
///
/// Returns the next snapshot (one version up) when the mutation lands on a
/// publication boundary — every kind but an observe short of the
/// `publish_every` cadence, or a flush with nothing pending — and `None`
/// otherwise, having cloned nothing.
fn apply(
    current: &ModelSnapshot,
    stream: &mut StreamControl,
    mutation: Mutation,
) -> Option<ModelSnapshot> {
    let mut next = match mutation {
        Mutation::Logged(WalOp::Register { label, words } | WalOp::Update { label, words }) => {
            // A re-pointed class's stream counters described the prototype
            // being replaced; drop them so the next observe re-seeds from
            // the new row. A fresh register has no counters — a no-op.
            stream.state.accumulators.remove(&label);
            stream.state.pending.remove(&label);
            let mut next = current.clone();
            next.index.add_class_packed(label, &words);
            next
        }
        Mutation::Logged(WalOp::Remove { label }) => {
            // Every stream trace of the class goes with it.
            stream.state.accumulators.remove(&label);
            stream.state.pending.remove(&label);
            stream.drift.remove(&label);
            let mut next = current.clone();
            next.index.remove_class(&label);
            next
        }
        Mutation::Swap { model, memory } => {
            // A swap replaces the whole class set: stream counters, pending
            // publications, and drift history all described the old one.
            let memory = memory.with_threads(current.memory().threads());
            *stream = StreamControl::fresh(memory.dim(), stream.publish_every);
            ModelSnapshot {
                version: current.version,
                index: ClassIndex::new(memory, current.routed().map(RoutedClassMemory::config)),
                model,
                // The threshold survives the swap: it is serve-time control
                // state (set/cleared through its own verb), not a property
                // of the model being rolled out.
                threshold: current.threshold,
            }
        }
        Mutation::Logged(WalOp::SetThreshold { bits }) => ModelSnapshot {
            threshold: bits.map(f32::from_bits),
            ..current.clone()
        },
        Mutation::Logged(WalOp::Observe { label, words }) => {
            let class_words = current
                .memory()
                .class_words(&label)
                .expect("check rejects observes of unregistered classes");
            fold_observation(
                &mut stream.state.accumulators,
                &label,
                &words,
                class_words,
                current.memory().dim(),
            );
            stream.state.pending.insert(label);
            stream.state.since_publish += 1;
            stream.observes += 1;
            if stream.state.since_publish < u64::from(stream.publish_every) {
                return None;
            }
            publish_pending(current, stream)
        }
        Mutation::Logged(WalOp::Flush) if stream.state.pending.is_empty() => return None,
        Mutation::Logged(WalOp::Flush) => publish_pending(current, stream),
        Mutation::Logged(WalOp::Swap { .. }) => {
            unreachable!("check refuses a swap without its decoded model")
        }
    };
    next.version += 1;
    Some(next)
}

/// Unpacks one packed ±1 prototype row back into sign components (set bit
/// = −1, the engine's packing convention) — the bridge from the serving
/// layer's packed words to the [`hdc`] crate's counter arithmetic.
fn unpack_words(words: &[u64], dim: usize) -> Vec<i8> {
    (0..dim)
        .map(|i| {
            if (words[i / 64] >> (i % 64)) & 1 == 1 {
                -1
            } else {
                1
            }
        })
        .collect()
}

/// Folds one observed example (as packed sign words) into `label`'s
/// counters. The **first** observe of a label seeds its accumulator with
/// the class's currently-published prototype as one pseudo-example, so the
/// stream refines the existing class instead of restarting it from scratch;
/// replay reproduces the seeding deterministically because the replayed
/// memory holds the same prototype at the same record position.
fn fold_observation(
    accumulators: &mut ClassAccumulator,
    label: &str,
    example_words: &[u64],
    current_class_words: &[u64],
    dim: usize,
) {
    if !accumulators.contains(label) {
        let seed = BipolarHypervector::from_signs(&unpack_words(current_class_words, dim));
        accumulators
            .observe(label, &seed)
            .expect("seed prototype width matches the accumulator by construction");
    }
    let example = BipolarHypervector::from_signs(&unpack_words(example_words, dim));
    accumulators
        .observe(label, &example)
        .expect("observe width was validated against the serving memory");
}

/// Normalized Hamming displacement between two packed rows of the same
/// dimensionality: differing sign positions over `dim`, in `[0, 1]`. Tail
/// bits beyond `dim` are zero under the packing contract, so a plain XOR
/// popcount is exact.
fn normalized_displacement(old: &[u64], new: &[u64], dim: usize) -> f64 {
    debug_assert_eq!(old.len(), new.len());
    let differing: u32 = old.iter().zip(new).map(|(a, b)| (a ^ b).count_ones()).sum();
    f64::from(differing) / dim as f64
}

/// One publication boundary: re-signs every pending class from its exact
/// counters, in sorted label order, scores each prototype's displacement
/// through the drift detector, and writes the rows into a copy of
/// `current`. A Page–Hinkley alarm on any class triggers one deterministic
/// recluster of the routed index — the serving response to detected
/// concept drift. Resets the batching position.
fn publish_pending(current: &ModelSnapshot, stream: &mut StreamControl) -> ModelSnapshot {
    let mut next = current.clone();
    let dim = next.memory().dim();
    let mut alarmed = false;
    for label in std::mem::take(&mut stream.state.pending) {
        let prototype = stream
            .state
            .accumulators
            .prototype(&label)
            .expect("pending labels always have an accumulator");
        let words = engine::pack_signs(prototype.as_slice());
        let displacement = next
            .memory()
            .class_words(&label)
            .map(|old| normalized_displacement(old, &words, dim))
            .unwrap_or(1.0);
        alarmed |= stream.drift.record(&label, displacement);
        next.index.add_class_packed(label, &words);
    }
    if let (true, ClassIndex::Routed(routed)) = (alarmed, &mut next.index) {
        routed.recluster();
    }
    stream.state.since_publish = 0;
    next
}

/// The label/matrix agreement checks shared by every constructor.
fn validate_class_set(labels: &[String], class_attributes: &Matrix) -> Result<(), ServeError> {
    if labels.len() != class_attributes.rows() {
        return Err(ServeError::InvalidConfig(format!(
            "{} labels for {} class-attribute rows",
            labels.len(),
            class_attributes.rows()
        )));
    }
    if class_attributes.rows() == 0 {
        return Err(ServeError::InvalidConfig(
            "cannot serve an empty class set".to_string(),
        ));
    }
    Ok(())
}

/// The [`ServerConfig`] sanity checks shared by every constructor.
fn validate_config(config: &ServerConfig) -> Result<(), ServeError> {
    if config.max_batch == 0 {
        return Err(ServeError::InvalidConfig(
            "max_batch must be at least 1".to_string(),
        ));
    }
    if config.top_k == 0 {
        return Err(ServeError::InvalidConfig(
            "top_k must be at least 1".to_string(),
        ));
    }
    if config.shards == 0 {
        return Err(ServeError::InvalidConfig(
            "shards must be at least 1".to_string(),
        ));
    }
    if config.publish_every == 0 {
        return Err(ServeError::InvalidConfig(
            "publish_every must be at least 1".to_string(),
        ));
    }
    Ok(())
}

/// The dispatcher: collect (embedding while the window is open) → score →
/// respond, forever.
///
/// Embedding runs through the snapshot's shared [`FrozenModel`] (`&self`
/// inference, no activation caches), so the dispatcher holds no model state
/// of its own and a swap costs it exactly one `Arc` load — never a weight
/// copy.
fn dispatch_loop(shared: &Shared, config: ServerConfig) {
    while let Some(Batch {
        snapshot,
        requests,
        queries,
    }) = collect_batch(shared, config.max_batch, config.max_wait_us)
    {
        let topk = match &snapshot.index {
            ClassIndex::Sharded(memory) => memory.topk_batch(&queries, config.top_k),
            ClassIndex::Routed(routed) => routed.topk_batch(&queries, config.top_k),
        };
        {
            let mut stats = shared.stats.lock().expect("stats mutex poisoned");
            stats.queries += requests.len() as u64;
            stats.batches += 1;
            stats.max_batch_observed = stats.max_batch_observed.max(requests.len());
        }
        for (request, result) in requests.into_iter().zip(topk) {
            let labelled: Vec<ScoredLabel> = result
                .into_iter()
                .map(|(label, sim)| (label.to_string(), sim))
                .collect();
            // Judged by the same snapshot that scored it — threshold swaps
            // can never split a query's scores from its verdict.
            let verdict = snapshot.verdict(&labelled);
            // A disconnected receiver just means the caller gave up; drop it.
            let _ = request
                .responder
                .send((snapshot.version, labelled, verdict));
        }
    }
}

/// One coalesced batch, embedded and packed, ready to score: row `i` of
/// `queries` is the sign-binarized embedding of `requests[i]`, computed
/// through `snapshot`'s model.
struct Batch {
    snapshot: Arc<ModelSnapshot>,
    requests: Vec<Request>,
    queries: PackedQueryBatch,
}

/// Blocks until at least one request is queued, takes up to `max_batch`
/// requests and opens a batch on the snapshot current *after* taking them,
/// then spends the coalescing window embedding: each pass embeds the rows
/// taken since the last one, then waits — at most until `max_wait_us` after
/// the batch opened — for more rows, for shutdown, or for the batch to
/// fill. Returns `None` once the server is shut down *and* drained.
///
/// Rows seen under a snapshot other than the batch's stay queued and open
/// the next batch, so a batch never mixes snapshots and a query submitted
/// after a mutation returned is never served by an older version. Splitting
/// the embed into top-ups changes no bit: every embedding row depends on
/// its own input row alone, and packing is per row.
fn collect_batch(shared: &Shared, max_batch: usize, max_wait_us: u64) -> Option<Batch> {
    let mut queue = shared.queue.lock().expect("queue mutex poisoned");
    while queue.pending.is_empty() {
        if queue.shutdown {
            return None;
        }
        queue = shared.arrivals.wait(queue).expect("queue mutex poisoned");
    }
    let take = queue.pending.len().min(max_batch);
    let mut requests: Vec<Request> = queue.pending.drain(..take).collect();
    drop(queue);
    let snapshot = Arc::clone(&shared.snapshot.lock().expect("snapshot mutex poisoned"));
    let deadline = Instant::now() + Duration::from_micros(max_wait_us);
    let mut queries = PackedQueryBatch::new(snapshot.model.embedding_dim());
    loop {
        // Inference-mode embedding (no caches) of the rows not yet
        // embedded, then sign-binarization into the engine's packed query
        // layout — the same path `ZscModel::sharded_class_memory` uses for
        // the class side.
        let rows: Vec<Vec<f32>> = requests[queries.len()..]
            .iter_mut()
            .map(|r| std::mem::take(&mut r.features))
            .collect();
        let embeddings = snapshot.model.embed_images(&Matrix::from_rows(&rows));
        for r in 0..embeddings.rows() {
            queries.push_packed(&engine::pack_float_signs(embeddings.row(r)));
        }
        if requests.len() == max_batch {
            break;
        }
        let mut queue = shared.queue.lock().expect("queue mutex poisoned");
        while queue.pending.is_empty() && !queue.shutdown {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            queue = shared
                .arrivals
                .wait_timeout(queue, deadline - now)
                .expect("queue mutex poisoned")
                .0;
        }
        if queue.pending.is_empty() || Instant::now() >= deadline {
            break;
        }
        // Read under the queue lock, after seeing the rows: any mutation
        // that returned before one of them was enqueued is visible here.
        if !Arc::ptr_eq(
            &shared.snapshot.lock().expect("snapshot mutex poisoned"),
            &snapshot,
        ) {
            break;
        }
        let take = queue.pending.len().min(max_batch - requests.len());
        requests.extend(queue.pending.drain(..take));
    }
    Some(Batch {
        snapshot,
        requests,
        queries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_zsc::{ModelConfig, ZscModel};

    /// A swap reaches [`apply`] only as [`Mutation::Swap`], carrying its
    /// decoded model. One built as a plain logged op is refused by
    /// [`check`], before anything is logged or applied.
    #[test]
    fn check_refuses_a_swap_without_its_decoded_model() {
        let schema = AttributeSchema::cub200();
        let model = ZscModel::new(&ModelConfig::tiny().with_seed(11), &schema, 24);
        let labels: Vec<String> = (0..3).map(|c| format!("class{c}")).collect();
        let attributes = Matrix::from_rows(&[vec![0.5; 312], vec![0.25; 312], vec![0.75; 312]]);
        let server = QueryServer::start(model, labels, &attributes, ServerConfig::default())
            .expect("starts");
        let current = server.snapshot();
        let swap = Mutation::Logged(WalOp::Swap {
            model_file: "model-0000000000000000.bin".to_string(),
            memory: current.memory().clone(),
        });
        assert!(matches!(
            check(&current, &swap),
            Err(ServeError::InvalidConfig(message)) if message == "a swap needs its decoded model"
        ));
        server.stop();
    }
}
