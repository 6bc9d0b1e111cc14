//! The unified scoring interface over every class-memory backend.
//!
//! The engine has four scoring backends — the row-parallel float path
//! ([`DenseClassMemory`](crate::DenseClassMemory)), the packed popcount
//! matrix ([`PackedClassMemory`](crate::PackedClassMemory)), the
//! copy-on-write sharded memory
//! ([`ShardedClassMemory`](crate::ShardedClassMemory)) and the two-level
//! routed index ([`RoutedClassMemory`](crate::RoutedClassMemory), which
//! meets the contract below under exhaustive probing). [`Scorer`] is the one
//! trait they all implement, so generic call sites (the DAP/ESZSL baselines
//! and the contract and parity tests) are written once against it instead of
//! once per backend. The serving layer does not go through the trait: it
//! calls the sharded and routed memories' inherent `top_k` / `topk_batch`,
//! which the trait methods delegate to.
//!
//! # Contract
//!
//! Every implementation promises:
//!
//! * **Determinism / tie-break** — candidates are ordered by similarity
//!   descending; candidates with *equal* similarity are ordered by label
//!   ascending (lexicographically smallest label wins), so results never
//!   depend on insertion order, shard layout or thread count.
//! * **Truncation** — [`Scorer::top_k`] returns `min(k, num_classes)`
//!   entries; `k == 0` returns an empty vector; `k` past the stored count
//!   returns every class, never an error and never padding.
//! * **Batch consistency** — [`Scorer::nearest_batch`] /
//!   [`Scorer::topk_batch`] return exactly what per-query
//!   [`Scorer::nearest`] / [`Scorer::top_k`] calls would, and row `q` of
//!   [`Scorer::score_batch`] holds query `q`'s one-vs-all similarities in
//!   the backend's stored-class order.
//! * **Exactness** — results are bit-identical to the scalar kernel the
//!   backend replaces, for every thread count (the engine-wide contract;
//!   pinned by `tests/parity.rs`, `tests/sharded_parity.rs` and the generic
//!   `tests/scorer_contract.rs`).
//!
//! The query representation differs per backend — packed `u64` words for the
//! popcount backends, `f32` rows for the dense one — so it is an associated
//! type rather than a fixed parameter.

use tensor::Matrix;

/// A labelled class memory that scores queries one-vs-all; see the module
/// docs for the ordering, truncation and exactness contract.
///
/// `Send + Sync` is a supertrait: scorers are built to be shared behind the
/// serving layer's immutable snapshots.
pub trait Scorer: Send + Sync {
    /// Borrowed single-query representation: `[u64]` packed words for the
    /// popcount backends, `[f32]` rows for the dense backend.
    type Query: ?Sized;

    /// Owned batch representation:
    /// [`PackedQueryBatch`](crate::PackedQueryBatch) for the popcount
    /// backends, [`Matrix`] (one query per row) for the dense backend.
    type Batch;

    /// Dimensionality of the stored class prototypes.
    fn dim(&self) -> usize;

    /// Number of stored classes.
    fn num_classes(&self) -> usize;

    /// Returns `true` when no classes are stored.
    fn is_empty(&self) -> bool {
        self.num_classes() == 0
    }

    /// One-vs-all similarity matrix of the whole batch: row `q` holds query
    /// `q`'s similarity against every stored class, in the backend's stored
    /// order (insertion order for the dense and packed backends, shard-major
    /// order for the sharded one, cluster-major order for the routed one).
    fn score_batch(&self, batch: &Self::Batch) -> Matrix;

    /// The most similar stored class as `(label, similarity)`, or `None`
    /// for an empty memory. Ties resolve to the lexicographically smallest
    /// label.
    fn nearest(&self, query: &Self::Query) -> Option<(&str, f32)>;

    /// The `k` most similar stored classes, most similar first, with the
    /// pinned tie-break and `min(k, num_classes)` truncation contract.
    fn top_k(&self, query: &Self::Query, k: usize) -> Vec<(&str, f32)>;

    /// [`Scorer::nearest`] for every query in the batch, in batch order.
    ///
    /// # Panics
    ///
    /// Implementations may panic when the batch is non-empty but the memory
    /// is (there is no nearest class to return).
    fn nearest_batch(&self, batch: &Self::Batch) -> Vec<(&str, f32)>;

    /// [`Scorer::top_k`] for every query in the batch, in batch order.
    fn topk_batch(&self, batch: &Self::Batch, k: usize) -> Vec<Vec<(&str, f32)>>;
}
