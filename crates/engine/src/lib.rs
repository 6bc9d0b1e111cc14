//! Batched, multi-threaded inference engine for HDC associative lookup and
//! zero-shot-classification scoring.
//!
//! The classic efficient-HDC-inference observation is that one-vs-all
//! associative lookup over binary hypervectors reduces to a dense
//! XOR-popcount sweep that vectorises and parallelises almost perfectly.
//! This crate is the single implementation of that hot path for the whole
//! workspace:
//!
//! * [`PackedClassMemory`] — every class/prototype hypervector packed into
//!   one contiguous `u64` word-matrix; one-vs-all lookup is a per-row
//!   Hamming (XOR-popcount) scan returning row indices.
//! * [`ShardedClassMemory`] — class prototypes split across N packed shards
//!   with copy-on-write `Arc` sharing: incremental `add_class` /
//!   `update_class` / `remove_class` repack only the touched shard, and the
//!   cross-shard top-k merge (on integer Hamming distances plus label
//!   tie-breaks) is bit-identical to the monolithic scorer. Its batched
//!   `topk_batch` chunks a [`PackedQueryBatch`] across a vendored
//!   work-stealing-free scoped-thread pool ([`minipool::Pool`]); the
//!   `serve` crate hot-swaps snapshots of one under live traffic.
//! * [`RoutedClassMemory`] — a two-level coarse-to-fine index: seeded
//!   k-means centroids route each query to its `nprobe` nearest clusters
//!   (each a per-cluster packed shard), and the candidates are exactly
//!   re-ranked on `(hamming, label)` — sub-linear candidate generation with
//!   bit-identical results under full probing. Its clusters are a
//!   [`ShardedClassMemory`] (`as_sharded`), one shard per cluster, so the
//!   storage, merge and batch fan-out are the sharded memory's; the routed
//!   memory keeps only its own placement rule.
//! * [`dense`] — row-parallel float scoring (cosine logits, bilinear
//!   compatibility) used by the `hdc_zsc` model's inference path and the
//!   `baselines` predictors.
//!
//! # Lookup contract
//!
//! Top-k is the one lookup: the packed memory answers `top_k` with row
//! indices, the sharded and routed memories answer `top_k` / `topk_batch`
//! with `(label, similarity)` pairs. Results are ordered by similarity
//! descending with equal similarities ordered by label ascending; the
//! nearest class is `top_k(query, 1)`. `top_k` returns `min(k, stored)`
//! entries (`min(k, candidates)` under partial routed probing): `k == 0` is
//! empty, and `k` past the stored count returns every class, never padding.
//! Batched lookups return exactly the per-query results.
//! `tests/scorer_contract.rs` pins all of this.
//!
//! # Exactness contract
//!
//! Every path promises **bit-identical** results to the scalar code it
//! replaces, for every thread count: packed similarities are computed from
//! integer Hamming distances exactly as `dot / dim`, ties resolve on
//! integers plus a deterministic label order, and the dense helpers apply
//! the unmodified serial kernels to independent row chunks. The crate's
//! `tests/parity.rs` property tests enforce this across ragged (non-64
//! multiple) dimensions, batch sizes and thread counts.
//!
//! # Example
//!
//! ```
//! use engine::{PackedQueryBatch, ShardedClassMemory};
//!
//! let mut memory = ShardedClassMemory::new(6, 2).with_threads(2);
//! memory.add_class("left", &[-1, -1, -1, 1, 1, 1]);
//! memory.add_class("right", &[1, 1, 1, -1, -1, -1]);
//!
//! let mut batch = PackedQueryBatch::new(6);
//! batch.push_signs(&[-1, -1, -1, 1, 1, -1]);
//! batch.push_signs(&[1, 1, 1, 1, -1, -1]);
//!
//! let top1 = memory.topk_batch(&batch, 1);
//! assert_eq!(top1[0][0].0, "left");
//! assert_eq!(top1[1][0].0, "right");
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod batch;
pub mod dense;
pub mod index;
pub mod packed;
pub mod sharded;

pub use batch::PackedQueryBatch;
pub use index::{ClassIndex, RoutedClassMemory, RoutedConfig};
pub use minipool::Pool;
pub use packed::{
    mask_tail_word, pack_float_signs, pack_signs, pack_signs_into, similarity_from_hamming,
    words_per_row, PackedClassMemory,
};
pub use sharded::ShardedClassMemory;
