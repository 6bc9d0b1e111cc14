//! Sharded class memory: class prototypes split across N
//! [`PackedClassMemory`] shards, scored in parallel and merged with a
//! deterministic top-k that is **bit-identical** to the monolithic scorer.
//!
//! # Why shard?
//!
//! A monolithic [`PackedClassMemory`] is immutable-in-spirit: growing to very
//! large label spaces means one enormous contiguous word matrix, and every
//! class registration while serving would either mutate the matrix under
//! readers or rebuild the world. Sharding fixes both:
//!
//! * **Scale** — each shard is its own contiguous word matrix, scored
//!   independently (in parallel across a [`minipool::Pool`] for single-query
//!   lookups, across queries for batches), so the class axis scales past what
//!   one cache-friendly sweep handles well.
//! * **Online mutation** — [`ShardedClassMemory::add_class`] /
//!   [`ShardedClassMemory::update_class`] / [`ShardedClassMemory::remove_class`]
//!   repack only the touched shard. Shards sit behind [`Arc`]s with
//!   copy-on-write semantics ([`Arc::make_mut`]), so a clone of the whole
//!   memory shares every shard and a subsequent mutation deep-copies exactly
//!   one — the property the serving layer's atomic snapshot hot-swap relies
//!   on.
//!
//! # Exactness
//!
//! Per-shard candidates carry their raw integer Hamming distances
//! ([`PackedClassMemory::top_k_hamming`]), and the cross-shard merge orders
//! them by `(hamming, label)` — exactly the monolithic comparator. Distinct
//! Hamming distances that would round to the same `f32` similarity therefore
//! still merge in the monolithic order, and the returned similarities are the
//! same `similarity_from_hamming` bits the monolith produces. The
//! `sharded_parity` property tests pin label-and-bit equality against a
//! monolithic memory for shard counts {1, 2, 3, 7}, ragged dims,
//! `k ≥ num_classes`, and arbitrary add/update/remove interleavings.

use crate::batch::PackedQueryBatch;
use crate::packed::{pack_signs, similarity_from_hamming, words_per_row, PackedClassMemory};
use minipool::Pool;
use serde::{de, DeError, Deserialize, Serialize, Value};
use std::sync::Arc;
use tensor::Matrix;

/// A labelled class memory split across `N` packed shards; see the module
/// docs for the design and exactness contract.
///
/// Every lookup returns `(label, similarity)` pairs rather than row indices:
/// rows migrate between shard-local positions as classes come and go, so the
/// label is the only stable identity.
///
/// # Example
///
/// ```
/// use engine::{pack_signs, ShardedClassMemory};
///
/// let mut memory = ShardedClassMemory::new(4, 2);
/// memory.add_class("up", &[1, 1, 1, 1]);
/// memory.add_class("down", &[-1, -1, -1, -1]);
/// memory.add_class("left", &[-1, 1, -1, -1]);
/// let query = pack_signs(&[1, 1, 1, -1]);
/// let (label, sim) = memory.nearest(&query).expect("non-empty");
/// assert_eq!((label, sim), ("up", 0.5));
/// // k past the class count truncates to everything stored.
/// assert_eq!(memory.top_k(&query, 99).len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedClassMemory {
    dim: usize,
    shards: Vec<Arc<PackedClassMemory>>,
    pool: Pool,
}

/// Equality is structural — dimensionality plus per-shard contents. The
/// scoring pool width is a performance knob (results are bit-identical for
/// every width) and does not participate.
impl PartialEq for ShardedClassMemory {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim && self.shards == other.shards
    }
}

impl ShardedClassMemory {
    /// Creates an empty memory of `num_shards` shards for `dim`-bit
    /// prototypes, scoring with an auto-sized pool.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `num_shards == 0`.
    pub fn new(dim: usize, num_shards: usize) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        assert!(num_shards > 0, "at least one shard is required");
        Self {
            dim,
            shards: (0..num_shards)
                .map(|_| Arc::new(PackedClassMemory::new(dim)))
                .collect(),
            pool: Pool::auto(),
        }
    }

    /// Builds a sharded memory from one float row per class by taking signs
    /// (`x < 0` → `-1`), adding classes in row order — the sharded analogue
    /// of [`PackedClassMemory::from_sign_matrix`].
    ///
    /// # Panics
    ///
    /// Panics if the label count differs from the row count, the matrix has
    /// zero columns, or `num_shards == 0`.
    pub fn from_sign_matrix<L, S>(labels: L, matrix: &Matrix, num_shards: usize) -> Self
    where
        L: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut memory = Self::new(matrix.cols(), num_shards);
        let mut count = 0;
        for (r, label) in labels.into_iter().enumerate() {
            assert!(r < matrix.rows(), "more labels than matrix rows");
            let words = crate::packed::pack_float_signs(matrix.row(r));
            memory.add_class_packed(label, &words);
            count += 1;
        }
        assert_eq!(count, matrix.rows(), "fewer labels than matrix rows");
        memory
    }

    /// Redistributes a monolithic memory across `num_shards` shards,
    /// preserving the per-class prototypes (insertion order becomes
    /// round-robin-ish via least-loaded routing).
    ///
    /// # Panics
    ///
    /// Panics if `num_shards == 0` or `memory` is zero-dimensional.
    pub fn from_packed(memory: &PackedClassMemory, num_shards: usize) -> Self {
        let mut sharded = Self::new(memory.dim(), num_shards);
        for index in 0..memory.len() {
            sharded.add_class_packed(memory.label(index).to_string(), memory.row_words(index));
        }
        sharded
    }

    /// Caps single-query shard fan-out and batch query fan-out at `threads`
    /// threads (clamped to at least 1). Results are bit-identical for every
    /// setting.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.pool = Pool::new(threads);
        self
    }

    /// Number of threads lookups fan out over.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Dimensionality of the stored prototypes.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Packed words per prototype row.
    pub fn words_per_row(&self) -> usize {
        words_per_row(self.dim)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.num_shards()`.
    pub fn shard(&self, index: usize) -> &PackedClassMemory {
        &self.shards[index]
    }

    /// Total number of stored classes across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Returns `true` if no classes are stored.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// Total packed footprint in bytes across all shards.
    pub fn memory_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.memory_bytes()).sum()
    }

    /// The stored labels in shard-major order (shard 0's rows, then shard
    /// 1's, …). The order is deterministic for a given mutation history but
    /// — unlike the monolithic memory — not globally insertion-ordered;
    /// treat labels, not positions, as class identity.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.shards.iter().flat_map(|s| s.labels())
    }

    /// The `(shard, row)` holding `label`, if stored.
    pub fn locate(&self, label: &str) -> Option<(usize, usize)> {
        self.shards
            .iter()
            .enumerate()
            .find_map(|(s, shard)| shard.position(label).map(|row| (s, row)))
    }

    /// Returns `true` if a class is stored under `label`.
    pub fn contains(&self, label: &str) -> bool {
        self.locate(label).is_some()
    }

    /// The packed words of the class stored under `label`, if any.
    pub fn class_words(&self, label: &str) -> Option<&[u64]> {
        self.locate(label)
            .map(|(s, row)| self.shards[s].row_words(row))
    }

    /// Least-loaded shard, ties to the smallest index — the deterministic
    /// routing rule for brand-new labels.
    fn shard_for_new_class(&self) -> usize {
        let mut best = 0;
        for (s, shard) in self.shards.iter().enumerate().skip(1) {
            if shard.len() < self.shards[best].len() {
                best = s;
            }
        }
        best
    }

    /// Inserts or replaces the class stored under `label` from ±1 signs.
    /// A new label routes to the least-loaded shard (ties to the smallest
    /// shard index); an existing label is updated in place in its current
    /// shard. Returns `(shard index, replaced)`.
    ///
    /// Only the touched shard is repacked; when that shard's `Arc` is shared
    /// (a snapshot clone exists) it is deep-copied first, leaving every other
    /// shard shared.
    ///
    /// # Panics
    ///
    /// Panics if `signs.len() != self.dim()` or a sign is not `±1`.
    pub fn add_class(&mut self, label: impl Into<String>, signs: &[i8]) -> (usize, bool) {
        assert_eq!(
            signs.len(),
            self.dim,
            "prototype dimensionality must match the memory"
        );
        self.add_class_packed(label, &pack_signs(signs))
    }

    /// Inserts or replaces a class from an already-packed word row; see
    /// [`ShardedClassMemory::add_class`]. Tail bits beyond `dim` are cleared
    /// on insertion.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != self.words_per_row()`.
    pub fn add_class_packed(&mut self, label: impl Into<String>, words: &[u64]) -> (usize, bool) {
        let label = label.into();
        let shard = match self.locate(&label) {
            Some((s, _)) => s,
            None => self.shard_for_new_class(),
        };
        let (_, replaced) = Arc::make_mut(&mut self.shards[shard]).insert_packed(label, words);
        (shard, replaced)
    }

    /// Replaces the prototype of an *existing* class, returning `false`
    /// (without inserting) when `label` is not stored. Use
    /// [`ShardedClassMemory::add_class`] for insert-or-replace semantics.
    ///
    /// # Panics
    ///
    /// Panics if `signs.len() != self.dim()` or a sign is not `±1`.
    pub fn update_class(&mut self, label: &str, signs: &[i8]) -> bool {
        if !self.contains(label) {
            return false;
        }
        self.add_class(label, signs);
        true
    }

    /// Removes the class stored under `label`, repacking only its shard
    /// (the shard's word matrix is spliced, every other shard is untouched
    /// and stays `Arc`-shared). Returns `false` if the label is not stored.
    pub fn remove_class(&mut self, label: &str) -> bool {
        match self.locate(label) {
            Some((s, _)) => {
                Arc::make_mut(&mut self.shards[s]).remove(label);
                true
            }
            None => false,
        }
    }

    /// Total packed words a full sweep reads; the fan-out heuristic's input.
    fn total_words(&self) -> usize {
        self.len() * self.words_per_row()
    }

    /// Whether a *single-query* lookup should fan the shards out across the
    /// pool. `minipool` spawns fresh scoped threads per call (no persistent
    /// workers), so the fan-out only pays once the sweep itself is
    /// substantial — below the threshold a serial shard loop is strictly
    /// faster. Results are bit-identical either way; this is purely a
    /// latency knob.
    fn single_query_fanout(&self) -> bool {
        /// ~1 MiB of packed prototype words — several hundred µs of sweep,
        /// comfortably above scoped-thread spawn cost.
        const FANOUT_WORDS: usize = 128 * 1024;
        self.shards.len() > 1 && self.pool.threads() > 1 && self.total_words() >= FANOUT_WORDS
    }

    /// The most similar stored class to a packed query, as
    /// `(label, similarity)`, with shards scored in parallel across the pool
    /// (for sweeps large enough to amortise the fan-out; serially otherwise)
    /// and the winners merged on `(hamming, label)` — bit-identical to
    /// [`PackedClassMemory::nearest`] over the same class set.
    ///
    /// Returns `None` if the memory is empty.
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != self.words_per_row()`.
    pub fn nearest(&self, query: &[u64]) -> Option<(&str, f32)> {
        assert_eq!(query.len(), self.words_per_row(), "query width");
        if !self.single_query_fanout() {
            return self.nearest_serial(query);
        }
        let per_shard: Vec<Option<(usize, usize, u64)>> = self
            .pool
            .map_chunks(self.shards.len(), |range| {
                range
                    .map(|s| {
                        self.shards[s]
                            .nearest_hamming(query)
                            .map(|(row, hamming)| (s, row, hamming))
                    })
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
        self.merge_nearest(per_shard.into_iter().flatten())
    }

    /// Serial (no-spawn) shard sweep behind [`ShardedClassMemory::nearest`];
    /// also what each batch worker runs per query.
    fn nearest_serial(&self, query: &[u64]) -> Option<(&str, f32)> {
        let winners = self
            .shards
            .iter()
            .enumerate()
            .filter_map(|(s, shard)| {
                shard
                    .nearest_hamming(query)
                    .map(|(row, hamming)| (s, row, hamming))
            })
            .collect::<Vec<_>>();
        self.merge_nearest(winners.into_iter())
    }

    /// The `k` most similar stored classes, most similar first, with the
    /// monolithic `(hamming, label)` ordering and truncation contract:
    /// `min(k, self.len())` entries, `k == 0` empty. Shards are scored in
    /// parallel across the pool for sweeps large enough to amortise the
    /// fan-out (serially otherwise), each contributing at most `k`
    /// candidates to the merge.
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != self.words_per_row()`.
    pub fn top_k(&self, query: &[u64], k: usize) -> Vec<(&str, f32)> {
        assert_eq!(query.len(), self.words_per_row(), "query width");
        if !self.single_query_fanout() {
            return self.top_k_serial(query, k);
        }
        let per_shard: Vec<Vec<(usize, u64)>> = self
            .pool
            .map_chunks(self.shards.len(), |range| {
                range
                    .map(|s| self.shards[s].top_k_hamming(query, k))
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
        self.merge_top_k(&per_shard, k)
    }

    /// Serial (no-spawn) shard sweep behind [`ShardedClassMemory::top_k`];
    /// also what each batch worker runs per query.
    fn top_k_serial(&self, query: &[u64], k: usize) -> Vec<(&str, f32)> {
        let per_shard: Vec<Vec<(usize, u64)>> = self
            .shards
            .iter()
            .map(|shard| shard.top_k_hamming(query, k))
            .collect();
        self.merge_top_k(&per_shard, k)
    }

    /// The nearest class of every query in the batch, parallelised across
    /// queries (each worker sweeps all shards serially for its query range).
    ///
    /// # Panics
    ///
    /// Panics if `batch.dim() != self.dim()` or the memory is empty while the
    /// batch is not.
    pub fn nearest_batch(&self, batch: &PackedQueryBatch) -> Vec<(&str, f32)> {
        assert_eq!(
            batch.dim(),
            self.dim,
            "query batch dimensionality must match the class memory"
        );
        assert!(
            batch.is_empty() || !self.is_empty(),
            "nearest_batch requires a non-empty class memory"
        );
        self.pool
            .map_chunks(batch.len(), |range| {
                range
                    .map(|q| self.nearest_serial(batch.row(q)).expect("non-empty memory"))
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect()
    }

    /// The top-k classes of every query in the batch, parallelised across
    /// queries; same ordering and truncation contract as
    /// [`ShardedClassMemory::top_k`].
    ///
    /// # Panics
    ///
    /// Panics if `batch.dim() != self.dim()`.
    pub fn topk_batch(&self, batch: &PackedQueryBatch, k: usize) -> Vec<Vec<(&str, f32)>> {
        assert_eq!(
            batch.dim(),
            self.dim,
            "query batch dimensionality must match the class memory"
        );
        self.pool
            .map_chunks(batch.len(), |range| {
                range
                    .map(|q| self.top_k_serial(batch.row(q), k))
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect()
    }

    /// Merges per-shard `(shard, row, hamming)` winners on `(hamming,
    /// label)` — the monolithic comparator.
    fn merge_nearest<I>(&self, winners: I) -> Option<(&str, f32)>
    where
        I: Iterator<Item = (usize, usize, u64)>,
    {
        winners
            .min_by(|&(sa, ra, ha), &(sb, rb, hb)| {
                ha.cmp(&hb)
                    .then_with(|| self.shards[sa].label(ra).cmp(self.shards[sb].label(rb)))
            })
            .map(|(s, row, hamming)| {
                (
                    self.shards[s].label(row),
                    similarity_from_hamming(self.dim, hamming),
                )
            })
    }

    /// Merges per-shard candidate lists (`per_shard[s]` is shard `s`'s
    /// `(row, hamming)` top-k) into the global top-k on `(hamming, label)`.
    fn merge_top_k(&self, per_shard: &[Vec<(usize, u64)>], k: usize) -> Vec<(&str, f32)> {
        let mut merged: Vec<(usize, usize, u64)> = per_shard
            .iter()
            .enumerate()
            .flat_map(|(s, rows)| rows.iter().map(move |&(row, hamming)| (s, row, hamming)))
            .collect();
        merged.sort_by(|&(sa, ra, ha), &(sb, rb, hb)| {
            ha.cmp(&hb)
                .then_with(|| self.shards[sa].label(ra).cmp(self.shards[sb].label(rb)))
        });
        merged.truncate(k);
        merged
            .into_iter()
            .map(|(s, row, hamming)| {
                (
                    self.shards[s].label(row),
                    similarity_from_hamming(self.dim, hamming),
                )
            })
            .collect()
    }
}

/// Serializes as `{dim, shards: [PackedClassMemory, …]}` — the exact
/// per-shard contents, in shard order. Because routing of *future* inserts
/// depends only on shard occupancies (least-loaded, ties to the smallest
/// index), a round-tripped memory not only scores bit-identically but also
/// routes every subsequent mutation exactly as the original would — the
/// property the serve-layer crash-recovery replay relies on.
impl Serialize for ShardedClassMemory {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("dim".to_string(), self.dim.to_value()),
            (
                "shards".to_string(),
                Value::Array(self.shards.iter().map(|s| s.to_value()).collect()),
            ),
        ])
    }
}

/// Hand-written (instead of derived) so cross-shard invariants — a
/// non-empty shard list, every shard at the declared dimensionality, no
/// label stored twice — are enforced with typed errors. Per-shard word
/// matrix shape and tail-bit cleanliness are validated by
/// [`PackedClassMemory`]'s own deserializer. The scoring pool is rebuilt
/// auto-sized (it is a performance knob, not state).
impl Deserialize for ShardedClassMemory {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let entries = de::expect_object(value, "ShardedClassMemory")?;
        let dim: usize = de::field(entries, "dim", "ShardedClassMemory")?;
        let shards: Vec<PackedClassMemory> = de::field(entries, "shards", "ShardedClassMemory")?;
        let type_err = |msg: String| DeError::new(msg).in_field("ShardedClassMemory");
        if dim == 0 {
            return Err(type_err("dimensionality must be positive".into()));
        }
        if shards.is_empty() {
            return Err(type_err("at least one shard is required".into()));
        }
        for (s, shard) in shards.iter().enumerate() {
            if shard.dim() != dim {
                return Err(type_err(format!(
                    "shard {s} has dimensionality {} but the memory declares {dim}",
                    shard.dim()
                )));
            }
        }
        let mut seen = std::collections::HashSet::new();
        for shard in &shards {
            for label in shard.labels() {
                if !seen.insert(label) {
                    return Err(type_err(format!("label `{label}` stored in two shards")));
                }
            }
        }
        Ok(Self {
            dim,
            shards: shards.into_iter().map(Arc::new).collect(),
            pool: Pool::auto(),
        })
    }
}

/// The sharded backend of the unified [`Scorer`](crate::Scorer) contract.
/// Lookups delegate to the inherent methods (parallel shard fan-out, merged
/// on `(hamming, label)` — bit-identical to the monolithic scorer);
/// [`Scorer::score_batch`](crate::Scorer::score_batch) reports similarities
/// in **shard-major** stored order (the order of
/// [`ShardedClassMemory::labels`]), stitched from the per-shard popcount
/// sweeps and parallelised across queries.
impl crate::Scorer for ShardedClassMemory {
    type Query = [u64];
    type Batch = PackedQueryBatch;

    fn dim(&self) -> usize {
        self.dim
    }

    fn num_classes(&self) -> usize {
        self.len()
    }

    fn score_batch(&self, batch: &PackedQueryBatch) -> tensor::Matrix {
        assert_eq!(
            batch.dim(),
            self.dim,
            "query batch dimensionality must match the class memory"
        );
        let classes = self.len();
        if batch.is_empty() {
            return tensor::Matrix::zeros(0, classes);
        }
        let blocks = self.pool.map_chunks(batch.len(), |range| {
            let mut out = Vec::with_capacity(range.len() * classes);
            for q in range {
                for shard in &self.shards {
                    out.extend_from_slice(&shard.scores(batch.row(q)));
                }
            }
            out
        });
        let mut data = Vec::with_capacity(batch.len() * classes);
        for block in blocks {
            data.extend_from_slice(&block);
        }
        tensor::Matrix::from_vec(batch.len(), classes, data)
    }

    fn nearest(&self, query: &[u64]) -> Option<(&str, f32)> {
        ShardedClassMemory::nearest(self, query)
    }

    fn top_k(&self, query: &[u64], k: usize) -> Vec<(&str, f32)> {
        ShardedClassMemory::top_k(self, query, k)
    }

    fn nearest_batch(&self, batch: &PackedQueryBatch) -> Vec<(&str, f32)> {
        ShardedClassMemory::nearest_batch(self, batch)
    }

    fn topk_batch(&self, batch: &PackedQueryBatch, k: usize) -> Vec<Vec<(&str, f32)>> {
        ShardedClassMemory::topk_batch(self, batch, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg_signs(state: &mut u64, dim: usize) -> Vec<i8> {
        (0..dim)
            .map(|_| {
                *state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if *state >> 63 == 0 {
                    1
                } else {
                    -1
                }
            })
            .collect()
    }

    fn fixture(dim: usize, classes: usize, shards: usize) -> (ShardedClassMemory, Vec<Vec<i8>>) {
        let mut state = 99u64;
        let mut memory = ShardedClassMemory::new(dim, shards);
        let protos: Vec<Vec<i8>> = (0..classes)
            .map(|c| {
                let row = lcg_signs(&mut state, dim);
                memory.add_class(format!("class{c:03}"), &row);
                row
            })
            .collect();
        (memory, protos)
    }

    #[test]
    fn routing_balances_shards_deterministically() {
        let (memory, _) = fixture(64, 10, 3);
        let sizes: Vec<usize> = (0..3).map(|s| memory.shard(s).len()).collect();
        // Least-loaded with smallest-index ties over sequential adds is
        // round-robin: 4, 3, 3.
        assert_eq!(sizes, vec![4, 3, 3]);
        assert_eq!(memory.len(), 10);
        assert!(!memory.is_empty());
        assert_eq!(memory.labels().count(), 10);
    }

    #[test]
    fn add_update_remove_touch_one_shard() {
        let (mut memory, protos) = fixture(130, 7, 3);
        let snapshot = memory.clone();
        // All shards start shared with the snapshot clone.
        for s in 0..3 {
            assert!(Arc::ptr_eq(&memory.shards[s], &snapshot.shards[s]));
        }
        let (touched, replaced) = memory.add_class("newcomer", &protos[0]);
        assert!(!replaced);
        // Exactly the touched shard was deep-copied; the others stay shared.
        for s in 0..3 {
            assert_eq!(
                Arc::ptr_eq(&memory.shards[s], &snapshot.shards[s]),
                s != touched,
                "shard {s}"
            );
        }
        // The snapshot is untouched — COW semantics.
        assert_eq!(snapshot.len(), 7);
        assert_eq!(memory.len(), 8);
        assert!(memory.contains("newcomer"));
        assert!(!snapshot.contains("newcomer"));
        assert!(memory.remove_class("newcomer"));
        assert!(!memory.remove_class("newcomer"));
        assert_eq!(memory.len(), 7);
        assert_eq!(memory, snapshot);
    }

    #[test]
    fn update_class_only_touches_existing_labels() {
        let (mut memory, protos) = fixture(64, 4, 2);
        assert!(!memory.update_class("ghost", &protos[0]));
        assert!(!memory.contains("ghost"));
        let before = memory.locate("class001").expect("stored");
        assert!(memory.update_class("class001", &protos[3]));
        // Update stays in the same shard and row.
        assert_eq!(memory.locate("class001"), Some(before));
        assert_eq!(
            memory.class_words("class001").expect("stored"),
            &pack_signs(&protos[3])[..]
        );
    }

    #[test]
    fn lookups_match_monolithic_memory_bit_for_bit() {
        let dim = 130; // ragged on purpose
        let (memory, protos) = fixture(dim, 17, 3);
        let mut mono = PackedClassMemory::new(dim);
        for (c, proto) in protos.iter().enumerate() {
            mono.insert_signs(format!("class{c:03}"), proto);
        }
        let mut state = 7u64;
        for threads in [1usize, 2, 5] {
            let memory = memory.clone().with_threads(threads);
            assert_eq!(memory.threads(), threads);
            for _ in 0..6 {
                let query = pack_signs(&lcg_signs(&mut state, dim));
                let (label, sim) = memory.nearest(&query).expect("non-empty");
                let (mono_index, mono_sim) = mono.nearest(&query).expect("non-empty");
                assert_eq!(label, mono.label(mono_index));
                assert_eq!(sim.to_bits(), mono_sim.to_bits());
                for k in [0usize, 1, 5, 17, 40] {
                    let sharded: Vec<(&str, u32)> = memory
                        .top_k(&query, k)
                        .into_iter()
                        .map(|(l, s)| (l, s.to_bits()))
                        .collect();
                    let monolithic: Vec<(&str, u32)> = mono
                        .top_k(&query, k)
                        .into_iter()
                        .map(|(i, s)| (mono.label(i), s.to_bits()))
                        .collect();
                    assert_eq!(sharded, monolithic, "threads={threads} k={k}");
                }
            }
        }
    }

    #[test]
    fn batch_lookups_match_single_query_lookups() {
        let dim = 96;
        let (memory, _) = fixture(dim, 9, 2);
        let mut state = 21u64;
        let mut batch = PackedQueryBatch::new(dim);
        let queries: Vec<Vec<i8>> = (0..11)
            .map(|_| {
                let q = lcg_signs(&mut state, dim);
                batch.push_signs(&q);
                q
            })
            .collect();
        let nearest = memory.nearest_batch(&batch);
        let topk = memory.topk_batch(&batch, 4);
        assert_eq!(nearest.len(), queries.len());
        for (q, signs) in queries.iter().enumerate() {
            let packed = pack_signs(signs);
            assert_eq!(nearest[q], memory.nearest(&packed).expect("non-empty"));
            assert_eq!(topk[q], memory.top_k(&packed, 4));
        }
        // Empty batch short-circuits, keeping the documented
        // `batch.len() × classes` score shape.
        let empty = PackedQueryBatch::new(dim);
        assert!(memory.nearest_batch(&empty).is_empty());
        assert!(memory.topk_batch(&empty, 3).is_empty());
        assert_eq!(
            crate::Scorer::score_batch(&memory, &empty).shape(),
            (0, memory.len())
        );
    }

    #[test]
    fn from_packed_and_from_sign_matrix_agree_with_adds() {
        let matrix = Matrix::from_rows(&[
            vec![1.0, -2.0, 3.0],
            vec![-0.5, 0.5, -0.5],
            vec![1.0, 1.0, -1.0],
        ]);
        let labels = ["a", "b", "c"];
        let from_matrix = ShardedClassMemory::from_sign_matrix(labels, &matrix, 2);
        let mono = PackedClassMemory::from_sign_matrix(labels, &matrix);
        let from_packed = ShardedClassMemory::from_packed(&mono, 2);
        assert_eq!(from_matrix, from_packed);
        assert_eq!(from_matrix.len(), 3);
        assert_eq!(from_matrix.dim(), 3);
        assert!(from_matrix.memory_bytes() > 0);
        let query = pack_signs(&[1, -1, 1]);
        assert_eq!(from_matrix.top_k(&query, 3), from_packed.top_k(&query, 3));
    }

    /// Single-query lookups above the fan-out threshold take the
    /// minipool-parallel branch; results must stay bit-identical to the
    /// monolithic memory (and to the serial branch used by small memories).
    #[test]
    fn parallel_fanout_branch_matches_monolithic() {
        let dim = 65_536usize; // 1024 words per row
        let classes = 128usize; // 131072 total words ≥ the fan-out threshold
        let mut state = 0xfeed_beefu64;
        let mut next_word = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        let wpr = words_per_row(dim);
        let mut mono = PackedClassMemory::new(dim);
        let mut memory = ShardedClassMemory::new(dim, 4).with_threads(3);
        for c in 0..classes {
            let row: Vec<u64> = (0..wpr).map(|_| next_word()).collect();
            mono.insert_packed(format!("class{c:03}"), &row);
            memory.add_class_packed(format!("class{c:03}"), &row);
        }
        assert!(
            memory.single_query_fanout(),
            "fixture must cross the threshold"
        );
        let query: Vec<u64> = (0..wpr).map(|_| next_word()).collect();
        let (label, sim) = memory.nearest(&query).expect("non-empty");
        let (mono_index, mono_sim) = mono.nearest(&query).expect("non-empty");
        assert_eq!(label, mono.label(mono_index));
        assert_eq!(sim.to_bits(), mono_sim.to_bits());
        let sharded: Vec<(&str, u32)> = memory
            .top_k(&query, 9)
            .into_iter()
            .map(|(l, s)| (l, s.to_bits()))
            .collect();
        let monolithic: Vec<(&str, u32)> = mono
            .top_k(&query, 9)
            .into_iter()
            .map(|(i, s)| (mono.label(i), s.to_bits()))
            .collect();
        assert_eq!(sharded, monolithic);
    }

    #[test]
    fn empty_memory_lookups() {
        let memory = ShardedClassMemory::new(32, 4);
        let query = vec![0u64; 1];
        assert!(memory.nearest(&query).is_none());
        assert!(memory.top_k(&query, 3).is_empty());
        assert!(memory.is_empty());
        assert_eq!(memory.num_shards(), 4);
        assert!(memory.locate("nothing").is_none());
        assert!(memory.class_words("nothing").is_none());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardedClassMemory::new(8, 0);
    }

    /// Export → import round-trips the exact shard assignment: the imported
    /// memory is structurally equal, scores bit-identically, and — because
    /// routing depends only on shard occupancies — sends the next insert to
    /// the same shard the original would.
    #[test]
    fn serde_round_trip_preserves_shard_assignment_and_scores() {
        let dim = 70; // ragged tail on purpose
        let (mut memory, protos) = fixture(dim, 9, 3);
        memory.remove_class("class004"); // unbalance the shards
        let json = serde_json::to_string_pretty(&memory).expect("serializes");
        let imported: ShardedClassMemory = serde_json::from_str(&json).expect("imports");
        assert_eq!(imported, memory);
        assert_eq!(
            imported.labels().collect::<Vec<_>>(),
            memory.labels().collect::<Vec<_>>()
        );
        let query = pack_signs(&protos[2]);
        let a: Vec<(&str, u32)> = memory
            .top_k(&query, 9)
            .into_iter()
            .map(|(l, s)| (l, s.to_bits()))
            .collect();
        let b: Vec<(&str, u32)> = imported
            .top_k(&query, 9)
            .into_iter()
            .map(|(l, s)| (l, s.to_bits()))
            .collect();
        assert_eq!(a, b);
        let mut imported = imported;
        let (shard_a, _) = memory.add_class("next", &protos[0]);
        let (shard_b, _) = imported.add_class("next", &protos[0]);
        assert_eq!(shard_a, shard_b, "routing must survive the round trip");
        assert_eq!(memory, imported);
    }

    #[test]
    fn serde_import_rejects_malformed_documents() {
        let (memory, _) = fixture(64, 4, 2);
        let good = serde_json::to_string_pretty(&memory).expect("serializes");

        // The *declared* dimensionality disagrees with every shard's (the
        // top-level `dim` serializes first, so only it is rewritten).
        let bad_dim = good.replacen("\"dim\": 64", "\"dim\": 65", 1);
        assert!(serde_json::from_str::<ShardedClassMemory>(&bad_dim).is_err());

        // No shards at all.
        let empty = "{\"dim\": 64, \"shards\": []}";
        assert!(serde_json::from_str::<ShardedClassMemory>(empty).is_err());

        // Zero dimensionality.
        let zero = "{\"dim\": 0, \"shards\": []}";
        assert!(serde_json::from_str::<ShardedClassMemory>(zero).is_err());

        // The same label in two shards: duplicate shard 0 wholesale.
        let value = serde::Serialize::to_value(&memory);
        let dup = match value {
            Value::Object(mut entries) => {
                for (key, v) in &mut entries {
                    if key == "shards" {
                        if let Value::Array(shards) = v {
                            let first = shards[0].clone();
                            shards.push(first);
                        }
                    }
                }
                Value::Object(entries)
            }
            _ => unreachable!("memories serialize as objects"),
        };
        let err = <ShardedClassMemory as serde::Deserialize>::from_value(&dup);
        assert!(err.is_err(), "duplicate labels across shards must fail");
    }
}
