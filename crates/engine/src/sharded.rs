//! Sharded class memory: class prototypes split across N
//! [`PackedClassMemory`] shards, with a deterministic top-k that is
//! **bit-identical** to the monolithic scorer.
//!
//! # Why shard?
//!
//! A monolithic [`PackedClassMemory`] is immutable-in-spirit: growing to very
//! large label spaces means one enormous contiguous word matrix, and every
//! class registration while serving would either mutate the matrix under
//! readers or rebuild the world. Sharding fixes both:
//!
//! * **Scale** — each shard is its own contiguous word matrix, so the class
//!   axis grows without one ever-larger sweep buffer. Batches fan out
//!   across queries over a [`minipool::Pool`].
//! * **Online mutation** — [`ShardedClassMemory::add_class`] /
//!   [`ShardedClassMemory::update_class`] / [`ShardedClassMemory::remove_class`]
//!   repack only the touched shard, and a clone of the whole memory shares
//!   every shard until one is mutated — the property the serving layer's
//!   atomic snapshot hot-swap relies on.
//!
//! The sharded memory is also the cluster store of
//! [`RoutedClassMemory`](crate::RoutedClassMemory), one shard per cluster:
//! which shard a class lives in is the owner's policy (least-loaded here,
//! nearest centroid there), and the storage queries, lookups, merge, batch
//! fan-out and shard-list checks of the on-disk form are implemented here
//! once. The `sharded_parity` property tests pin label-and-bit equality
//! against a monolithic memory for shard counts {1, 2, 3, 7}, ragged dims,
//! `k ≥ num_classes`, and arbitrary add/update/remove interleavings.
//!
//! # Copy-on-write
//!
//! Every shard sits behind an [`Arc`]. Cloning the memory shares every
//! shard, and a mutation deep-copies ([`Arc::make_mut`]) only the shard it
//! touches. Building the next serving snapshot from a clone of the live one
//! therefore copies one shard per mutation (two when a routed class moves
//! between clusters), never the whole memory.
//!
//! # Exactness
//!
//! A lookup visits a set of *probed* shards: every shard here, the probed
//! clusters for the routed memory. Each probed shard contributes raw integer
//! Hamming distances ([`PackedClassMemory::top_k_hamming`]), and the merge
//! orders them by `(hamming, label)` — the monolithic comparator. Distinct
//! distances that would round to the same `f32` similarity therefore still
//! merge in the monolithic order, and the returned similarities are the
//! same [`similarity_from_hamming`] bits.
//!
//! # Threads
//!
//! Single-query lookups run serially on the caller's thread. Batches fan out
//! across queries: each pool worker runs the serial lookup for its range of
//! queries, so results are bit-identical for every pool width.

use crate::batch::PackedQueryBatch;
use crate::packed::{pack_signs, similarity_from_hamming, words_per_row, PackedClassMemory};
use minipool::Pool;
use serde::{de, json, DeError, Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::HashSet;
use std::sync::Arc;
use tensor::Matrix;

/// A candidate row during a merge: `(shard, row, hamming)`.
type Hit = (usize, usize, u64);

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
/// assert_eq!(memory.top_k(&query, 1), vec![("up", 0.5)]);
/// // k past the class count truncates to everything stored.
/// assert_eq!(memory.top_k(&query, 99).len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedClassMemory {
    dim: usize,
    shards: Vec<Arc<PackedClassMemory>>,
    pool: Pool,
}

/// Equality is structural — dimensionality plus per-shard contents. The pool
/// width is a performance knob (results are bit-identical for every width)
/// and does not participate.
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
        S: Into<Arc<str>>,
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
            sharded.add_class_packed(Arc::clone(memory.label_arc(index)), memory.row_words(index));
        }
        sharded
    }

    /// Caps batch fan-out across queries at `threads` threads (clamped to
    /// at least 1). Results are bit-identical for every setting.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.pool = Pool::new(threads);
        self
    }

    /// Number of threads batches fan out over.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The pool batches (and the routed memory's clustering) fan out over.
    pub(crate) fn pool(&self) -> &Pool {
        &self.pool
    }

    /// Dimensionality of the stored prototypes.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Packed words per prototype row.
    pub fn words_per_row(&self) -> usize {
        words_per_row(self.dim)
    }

    /// Number of shards, empty ones included.
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

    /// The shard at `index` for writing; deep-copied first when a clone of
    /// the memory still shares it.
    pub(crate) fn shard_mut(&mut self, index: usize) -> &mut PackedClassMemory {
        Arc::make_mut(&mut self.shards[index])
    }

    /// The shards in order.
    pub(crate) fn shards(&self) -> impl Iterator<Item = &PackedClassMemory> {
        self.shards.iter().map(|shard| &**shard)
    }

    /// Replaces every shard at once (the routed memory's re-clustering),
    /// keeping the pool.
    pub(crate) fn replace_shards(&mut self, shards: Vec<PackedClassMemory>) {
        self.shards = shards.into_iter().map(Arc::new).collect();
    }

    /// Total number of stored classes across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.len()).sum()
    }

    /// Returns `true` if no classes are stored.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|shard| shard.is_empty())
    }

    /// The stored labels in shard-major order (shard 0's rows, then shard
    /// 1's, …). The order is deterministic for a given mutation history but
    /// — unlike the monolithic memory — not globally insertion-ordered;
    /// treat labels, not positions, as class identity.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.shards.iter().flat_map(|shard| shard.labels())
    }

    /// The `(shard, row)` holding `label`, if stored: one label-table probe
    /// per shard, so O(shards) whatever the class count. A memory-level
    /// `label → shard` map would sit outside the copy-on-write shards and be
    /// deep-copied on every snapshot clone.
    pub(crate) fn locate(&self, label: &str) -> Option<(usize, usize)> {
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
        (0..self.num_shards())
            .min_by_key(|&s| self.shard(s).len())
            .expect("at least one shard")
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
    pub fn add_class(&mut self, label: impl Into<Arc<str>>, signs: &[i8]) -> (usize, bool) {
        assert_eq!(
            signs.len(),
            self.dim(),
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
    pub fn add_class_packed(&mut self, label: impl Into<Arc<str>>, words: &[u64]) -> (usize, bool) {
        let label = label.into();
        let shard = match self.locate(&label) {
            Some((s, _)) => s,
            None => self.shard_for_new_class(),
        };
        let (_, replaced) = self.shard_mut(shard).insert_packed(label, words);
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
            Some((s, _)) => self.shard_mut(s).remove(label).is_some(),
            None => false,
        }
    }

    /// The `k` most similar stored classes, most similar first, with the
    /// monolithic `(hamming, label)` ordering and truncation contract:
    /// `min(k, self.len())` entries, `k == 0` empty.
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != self.words_per_row()`.
    pub fn top_k(&self, query: &[u64], k: usize) -> Vec<(&str, f32)> {
        self.top_k_among(query, k, 0..self.num_shards())
    }

    /// The top-k classes of every query in the batch, parallelised across
    /// queries; same ordering and truncation contract as
    /// [`ShardedClassMemory::top_k`].
    ///
    /// # Panics
    ///
    /// Panics if `batch.dim() != self.dim()`.
    pub fn topk_batch(&self, batch: &PackedQueryBatch, k: usize) -> Vec<Vec<(&str, f32)>> {
        self.topk_batch_among(batch, k, |_| 0..self.num_shards())
    }

    /// The monolithic comparator: `(hamming, label)` ascending.
    fn order(&self, &(sa, ra, ha): &Hit, &(sb, rb, hb): &Hit) -> Ordering {
        ha.cmp(&hb)
            .then_with(|| self.shards[sa].label(ra).cmp(self.shards[sb].label(rb)))
    }

    fn resolve(&self, (s, row, hamming): Hit) -> (&str, f32) {
        (
            self.shards[s].label(row),
            similarity_from_hamming(self.dim, hamming),
        )
    }

    /// The `k` most similar classes among the `probed` shards, most similar
    /// first: each shard contributes at most `k` candidates, merged on
    /// `(hamming, label)` and truncated to `k`.
    ///
    /// # Panics
    ///
    /// Panics if `query` is not one packed row wide.
    pub(crate) fn top_k_among(
        &self,
        query: &[u64],
        k: usize,
        probed: impl IntoIterator<Item = usize>,
    ) -> Vec<(&str, f32)> {
        assert_eq!(query.len(), self.words_per_row(), "query width");
        let mut merged: Vec<Hit> = probed
            .into_iter()
            .flat_map(|s| {
                self.shards[s]
                    .top_k_hamming(query, k)
                    .into_iter()
                    .map(move |(row, hamming)| (s, row, hamming))
            })
            .collect();
        merged.sort_by(|a, b| self.order(a, b));
        merged.truncate(k);
        merged.into_iter().map(|hit| self.resolve(hit)).collect()
    }

    /// Applies `f` to every query row of `batch`, fanned out across the
    /// pool in contiguous query ranges; results come back in batch order.
    fn map_queries<'q, T, F>(&self, batch: &'q PackedQueryBatch, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&'q [u64]) -> T + Sync,
    {
        assert_eq!(
            batch.dim(),
            self.dim,
            "query batch dimensionality must match the class memory"
        );
        self.pool
            .map_chunks(batch.len(), |range| {
                range.map(|q| f(batch.row(q))).collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect()
    }

    /// [`ShardedClassMemory::top_k_among`] for every query, probing the
    /// shards `probe` names for it.
    ///
    /// # Panics
    ///
    /// Panics if `batch.dim()` differs from the memory's.
    pub(crate) fn topk_batch_among<P>(
        &self,
        batch: &PackedQueryBatch,
        k: usize,
        probe: impl Fn(&[u64]) -> P + Sync,
    ) -> Vec<Vec<(&str, f32)>>
    where
        P: IntoIterator<Item = usize>,
    {
        self.map_queries(batch, |query| self.top_k_among(query, k, probe(query)))
    }

    /// A memory from a decoded `dim` and the shard list under `key`,
    /// rejecting with typed errors a zero `dim`, an empty shard list, a
    /// shard at another dimensionality and a label stored twice. Each
    /// shard's own shape and tail bits are checked by
    /// [`PackedClassMemory`]'s deserializer. The pool is rebuilt auto-sized
    /// (it is a performance knob, not state).
    pub(crate) fn from_parts(
        dim: usize,
        shards: Vec<PackedClassMemory>,
        key: &str,
        owner: &'static str,
    ) -> Result<Self, DeError> {
        let err = |msg: String| DeError::new(msg).in_field(owner);
        if dim == 0 {
            return Err(err("dimensionality must be positive".into()));
        }
        if shards.is_empty() {
            return Err(err(format!("`{key}` must hold at least one part")));
        }
        if let Some((s, shard)) = shards
            .iter()
            .enumerate()
            .find(|(_, shard)| shard.dim() != dim)
        {
            return Err(err(format!(
                "{key}[{s}] has dimensionality {} but the memory declares {dim}",
                shard.dim()
            )));
        }
        let mut seen = HashSet::new();
        if let Some(label) = shards
            .iter()
            .flat_map(|shard| shard.labels())
            .find(|label| !seen.insert(*label))
        {
            return Err(err(format!("label `{label}` stored twice")));
        }
        Ok(Self {
            dim,
            shards: shards.into_iter().map(Arc::new).collect(),
            pool: Pool::auto(),
        })
    }
}

/// Serializes as `{dim, shards: [PackedClassMemory, …]}` — the exact
/// per-shard contents, in shard order. Because routing of *future* inserts
/// depends only on shard occupancies (least-loaded, ties to the smallest
/// index), a round-tripped memory not only scores bit-identically but also
/// routes every subsequent mutation exactly as the original would — the
/// property the serve-layer crash-recovery replay relies on.
impl Serialize for ShardedClassMemory {
    fn write_json(&self, out: &mut String) {
        let mut object = json::Object::new(out);
        object.field("dim", &self.dim).field("shards", &self.shards);
        object.end();
    }
}

/// Hand-written (instead of derived) so the shard list is checked with
/// typed errors: a positive `dim`, at least one shard, every shard at `dim`,
/// no label stored twice. The scoring pool is rebuilt auto-sized (it is a
/// performance knob, not state).
impl Deserialize for ShardedClassMemory {
    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, json::Error> {
        const TYPE: &str = "ShardedClassMemory";
        let (mut dim, mut shards) = (None, None);
        r.begin_object().map_err(|e| e.in_field(TYPE))?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "dim" => r.field(&mut dim, "dim")?,
                "shards" => r.field(&mut shards, "shards")?,
                _ => r.skip()?,
            }
        }
        let dim = de::required(dim, "dim", TYPE)?;
        let shards = de::required(shards, "shards", TYPE)?;
        Ok(Self::from_parts(dim, shards, "shards", TYPE)?)
    }
}

/// Deterministic ±1 rows (a 64-bit LCG's top bit) for the unit tests of
/// both the sharded and the routed memory.
#[cfg(test)]
pub(crate) fn lcg_signs(state: &mut u64, dim: usize) -> Vec<i8> {
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

#[cfg(test)]
mod tests {
    use super::*;

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
            assert!(std::ptr::eq(memory.shard(s), snapshot.shard(s)));
        }
        let (touched, replaced) = memory.add_class("newcomer", &protos[0]);
        assert!(!replaced);
        // Exactly the touched shard was deep-copied; the others stay shared.
        for s in 0..3 {
            assert_eq!(
                std::ptr::eq(memory.shard(s), snapshot.shard(s)),
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
        let query = pack_signs(&[1, -1, 1]);
        assert_eq!(from_matrix.top_k(&query, 3), from_packed.top_k(&query, 3));
    }

    #[test]
    fn empty_memory_lookups() {
        let memory = ShardedClassMemory::new(32, 4);
        let query = vec![0u64; 1];
        assert!(memory.top_k(&query, 3).is_empty());
        assert!(memory.is_empty());
        assert_eq!(memory.num_shards(), 4);
        assert!(memory.locate("nothing").is_none());
        assert!(memory.class_words("nothing").is_none());
        let empty = PackedQueryBatch::new(32);
        assert!(memory.topk_batch(&empty, 3).is_empty());
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

    /// The writer emits the layout fixed before it: `dim`, then every
    /// shard's own text in shard order, empty shards included.
    #[test]
    fn writer_matches_the_value_rendering() {
        let mut one = ShardedClassMemory::new(64, 3);
        one.add_class_packed("only \"one\"", &[u64::MAX]);
        let expected_one = r#"{"dim":64,"shards":[{"dim":64,"words_per_row":1,"labels":["only \"one\""],"words":["18446744073709551615"]},{"dim":64,"words_per_row":1,"labels":[],"words":[]},{"dim":64,"words_per_row":1,"labels":[],"words":[]}]}"#;
        let (full, _) = fixture(130, 7, 3);
        let mut emptied = full.clone();
        for label in ["class000", "class003", "class006"] {
            emptied.remove_class(label);
        }
        assert!(emptied.shard(0).is_empty());
        assert_eq!(serde_json::to_string(&one).expect("writes"), expected_one);
        for memory in [one, full, emptied] {
            let shards: Vec<String> = memory
                .shards()
                .map(|shard| serde_json::to_string(shard).expect("writes"))
                .collect();
            assert_eq!(
                serde_json::to_string(&memory).expect("writes"),
                format!(
                    r#"{{"dim":{},"shards":[{}]}}"#,
                    memory.dim,
                    shards.join(",")
                )
            );
        }
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

        // The same label in two shards (shard 0 duplicated wholesale), and
        // twice inside one shard.
        let shard0 = serde_json::to_string(memory.shard(0)).expect("serializes");
        let twice =
            "{\"dim\": 64, \"words_per_row\": 1, \"labels\": [\"a\", \"a\"], \"words\": [1, 2]}";
        for shards in [format!("{shard0}, {shard0}"), twice.to_string()] {
            let doc = format!("{{\"dim\": 64, \"shards\": [{shards}]}}");
            let err = serde_json::from_str::<ShardedClassMemory>(&doc).expect_err("duplicate");
            assert!(err.to_string().contains("stored"), "{err}");
        }
    }
}
