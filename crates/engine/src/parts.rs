//! The copy-on-write partitioned store behind both
//! [`ShardedClassMemory`](crate::ShardedClassMemory) and
//! [`RoutedClassMemory`](crate::RoutedClassMemory).
//!
//! A [`Parts`] store is a list of [`PackedClassMemory`] parts plus the pool
//! batches fan out over. Which part a class lives in is the owner's policy
//! (least-loaded placement for the sharded memory, nearest centroid for the
//! routed one); everything else — storage queries, lookups, the merge, the
//! batch fan-out and the part-list checks of the on-disk form — is
//! implemented here once.
//!
//! # Copy-on-write
//!
//! Every part sits behind an [`Arc`]. Cloning the store shares every part,
//! and a mutation through [`Parts::part_mut`] or [`Parts::remove`]
//! deep-copies ([`Arc::make_mut`]) only the part it touches. The serving
//! layer relies on this: building the next snapshot from a clone of the
//! live one copies one part per mutation (two when a routed class moves
//! between clusters), never the whole memory.
//!
//! # Exactness
//!
//! A lookup visits a set of *probed* parts: every part for the sharded
//! memory, the probed clusters for the routed one. Each probed part
//! contributes raw integer Hamming distances
//! ([`PackedClassMemory::nearest_hamming`],
//! [`PackedClassMemory::top_k_hamming`]), and the merge orders them by
//! `(hamming, label)` — the monolithic comparator. Distinct distances that
//! would round to the same `f32` similarity therefore still merge in the
//! monolithic order, and the returned similarities are the same
//! [`similarity_from_hamming`] bits. Probing every part is bit-identical to
//! one [`PackedClassMemory`] holding the same classes, with the same
//! `min(k, stored)` truncation.
//!
//! # Threads
//!
//! Single-query lookups run serially on the caller's thread. Batches fan out
//! across queries: each pool worker runs the serial lookup for its range of
//! queries, so results are bit-identical for every pool width.

use crate::batch::PackedQueryBatch;
use crate::packed::{similarity_from_hamming, words_per_row, PackedClassMemory};
use minipool::Pool;
use serde::{de, DeError, Serialize, Value};
use std::cmp::Ordering;
use std::collections::HashSet;
use std::sync::Arc;

/// A candidate row during a merge: `(part, row, hamming)`.
type Hit = (usize, usize, u64);

/// Copy-on-write `dim`-bit packed parts plus the batch pool; see the module
/// docs.
#[derive(Debug, Clone)]
pub(crate) struct Parts {
    dim: usize,
    parts: Vec<Arc<PackedClassMemory>>,
    pool: Pool,
}

/// Equality is structural — dimensionality plus per-part contents. The pool
/// width is a performance knob (results are bit-identical for every width)
/// and does not participate.
impl PartialEq for Parts {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim && self.parts == other.parts
    }
}

impl Parts {
    /// `count` empty parts of `dim`-bit rows, with an auto-sized pool.
    pub(crate) fn new(dim: usize, count: usize) -> Self {
        let mut store = Self {
            dim,
            parts: Vec::new(),
            pool: Pool::auto(),
        };
        store.replace((0..count).map(|_| PackedClassMemory::new(dim)).collect());
        store
    }

    /// Replaces every part at once (the routed memory's re-clustering),
    /// keeping the pool.
    pub(crate) fn replace(&mut self, parts: Vec<PackedClassMemory>) {
        self.parts = parts.into_iter().map(Arc::new).collect();
    }

    /// Caps batch fan-out at `threads` threads (clamped to at least 1).
    pub(crate) fn set_threads(&mut self, threads: usize) {
        self.pool = Pool::new(threads);
    }

    /// The pool batches fan out over.
    pub(crate) fn pool(&self) -> &Pool {
        &self.pool
    }

    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// Number of parts, empty ones included.
    pub(crate) fn count(&self) -> usize {
        self.parts.len()
    }

    pub(crate) fn part(&self, index: usize) -> &PackedClassMemory {
        &self.parts[index]
    }

    /// The part at `index` for writing; deep-copied first when a clone of
    /// the store still shares it.
    pub(crate) fn part_mut(&mut self, index: usize) -> &mut PackedClassMemory {
        Arc::make_mut(&mut self.parts[index])
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &PackedClassMemory> {
        self.parts.iter().map(|part| &**part)
    }

    /// Total number of stored classes across all parts.
    pub(crate) fn len(&self) -> usize {
        self.parts.iter().map(|part| part.len()).sum()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.parts.iter().all(|part| part.is_empty())
    }

    /// The stored labels in part-major order.
    pub(crate) fn labels(&self) -> impl Iterator<Item = &str> {
        self.parts.iter().flat_map(|part| part.labels())
    }

    /// The `(part, row)` holding `label`, if stored.
    pub(crate) fn locate(&self, label: &str) -> Option<(usize, usize)> {
        self.parts
            .iter()
            .enumerate()
            .find_map(|(p, part)| part.position(label).map(|row| (p, row)))
    }

    pub(crate) fn contains(&self, label: &str) -> bool {
        self.locate(label).is_some()
    }

    /// The packed words of the class stored under `label`, if any.
    pub(crate) fn class_words(&self, label: &str) -> Option<&[u64]> {
        self.locate(label)
            .map(|(p, row)| self.parts[p].row_words(row))
    }

    /// Removes `label` from the part holding it, copying only that part.
    /// Returns `false` if the label is not stored.
    pub(crate) fn remove(&mut self, label: &str) -> bool {
        match self.locate(label) {
            Some((p, _)) => self.part_mut(p).remove(label).is_some(),
            None => false,
        }
    }

    /// The monolithic comparator: `(hamming, label)` ascending.
    fn order(&self, &(pa, ra, ha): &Hit, &(pb, rb, hb): &Hit) -> Ordering {
        ha.cmp(&hb)
            .then_with(|| self.parts[pa].label(ra).cmp(self.parts[pb].label(rb)))
    }

    fn resolve(&self, (p, row, hamming): Hit) -> (&str, f32) {
        (
            self.parts[p].label(row),
            similarity_from_hamming(self.dim, hamming),
        )
    }

    /// The most similar class among the `probed` parts, merged on
    /// `(hamming, label)`; `None` when they hold no class.
    ///
    /// # Panics
    ///
    /// Panics if `query` is not one packed row wide.
    pub(crate) fn nearest(
        &self,
        query: &[u64],
        probed: impl IntoIterator<Item = usize>,
    ) -> Option<(&str, f32)> {
        assert_eq!(query.len(), words_per_row(self.dim), "query width");
        probed
            .into_iter()
            .filter_map(|p| {
                self.parts[p]
                    .nearest_hamming(query)
                    .map(|(row, hamming)| (p, row, hamming))
            })
            .min_by(|a, b| self.order(a, b))
            .map(|hit| self.resolve(hit))
    }

    /// The `k` most similar classes among the `probed` parts, most similar
    /// first: each part contributes at most `k` candidates, merged on
    /// `(hamming, label)` and truncated to `k`.
    ///
    /// # Panics
    ///
    /// Panics if `query` is not one packed row wide.
    pub(crate) fn top_k(
        &self,
        query: &[u64],
        k: usize,
        probed: impl IntoIterator<Item = usize>,
    ) -> Vec<(&str, f32)> {
        assert_eq!(query.len(), words_per_row(self.dim), "query width");
        let mut merged: Vec<Hit> = probed
            .into_iter()
            .flat_map(|p| {
                self.parts[p]
                    .top_k_hamming(query, k)
                    .into_iter()
                    .map(move |(row, hamming)| (p, row, hamming))
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

    /// [`Parts::nearest`] for every query, probing the parts `probe` names
    /// for it.
    ///
    /// # Panics
    ///
    /// Panics if `batch.dim()` differs from the store's or the store is
    /// empty while the batch is not.
    pub(crate) fn nearest_batch<P>(
        &self,
        batch: &PackedQueryBatch,
        probe: impl Fn(&[u64]) -> P + Sync,
    ) -> Vec<(&str, f32)>
    where
        P: IntoIterator<Item = usize>,
    {
        assert!(
            batch.is_empty() || !self.is_empty(),
            "nearest_batch requires a non-empty class memory"
        );
        self.map_queries(batch, |query| {
            self.nearest(query, probe(query)).expect("non-empty memory")
        })
    }

    /// [`Parts::top_k`] for every query, probing the parts `probe` names
    /// for it.
    ///
    /// # Panics
    ///
    /// Panics if `batch.dim()` differs from the store's.
    pub(crate) fn topk_batch<P>(
        &self,
        batch: &PackedQueryBatch,
        k: usize,
        probe: impl Fn(&[u64]) -> P + Sync,
    ) -> Vec<Vec<(&str, f32)>>
    where
        P: IntoIterator<Item = usize>,
    {
        self.map_queries(batch, |query| self.top_k(query, k, probe(query)))
    }

    /// Decodes `dim` and the part list under `key` from an owner's object
    /// entries, rejecting with typed errors a zero `dim`, an empty part
    /// list, a part at another dimensionality and a label stored twice.
    /// Each part's own shape and tail bits are checked by
    /// [`PackedClassMemory`]'s deserializer. The pool is rebuilt auto-sized.
    pub(crate) fn from_entries(
        entries: &[(String, Value)],
        key: &str,
        owner: &'static str,
    ) -> Result<Self, DeError> {
        let dim: usize = de::field(entries, "dim", owner)?;
        let parts: Vec<PackedClassMemory> = de::field(entries, key, owner)?;
        let err = |msg: String| DeError::new(msg).in_field(owner);
        if dim == 0 {
            return Err(err("dimensionality must be positive".into()));
        }
        if parts.is_empty() {
            return Err(err(format!("`{key}` must hold at least one part")));
        }
        if let Some((p, part)) = parts.iter().enumerate().find(|(_, part)| part.dim() != dim) {
            return Err(err(format!(
                "{key}[{p}] has dimensionality {} but the memory declares {dim}",
                part.dim()
            )));
        }
        let mut seen = HashSet::new();
        if let Some(label) = parts
            .iter()
            .flat_map(|part| part.labels())
            .find(|label| !seen.insert(*label))
        {
            return Err(err(format!("label `{label}` stored twice")));
        }
        let mut store = Self::new(dim, 0);
        store.replace(parts);
        Ok(store)
    }
}

/// The part list, in part order; the owner writes `dim` beside it.
impl Serialize for Parts {
    fn to_value(&self) -> Value {
        Value::Array(self.parts.iter().map(|part| part.to_value()).collect())
    }
}

/// Deterministic ±1 rows (a 64-bit LCG's top bit) for the unit tests of
/// both partitioned memories.
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
