//! Routed class memory: a two-level coarse-to-fine index over class
//! prototypes for sub-linear retrieval at very large label spaces.
//!
//! # Shape
//!
//! A [`RoutedClassMemory`] clusters the stored ±1 prototypes with seeded
//! k-means (k-means++ initialisation, Lloyd refinement — all in the packed
//! Hamming domain, where the squared Euclidean distance between ±1 vectors
//! is `4 · hamming` and the binarised mean of a member set is the
//! per-bit majority sign). Each cluster keeps its members in its own
//! [`PackedClassMemory`] shard, and every cluster has one packed *centroid*
//! row. A lookup scores the query against the centroids first, visits the
//! `nprobe` nearest clusters, and **exactly re-ranks** the candidates it
//! finds there on raw integer `(hamming, label)` — the monolithic
//! comparator — so the only approximation is *which classes are candidates*,
//! never how candidates are ordered or what similarity bits they carry.
//!
//! # Exactness contract
//!
//! With full probing (`nprobe = 0`, the default, or `nprobe ≥` the live
//! cluster count) every lookup is **bit-identical** to the exhaustive
//! [`PackedClassMemory`] over the same class set: same labels, same
//! similarity bits, same `(hamming, label)` tie-break, same `min(k, stored)`
//! truncation. The `routed_parity` property tests pin this across ragged
//! dims, cluster counts, `k ≥ num_classes`, and arbitrary
//! add/update/remove interleavings. With partial probing (`0 < nprobe <`
//! live clusters) the truncation contract weakens to `min(k, candidates)`
//! and recall becomes a measured quantity — `serve_sim --index routed`
//! reports candidate-fraction and recall@k per `nprobe`.
//!
//! # Determinism
//!
//! The clustering is a pure function of `(dimension, config, insertion
//! order)`: k-means++ draws from a SplitMix64 stream seeded by
//! [`RoutedConfig::seed`], Lloyd assignment breaks ties to the lowest
//! cluster index, centroid bits break exact-half ties to `+1` (clear), and
//! re-clustering triggers on a pure mutation count. Replaying the same
//! mutation history against the same seed therefore rebuilds the *same*
//! structure — the property the serve layer's WAL crash recovery relies on
//! — and a serde round trip preserves the exact cluster assignment.
//!
//! # Storage
//!
//! The clusters are a [`ShardedClassMemory`], one shard per cluster, and
//! [`RoutedClassMemory::as_sharded`] hands them out as such: every storage
//! query (labels, membership, words, dimensionality, cluster sizes) is
//! answered there, as are the copy-on-write sharing and the
//! `(hamming, label)` merge, so each class is stored once. What is the
//! routed memory's own is the centroids, placement by nearest centroid,
//! the k-means build, drift and probing.

use crate::batch::PackedQueryBatch;
use crate::packed::{hamming, mask_tail_word, pack_signs, words_per_row, PackedClassMemory};
use crate::sharded::ShardedClassMemory;
use serde::{de, json, DeError, Deserialize, Serialize};
use std::sync::Arc;
use tensor::Matrix;

/// Tuning knobs of a [`RoutedClassMemory`]; every field participates in the
/// deterministic-structure contract (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutedConfig {
    /// Number of coarse clusters; `0` sizes automatically to `⌈√n⌉` at each
    /// (re-)clustering.
    pub clusters: usize,
    /// Clusters visited per lookup; `0` probes everything — the exhaustive
    /// fallback under which lookups are bit-identical to
    /// [`PackedClassMemory`]. Values past the live cluster count clamp.
    pub nprobe: usize,
    /// Seed of the k-means++ initialisation stream.
    pub seed: u64,
    /// Maximum Lloyd refinement passes per (re-)clustering (at least one
    /// assignment pass always runs; refinement stops early on a fixed
    /// point).
    pub kmeans_iters: usize,
    /// Re-cluster when mutations since the last build reach this percentage
    /// of the stored class count (and at least
    /// [`RoutedClassMemory::MIN_RECLUSTER_DRIFT`]); `0` disables automatic
    /// re-clustering.
    pub recluster_percent: usize,
}

impl Default for RoutedConfig {
    fn default() -> Self {
        Self {
            clusters: 0,
            nprobe: 0,
            seed: 0x5eed_c0a2,
            kmeans_iters: 6,
            recluster_percent: 50,
        }
    }
}

/// Classes to cluster, in build order: shared labels and one flat word
/// matrix, `words_per_row` words per label.
#[derive(Default)]
struct Rows {
    labels: Vec<Arc<str>>,
    words: Vec<u64>,
}

/// The rows of `parts`, part by part in row order.
fn collect_rows<'a>(parts: impl IntoIterator<Item = &'a PackedClassMemory>) -> Rows {
    let mut rows = Rows::default();
    for part in parts {
        for r in 0..part.len() {
            rows.labels.push(Arc::clone(part.label_arc(r)));
            rows.words.extend_from_slice(part.row_words(r));
        }
    }
    rows
}

/// One step of the SplitMix64 stream — the only randomness in the index,
/// fully determined by [`RoutedConfig::seed`].
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A coarse-to-fine routed class memory; see the module docs for the
/// design, exactness, and determinism contracts.
///
/// Like [`ShardedClassMemory`], cloning the
/// memory shares every cluster, and a mutation deep-copies exactly the
/// touched cluster(s).
///
/// # Example
///
/// ```
/// use engine::{pack_signs, RoutedClassMemory, RoutedConfig};
///
/// let mut memory = RoutedClassMemory::new(4, RoutedConfig::default());
/// memory.add_class("up", &[1, 1, 1, 1]);
/// memory.add_class("down", &[-1, -1, -1, -1]);
/// let query = pack_signs(&[1, 1, 1, -1]);
/// // Default config probes everything: bit-identical to the exhaustive scan.
/// assert_eq!(memory.top_k(&query, 1), vec![("up", 0.5)]);
/// ```
///
/// Equality is structural — configuration, centroids, per-cluster contents
/// and drift; the pool width does not participate.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedClassMemory {
    config: RoutedConfig,
    /// Packed centroid rows, one per cluster, `words_per_row` words each;
    /// tail bits are kept clear so centroid scoring is a plain popcount.
    centroids: Vec<u64>,
    /// One shard per cluster; see [`RoutedClassMemory::as_sharded`].
    clusters: ShardedClassMemory,
    /// Mutations since the clustering was last built; drives re-clustering.
    drift: usize,
}

impl RoutedClassMemory {
    /// Automatic re-clustering never fires below this many mutations, so
    /// small memories don't thrash rebuilding after every other insert.
    pub const MIN_RECLUSTER_DRIFT: usize = 8;

    /// Creates an empty routed memory for `dim`-bit prototypes.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize, config: RoutedConfig) -> Self {
        Self {
            config,
            clusters: ShardedClassMemory::new(dim, 1),
            centroids: vec![0u64; words_per_row(dim)],
            drift: 0,
        }
    }

    /// Builds a routed memory over the contents of a monolithic memory,
    /// clustering with the seeded k-means described in the module docs.
    ///
    /// # Panics
    ///
    /// Panics if `memory` is zero-dimensional.
    pub fn from_packed(memory: &PackedClassMemory, config: RoutedConfig) -> Self {
        let mut routed = Self::new(memory.dim(), config);
        routed.rebuild_from(collect_rows([memory]));
        routed
    }

    /// Builds a routed memory over the classes of a sharded memory, fed in
    /// its label order ([`ShardedClassMemory::labels`]) to one k-means pass;
    /// the labels are shared with `memory`, not copied. Equal to adding the
    /// classes one by one in that order and then calling
    /// [`RoutedClassMemory::recluster`] whenever the adds never re-cluster
    /// on their own (fewer than [`RoutedClassMemory::MIN_RECLUSTER_DRIFT`]
    /// classes, or automatic re-clustering disabled). Clusters and scores
    /// on `memory`'s pool width ([`ShardedClassMemory::threads`]).
    pub fn from_sharded(memory: &ShardedClassMemory, config: RoutedConfig) -> Self {
        let mut routed = Self::new(memory.dim(), config).with_threads(memory.threads());
        routed.rebuild_from(collect_rows(memory.shards()));
        routed
    }

    /// Builds a routed memory from one float row per class by taking signs
    /// (`x < 0` → `-1`) — the routed analogue of
    /// [`PackedClassMemory::from_sign_matrix`].
    ///
    /// # Panics
    ///
    /// Panics if the label count differs from the row count or the matrix
    /// has zero columns.
    pub fn from_sign_matrix<L, S>(labels: L, matrix: &Matrix, config: RoutedConfig) -> Self
    where
        L: IntoIterator<Item = S>,
        S: Into<Arc<str>>,
    {
        let mut routed = Self::new(matrix.cols(), config);
        let mut rows = Rows::default();
        for (r, label) in labels.into_iter().enumerate() {
            assert!(r < matrix.rows(), "more labels than matrix rows");
            rows.labels.push(label.into());
            rows.words
                .extend(crate::packed::pack_float_signs(matrix.row(r)));
        }
        assert_eq!(
            rows.labels.len(),
            matrix.rows(),
            "fewer labels than matrix rows"
        );
        routed.rebuild_from(rows);
        routed
    }

    /// Caps batch-lookup and clustering fan-out at `threads` threads
    /// (clamped to at least 1). Results are bit-identical for every setting.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.clusters = self.clusters.with_threads(threads);
        self
    }

    /// The clusters as a sharded memory, one shard per cluster (empty ones
    /// included), in cluster order: the one stored form of every class.
    /// Its storage queries — `labels`, `contains`, `class_words`, `dim`,
    /// `words_per_row`, `threads`, `num_shards`, `shard` — describe this
    /// index, and its exhaustive lookups are bit-identical to this index's
    /// under full probing.
    pub fn as_sharded(&self) -> &ShardedClassMemory {
        &self.clusters
    }

    /// The configuration the index was built with (`nprobe` reflects
    /// [`RoutedClassMemory::set_nprobe`] updates).
    pub fn config(&self) -> RoutedConfig {
        self.config
    }

    /// Re-points the probe width; `0` restores exhaustive probing. Purely a
    /// recall/latency knob — the stored structure is untouched.
    pub fn set_nprobe(&mut self, nprobe: usize) {
        self.config.nprobe = nprobe;
    }

    /// `true` when the current probe width visits every live cluster, i.e.
    /// lookups are provably exhaustive.
    pub fn probes_exhaustively(&self) -> bool {
        self.config.nprobe == 0 || self.config.nprobe >= self.live_clusters()
    }

    /// Number of clusters currently holding at least one class.
    fn live_clusters(&self) -> usize {
        self.clusters.shards().filter(|c| !c.is_empty()).count()
    }

    /// The packed centroid row of cluster `index`.
    fn centroid_words(&self, index: usize) -> &[u64] {
        let wpr = self.clusters.words_per_row();
        &self.centroids[index * wpr..(index + 1) * wpr]
    }

    /// Total number of stored classes across all clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Returns `true` if no classes are stored.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// The packed words of the class stored under `label`, if any.
    pub fn class_words(&self, label: &str) -> Option<&[u64]> {
        self.clusters.class_words(label)
    }

    // -----------------------------------------------------------------
    // Mutation
    // -----------------------------------------------------------------

    /// Inserts or replaces the class stored under `label` from ±1 signs.
    /// A new label routes to the cluster with the nearest centroid (ties to
    /// the smallest cluster index); an existing label is re-routed the same
    /// way (its old cluster is repacked, the destination repacked — every
    /// other cluster stays `Arc`-shared). Returns
    /// `(destination cluster, replaced)`.
    ///
    /// Each mutation advances the drift counter; once drift reaches
    /// [`RoutedConfig::recluster_percent`] of the stored class count the
    /// whole index deterministically re-clusters from the current contents.
    ///
    /// # Panics
    ///
    /// Panics if `signs.len()` is not the memory's dimensionality or a sign
    /// is not `±1`.
    pub fn add_class(&mut self, label: impl Into<Arc<str>>, signs: &[i8]) -> (usize, bool) {
        assert_eq!(
            signs.len(),
            self.clusters.dim(),
            "prototype dimensionality must match the memory"
        );
        self.add_class_packed(label, &pack_signs(signs))
    }

    /// Inserts or replaces a class from an already-packed word row; see
    /// [`RoutedClassMemory::add_class`]. Tail bits beyond `dim` are cleared
    /// before routing and insertion.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` is not the memory's packed row width.
    pub fn add_class_packed(&mut self, label: impl Into<Arc<str>>, words: &[u64]) -> (usize, bool) {
        assert_eq!(
            words.len(),
            self.clusters.words_per_row(),
            "packed row width must match the memory"
        );
        let label = label.into();
        let mut clean = words.to_vec();
        mask_tail_word(self.clusters.dim(), &mut clean);
        let replaced = self.clusters.remove_class(&label);
        let destination = self.route(&clean);
        self.clusters
            .shard_mut(destination)
            .insert_packed(Arc::clone(&label), &clean);
        self.drift += 1;
        self.maybe_recluster();
        // A drift reset means re-clustering fired and may have moved the
        // row; report the cluster it actually lives in now.
        let destination = if self.drift == 0 {
            self.clusters.locate(&label).map_or(destination, |(c, _)| c)
        } else {
            destination
        };
        (destination, replaced)
    }

    /// Replaces the prototype of an *existing* class, returning `false`
    /// (without inserting) when `label` is not stored. Use
    /// [`RoutedClassMemory::add_class`] for insert-or-replace semantics.
    ///
    /// # Panics
    ///
    /// Panics if `signs.len()` is not the memory's dimensionality or a sign
    /// is not `±1`.
    pub fn update_class(&mut self, label: &str, signs: &[i8]) -> bool {
        if !self.clusters.contains(label) {
            return false;
        }
        self.add_class(label, signs);
        true
    }

    /// Removes the class stored under `label`, repacking only its cluster.
    /// Returns `false` if the label is not stored.
    pub fn remove_class(&mut self, label: &str) -> bool {
        if !self.clusters.remove_class(label) {
            return false;
        }
        self.drift += 1;
        self.maybe_recluster();
        true
    }

    /// Deterministically re-clusters the current contents with the stored
    /// seed, resetting drift. Called automatically once drift crosses the
    /// configured threshold; callable directly after a bulk-load phase.
    pub fn recluster(&mut self) {
        self.rebuild_from(collect_rows(self.clusters.shards()));
    }

    /// Nearest-centroid routing for one clean (tail-masked) row; ties go to
    /// the smallest cluster index.
    fn route(&self, words: &[u64]) -> usize {
        (0..self.clusters.num_shards())
            .min_by_key(|&c| hamming(self.centroid_words(c), words))
            .expect("at least one cluster")
    }

    /// Fires the deterministic re-clustering once drift reaches the
    /// configured percentage of the stored class count (with the
    /// [`RoutedClassMemory::MIN_RECLUSTER_DRIFT`] floor).
    fn maybe_recluster(&mut self) {
        let percent = self.config.recluster_percent;
        if percent == 0 || self.drift < Self::MIN_RECLUSTER_DRIFT {
            return;
        }
        if self.drift * 100 >= percent * self.len().max(1) {
            self.recluster();
        }
    }

    /// Rebuilds centroids and per-cluster shards from scratch over `rows`
    /// (clean packed words), in order; resets drift.
    fn rebuild_from(&mut self, rows: Rows) {
        let dim = self.clusters.dim();
        let wpr = self.clusters.words_per_row();
        let Rows { labels, words } = rows;
        let n = labels.len();
        debug_assert_eq!(words.len(), n * wpr);
        if n == 0 {
            self.centroids = vec![0u64; wpr];
            self.clusters
                .replace_shards(vec![PackedClassMemory::new(dim)]);
            self.drift = 0;
            return;
        }
        let k = match self.config.clusters {
            0 => (n as f64).sqrt().ceil() as usize,
            k => k,
        }
        .clamp(1, n);

        let row = |i: usize| &words[i * wpr..(i + 1) * wpr];

        // k-means++ initialisation from the seeded SplitMix64 stream: the
        // first centroid uniform, each next drawn with probability
        // proportional to its squared distance to the chosen set.
        let mut state = self.config.seed;
        let mut centroids: Vec<u64> = Vec::with_capacity(k * wpr);
        let first = (splitmix64(&mut state) % n as u64) as usize;
        centroids.extend_from_slice(row(first));
        let mut best_d: Vec<u64> = (0..n).map(|i| hamming(row(i), row(first))).collect();
        for c in 1..k {
            let total: u128 = best_d.iter().map(|&d| u128::from(d) * u128::from(d)).sum();
            let pick = if total == 0 {
                // Every remaining point coincides with a centroid; spread
                // deterministically instead of dividing by zero.
                c % n
            } else {
                let r = u128::from(splitmix64(&mut state)) % total;
                let mut acc = 0u128;
                let mut pick = n - 1;
                for (i, &d) in best_d.iter().enumerate() {
                    acc += u128::from(d) * u128::from(d);
                    if acc > r {
                        pick = i;
                        break;
                    }
                }
                pick
            };
            centroids.extend_from_slice(row(pick));
            for (i, d) in best_d.iter_mut().enumerate() {
                let h = hamming(row(i), row(pick));
                if h < *d {
                    *d = h;
                }
            }
        }

        // Lloyd refinement: assign (parallel across rows, ties to the
        // lowest cluster), re-binarise centroids as per-bit majority signs
        // (exact-half ties to +1/clear, empty clusters keep their centroid),
        // stop on a fixed point. The final assignment is always consistent
        // with the stored centroids.
        let assign_pass = |centroids: &[u64]| -> Vec<u32> {
            self.clusters
                .pool()
                .map_chunks(n, |range| {
                    range
                        .map(|i| {
                            let mut best = 0u32;
                            let mut best_h = u64::MAX;
                            for c in 0..k {
                                let h = hamming(&centroids[c * wpr..(c + 1) * wpr], row(i));
                                if h < best_h {
                                    best = c as u32;
                                    best_h = h;
                                }
                            }
                            best
                        })
                        .collect::<Vec<_>>()
                })
                .into_iter()
                .flatten()
                .collect()
        };
        let mut assign = assign_pass(&centroids);
        for _ in 0..self.config.kmeans_iters.max(1) {
            let members: Vec<Vec<usize>> = {
                let mut m = vec![Vec::new(); k];
                for (i, &a) in assign.iter().enumerate() {
                    m[a as usize].push(i);
                }
                m
            };
            let updated: Vec<Vec<u64>> = self
                .clusters
                .pool()
                .map_chunks(k, |range| {
                    range
                        .map(|c| {
                            if members[c].is_empty() {
                                return centroids[c * wpr..(c + 1) * wpr].to_vec();
                            }
                            let mut counts = vec![0u32; dim];
                            for &i in &members[c] {
                                for (w, &word) in row(i).iter().enumerate() {
                                    let mut bits = word;
                                    while bits != 0 {
                                        let b = bits.trailing_zeros() as usize;
                                        counts[w * 64 + b] += 1;
                                        bits &= bits - 1;
                                    }
                                }
                            }
                            let half = members[c].len() as u32;
                            let mut centroid = vec![0u64; wpr];
                            for (bit, &count) in counts.iter().enumerate() {
                                // Majority of set bits (-1 signs); an exact
                                // half resolves to +1, i.e. clear.
                                if 2 * count > half {
                                    centroid[bit / 64] |= 1u64 << (bit % 64);
                                }
                            }
                            centroid
                        })
                        .collect::<Vec<_>>()
                })
                .into_iter()
                .flatten()
                .collect();
            let next_centroids: Vec<u64> = updated.into_iter().flatten().collect();
            let next = assign_pass(&next_centroids);
            centroids = next_centroids;
            if next == assign {
                break;
            }
            assign = next;
        }

        // Materialise the per-cluster shards in original row order.
        let mut clusters: Vec<PackedClassMemory> =
            (0..k).map(|_| PackedClassMemory::new(dim)).collect();
        for (i, label) in labels.into_iter().enumerate() {
            clusters[assign[i] as usize].insert_packed(label, row(i));
        }
        self.centroids = centroids;
        self.clusters.replace_shards(clusters);
        self.drift = 0;
    }

    // -----------------------------------------------------------------
    // Lookup
    // -----------------------------------------------------------------

    /// The clusters a lookup for `query` visits, in probe-rank order
    /// (`(centroid hamming, cluster index)` ascending). Exhaustive probing
    /// returns every non-empty cluster; partial probing the `nprobe`
    /// nearest non-empty ones. Empty clusters are never probed.
    ///
    /// # Panics
    ///
    /// Panics if `query` is not one packed row wide.
    fn probe_clusters(&self, query: &[u64]) -> Vec<usize> {
        assert_eq!(query.len(), self.clusters.words_per_row(), "query width");
        let mut ranked: Vec<(u64, usize)> = self
            .clusters
            .shards()
            .enumerate()
            .filter(|(_, cluster)| !cluster.is_empty())
            .map(|(c, _)| (hamming(self.centroid_words(c), query), c))
            .collect();
        ranked.sort_unstable();
        if self.config.nprobe > 0 {
            ranked.truncate(self.config.nprobe);
        }
        ranked.into_iter().map(|(_, c)| c).collect()
    }

    /// Number of classes a lookup for `query` re-ranks exactly — the
    /// numerator of the candidate-fraction statistic `serve_sim` reports.
    ///
    /// # Panics
    ///
    /// Panics if `query` is not one packed row wide.
    pub fn candidate_classes(&self, query: &[u64]) -> usize {
        self.probe_clusters(query)
            .into_iter()
            .map(|c| self.clusters.shard(c).len())
            .sum()
    }

    /// The `k` most similar classes among the probed clusters, most similar
    /// first, exactly re-ranked on `(hamming, label)`. With exhaustive
    /// probing this is bit-identical to [`PackedClassMemory::top_k`]
    /// (`min(k, stored)` entries, `k == 0` empty); with partial probing it
    /// returns `min(k, candidates)` entries.
    ///
    /// # Panics
    ///
    /// Panics if `query` is not one packed row wide.
    pub fn top_k(&self, query: &[u64], k: usize) -> Vec<(&str, f32)> {
        self.clusters
            .top_k_among(query, k, self.probe_clusters(query))
    }

    /// The top-k classes of every query in the batch, parallelised across
    /// queries; same ordering and truncation behaviour as
    /// [`RoutedClassMemory::top_k`].
    ///
    /// # Panics
    ///
    /// Panics if `batch.dim()` is not the memory's dimensionality.
    pub fn topk_batch(&self, batch: &PackedQueryBatch, k: usize) -> Vec<Vec<(&str, f32)>> {
        self.clusters
            .topk_batch_among(batch, k, |query| self.probe_clusters(query))
    }
}

/// Serializes the full deterministic structure — configuration, centroids,
/// per-cluster contents, and the drift counter — so an imported memory not
/// only scores bit-identically but also routes and re-clusters every
/// subsequent mutation exactly as the original would (the serve-layer
/// crash-recovery property).
impl Serialize for RoutedClassMemory {
    fn write_json(&self, out: &mut String) {
        let mut object = json::Object::new(out);
        object
            .field("dim", &self.clusters.dim())
            .field("clusters_config", &self.config.clusters)
            .field("nprobe", &self.config.nprobe)
            .field("seed", &self.config.seed)
            .field("kmeans_iters", &self.config.kmeans_iters)
            .field("recluster_percent", &self.config.recluster_percent)
            .field("drift", &self.drift)
            .field("centroids", &self.centroids)
            .field("clusters", &self.clusters.shards().collect::<Vec<_>>());
        object.end();
    }
}

/// Hand-written so the cluster list gets the shared part checks (a
/// positive `dim`, at least one cluster, every cluster at `dim`, no label
/// stored twice) and the centroids are checked against it: one clean
/// (tail-masked) row per cluster. The scoring pool is rebuilt auto-sized.
impl Deserialize for RoutedClassMemory {
    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, json::Error> {
        const TYPE: &str = "RoutedClassMemory";
        let (mut dim, mut clusters, mut drift, mut centroids) = (None, None, None, None);
        let (mut count, mut nprobe, mut seed, mut iters, mut percent) =
            (None, None, None, None, None);
        r.begin_object().map_err(|e| e.in_field(TYPE))?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "dim" => r.field(&mut dim, "dim")?,
                "clusters_config" => r.field(&mut count, "clusters_config")?,
                "nprobe" => r.field(&mut nprobe, "nprobe")?,
                "seed" => r.field(&mut seed, "seed")?,
                "kmeans_iters" => r.field(&mut iters, "kmeans_iters")?,
                "recluster_percent" => r.field(&mut percent, "recluster_percent")?,
                "drift" => r.field(&mut drift, "drift")?,
                "centroids" => r.field(&mut centroids, "centroids")?,
                "clusters" => r.field(&mut clusters, "clusters")?,
                _ => r.skip()?,
            }
        }
        let clusters = ShardedClassMemory::from_parts(
            de::required(dim, "dim", TYPE)?,
            de::required(clusters, "clusters", TYPE)?,
            "clusters",
            TYPE,
        )?;
        let config = RoutedConfig {
            clusters: de::required(count, "clusters_config", TYPE)?,
            nprobe: de::required(nprobe, "nprobe", TYPE)?,
            seed: de::required(seed, "seed", TYPE)?,
            kmeans_iters: de::required(iters, "kmeans_iters", TYPE)?,
            recluster_percent: de::required(percent, "recluster_percent", TYPE)?,
        };
        let drift: usize = de::required(drift, "drift", TYPE)?;
        let centroids: Vec<u64> = de::required(centroids, "centroids", TYPE)?;
        let type_err = |msg: String| json::Error::from(DeError::new(msg).in_field(TYPE));
        let dim = clusters.dim();
        let wpr = words_per_row(dim);
        if centroids.len() != clusters.num_shards() * wpr {
            return Err(type_err(format!(
                "{} centroid words do not match {} clusters of {wpr} words",
                centroids.len(),
                clusters.num_shards()
            )));
        }
        let rem = dim % 64;
        if rem != 0 {
            for (c, chunk) in centroids.chunks_exact(wpr).enumerate() {
                if chunk[wpr - 1] >> rem != 0 {
                    return Err(type_err(format!(
                        "centroid {c} has set bits beyond the declared dimensionality"
                    )));
                }
            }
        }
        Ok(Self {
            config,
            centroids,
            clusters,
            drift,
        })
    }
}

/// The one stored form of a class set: a sharded memory, or a routed index
/// whose clusters are its sharded memory ([`RoutedClassMemory::as_sharded`]).
/// A serving snapshot scores queries through one, and a compaction base
/// records it as it is.
#[derive(Debug, Clone, PartialEq)]
pub enum ClassIndex {
    /// The sharded class memory.
    Sharded(ShardedClassMemory),
    /// The routed coarse-to-fine index, exactly: cluster assignment,
    /// centroids and drift counter.
    Routed(RoutedClassMemory),
}

impl ClassIndex {
    /// The index over `memory`: the memory as is, or with `routed` the
    /// canonical routed build over it — its classes in its own label order,
    /// clustered once ([`RoutedClassMemory::from_sharded`], on the memory's
    /// pool width). A pure function of the memory's contents, shard layout
    /// and `routed`.
    pub fn new(memory: ShardedClassMemory, routed: Option<RoutedConfig>) -> Self {
        match routed {
            None => ClassIndex::Sharded(memory),
            Some(config) => ClassIndex::Routed(RoutedClassMemory::from_sharded(&memory, config)),
        }
    }

    /// The index's classes as a sharded memory.
    pub fn memory(&self) -> &ShardedClassMemory {
        match self {
            ClassIndex::Sharded(memory) => memory,
            ClassIndex::Routed(routed) => routed.as_sharded(),
        }
    }

    /// Inserts or replaces a class from a packed word row: on the
    /// least-loaded shard, or in the nearest centroid's cluster. Returns the
    /// shard or cluster and whether a stored class was replaced.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` is not the memory's packed row width.
    pub fn add_class_packed(&mut self, label: impl Into<Arc<str>>, words: &[u64]) -> (usize, bool) {
        match self {
            ClassIndex::Sharded(memory) => memory.add_class_packed(label, words),
            ClassIndex::Routed(routed) => routed.add_class_packed(label, words),
        }
    }

    /// Removes the class stored under `label`. Returns `false` if the label
    /// is not stored.
    pub fn remove_class(&mut self, label: &str) -> bool {
        match self {
            ClassIndex::Sharded(memory) => memory.remove_class(label),
            ClassIndex::Routed(routed) => routed.remove_class(label),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::lcg_signs;
    use serde::Value;

    fn fixture(
        dim: usize,
        classes: usize,
        config: RoutedConfig,
    ) -> (RoutedClassMemory, PackedClassMemory, Vec<Vec<i8>>) {
        let mut state = 0xfeed_5eedu64;
        let mut mono = PackedClassMemory::new(dim);
        let protos: Vec<Vec<i8>> = (0..classes)
            .map(|c| {
                let row = lcg_signs(&mut state, dim);
                mono.insert_signs(format!("class{c:03}"), &row);
                row
            })
            .collect();
        let routed = RoutedClassMemory::from_packed(&mono, config);
        (routed, mono, protos)
    }

    /// The build itself runs on the source memory's pool, so a capped
    /// memory never fans its k-means out wider than its cap.
    #[test]
    fn from_sharded_keeps_the_source_pool_width() {
        let (_, mono, _) = fixture(64, 20, RoutedConfig::default());
        for threads in [1, 3] {
            let memory = ShardedClassMemory::from_packed(&mono, 2).with_threads(threads);
            let routed = RoutedClassMemory::from_sharded(&memory, RoutedConfig::default());
            assert_eq!(routed.as_sharded().threads(), threads);
            assert_eq!(routed.len(), 20);
        }
    }

    #[test]
    fn full_probe_lookups_match_monolithic_bit_for_bit() {
        let dim = 130; // ragged on purpose
        let config = RoutedConfig {
            clusters: 4,
            ..RoutedConfig::default()
        };
        let (routed, mono, _) = fixture(dim, 23, config);
        assert_eq!(routed.len(), 23);
        assert!(routed.probes_exhaustively());
        let mut state = 3u64;
        for _ in 0..8 {
            let query = pack_signs(&lcg_signs(&mut state, dim));
            for k in [0usize, 1, 7, 23, 50] {
                let r: Vec<(&str, u32)> = routed
                    .top_k(&query, k)
                    .into_iter()
                    .map(|(l, s)| (l, s.to_bits()))
                    .collect();
                let m: Vec<(&str, u32)> = mono
                    .top_k(&query, k)
                    .into_iter()
                    .map(|(i, s)| (mono.label(i), s.to_bits()))
                    .collect();
                assert_eq!(r, m, "k={k}");
            }
        }
    }

    #[test]
    fn clustered_data_routes_to_few_candidates() {
        // Three well-separated centers with small per-class perturbations:
        // nprobe=1 should shortlist roughly a third of the classes and
        // still find the true nearest for unperturbed center queries.
        let dim = 256;
        let mut state = 7u64;
        let centers: Vec<Vec<i8>> = (0..3).map(|_| lcg_signs(&mut state, dim)).collect();
        let mut mono = PackedClassMemory::new(dim);
        for c in 0..30usize {
            let mut row = centers[c % 3].clone();
            // flip a handful of positions, distinct per class
            for f in 0..5 {
                let at = (c * 31 + f * 17) % dim;
                row[at] = -row[at];
            }
            mono.insert_signs(format!("class{c:03}"), &row);
        }
        let mut routed = RoutedClassMemory::from_packed(
            &mono,
            RoutedConfig {
                clusters: 3,
                ..RoutedConfig::default()
            },
        );
        routed.set_nprobe(1);
        assert!(!routed.probes_exhaustively());
        for (i, center) in centers.iter().enumerate() {
            let query = pack_signs(center);
            let candidates = routed.candidate_classes(&query);
            assert!(
                candidates < 30,
                "center {i}: probing all {candidates} classes is not sub-linear"
            );
            let label = routed.top_k(&query, 1)[0].0;
            let mono_index = mono.top_k(&query, 1)[0].0;
            assert_eq!(label, mono.label(mono_index), "center {i}");
        }
    }

    #[test]
    fn mutations_route_and_drift_deterministically() {
        let dim = 64;
        let config = RoutedConfig {
            clusters: 2,
            recluster_percent: 0, // isolate routing from re-clustering
            ..RoutedConfig::default()
        };
        let (mut routed, _, protos) = fixture(dim, 10, config);
        assert_eq!(routed.drift, 0);
        let twin = routed.clone();
        let (cluster_a, replaced) = routed.add_class("newcomer", &protos[0]);
        assert!(!replaced);
        assert_eq!(routed.drift, 1);
        // COW: only the destination cluster was deep-copied.
        let clusters = routed.as_sharded().num_shards();
        let shared = (0..clusters)
            .filter(|&c| std::ptr::eq(routed.clusters.shard(c), twin.clusters.shard(c)))
            .count();
        assert_eq!(shared, clusters - 1);
        // The clone routes identically.
        let mut twin = twin;
        let (cluster_b, _) = twin.add_class("newcomer", &protos[0]);
        assert_eq!(cluster_a, cluster_b);
        assert_eq!(routed, twin);
        // update re-routes, remove splices.
        assert!(routed.update_class("newcomer", &protos[5]));
        assert!(!routed.update_class("ghost", &protos[5]));
        assert!(routed.remove_class("newcomer"));
        assert!(!routed.remove_class("newcomer"));
        assert_eq!(routed.len(), 10);
    }

    #[test]
    fn recluster_fires_on_drift_and_preserves_results() {
        let dim = 96;
        let config = RoutedConfig {
            clusters: 3,
            recluster_percent: 50,
            ..RoutedConfig::default()
        };
        let (mut routed, mut mono, _) = fixture(dim, 20, config);
        let mut state = 11u64;
        // Additions grow the class count alongside drift, so cross the 50%
        // threshold with in-place updates (constant class count).
        for c in 0..4 {
            let row = lcg_signs(&mut state, dim);
            routed.add_class(format!("extra{c:02}"), &row);
            mono.insert_signs(format!("extra{c:02}"), &row);
        }
        for c in 0..12 {
            let row = lcg_signs(&mut state, dim);
            routed.update_class(&format!("class{c:03}"), &row);
            mono.insert_signs(format!("class{c:03}"), &row);
        }
        assert!(
            routed.drift < 12,
            "drift must reset when re-clustering fires"
        );
        let query = pack_signs(&lcg_signs(&mut state, dim));
        let r: Vec<(&str, u32)> = routed
            .top_k(&query, 32)
            .into_iter()
            .map(|(l, s)| (l, s.to_bits()))
            .collect();
        let m: Vec<(&str, u32)> = mono
            .top_k(&query, 32)
            .into_iter()
            .map(|(i, s)| (mono.label(i), s.to_bits()))
            .collect();
        assert_eq!(r, m);
    }

    #[test]
    fn empty_memory_lookups() {
        let memory = RoutedClassMemory::new(32, RoutedConfig::default());
        let query = vec![0u64; 1];
        assert!(memory.is_empty());
        assert!(memory.top_k(&query, 3).is_empty());
        assert!(memory.probe_clusters(&query).is_empty());
        assert_eq!(memory.candidate_classes(&query), 0);
        assert_eq!(memory.live_clusters(), 0);
        assert!(memory.clusters.locate("nothing").is_none());
        assert!(memory.class_words("nothing").is_none());
        let empty = PackedQueryBatch::new(32);
        assert!(memory.topk_batch(&empty, 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "dimensionality must be positive")]
    fn zero_dim_rejected() {
        let _ = RoutedClassMemory::new(0, RoutedConfig::default());
    }

    /// Same seed, same insertion order ⇒ same clustering, even via
    /// different construction paths of the same rows.
    #[test]
    fn clustering_is_seed_deterministic() {
        let dim = 100;
        let config = RoutedConfig {
            clusters: 4,
            seed: 42,
            ..RoutedConfig::default()
        };
        let (a, mono, _) = fixture(dim, 15, config);
        let b = RoutedClassMemory::from_packed(&mono, config);
        assert_eq!(a, b);
        let different_seed =
            RoutedClassMemory::from_packed(&mono, RoutedConfig { seed: 43, ..config });
        // A different seed is allowed to (and here does) produce a
        // different structure; results at full probe stay identical.
        let query = pack_signs(&lcg_signs(&mut 9u64, dim));
        assert_eq!(a.top_k(&query, 15), different_seed.top_k(&query, 15));
    }

    /// Export → import round-trips the exact structure: equal memories,
    /// identical lookups, identical routing of the next mutation.
    #[test]
    fn serde_round_trip_preserves_structure_and_routing() {
        let dim = 70; // ragged tail on purpose
        let config = RoutedConfig {
            clusters: 3,
            recluster_percent: 0,
            ..RoutedConfig::default()
        };
        let (mut memory, _, protos) = fixture(dim, 9, config);
        memory.remove_class("class004");
        let json = serde_json::to_string_pretty(&memory).expect("serializes");
        let mut imported: RoutedClassMemory = serde_json::from_str(&json).expect("imports");
        assert_eq!(imported, memory);
        assert_eq!(imported.drift, memory.drift);
        let query = pack_signs(&protos[2]);
        assert_eq!(imported.top_k(&query, 9), memory.top_k(&query, 9));
        let (cluster_a, _) = memory.add_class("next", &protos[0]);
        let (cluster_b, _) = imported.add_class("next", &protos[0]);
        assert_eq!(cluster_a, cluster_b, "routing must survive the round trip");
        assert_eq!(memory, imported);
    }

    /// The writer emits the layout fixed before it, key by key, for a
    /// ragged dimension, a seed past 2^53 and an emptied cluster.
    #[test]
    fn writer_matches_the_value_rendering() {
        let config = RoutedConfig {
            clusters: 3,
            seed: u64::MAX,
            ..RoutedConfig::default()
        };
        let (memory, _, _) = fixture(70, 9, config);
        let mut emptied = memory.clone();
        let cluster: Vec<String> = emptied
            .clusters
            .shard(0)
            .labels()
            .map(String::from)
            .collect();
        for label in &cluster {
            emptied.remove_class(label);
        }
        assert!(emptied.clusters.shard(0).is_empty());
        for memory in [memory, emptied] {
            let text = serde_json::to_string(&memory).expect("writes");
            let clusters: Vec<String> = memory
                .clusters
                .shards()
                .map(|cluster| serde_json::to_string(cluster).expect("writes"))
                .collect();
            let expected = format!(
                r#"{{"dim":70,"clusters_config":3,"nprobe":{},"seed":"18446744073709551615","kmeans_iters":{},"recluster_percent":{},"drift":{},"centroids":{},"clusters":[{}]}}"#,
                memory.config.nprobe,
                memory.config.kmeans_iters,
                memory.config.recluster_percent,
                memory.drift,
                serde_json::to_string(&memory.centroids).expect("writes"),
                clusters.join(",")
            );
            assert_eq!(text, expected);
        }
    }

    #[test]
    fn serde_import_rejects_malformed_documents() {
        let (memory, _, _) = fixture(64, 6, RoutedConfig::default());
        let good = serde_json::to_string_pretty(&memory).expect("serializes");

        let bad_dim = good.replacen("\"dim\": 64", "\"dim\": 65", 1);
        assert!(serde_json::from_str::<RoutedClassMemory>(&bad_dim).is_err());

        let no_clusters = "{\"dim\": 64, \"clusters_config\": 0, \"nprobe\": 0, \"seed\": 1, \
                           \"kmeans_iters\": 4, \"recluster_percent\": 50, \"drift\": 0, \
                           \"centroids\": [], \"clusters\": []}";
        assert!(serde_json::from_str::<RoutedClassMemory>(no_clusters).is_err());

        // The same label in two clusters (cluster 0 duplicated wholesale,
        // with a centroid row each so the count check passes), and twice
        // inside one cluster.
        let cluster0 = serde_json::to_string(memory.clusters.shard(0)).expect("serializes");
        let twice =
            "{\"dim\": 64, \"words_per_row\": 1, \"labels\": [\"a\", \"a\"], \"words\": [1, 2]}";
        for (centroids, clusters) in [
            ("0, 0", format!("{cluster0}, {cluster0}")),
            ("0", twice.to_string()),
        ] {
            let doc = format!(
                "{{\"dim\": 64, \"clusters_config\": 0, \"nprobe\": 0, \"seed\": 1, \
                 \"kmeans_iters\": 4, \"recluster_percent\": 50, \"drift\": 0, \
                 \"centroids\": [{centroids}], \"clusters\": [{clusters}]}}"
            );
            let err = serde_json::from_str::<RoutedClassMemory>(&doc).expect_err("duplicate");
            assert!(err.to_string().contains("stored"), "{err}");
        }

        // Centroid smuggling tail bits past dim.
        let ragged = fixture(70, 4, RoutedConfig::default()).0;
        let smuggled = match serde_json::to_value(&ragged) {
            Value::Object(mut entries) => {
                for (key, v) in &mut entries {
                    if key == "centroids" {
                        if let Value::Array(words) = v {
                            let last = words.len() - 1;
                            words[last] = Value::String(u64::MAX.to_string());
                        }
                    }
                }
                Value::Object(entries)
            }
            _ => unreachable!(),
        };
        let text = serde_json::to_string(&ragged).expect("writes");
        assert!(serde_json::from_str::<RoutedClassMemory>(&text).is_ok());
        let text = serde_json::to_string(&smuggled).expect("writes");
        let err = serde_json::from_str::<RoutedClassMemory>(&text).expect_err("smuggled");
        assert!(err.to_string().contains("beyond"), "{err}");
    }
}
