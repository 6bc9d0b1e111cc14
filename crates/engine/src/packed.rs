//! Packed class memory: all prototype hypervectors in one contiguous `u64`
//! word-matrix, scored with a per-row Hamming (XOR-popcount) scan.
//!
//! # Layout and sign convention
//!
//! Row `r` of the memory occupies `words[r*wpr .. (r+1)*wpr]` where
//! `wpr = dim.div_ceil(64)`; bit `i` of a row lives at word `i / 64`, bit
//! position `i % 64`, and unused tail bits are kept at zero. A set bit
//! encodes a bipolar `-1`, a clear bit a `+1`, so packing is lossless for
//! ±1 data. This is the workspace's only bit-packed hypervector form; `hdc`
//! keeps the bipolar `i8` one.
//!
//! # Exactness
//!
//! For bipolar vectors the cosine is `dot / dim` with
//! `dot = dim − 2·hamming`, an integer of magnitude ≤ `dim`. The engine
//! computes exactly that expression, so its `f32` similarities are
//! **bit-identical** to the scalar `i8` dot-product path for every
//! `dim < 2^24`, and ties can be resolved on the integer Hamming distance
//! with no float comparisons.

use serde::{de, json, DeError, Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;
use tensor::Matrix;

/// Number of `u64` words needed for one `dim`-bit row.
#[inline]
pub fn words_per_row(dim: usize) -> usize {
    dim.div_ceil(64)
}

/// Packs bipolar signs (`-1` → set bit, `+1` → clear bit) into `words`.
///
/// # Panics
///
/// Panics if `words.len() != words_per_row(signs.len())` or a sign is not
/// `±1`.
pub fn pack_signs_into(signs: &[i8], words: &mut [u64]) {
    assert_eq!(
        words.len(),
        words_per_row(signs.len()),
        "word buffer does not match the sign count"
    );
    words.fill(0);
    for (i, &s) in signs.iter().enumerate() {
        assert!(s == 1 || s == -1, "bipolar signs must be +1 or -1");
        // Branch-free: random signs would mispredict a branch half the time.
        words[i / 64] |= u64::from(s < 0) << (i % 64);
    }
}

/// Packs bipolar signs into a fresh word row; see [`pack_signs_into`].
///
/// # Panics
///
/// Panics if `signs` is empty.
pub fn pack_signs(signs: &[i8]) -> Vec<u64> {
    assert!(!signs.is_empty(), "cannot pack an empty sign row");
    let mut words = vec![0u64; words_per_row(signs.len())];
    pack_signs_into(signs, &mut words);
    words
}

/// Packs the *signs* of a float row (`x < 0` → set bit) into a fresh word
/// row, matching [`pack_signs`] over the row's signs with ties at exactly
/// zero resolving to `+1`, i.e. clear.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn pack_float_signs(xs: &[f32]) -> Vec<u64> {
    assert!(!xs.is_empty(), "cannot pack an empty float row");
    // A word at a time: the fold over one chunk has no indexed store, so
    // the compiler vectorizes it.
    xs.chunks(64)
        .map(|chunk| {
            chunk
                .iter()
                .enumerate()
                .fold(0, |word, (i, &x)| word | (u64::from(x < 0.0) << i))
        })
        .collect()
}

/// Clears any bits beyond `dim` in the final word of a packed row, so
/// popcount-based scores stay exact no matter where the row came from.
pub fn mask_tail_word(dim: usize, words: &mut [u64]) {
    let rem = dim % 64;
    if rem != 0 {
        if let Some(last) = words.last_mut() {
            *last &= (1u64 << rem) - 1;
        }
    }
}

/// The exact bipolar cosine for a `dim`-bit pair at Hamming distance
/// `hamming`: `(dim − 2·hamming) / dim`, evaluated so it is bit-identical to
/// the scalar `dot as f32 / dim as f32` path.
#[inline]
pub fn similarity_from_hamming(dim: usize, hamming: u64) -> f32 {
    (dim as i64 - 2 * hamming as i64) as f32 / dim as f32
}

/// Hamming distance between two packed rows of equal width.
#[inline]
pub(crate) fn hamming(a: &[u64], b: &[u64]) -> u64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| u64::from((x ^ y).count_ones()))
        .sum()
}

/// A labelled associative class memory stored as one contiguous packed word
/// matrix, scored one-vs-all with a per-row Hamming scan.
///
/// This is the single popcount kernel behind every packed lookup: each
/// shard of a [`ShardedClassMemory`](crate::ShardedClassMemory) and each
/// cluster of a [`RoutedClassMemory`](crate::RoutedClassMemory) is one.
///
/// Each label is stored once, as an `Arc<str>` that the row list and a
/// `label → row` table share, so finding a class by label is one hash probe
/// and cloning the memory (a copy-on-write shard copy) copies no label
/// bytes.
///
/// # Example
///
/// ```
/// use engine::{pack_signs, PackedClassMemory};
///
/// let mut memory = PackedClassMemory::new(4);
/// memory.insert_signs("up", &[1, 1, 1, 1]);
/// memory.insert_signs("down", &[-1, -1, -1, -1]);
/// let query = pack_signs(&[1, 1, 1, -1]);
/// let top = memory.top_k(&query, 1);
/// assert_eq!(memory.label(top[0].0), "up");
/// assert_eq!(top[0].1, 0.5);
/// assert_eq!(memory.position("down"), Some(1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct PackedClassMemory {
    dim: usize,
    words_per_row: usize,
    labels: Vec<Arc<str>>,
    /// `label → row`, holding the same `Arc`s as `labels`; every mutation
    /// keeps the two in step.
    rows: HashMap<Arc<str>, usize>,
    words: Vec<u64>,
}

/// Equality is structural — shape, labels in row order and words; the label
/// table is derived from the labels and does not participate.
impl PartialEq for PackedClassMemory {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim
            && self.words_per_row == other.words_per_row
            && self.labels == other.labels
            && self.words == other.words
    }
}

/// Serializes as `{dim, words_per_row, labels, words}`, labels as plain
/// strings in row order; the label table is rebuilt on load. Written
/// straight into the output: a compaction base holds every row.
impl Serialize for PackedClassMemory {
    fn write_json(&self, out: &mut String) {
        let mut object = json::Object::new(out);
        object
            .field("dim", &self.dim)
            .field("words_per_row", &self.words_per_row)
            .field("labels", &self.labels)
            .field("words", &self.words);
        object.end();
    }
}

/// Hand-written (instead of derived) so documents whose word matrix
/// disagrees with the declared shape — or that smuggle set bits past `dim`,
/// which would skew every popcount, or hold one label twice — are rejected
/// with a typed error. Read straight from the text: words into the word
/// matrix, labels into their shared `Arc<str>`s.
impl Deserialize for PackedClassMemory {
    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, json::Error> {
        const TYPE: &str = "PackedClassMemory";
        let (mut dim, mut wpr, mut labels, mut words) = (None, None, None, None);
        r.begin_object().map_err(|e| e.in_field(TYPE))?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "dim" => r.field(&mut dim, "dim")?,
                "words_per_row" => r.field(&mut wpr, "words_per_row")?,
                "labels" => r.field(&mut labels, "labels")?,
                "words" => r.field(&mut words, "words")?,
                _ => r.skip()?,
            }
        }
        let dim: usize = de::required(dim, "dim", TYPE)?;
        let wpr: usize = de::required(wpr, "words_per_row", TYPE)?;
        let labels: Vec<Arc<str>> = de::required(labels, "labels", TYPE)?;
        let words: Vec<u64> = de::required(words, "words", TYPE)?;
        Ok(Self::from_parts(dim, wpr, labels, words).map_err(|e| e.in_field(TYPE))?)
    }
}

impl PackedClassMemory {
    /// A memory from its decoded parts, checked: the shape, the tail bits
    /// and no label twice. Builds the label table.
    fn from_parts(
        dim: usize,
        wpr: usize,
        labels: Vec<Arc<str>>,
        words: Vec<u64>,
    ) -> Result<Self, DeError> {
        if dim == 0 && !(wpr == 0 && labels.is_empty() && words.is_empty()) {
            return Err(DeError::new("non-empty memory with zero dimensionality"));
        }
        if dim > 0 && wpr != words_per_row(dim) {
            return Err(DeError::new(format!(
                "words_per_row {wpr} does not match dimensionality {dim}"
            )));
        }
        if words.len() != labels.len() * wpr {
            return Err(DeError::new(format!(
                "{} words do not match {} rows of {wpr} words",
                words.len(),
                labels.len()
            )));
        }
        let rem = dim % 64;
        if rem != 0 && wpr > 0 {
            for (row, chunk) in words.chunks_exact(wpr).enumerate() {
                if chunk[wpr - 1] >> rem != 0 {
                    return Err(DeError::new(format!(
                        "row {row} has set bits beyond the declared dimensionality"
                    )));
                }
            }
        }
        let mut rows = HashMap::with_capacity(labels.len());
        for (row, label) in labels.iter().enumerate() {
            if rows.insert(Arc::clone(label), row).is_some() {
                return Err(DeError::new(format!("label `{label}` stored twice")));
            }
        }
        Ok(Self {
            dim,
            words_per_row: wpr,
            labels,
            rows,
            words,
        })
    }

    /// Creates an empty memory for `dim`-bit prototypes.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        Self {
            dim,
            words_per_row: words_per_row(dim),
            labels: Vec::new(),
            rows: HashMap::new(),
            words: Vec::new(),
        }
    }

    /// Builds a memory from one float row per class by taking signs
    /// (`x < 0` → `-1`); lossless for ±1 matrices such as HDC class
    /// signatures.
    ///
    /// # Panics
    ///
    /// Panics if the label count differs from the row count or the matrix
    /// has zero columns.
    pub fn from_sign_matrix<L, S>(labels: L, matrix: &Matrix) -> Self
    where
        L: IntoIterator<Item = S>,
        S: Into<Arc<str>>,
    {
        let mut memory = Self::new(matrix.cols());
        let mut count = 0;
        for (r, label) in labels.into_iter().enumerate() {
            assert!(r < matrix.rows(), "more labels than matrix rows");
            let words = pack_float_signs(matrix.row(r));
            memory.insert_packed(label, &words);
            count += 1;
        }
        assert_eq!(count, matrix.rows(), "fewer labels than matrix rows");
        memory
    }

    /// Number of stored prototypes.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` if no prototypes are stored.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Dimensionality of the stored prototypes.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Packed words per prototype row.
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The stored labels in insertion order.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.labels.iter().map(|label| &**label)
    }

    /// The label of row `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn label(&self, index: usize) -> &str {
        &self.labels[index]
    }

    /// The shared label of row `index`, for building another memory over
    /// the same classes without copying label bytes.
    pub(crate) fn label_arc(&self, index: usize) -> &Arc<str> {
        &self.labels[index]
    }

    /// Row of `label`, if stored: one probe of the label table.
    pub fn position(&self, label: &str) -> Option<usize> {
        self.rows.get(label).copied()
    }

    /// The packed words of row `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn row_words(&self, index: usize) -> &[u64] {
        assert!(index < self.len(), "row index out of range");
        &self.words[index * self.words_per_row..(index + 1) * self.words_per_row]
    }

    /// Inserts a bipolar prototype given as ±1 signs, replacing any existing
    /// prototype with the same label. Returns the row index and whether a
    /// row was replaced.
    ///
    /// # Panics
    ///
    /// Panics if `signs.len() != self.dim()`.
    pub fn insert_signs(&mut self, label: impl Into<Arc<str>>, signs: &[i8]) -> (usize, bool) {
        assert_eq!(
            signs.len(),
            self.dim,
            "prototype dimensionality must match the memory"
        );
        let words = pack_signs(signs);
        self.insert_packed(label, &words)
    }

    /// Inserts an already-packed prototype row; see
    /// [`PackedClassMemory::insert_signs`]. Bits beyond `dim` in the final
    /// word are cleared on insertion, so rows packed elsewhere cannot smuggle
    /// tail bits into the popcount (which would push similarities outside
    /// `[-1, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != self.words_per_row()` or the memory was
    /// `Default`-constructed (zero-dimensional).
    pub fn insert_packed(&mut self, label: impl Into<Arc<str>>, words: &[u64]) -> (usize, bool) {
        assert!(
            self.dim > 0,
            "use PackedClassMemory::new to construct a usable memory"
        );
        assert_eq!(
            words.len(),
            self.words_per_row,
            "packed row width must match the memory"
        );
        let label = label.into();
        let row_range = if let Some(pos) = self.position(&label) {
            self.words[pos * self.words_per_row..(pos + 1) * self.words_per_row]
                .copy_from_slice(words);
            (pos, true)
        } else {
            self.rows.insert(Arc::clone(&label), self.labels.len());
            self.labels.push(label);
            self.words.extend_from_slice(words);
            (self.labels.len() - 1, false)
        };
        let (pos, _) = row_range;
        mask_tail_word(
            self.dim,
            &mut self.words[pos * self.words_per_row..(pos + 1) * self.words_per_row],
        );
        row_range
    }

    /// Memory footprint of the packed word matrix in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    /// Hamming distance between a packed query row and stored row `index`.
    #[inline]
    fn row_hamming(&self, index: usize, query: &[u64]) -> u64 {
        hamming(self.row_words(index), query)
    }

    /// Removes the prototype stored under `label`, splicing its word row out
    /// of the packed matrix and shifting later rows down. Returns the removed
    /// row index, or `None` if the label is not stored.
    ///
    /// This repacks only *this* memory — an `O(rows · words_per_row)` move of
    /// the tail of the word matrix, which also moves each later row's
    /// table entry down by one — so a sharded memory repacks a single
    /// touched shard instead of rebuilding the world.
    pub fn remove(&mut self, label: &str) -> Option<usize> {
        let pos = self.rows.remove(label)?;
        self.labels.remove(pos);
        let wpr = self.words_per_row;
        for (row, label) in self.labels.iter().enumerate().skip(pos) {
            self.words
                .copy_within((row + 1) * wpr..(row + 2) * wpr, row * wpr);
            *self.rows.get_mut(label).expect("every row is in the table") = row;
        }
        self.words.truncate(self.labels.len() * wpr);
        Some(pos)
    }

    /// The `k` most similar stored prototypes to a packed query, most
    /// similar first; ties on similarity are ordered by label.
    ///
    /// **Truncation contract:** when `k` exceeds the number of stored
    /// prototypes the result simply contains every prototype — `min(k,
    /// self.len())` entries, never an error and never padding. `k == 0`
    /// returns an empty vector.
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != self.words_per_row()`.
    pub fn top_k(&self, query: &[u64], k: usize) -> Vec<(usize, f32)> {
        self.top_k_hamming(query, k)
            .into_iter()
            .map(|(index, hamming)| (index, similarity_from_hamming(self.dim, hamming)))
            .collect()
    }

    /// Integer-exact variant of [`PackedClassMemory::top_k`]: `(row index,
    /// Hamming distance)` candidates ordered by `(hamming, label)` ascending,
    /// truncated to `min(k, self.len())` entries. This is the primitive the
    /// sharded and routed memories merge across their shards and clusters.
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != self.words_per_row()`.
    pub fn top_k_hamming(&self, query: &[u64], k: usize) -> Vec<(usize, u64)> {
        assert_eq!(query.len(), self.words_per_row, "query width");
        // The row index only decides between equal labels, which a memory
        // built by inserts never holds; it keeps the order total, so the
        // bounded selection returns what a full stable sort would.
        let order = |a: &(usize, u64), b: &(usize, u64)| {
            a.1.cmp(&b.1)
                .then_with(|| self.labels[a.0].cmp(&self.labels[b.0]))
                .then(a.0.cmp(&b.0))
        };
        let k = k.min(self.len());
        // At most `k` slots, kept in order: a row enters only if it beats
        // the worst kept one, which for small `k` rejects nearly every row
        // with one integer compare.
        let mut best: Vec<(usize, u64)> = Vec::with_capacity(k);
        for index in 0..self.len() {
            let candidate = (index, self.row_hamming(index, query));
            if best.len() == k {
                match best.last() {
                    Some(worst) if order(&candidate, worst).is_lt() => {
                        best.pop();
                    }
                    _ => continue,
                }
            }
            let at = best.partition_point(|kept| order(kept, &candidate).is_lt());
            best.insert(at, candidate);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signs(bits: &[i8]) -> Vec<i8> {
        bits.to_vec()
    }

    #[test]
    fn packing_roundtrip_and_tail_masking() {
        let s: Vec<i8> = (0..70).map(|i| if i % 3 == 0 { -1 } else { 1 }).collect();
        let words = pack_signs(&s);
        assert_eq!(words.len(), 2);
        // Tail bits beyond 70 stay clear.
        assert_eq!(words[1] >> 6, 0);
        let ones: u32 = words.iter().map(|w| w.count_ones()).sum();
        assert_eq!(ones as usize, s.iter().filter(|&&v| v == -1).count());
    }

    #[test]
    fn float_sign_packing_matches_sign_rule() {
        let words = pack_float_signs(&[0.5, -0.1, 0.0, -7.0]);
        assert_eq!(words[0] & 0b1111, 0b1010);
    }

    /// The writer emits the layout fixed since before it existed.
    #[test]
    fn writer_matches_the_value_rendering() {
        let two_53 = 1u64 << 53;
        let mut edges = PackedClassMemory::new(64);
        edges.insert_packed("q\"b\\s\u{1}é", &[two_53 - 1]);
        edges.insert_packed("\n\t😀", &[two_53]);
        edges.insert_packed("max", &[u64::MAX]);
        let mut ragged = PackedClassMemory::new(70);
        ragged.insert_packed("a", &[0, 0b11_1111]);
        let cases = [
            (
                PackedClassMemory::new(64),
                r#"{"dim":64,"words_per_row":1,"labels":[],"words":[]}"#,
            ),
            (
                edges,
                r#"{"dim":64,"words_per_row":1,"labels":["q\"b\\s\u0001é","\n\t😀","max"],"words":[9007199254740991,"9007199254740992","18446744073709551615"]}"#,
            ),
            (
                ragged,
                r#"{"dim":70,"words_per_row":2,"labels":["a"],"words":[0,63]}"#,
            ),
        ];
        for (memory, expected) in cases {
            let text = serde_json::to_string(&memory).expect("writes");
            assert_eq!(text, expected);
        }
    }

    /// The bit-at-a-time loop the word-at-a-time packer replaced.
    fn pack_float_signs_per_bit(xs: &[f32]) -> Vec<u64> {
        let mut words = vec![0u64; words_per_row(xs.len())];
        for (i, &x) in xs.iter().enumerate() {
            words[i / 64] |= u64::from(x < 0.0) << (i % 64);
        }
        words
    }

    proptest::proptest! {
        #[test]
        fn float_sign_packing_matches_the_per_bit_loop(
            width in 1usize..300,
            seed in proptest::arbitrary::any::<u64>(),
        ) {
            const SPECIAL: [f32; 8] = [
                -0.0,
                0.0,
                f32::NAN,
                -f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                -f32::MIN_POSITIVE / 2.0,
                f32::MIN_POSITIVE / 2.0,
            ];
            let mut state = seed;
            let row: Vec<f32> = (0..width)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let bits = (state >> 32) as u32;
                    if bits.is_multiple_of(4) {
                        SPECIAL[(bits >> 8) as usize % SPECIAL.len()]
                    } else {
                        f32::from_bits(bits)
                    }
                })
                .collect();
            assert_eq!(pack_float_signs(&row), pack_float_signs_per_bit(&row));
        }
    }

    #[test]
    fn float_sign_packing_edge_values_and_widths() {
        let specials = [
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -1.0,
        ];
        for width in [6, 63, 64, 65, 127, 128, 129, 1536] {
            let row: Vec<f32> = (0..width).map(|i| specials[i % specials.len()]).collect();
            let words = pack_float_signs(&row);
            assert_eq!(words, pack_float_signs_per_bit(&row), "width {width}");
            // −0.0 and NaN are not below zero; −∞ and −1 are.
            assert_eq!(words[0] & 0b11_1111, 0b11_0000, "width {width}");
        }
    }

    #[test]
    fn similarity_is_exact_integer_cosine() {
        assert_eq!(similarity_from_hamming(4, 0), 1.0);
        assert_eq!(similarity_from_hamming(4, 2), 0.0);
        assert_eq!(similarity_from_hamming(4, 4), -1.0);
        // Matches dot/d for a dim that is not a power of two.
        let dim = 100usize;
        let h = 33u64;
        let dot = dim as i64 - 2 * h as i64;
        assert_eq!(similarity_from_hamming(dim, h), dot as f32 / dim as f32);
    }

    #[test]
    fn insert_replace_and_lookup() {
        let mut mem = PackedClassMemory::new(4);
        let (i0, replaced) = mem.insert_signs("a", &signs(&[1, 1, 1, 1]));
        assert_eq!((i0, replaced), (0, false));
        let (i1, replaced) = mem.insert_signs("b", &signs(&[-1, -1, -1, -1]));
        assert_eq!((i1, replaced), (1, false));
        let (i2, replaced) = mem.insert_signs("a", &signs(&[-1, 1, 1, 1]));
        assert_eq!((i2, replaced), (0, true));
        assert_eq!(mem.len(), 2);
        assert_eq!(mem.position("b"), Some(1));
        assert_eq!(mem.label(0), "a");
        assert_eq!(mem.row_words(0), &pack_signs(&[-1, 1, 1, 1])[..]);
        assert_eq!(mem.memory_bytes(), 16);
    }

    #[test]
    fn nearest_breaks_ties_by_label() {
        let mut mem = PackedClassMemory::new(4);
        // Two prototypes equidistant from the query, inserted in reverse
        // label order.
        mem.insert_signs("zeta", &signs(&[1, 1, -1, -1]));
        mem.insert_signs("alpha", &signs(&[-1, -1, 1, 1]));
        let query = pack_signs(&signs(&[1, -1, 1, -1]));
        // Top-1 selects the winner without sorting the rest.
        assert_eq!(mem.top_k(&query, 1), vec![(1, 0.0)]);
        let top = mem.top_k(&query, 2);
        assert_eq!(mem.label(top[0].0), "alpha");
        assert_eq!(mem.label(top[1].0), "zeta");
    }

    #[test]
    fn insert_packed_masks_smuggled_tail_bits() {
        // A dim-3 row arriving with all 64 bits set must be trimmed to the
        // 3 live bits, keeping similarities inside [-1, 1].
        let mut mem = PackedClassMemory::new(3);
        mem.insert_packed("dirty", &[u64::MAX]);
        assert_eq!(mem.row_words(0), &[0b111u64][..]);
        assert_eq!(mem.top_k(&[0u64], 1), vec![(0, -1.0)]);
        // A properly packed all-negative query matches the masked row
        // exactly (query-side masking is the packing helpers' job; see
        // `mask_tail_word` and `PackedQueryBatch::push_packed`).
        assert_eq!(mem.top_k(&pack_signs(&[-1, -1, -1]), 1), vec![(0, 1.0)]);
        let mut dirty_query = [u64::MAX];
        mask_tail_word(3, &mut dirty_query);
        assert_eq!(mem.top_k(&dirty_query, 1), vec![(0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "use PackedClassMemory::new")]
    fn default_memory_rejects_inserts() {
        let mut mem = PackedClassMemory::default();
        mem.insert_packed("a", &[]);
    }

    #[test]
    fn default_memory_lookups_are_empty_not_nan() {
        let mem = PackedClassMemory::default();
        assert!(mem.is_empty());
        assert!(mem.top_k(&[], 3).is_empty());
    }

    #[test]
    fn empty_memory_and_bounded_top_k() {
        let mem = PackedClassMemory::new(64);
        let query = vec![0u64; 1];
        assert!(mem.top_k(&query, 3).is_empty());
        assert!(mem.is_empty());
    }

    /// Pins the truncation contract: `k` past the stored prototype count
    /// returns everything (no error, no padding), and `k == 0` is empty.
    #[test]
    fn top_k_truncates_to_stored_count() {
        let mut mem = PackedClassMemory::new(8);
        mem.insert_signs("a", &[1; 8]);
        mem.insert_signs("b", &[-1; 8]);
        let query = pack_signs(&[1; 8]);
        assert_eq!(mem.top_k(&query, 100).len(), 2);
        assert_eq!(mem.top_k(&query, 2).len(), 2);
        assert_eq!(mem.top_k(&query, 1).len(), 1);
        assert!(mem.top_k(&query, 0).is_empty());
        assert_eq!(mem.top_k_hamming(&query, 100).len(), 2);
        // The oversized ask returns the same prefix ordering as the exact ask.
        assert_eq!(mem.top_k(&query, 100), mem.top_k(&query, 2));
    }

    #[test]
    fn remove_splices_row_and_keeps_lookups_exact() {
        // Ragged dim (2 words per row); distinct periods keep every row
        // unique so no cross-row ties confuse the lookups.
        let mut mem = PackedClassMemory::new(70);
        let rows: Vec<Vec<i8>> = (0..4usize)
            .map(|r| {
                (0..70)
                    .map(|i: usize| if (i + r).is_multiple_of(r + 2) { -1 } else { 1 })
                    .collect()
            })
            .collect();
        for (r, row) in rows.iter().enumerate() {
            mem.insert_signs(format!("c{r}"), row);
        }
        assert_eq!(mem.remove("c1"), Some(1));
        assert_eq!(mem.remove("c1"), None);
        assert_eq!(mem.len(), 3);
        let labels: Vec<&str> = mem.labels().collect();
        assert_eq!(labels, vec!["c0", "c2", "c3"]);
        // Later rows shifted down intact: lookups still score exactly.
        for (r, row) in rows.iter().enumerate() {
            if r == 1 {
                continue;
            }
            let top = mem.top_k(&pack_signs(row), 1);
            assert_eq!(mem.label(top[0].0), format!("c{r}"));
            assert_eq!(top[0].1, 1.0);
        }
        // Word matrix stays dense: 3 rows × 2 words.
        assert_eq!(mem.memory_bytes(), 3 * 2 * 8);
    }

    #[test]
    fn from_sign_matrix_binarizes_rows() {
        let matrix = Matrix::from_rows(&[vec![1.0, -2.0, 3.0], vec![-0.5, 0.5, -0.5]]);
        let mem = PackedClassMemory::from_sign_matrix(["p", "n"], &matrix);
        assert_eq!(mem.len(), 2);
        assert_eq!(mem.dim(), 3);
        assert_eq!(mem.row_words(0), &pack_signs(&[1, -1, 1])[..]);
        assert_eq!(mem.row_words(1), &pack_signs(&[-1, 1, -1])[..]);
    }
}
