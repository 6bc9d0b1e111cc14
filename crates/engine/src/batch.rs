//! Packed query batches: the batch input of the sharded and routed
//! memories' batched lookups.

use crate::packed::{mask_tail_word, pack_float_signs, pack_signs_into, words_per_row};
use tensor::Matrix;

/// A batch of packed query hypervectors stored contiguously, one word row
/// per query (same layout and sign convention as
/// [`PackedClassMemory`](crate::PackedClassMemory)).
///
/// # Example
///
/// ```
/// use engine::PackedQueryBatch;
///
/// let mut batch = PackedQueryBatch::new(3);
/// batch.push_signs(&[1, -1, 1]);
/// batch.push_signs(&[-1, -1, -1]);
/// assert_eq!(batch.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PackedQueryBatch {
    dim: usize,
    words_per_row: usize,
    words: Vec<u64>,
}

impl PackedQueryBatch {
    /// Creates an empty batch of `dim`-bit queries.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        Self {
            dim,
            words_per_row: words_per_row(dim),
            words: Vec::new(),
        }
    }

    /// Creates an empty batch with room for `capacity` queries.
    pub fn with_capacity(dim: usize, capacity: usize) -> Self {
        let mut batch = Self::new(dim);
        batch.words.reserve(capacity * batch.words_per_row);
        batch
    }

    /// Packs one batch row per matrix row by taking float signs (`x < 0` →
    /// `-1`); lossless for ±1 matrices.
    ///
    /// # Panics
    ///
    /// Panics if the matrix has zero columns.
    pub fn from_sign_matrix(matrix: &Matrix) -> Self {
        let mut batch = Self::with_capacity(matrix.cols(), matrix.rows());
        for r in 0..matrix.rows() {
            batch
                .words
                .extend_from_slice(&pack_float_signs(matrix.row(r)));
        }
        batch
    }

    /// Appends a bipolar query given as ±1 signs.
    ///
    /// # Panics
    ///
    /// Panics if `signs.len() != self.dim()`.
    pub fn push_signs(&mut self, signs: &[i8]) {
        assert_eq!(
            signs.len(),
            self.dim,
            "query dimensionality must match the batch"
        );
        let start = self.words.len();
        self.words.resize(start + self.words_per_row, 0);
        pack_signs_into(signs, &mut self.words[start..]);
    }

    /// Appends an already-packed query row. Bits beyond `dim` in the final
    /// word are cleared, so rows packed elsewhere cannot skew the popcount.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != self.words_per_row()`.
    pub fn push_packed(&mut self, words: &[u64]) {
        assert_eq!(
            words.len(),
            self.words_per_row,
            "packed row width must match the batch"
        );
        let start = self.words.len();
        self.words.extend_from_slice(words);
        mask_tail_word(self.dim, &mut self.words[start..]);
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        // `words_per_row` is only 0 for a `Default`-constructed batch.
        self.words
            .len()
            .checked_div(self.words_per_row)
            .unwrap_or(0)
    }

    /// Returns `true` if the batch holds no queries.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Dimensionality of the queries.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Packed words per query row.
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The packed words of query `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn row(&self, index: usize) -> &[u64] {
        assert!(index < self.len(), "query index out of range");
        &self.words[index * self.words_per_row..(index + 1) * self.words_per_row]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::{pack_signs, PackedClassMemory};

    #[test]
    fn push_packed_masks_smuggled_tail_bits() {
        let mut memory = PackedClassMemory::new(3);
        memory.insert_signs("all_neg", &[-1, -1, -1]);
        let mut batch = PackedQueryBatch::new(3);
        batch.push_packed(&[u64::MAX]);
        assert_eq!(batch.row(0), &[0b111u64][..]);
        assert_eq!(memory.top_k(batch.row(0), 1), vec![(0, 1.0)]);
    }

    #[test]
    fn batch_from_sign_matrix_packs_rows() {
        let m = Matrix::from_rows(&[vec![1.0, -1.0, 1.0], vec![-1.0, -1.0, 1.0]]);
        let batch = PackedQueryBatch::from_sign_matrix(&m);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.dim(), 3);
        assert_eq!(batch.row(0), &pack_signs(&[1, -1, 1])[..]);
        assert_eq!(batch.row(1), &pack_signs(&[-1, -1, 1])[..]);
    }
}
