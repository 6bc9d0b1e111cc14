//! Stationary codebooks of atomic hypervectors.
//!
//! The paper stores two small codebooks — attribute *groups* (`G = 28`) and
//! attribute *values* (`V = 61`) — instead of one hypervector per
//! group/value combination (`α = 312`), a 71% memory reduction (§III-A).
//! [`CodebookMemory`] reproduces that accounting.

use crate::{BipolarHypervector, HdcConfig, HdcError};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// An ordered collection of atomic bipolar hypervectors indexed by symbol id.
///
/// Codebooks are *stationary*: they are randomly initialised once and never
/// trained, which is the central premise of the HDC-ZSC attribute encoder.
///
/// # Example
///
/// ```
/// use hdc::{Codebook, HdcConfig};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let groups = Codebook::random(28, &HdcConfig::new(1536), &mut rng);
/// assert_eq!(groups.len(), 28);
/// assert_eq!(groups.dim(), 1536);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Codebook {
    dim: usize,
    entries: Vec<BipolarHypervector>,
}

impl Codebook {
    /// Generates `n` random atomic hypervectors of the configured
    /// dimensionality (Rademacher-distributed, as in the paper).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn random<R: Rng + ?Sized>(n: usize, config: &HdcConfig, rng: &mut R) -> Self {
        assert!(n > 0, "a codebook needs at least one entry");
        Self {
            dim: config.dim(),
            entries: (0..n)
                .map(|_| BipolarHypervector::random(config.dim(), rng))
                .collect(),
        }
    }

    /// Builds a codebook from existing hypervectors.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty or the dimensionalities differ.
    pub fn from_entries(entries: Vec<BipolarHypervector>) -> Self {
        assert!(!entries.is_empty(), "a codebook needs at least one entry");
        let dim = entries[0].dim();
        assert!(
            entries.iter().all(|hv| hv.dim() == dim),
            "codebook entries must share dimensionality"
        );
        Self { dim, entries }
    }

    /// Number of atomic hypervectors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the codebook has no entries (never true for
    /// constructed codebooks).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Dimensionality of the stored hypervectors.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrows the hypervector for symbol `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn get(&self, index: usize) -> &BipolarHypervector {
        &self.entries[index]
    }

    /// Checked variant of [`Codebook::get`].
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::IndexOutOfRange`] if `index >= self.len()`.
    pub(crate) fn try_get(&self, index: usize) -> Result<&BipolarHypervector, HdcError> {
        self.entries.get(index).ok_or(HdcError::IndexOutOfRange {
            index,
            len: self.entries.len(),
        })
    }

    /// Iterates over the stored hypervectors in symbol order.
    pub fn iter(&self) -> std::slice::Iter<'_, BipolarHypervector> {
        self.entries.iter()
    }

    /// Binds entry `left` of this codebook with entry `right` of `other`,
    /// materialising a compound codevector on the fly — exactly how the
    /// paper's attribute dictionary rows `bₓ = g_y ⊙ v_z` are produced.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::IndexOutOfRange`] if either index is out of range
    /// or [`HdcError::DimensionMismatch`] if the codebooks differ in
    /// dimensionality.
    pub fn bind_with(
        &self,
        left: usize,
        other: &Codebook,
        right: usize,
    ) -> Result<BipolarHypervector, HdcError> {
        let a = self.try_get(left)?;
        let b = other.try_get(right)?;
        a.try_bind(b)
    }

    /// Mean absolute pairwise cosine similarity between distinct entries — a
    /// measure of quasi-orthogonality (should be ≈ `sqrt(2/(π·d))`).
    pub fn mean_abs_cross_similarity(&self) -> f32 {
        let n = self.entries.len();
        if n < 2 {
            return 0.0;
        }
        let mut acc = 0.0f32;
        let mut count = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                acc += self.entries[i].cosine(&self.entries[j]).abs();
                count += 1;
            }
        }
        acc / count as f32
    }
}

impl<'a> IntoIterator for &'a Codebook {
    type Item = &'a BipolarHypervector;
    type IntoIter = std::slice::Iter<'a, BipolarHypervector>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

/// Memory accounting for the factored group/value codebook scheme of §III-A.
///
/// The paper reports that storing `G + V = 89` atomic hypervectors instead of
/// `α = 312` attribute-level hypervectors yields a 71% memory reduction and
/// about 17 KB of total codebook storage at `d = 1536`.
///
/// # Example
///
/// ```
/// use hdc::CodebookMemory;
///
/// let mem = CodebookMemory::new(28, 61, 312, 1536);
/// assert!((mem.reduction_fraction() - 0.7147).abs() < 0.01);
/// assert!(mem.factored_bytes() < 18 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CodebookMemory {
    groups: usize,
    values: usize,
    attributes: usize,
    dim: usize,
}

impl CodebookMemory {
    /// Creates a memory model for `groups` group hypervectors, `values` value
    /// hypervectors, `attributes` group/value combinations and dimensionality
    /// `dim`.
    pub fn new(groups: usize, values: usize, attributes: usize, dim: usize) -> Self {
        Self {
            groups,
            values,
            attributes,
            dim,
        }
    }

    /// The CUB-200 configuration used throughout the paper
    /// (`G = 28`, `V = 61`, `α = 312`, `d = 1536`).
    pub fn cub200_default() -> Self {
        Self::new(28, 61, 312, 1536)
    }

    /// Bytes needed to store one packed binary hypervector.
    fn hv_bytes(&self) -> usize {
        self.dim.div_ceil(8)
    }

    /// Bytes needed by the factored scheme (group + value codebooks).
    pub fn factored_bytes(&self) -> usize {
        (self.groups + self.values) * self.hv_bytes()
    }

    /// Bytes needed by the naive scheme (one hypervector per attribute).
    pub fn naive_bytes(&self) -> usize {
        self.attributes * self.hv_bytes()
    }

    /// Fractional memory reduction of the factored scheme,
    /// `1 − (G+V)/α` (≈ 0.71 for CUB-200).
    pub fn reduction_fraction(&self) -> f32 {
        1.0 - (self.groups + self.values) as f32 / self.attributes as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_codebook_properties() {
        let mut rng = StdRng::seed_from_u64(1);
        let cb = Codebook::random(28, &HdcConfig::new(2048), &mut rng);
        assert_eq!(cb.len(), 28);
        assert_eq!(cb.dim(), 2048);
        assert!(!cb.is_empty());
        assert_eq!(cb.iter().count(), 28);
        assert_eq!((&cb).into_iter().count(), 28);
    }

    #[test]
    fn codebook_entries_are_quasi_orthogonal() {
        let mut rng = StdRng::seed_from_u64(2);
        let cb = Codebook::random(30, &HdcConfig::new(4096), &mut rng);
        let mean_sim = cb.mean_abs_cross_similarity();
        assert!(mean_sim < 0.05, "mean |cos| was {mean_sim}");
    }

    #[test]
    fn try_get_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let cb = Codebook::random(3, &HdcConfig::new(64), &mut rng);
        assert!(cb.try_get(2).is_ok());
        assert!(matches!(
            cb.try_get(3),
            Err(HdcError::IndexOutOfRange { index: 3, len: 3 })
        ));
    }

    #[test]
    fn bind_with_materialises_attribute_vector() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = HdcConfig::new(2048);
        let groups = Codebook::random(5, &cfg, &mut rng);
        let values = Codebook::random(7, &cfg, &mut rng);
        let bound = groups.bind_with(2, &values, 6).expect("valid indices");
        assert_eq!(bound, groups.get(2).bind(values.get(6)));
        assert!(groups.bind_with(9, &values, 0).is_err());
        assert!(groups.bind_with(0, &values, 9).is_err());
    }

    #[test]
    fn bind_with_rejects_dimension_mismatch() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = Codebook::random(2, &HdcConfig::new(64), &mut rng);
        let b = Codebook::random(2, &HdcConfig::new(128), &mut rng);
        assert!(a.bind_with(0, &b, 0).is_err());
    }

    #[test]
    fn from_entries_validates_dims() {
        let entries = vec![BipolarHypervector::ones(16), BipolarHypervector::ones(16)];
        let cb = Codebook::from_entries(entries);
        assert_eq!(cb.dim(), 16);
    }

    #[test]
    #[should_panic(expected = "share dimensionality")]
    fn from_entries_rejects_mixed_dims() {
        let _ = Codebook::from_entries(vec![
            BipolarHypervector::ones(16),
            BipolarHypervector::ones(32),
        ]);
    }

    #[test]
    fn memory_reduction_matches_paper_claim() {
        let mem = CodebookMemory::cub200_default();
        // Paper: "71% reduction in memory requirement".
        assert!((mem.reduction_fraction() - 0.71).abs() < 0.01);
        // Paper: "just 17 KB of memory for storing the atomic hypervectors".
        let kb = mem.factored_bytes() as f32 / 1024.0;
        assert!(kb > 16.0 && kb < 18.0, "factored codebooks were {kb} KB");
        assert!(mem.naive_bytes() > mem.factored_bytes());
    }

    #[test]
    fn single_entry_codebook_similarity_zero() {
        let mut rng = StdRng::seed_from_u64(7);
        let cb = Codebook::random(1, &HdcConfig::new(64), &mut rng);
        assert_eq!(cb.mean_abs_cross_similarity(), 0.0);
    }
}
