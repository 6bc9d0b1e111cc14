//! Bundling (superposition) of hypervectors.
//!
//! Bundling combines a set of hypervectors into a single vector that is
//! *similar* to every input — the complementary operation to binding, which
//! produces a vector *dissimilar* to its inputs. For dense bipolar vectors
//! bundling is the elementwise sign of the sum (majority vote), with ties
//! broken by a deterministic tie-breaking hypervector so the operation stays
//! reproducible across runs.

use crate::{BipolarHypervector, HdcError};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Accumulating bundler for bipolar hypervectors.
///
/// Collects an arbitrary number of hypervectors and produces their majority
/// bundle. Intermediate sums are kept as `i32` counters, so bundling is exact
/// regardless of the number of inputs.
///
/// # Example
///
/// ```
/// use hdc::{BipolarHypervector, Bundler};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let items: Vec<_> = (0..5).map(|_| BipolarHypervector::random(4096, &mut rng)).collect();
/// let mut bundler = Bundler::new(4096);
/// for hv in &items {
///     bundler.add(hv);
/// }
/// let bundle = bundler.finish();
/// // The bundle is similar to every constituent.
/// for hv in &items {
///     assert!(bundle.cosine(hv) > 0.2);
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Bundler {
    dim: usize,
    counts: Vec<i32>,
    n: usize,
    tie_break_seed: u64,
}

impl Bundler {
    /// Creates an empty bundler for hypervectors of dimensionality `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        Self {
            dim,
            counts: vec![0; dim],
            n: 0,
            tie_break_seed: 0x5eed_71e0_u64 ^ dim as u64,
        }
    }

    /// Number of hypervectors accumulated so far.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if no hypervectors have been added yet.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Dimensionality of the bundled hypervectors.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Adds a hypervector to the bundle.
    ///
    /// # Panics
    ///
    /// Panics if the dimensionality differs; use [`Bundler::try_add`] for a
    /// checked variant.
    pub fn add(&mut self, hv: &BipolarHypervector) {
        self.try_add(hv).expect("bundler dimensionality mismatch");
    }

    /// Checked variant of [`Bundler::add`].
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensionality differs.
    pub fn try_add(&mut self, hv: &BipolarHypervector) -> Result<(), HdcError> {
        if hv.dim() != self.dim {
            return Err(HdcError::DimensionMismatch {
                left: self.dim,
                right: hv.dim(),
            });
        }
        for (c, &v) in self.counts.iter_mut().zip(hv.as_slice()) {
            *c += v as i32;
        }
        self.n += 1;
        Ok(())
    }

    /// Produces the majority bundle: the sign of the accumulated counts, with
    /// exact ties broken by a deterministic pseudo-random hypervector derived
    /// from the tie-break seed (the standard trick for bundling an even number
    /// of operands).
    ///
    /// # Panics
    ///
    /// Panics if no hypervectors have been added.
    pub fn finish(&self) -> BipolarHypervector {
        self.try_finish().expect("cannot bundle zero hypervectors")
    }

    /// Checked variant of [`Bundler::finish`].
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyInput`] if no hypervectors have been added.
    pub(crate) fn try_finish(&self) -> Result<BipolarHypervector, HdcError> {
        if self.n == 0 {
            return Err(HdcError::EmptyInput);
        }
        let mut rng = StdRng::seed_from_u64(self.tie_break_seed);
        let tie_break = BipolarHypervector::random(self.dim, &mut rng);
        let signs: Vec<i8> = self
            .counts
            .iter()
            .enumerate()
            .map(|(i, &c)| match c.cmp(&0) {
                std::cmp::Ordering::Greater => 1,
                std::cmp::Ordering::Less => -1,
                std::cmp::Ordering::Equal => tie_break.get(i),
            })
            .collect();
        Ok(BipolarHypervector::from_signs(&signs))
    }

    /// Returns the raw accumulated counts (the un-thresholded bundle), useful
    /// for analog/integer associative memories.
    pub fn counts(&self) -> &[i32] {
        &self.counts
    }

    /// The seed of the deterministic tie-breaking hypervector used by
    /// [`Bundler::finish`].
    pub fn tie_break_seed(&self) -> u64 {
        self.tie_break_seed
    }

    /// Folds another bundler's accumulated state into this one, as if every
    /// hypervector added to `other` had been added here instead. Because
    /// bundling is an exact integer sum, `merge` commutes with sequential
    /// addition: any partition of the inputs across bundlers, merged in any
    /// order, yields identical counts. The tie-break seed of `self` is kept.
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    pub fn merge(&mut self, other: &Bundler) {
        self.try_merge(other)
            .expect("bundler dimensionality mismatch");
    }

    /// Checked variant of [`Bundler::merge`].
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensionality differs.
    pub(crate) fn try_merge(&mut self, other: &Bundler) -> Result<(), HdcError> {
        if other.dim != self.dim {
            return Err(HdcError::DimensionMismatch {
                left: self.dim,
                right: other.dim,
            });
        }
        for (c, &o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.n += other.n;
        Ok(())
    }

    /// Reconstructs a bundler from previously captured state — the exact
    /// inverse of reading [`Bundler::counts`], [`Bundler::len`] and
    /// [`Bundler::tie_break_seed`]. Because the counters *are* the complete
    /// state, the rebuilt bundler produces bit-identical bundles. No bound
    /// is enforced between counts and `n`; callers persisting unit-weight
    /// streams should validate that invariant themselves (see
    /// `hdc::ClassAccumulator`).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyInput`] when `counts` is empty.
    pub fn from_parts(counts: Vec<i32>, n: usize, tie_break_seed: u64) -> Result<Self, HdcError> {
        if counts.is_empty() {
            return Err(HdcError::EmptyInput);
        }
        Ok(Self {
            dim: counts.len(),
            counts,
            n,
            tie_break_seed,
        })
    }
}

/// Bundles a slice of bipolar hypervectors with the majority rule.
///
/// # Errors
///
/// Returns [`HdcError::EmptyInput`] for an empty slice and
/// [`HdcError::DimensionMismatch`] if the dimensionalities differ.
pub fn bundle_bipolar(hvs: &[BipolarHypervector]) -> Result<BipolarHypervector, HdcError> {
    let first = hvs.first().ok_or(HdcError::EmptyInput)?;
    let mut bundler = Bundler::new(first.dim());
    for hv in hvs {
        bundler.try_add(hv)?;
    }
    bundler.try_finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empty_bundler_errors() {
        let bundler = Bundler::new(64);
        assert!(bundler.is_empty());
        assert!(matches!(bundler.try_finish(), Err(HdcError::EmptyInput)));
        assert!(bundle_bipolar(&[]).is_err());
    }

    #[test]
    fn single_item_bundle_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = BipolarHypervector::random(512, &mut rng);
        let bundle = bundle_bipolar(std::slice::from_ref(&a)).expect("non-empty");
        assert_eq!(bundle, a);
    }

    #[test]
    fn bundle_is_similar_to_all_constituents() {
        let mut rng = StdRng::seed_from_u64(2);
        let items: Vec<_> = (0..7)
            .map(|_| BipolarHypervector::random(8192, &mut rng))
            .collect();
        let bundle = bundle_bipolar(&items).expect("non-empty");
        let unrelated = BipolarHypervector::random(8192, &mut rng);
        for hv in &items {
            assert!(bundle.cosine(hv) > 0.2, "bundle must stay similar to items");
        }
        assert!(bundle.cosine(&unrelated).abs() < 0.08);
    }

    #[test]
    fn bundle_of_even_count_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(3);
        let items: Vec<_> = (0..4)
            .map(|_| BipolarHypervector::random(1024, &mut rng))
            .collect();
        let a = bundle_bipolar(&items).expect("non-empty");
        let b = bundle_bipolar(&items).expect("non-empty");
        assert_eq!(a, b, "tie-breaking must be deterministic");
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let mut bundler = Bundler::new(64);
        let wrong = BipolarHypervector::ones(32);
        assert!(bundler.try_add(&wrong).is_err());
    }

    #[test]
    fn counts_accessor_reflects_additions() {
        let a = BipolarHypervector::from_signs(&[1, -1, 1]);
        let b = BipolarHypervector::from_signs(&[1, 1, -1]);
        let mut bundler = Bundler::new(3);
        bundler.add(&a);
        bundler.add(&b);
        assert_eq!(bundler.counts(), &[2, 0, 0]);
        assert_eq!(bundler.dim(), 3);
    }

    #[test]
    fn merge_matches_sequential_addition() {
        let mut rng = StdRng::seed_from_u64(6);
        let items: Vec<_> = (0..9)
            .map(|_| BipolarHypervector::random(256, &mut rng))
            .collect();
        let mut sequential = Bundler::new(256);
        for hv in &items {
            sequential.add(hv);
        }
        let mut left = Bundler::new(256);
        let mut right = Bundler::new(256);
        for hv in &items[..4] {
            left.add(hv);
        }
        for hv in &items[4..] {
            right.add(hv);
        }
        left.merge(&right);
        assert_eq!(left.counts(), sequential.counts());
        assert_eq!(left.len(), sequential.len());
        assert_eq!(left.finish(), sequential.finish());
    }

    #[test]
    fn merge_rejects_dimension_mismatch() {
        let mut a = Bundler::new(64);
        let b = Bundler::new(32);
        assert!(matches!(
            a.try_merge(&b),
            Err(HdcError::DimensionMismatch {
                left: 64,
                right: 32
            })
        ));
    }

    #[test]
    fn from_parts_round_trips_exactly() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut bundler = Bundler::new(128);
        for _ in 0..5 {
            bundler.add(&BipolarHypervector::random(128, &mut rng));
        }
        let rebuilt = Bundler::from_parts(
            bundler.counts().to_vec(),
            bundler.len(),
            bundler.tie_break_seed(),
        )
        .expect("non-empty counts");
        assert_eq!(rebuilt.counts(), bundler.counts());
        assert_eq!(rebuilt.len(), bundler.len());
        assert_eq!(rebuilt.finish(), bundler.finish());
        assert!(matches!(
            Bundler::from_parts(Vec::new(), 0, 0),
            Err(HdcError::EmptyInput)
        ));
    }
}
