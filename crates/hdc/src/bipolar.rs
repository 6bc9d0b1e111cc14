//! Dense bipolar (`{-1, +1}`) hypervectors.
//!
//! Bipolar hypervectors interoperate directly with floating-point linear
//! algebra: the attribute dictionary `B ∈ {-1,+1}^{α×d}` of the paper is a
//! stack of bipolar hypervectors converted to a [`tensor::Matrix`] row per
//! attribute.

use crate::HdcError;
use rand::Rng;

/// A dense bipolar hypervector with entries in `{-1, +1}` stored as `i8`.
///
/// Binding is the Hadamard (elementwise) product, bundling is the sign of the
/// elementwise sum, similarity is the cosine (equivalently the normalised dot
/// product, since every entry has unit magnitude).
///
/// # Example
///
/// ```
/// use hdc::BipolarHypervector;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let g = BipolarHypervector::random(2048, &mut rng);
/// let v = BipolarHypervector::random(2048, &mut rng);
/// let attribute = g.bind(&v);
/// // Binding with the value recovers the group (Hadamard binding is self-inverse).
/// assert_eq!(attribute.bind(&v), g);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BipolarHypervector {
    values: Vec<i8>,
}

impl BipolarHypervector {
    /// Creates an all `+1` hypervector (the identity element of binding).
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn ones(dim: usize) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        Self {
            values: vec![1i8; dim],
        }
    }

    /// Samples a hypervector from the Rademacher distribution (each entry is
    /// `+1` or `-1` with probability 1/2), the atomic-hypervector
    /// initialisation described in §III-A of the paper.
    pub fn random<R: Rng + ?Sized>(dim: usize, rng: &mut R) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        Self {
            values: (0..dim)
                .map(|_| if rng.gen::<bool>() { 1 } else { -1 })
                .collect(),
        }
    }

    /// Builds a hypervector from explicit signs.
    ///
    /// # Panics
    ///
    /// Panics if `signs` is empty or contains a value other than `+1`/`-1`.
    pub fn from_signs(signs: &[i8]) -> Self {
        assert!(!signs.is_empty(), "dimensionality must be positive");
        assert!(
            signs.iter().all(|&s| s == 1 || s == -1),
            "bipolar hypervector entries must be +1 or -1"
        );
        Self {
            values: signs.to_vec(),
        }
    }

    /// Dimensionality of the hypervector.
    pub fn dim(&self) -> usize {
        self.values.len()
    }

    /// Borrow of the underlying sign buffer.
    pub fn as_slice(&self) -> &[i8] {
        &self.values
    }

    /// Returns the sign at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn get(&self, i: usize) -> i8 {
        self.values[i]
    }

    /// Binds two hypervectors with the Hadamard (elementwise) product.
    ///
    /// For bipolar vectors binding is commutative, associative, self-inverse
    /// and similarity-preserving; the result is quasi-orthogonal to both
    /// operands.
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ; use
    /// [`BipolarHypervector::try_bind`] for a checked variant.
    pub fn bind(&self, other: &BipolarHypervector) -> BipolarHypervector {
        self.try_bind(other).expect("bind dimensionality mismatch")
    }

    /// Checked variant of [`BipolarHypervector::bind`].
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the dimensionalities differ.
    pub fn try_bind(&self, other: &BipolarHypervector) -> Result<BipolarHypervector, HdcError> {
        if self.dim() != other.dim() {
            return Err(HdcError::DimensionMismatch {
                left: self.dim(),
                right: other.dim(),
            });
        }
        Ok(BipolarHypervector {
            values: self
                .values
                .iter()
                .zip(other.values.iter())
                .map(|(a, b)| a * b)
                .collect(),
        })
    }

    /// Dot product with another hypervector (an integer in `[-d, d]`).
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    pub fn dot(&self, other: &BipolarHypervector) -> i64 {
        assert_eq!(
            self.dim(),
            other.dim(),
            "dot product requires equal dimensionality"
        );
        self.values
            .iter()
            .zip(other.values.iter())
            .map(|(&a, &b)| (a as i64) * (b as i64))
            .sum()
    }

    /// Cosine similarity in `[-1, 1]` (dot product divided by `d`, since all
    /// entries have unit magnitude).
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    pub fn cosine(&self, other: &BipolarHypervector) -> f32 {
        self.dot(other) as f32 / self.dim() as f32
    }

    /// Converts to a row of `f32` values (for use in dense matrices).
    pub fn to_f32(&self) -> Vec<f32> {
        self.values.iter().map(|&v| v as f32).collect()
    }

    /// Flips each entry independently with probability `p` (noise injection).
    pub fn flip_noise<R: Rng + ?Sized>(&self, p: f64, rng: &mut R) -> BipolarHypervector {
        BipolarHypervector {
            values: self
                .values
                .iter()
                .map(|&v| if rng.gen_bool(p) { -v } else { v })
                .collect(),
        }
    }

    /// Memory footprint in bytes of the sign buffer.
    pub fn memory_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<i8>()
    }
}

impl std::fmt::Display for BipolarHypervector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let shown: Vec<String> = self
            .values
            .iter()
            .take(16)
            .map(|v| if *v > 0 { "+".into() } else { "-".to_string() })
            .collect();
        let ellipsis = if self.dim() > 16 { "…" } else { "" };
        write!(
            f,
            "BipolarHV<{}>[{}{}]",
            self.dim(),
            shown.join(""),
            ellipsis
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ones_is_binding_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = BipolarHypervector::random(512, &mut rng);
        let id = BipolarHypervector::ones(512);
        assert_eq!(a.bind(&id), a);
        assert_eq!(id.cosine(&id), 1.0);
    }

    #[test]
    fn random_is_roughly_balanced() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = BipolarHypervector::random(8192, &mut rng);
        let sum: i64 = a.as_slice().iter().map(|&v| v as i64).sum();
        assert!((sum as f64 / 8192.0).abs() < 0.05);
    }

    #[test]
    fn quasi_orthogonality_of_random_vectors() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = BipolarHypervector::random(8192, &mut rng);
        let b = BipolarHypervector::random(8192, &mut rng);
        assert!(a.cosine(&b).abs() < 0.08);
        assert!((a.cosine(&a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn bind_properties() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = BipolarHypervector::random(4096, &mut rng);
        let b = BipolarHypervector::random(4096, &mut rng);
        let c = BipolarHypervector::random(4096, &mut rng);
        // Commutative, associative, self-inverse.
        assert_eq!(a.bind(&b), b.bind(&a));
        assert_eq!(a.bind(&b).bind(&c), a.bind(&b.bind(&c)));
        assert_eq!(a.bind(&b).bind(&b), a);
        // Quasi-orthogonal to operands.
        assert!(a.bind(&b).cosine(&a).abs() < 0.08);
        // Similarity-preserving: cos(a⊙c, b⊙c) == cos(a, b).
        assert!((a.bind(&c).cosine(&b.bind(&c)) - a.cosine(&b)).abs() < 1e-6);
    }

    #[test]
    fn try_bind_rejects_mismatch() {
        let a = BipolarHypervector::ones(8);
        let b = BipolarHypervector::ones(16);
        assert!(a.try_bind(&b).is_err());
    }

    #[test]
    fn from_signs_validates() {
        let hv = BipolarHypervector::from_signs(&[1, -1, 1]);
        assert_eq!(hv.get(1), -1);
    }

    #[test]
    #[should_panic(expected = "must be +1 or -1")]
    fn from_signs_rejects_invalid() {
        let _ = BipolarHypervector::from_signs(&[1, 0, -1]);
    }

    #[test]
    fn flip_noise_statistics() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = BipolarHypervector::random(8192, &mut rng);
        let noisy = a.flip_noise(0.2, &mut rng);
        let agreement = a.cosine(&noisy);
        // Expected cosine after flipping 20% of entries is 1 - 2*0.2 = 0.6.
        assert!((agreement - 0.6).abs() < 0.05);
    }

    #[test]
    fn memory_footprint_and_display() {
        let a = BipolarHypervector::ones(100);
        assert_eq!(a.memory_bytes(), 100);
        assert!(format!("{a}").contains("BipolarHV<100>"));
    }
}
