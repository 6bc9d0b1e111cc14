//! Hyperdimensional computing (HDC) substrate for the HDC-ZSC reproduction.
//!
//! The paper's attribute encoder is built entirely from *stationary* bipolar
//! hypervectors: an attribute-**group** codebook (`G = 28` atomic
//! hypervectors for CUB-200), an attribute-**value** codebook (`V = 61`), and
//! an attribute dictionary of `α = 312` codevectors materialised on the fly by
//! *binding* the appropriate group and value hypervectors. This crate holds
//! the bipolar algebra that encoder and the streaming class memories run:
//! codebooks, binding, bundling, the exact [`ClassAccumulator`] and cosine
//! similarity.
//!
//! [`BipolarHypervector`] stores `{-1, +1}` entries as `i8`; binding is the
//! Hadamard (elementwise) product, bundling is the sign of the sum,
//! similarity is the cosine. It interoperates directly with floating-point
//! matrices during training. The bit-packed 1-bit form that is served and
//! checkpointed (`+1 ↔ 0`, `-1 ↔ 1`, XOR binding, Hamming similarity) lives
//! in the `engine` crate's `packed` module, together with nearest-class
//! lookup over packed class hypervectors.
//!
//! # Example
//!
//! ```
//! use hdc::{BipolarHypervector, Codebook, HdcConfig};
//! use rand::SeedableRng;
//!
//! let cfg = HdcConfig::new(2048);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let groups = Codebook::random(4, &cfg, &mut rng);
//! let values = Codebook::random(6, &cfg, &mut rng);
//! // Bind "group 2" with "value 5" to obtain a fresh quasi-orthogonal codevector.
//! let bound = groups.get(2).bind(values.get(5));
//! assert!(bound.cosine(groups.get(2)).abs() < 0.1);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod accumulator;
pub mod bipolar;
pub mod bundler;
pub mod codebook;
pub mod similarity;

pub use accumulator::ClassAccumulator;
pub use bipolar::BipolarHypervector;
pub use bundler::Bundler;
pub use codebook::{Codebook, CodebookMemory};

use serde::{Deserialize, Serialize};

/// Configuration shared by hypervector constructors: the dimensionality of
/// the hyperdimensional space.
///
/// The paper uses `d = 1536` (preferred) and `d = 2048`; any positive
/// dimensionality is supported.
///
/// # Example
///
/// ```
/// let cfg = hdc::HdcConfig::new(1536);
/// assert_eq!(cfg.dim(), 1536);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HdcConfig {
    dim: usize,
}

impl HdcConfig {
    /// Creates a configuration for `dim`-dimensional hypervectors.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "hypervector dimensionality must be positive");
        Self { dim }
    }

    /// Dimensionality of the hypervectors.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

impl Default for HdcConfig {
    /// The paper's preferred dimensionality, `d = 1536`.
    fn default() -> Self {
        Self { dim: 1536 }
    }
}

/// Errors produced by HDC operations on incompatible operands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HdcError {
    /// Two hypervectors of different dimensionality were combined.
    DimensionMismatch {
        /// Dimensionality of the left operand.
        left: usize,
        /// Dimensionality of the right operand.
        right: usize,
    },
    /// An index into a codebook was out of range.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of stored entries.
        len: usize,
    },
    /// An empty input was provided where at least one element is required.
    EmptyInput,
}

impl std::fmt::Display for HdcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HdcError::DimensionMismatch { left, right } => {
                write!(f, "hypervector dimensionality mismatch: {left} vs {right}")
            }
            HdcError::IndexOutOfRange { index, len } => {
                write!(f, "index {index} out of range for {len} entries")
            }
            HdcError::EmptyInput => write!(f, "operation requires at least one hypervector"),
        }
    }
}

impl std::error::Error for HdcError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_default_matches_paper() {
        assert_eq!(HdcConfig::default().dim(), 1536);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn config_rejects_zero_dim() {
        let _ = HdcConfig::new(0);
    }

    #[test]
    fn error_display() {
        let e = HdcError::DimensionMismatch { left: 8, right: 16 };
        assert!(e.to_string().contains("8 vs 16"));
        let e = HdcError::IndexOutOfRange { index: 5, len: 3 };
        assert!(e.to_string().contains("index 5"));
        assert!(HdcError::EmptyInput.to_string().contains("at least one"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HdcError>();
    }
}
