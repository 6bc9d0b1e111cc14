//! Dense `f32` linear-algebra substrate for the HDC-ZSC reproduction.
//!
//! The paper's trainable components (the FC projection of the image encoder,
//! the trainable-MLP attribute-encoder baseline, and the ESZSL closed-form
//! baseline) all operate on dense single-precision matrices. This crate
//! provides the minimal — but complete and well-tested — matrix/vector
//! toolkit those components need:
//!
//! * [`Matrix`]: a row-major dense matrix with streaming matrix products
//!   (`A·B`, `Aᵀ·B`, `A·Bᵀ`), elementwise arithmetic, broadcasting of row
//!   vectors, reductions, and norms.
//! * [`Vector`]: a thin convenience wrapper over `Vec<f32>` with dot
//!   products, norms and elementwise helpers.
//! * [`solve`]: Cholesky factorisation and ridge-regularised linear solves,
//!   used by the ESZSL baseline (`(XᵀX + γI)⁻¹ …`).
//! * [`stats`]: summary statistics (mean/std/min/max) used by the experiment
//!   harnesses to report `µ ± σ` across seeds.
//!
//! # Example
//!
//! ```
//! use tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod matrix;
pub mod ops;
pub mod solve;
pub mod stats;
pub mod vector;

pub use matrix::Matrix;
pub use solve::{cholesky_solve, ridge_solve, CholeskyError};
pub use stats::Summary;
pub use vector::Vector;

/// Error type for shape mismatches in matrix/vector operations.
///
/// Returned by the checked (`try_*`) variants of operations that panic in
/// their unchecked form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// Human-readable description of the mismatch.
    message: String,
}

impl ShapeError {
    /// Creates a new shape error with the given description.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }

    /// Returns the description of the mismatch.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shape mismatch: {}", self.message)
    }
}

impl std::error::Error for ShapeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_error_display() {
        let err = ShapeError::new("2x3 vs 4x5");
        assert_eq!(err.to_string(), "shape mismatch: 2x3 vs 4x5");
        assert_eq!(err.message(), "2x3 vs 4x5");
    }

    #[test]
    fn shape_error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShapeError>();
    }
}
