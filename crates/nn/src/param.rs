//! Trainable parameter tensors: a value matrix paired with its gradient
//! accumulator.

use serde::{Deserialize, Serialize};
use tensor::Matrix;

/// A trainable parameter: a dense value matrix together with a gradient
/// accumulator of the same shape.
///
/// Layers expose their parameters to optimizers through
/// [`crate::Layer::visit_params`], which walks the parameters in a fixed,
/// deterministic order so optimizers can associate per-parameter state (e.g.
/// Adam moment estimates) with a visitation slot.
///
/// # Example
///
/// ```
/// use nn::ParamTensor;
/// use tensor::Matrix;
///
/// let mut p = ParamTensor::new(Matrix::zeros(2, 3));
/// assert_eq!(p.len(), 6);
/// p.grad.set(0, 0, 1.0);
/// p.zero_grad();
/// assert_eq!(p.grad.get(0, 0), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParamTensor {
    /// Current parameter values.
    pub values: Matrix,
    /// Accumulated gradient of the loss with respect to [`ParamTensor::values`].
    pub grad: Matrix,
}

impl ParamTensor {
    /// Wraps a value matrix, initialising the gradient to zeros of the same
    /// shape.
    pub fn new(values: Matrix) -> Self {
        let grad = Matrix::zeros(values.rows(), values.cols());
        Self { values, grad }
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the parameter holds no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Shape of the parameter.
    pub fn shape(&self) -> (usize, usize) {
        self.values.shape()
    }

    /// Resets the gradient accumulator to zero.
    pub fn zero_grad(&mut self) {
        self.grad.map_inplace(|_| 0.0);
    }

    /// Accumulates `delta` into the gradient.
    ///
    /// # Panics
    ///
    /// Panics if `delta` has a different shape.
    pub fn accumulate_grad(&mut self, delta: &Matrix) {
        self.grad.add_scaled_inplace(delta, 1.0);
    }

    /// L2 norm of the gradient.
    pub fn grad_norm(&self) -> f32 {
        self.grad.frobenius_norm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad() {
        let p = ParamTensor::new(Matrix::ones(3, 2));
        assert_eq!(p.shape(), (3, 2));
        assert_eq!(p.len(), 6);
        assert!(!p.is_empty());
        assert_eq!(p.grad.sum(), 0.0);
    }

    #[test]
    fn accumulate_and_zero() {
        let mut p = ParamTensor::new(Matrix::zeros(2, 2));
        p.accumulate_grad(&Matrix::ones(2, 2));
        p.accumulate_grad(&Matrix::ones(2, 2));
        assert_eq!(p.grad.sum(), 8.0);
        assert_eq!(p.grad_norm(), 4.0);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
    }
}
