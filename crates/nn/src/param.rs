//! Trainable parameter tensors: a value matrix paired with its gradient
//! accumulator, allocated on the first backward pass.

use tensor::Matrix;

/// A trainable parameter: a dense value matrix together with a gradient
/// accumulator of the same shape.
///
/// The accumulator is allocated by the first
/// [`ParamTensor::accumulate_grad`], so a model that is only served holds
/// each weight once. Until then [`ParamTensor::grad`] is `None`, which
/// every reader treats as an all-zero gradient: [`ParamTensor::zero_grad`]
/// leaves it absent, [`ParamTensor::grad_norm`] is `0`, optimizers step
/// with `g = 0`, and equality compares it equal to an all-zero gradient.
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
/// assert!(p.grad().is_none());
/// p.accumulate_grad(&Matrix::ones(2, 3));
/// assert_eq!(p.grad().map(|g| g.get(0, 0)), Some(1.0));
/// p.zero_grad();
/// assert_eq!(p.grad().map(|g| g.get(0, 0)), Some(0.0));
/// ```
#[derive(Debug, Clone)]
pub struct ParamTensor {
    /// Current parameter values.
    pub values: Matrix,
    /// Accumulated gradient of the loss with respect to
    /// [`ParamTensor::values`]; `None` until the first accumulation.
    pub(crate) grad: Option<Matrix>,
}

impl ParamTensor {
    /// Wraps a value matrix; no gradient storage is allocated.
    pub fn new(values: Matrix) -> Self {
        Self { values, grad: None }
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

    /// The accumulated gradient, `None` before the first
    /// [`ParamTensor::accumulate_grad`] (an all-zero gradient).
    pub fn grad(&self) -> Option<&Matrix> {
        self.grad.as_ref()
    }

    /// Resets the gradient accumulator to zero; a no-op while none is
    /// allocated.
    pub fn zero_grad(&mut self) {
        if let Some(grad) = &mut self.grad {
            grad.map_inplace(|_| 0.0);
        }
    }

    /// Accumulates `delta` into the gradient, allocating it as zeros on
    /// first use (so a first `-0.0` lands as `0.0 + -0.0 = +0.0`, as in a
    /// zeroed accumulator).
    ///
    /// # Panics
    ///
    /// Panics if `delta` has a different shape.
    pub fn accumulate_grad(&mut self, delta: &Matrix) {
        let (rows, cols) = self.values.shape();
        self.grad
            .get_or_insert_with(|| Matrix::zeros(rows, cols))
            .add_scaled_inplace(delta, 1.0);
    }

    /// L2 norm of the gradient (`0` while none is allocated).
    pub fn grad_norm(&self) -> f32 {
        self.grad.as_ref().map_or(0.0, Matrix::frobenius_norm)
    }
}

/// Values must be equal; an absent gradient equals an all-zero one.
impl PartialEq for ParamTensor {
    fn eq(&self, other: &Self) -> bool {
        let all_zero = |g: &Matrix| g.as_slice().iter().all(|&x| x == 0.0);
        self.values == other.values
            && match (&self.grad, &other.grad) {
                (Some(a), Some(b)) => a == b,
                (Some(g), None) | (None, Some(g)) => all_zero(g),
                (None, None) => true,
            }
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
        assert!(p.grad().is_none());
        assert_eq!(p.grad_norm(), 0.0);
    }

    #[test]
    fn accumulate_and_zero() {
        let mut p = ParamTensor::new(Matrix::zeros(2, 2));
        p.zero_grad();
        assert!(p.grad().is_none(), "zero_grad allocates nothing");
        p.accumulate_grad(&Matrix::ones(2, 2));
        p.accumulate_grad(&Matrix::ones(2, 2));
        assert_eq!(p.grad().map(Matrix::sum), Some(8.0));
        assert_eq!(p.grad_norm(), 4.0);
        p.zero_grad();
        assert_eq!(p.grad().map(Matrix::sum), Some(0.0));
    }

    /// The first accumulation lands as `0.0 + delta`, like one into a
    /// zeroed accumulator: a `-0.0` entry becomes `+0.0`.
    #[test]
    fn first_accumulation_matches_a_zeroed_accumulator_bit_for_bit() {
        let delta = Matrix::from_rows(&[vec![-0.0, 1.5, -2.25]]);
        let mut lazy = ParamTensor::new(Matrix::zeros(1, 3));
        lazy.accumulate_grad(&delta);
        let mut eager = Matrix::zeros(1, 3);
        eager.add_scaled_inplace(&delta, 1.0);
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(lazy.grad().map(bits), Some(bits(&eager)));
        assert_eq!(lazy.grad().map(|g| g.get(0, 0).to_bits()), Some(0));
    }

    #[test]
    fn an_absent_grad_equals_an_all_zero_one() {
        let absent = ParamTensor::new(Matrix::ones(1, 2));
        let mut zeroed = absent.clone();
        zeroed.accumulate_grad(&Matrix::ones(1, 2));
        assert_ne!(absent, zeroed);
        assert_ne!(zeroed, absent);
        zeroed.zero_grad();
        assert_eq!(absent, zeroed);
        assert_eq!(zeroed, absent);
        let mut other_values = zeroed.clone();
        other_values.values.set(0, 0, 2.0);
        assert_ne!(other_values, absent);
    }
}
