//! Layers: linear projections, activations, sequential containers and MLPs.

use crate::init::Init;
use crate::param::ParamTensor;
use rand::Rng;
use serde::{DeError, Deserialize, Serialize};
use tensor::Matrix;

/// A differentiable layer operating on batched row-major inputs
/// (`batch × features`).
///
/// The forward pass is split into two receivers so that a *frozen* model can
/// be shared immutably between threads while training keeps its mutable
/// handle:
///
/// * [`Layer::infer`] takes `&self`, touches no caches, and is safe to call
///   concurrently from any number of threads;
/// * [`Layer::forward_train`] takes `&mut self` and caches whatever the
///   layer needs so a subsequent [`Layer::backward`] can compute gradients;
///   the usual training step is therefore
///   `forward_train → loss → backward → optimizer.step`.
///
/// Both paths apply the exact same arithmetic in the same order, so their
/// outputs are bit-identical.
///
/// Parameter visitation order is deterministic, which lets optimizers attach
/// per-parameter state (moment buffers) to visitation slots.
pub trait Layer {
    /// Immutable inference forward: runs the layer on a batch without
    /// caching anything. Bit-identical to [`Layer::forward_train`].
    fn infer(&self, input: &Matrix) -> Matrix;

    /// Training forward: runs the layer on a batch and caches activations
    /// for [`Layer::backward`].
    fn forward_train(&mut self, input: &Matrix) -> Matrix;

    /// Convenience dispatcher retained for training-loop call sites:
    /// `forward(x, true)` is [`Layer::forward_train`], `forward(x, false)`
    /// is [`Layer::infer`].
    fn forward(&mut self, input: &Matrix, train: bool) -> Matrix {
        if train {
            self.forward_train(input)
        } else {
            self.infer(input)
        }
    }

    /// Back-propagates `grad_output` (gradient of the loss with respect to
    /// this layer's output) and returns the gradient with respect to the
    /// layer's input. Parameter gradients are *accumulated* into the layer's
    /// [`ParamTensor`]s.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before [`Layer::forward_train`].
    fn backward(&mut self, grad_output: &Matrix) -> Matrix;

    /// Visits every trainable parameter in a fixed order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut ParamTensor));

    /// Read-only visitation of every trainable parameter, in the same fixed
    /// order as [`Layer::visit_params`]; lets accounting run on `&self`
    /// (e.g. through a shared frozen model).
    fn visit_params_ref(&self, f: &mut dyn FnMut(&ParamTensor));

    /// Number of trainable scalar parameters.
    fn num_params(&self) -> usize {
        let mut n = 0;
        self.visit_params_ref(&mut |p| n += p.len());
        n
    }

    /// Zeroes all accumulated gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Drops what training leaves behind — cached activations and gradient
    /// storage — keeping the weights in place. Freezing a model for
    /// serving calls it; a later training step allocates both afresh.
    fn clear_training_state(&mut self);
}

/// A fully-connected layer `y = x·W + b`.
///
/// This is the paper's `FC` projection layer (backbone features → `d`), and
/// the building block of the trainable-MLP attribute-encoder baseline.
///
/// # Example
///
/// ```
/// use nn::{Layer, Linear, init::Init};
/// use tensor::Matrix;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut fc = Linear::new(16, 8, Init::XavierUniform, &mut rng);
/// assert_eq!(fc.num_params(), 16 * 8 + 8);
/// let y = fc.forward(&Matrix::ones(4, 16), false);
/// assert_eq!(y.shape(), (4, 8));
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    weight: ParamTensor,
    bias: ParamTensor,
    input_cache: Option<Matrix>,
}

impl Linear {
    /// Creates a layer mapping `in_features` to `out_features`, with weights
    /// drawn from `init` and a zero bias.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new<R: Rng + ?Sized>(
        in_features: usize,
        out_features: usize,
        init: Init,
        rng: &mut R,
    ) -> Self {
        assert!(
            in_features > 0 && out_features > 0,
            "layer dims must be positive"
        );
        Self {
            weight: ParamTensor::new(init.build(in_features, out_features, rng)),
            bias: ParamTensor::new(Matrix::zeros(1, out_features)),
            input_cache: None,
        }
    }

    /// Builds a layer from an explicit weight matrix (`in × out`) and bias
    /// row (`1 × out`). Useful for tests and for loading saved models.
    ///
    /// # Panics
    ///
    /// Panics if `bias.cols() != weight.cols()` or `bias.rows() != 1`.
    pub fn from_parts(weight: Matrix, bias: Matrix) -> Self {
        assert_eq!(bias.rows(), 1, "bias must be a single row");
        assert_eq!(
            bias.cols(),
            weight.cols(),
            "bias width must match weight output dim"
        );
        Self {
            weight: ParamTensor::new(weight),
            bias: ParamTensor::new(bias),
            input_cache: None,
        }
    }

    /// [`Linear::from_parts`] for untrusted parts: a bias that is not one
    /// row as wide as the weight, or an empty weight, is an error instead
    /// of a panic. The model file loader builds layers through it.
    ///
    /// # Errors
    ///
    /// A [`DeError`] naming the mismatched shapes.
    pub fn try_from_parts(weight: Matrix, bias: Matrix) -> Result<Self, DeError> {
        if bias.rows() != 1 || bias.cols() != weight.cols() {
            return Err(DeError::new(format!(
                "bias shape {:?} does not match weight shape {:?}",
                bias.shape(),
                weight.shape()
            ))
            .in_field("Linear"));
        }
        if weight.rows() == 0 || weight.cols() == 0 {
            return Err(DeError::new("layer dimensions must be positive").in_field("Linear"));
        }
        Ok(Self::from_parts(weight, bias))
    }

    /// Input feature dimensionality.
    pub fn in_features(&self) -> usize {
        self.weight.values.rows()
    }

    /// Output feature dimensionality.
    pub fn out_features(&self) -> usize {
        self.weight.values.cols()
    }

    /// Borrow of the weight parameter.
    pub fn weight(&self) -> &ParamTensor {
        &self.weight
    }

    /// Borrow of the bias parameter.
    pub fn bias(&self) -> &ParamTensor {
        &self.bias
    }
}

impl Layer for Linear {
    fn infer(&self, input: &Matrix) -> Matrix {
        assert_eq!(
            input.cols(),
            self.in_features(),
            "linear layer expected {} input features, got {}",
            self.in_features(),
            input.cols()
        );
        let mut out = input.matmul(&self.weight.values);
        let bias = self.bias.values.row(0);
        for r in 0..out.rows() {
            for (v, b) in out.row_mut(r).iter_mut().zip(bias) {
                *v += b;
            }
        }
        out
    }

    fn forward_train(&mut self, input: &Matrix) -> Matrix {
        let out = self.infer(input);
        self.input_cache = Some(input.clone());
        out
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let input = self
            .input_cache
            .as_ref()
            .expect("backward called before forward(train=true)");
        assert_eq!(
            grad_output.rows(),
            input.rows(),
            "batch size mismatch in backward"
        );
        // dW = Xᵀ · dY, db = Σ_batch dY, dX = dY · Wᵀ
        let grad_w = input.matmul_tn(grad_output);
        self.weight.accumulate_grad(&grad_w);
        let grad_b = Matrix::from_vec(1, grad_output.cols(), grad_output.sum_rows());
        self.bias.accumulate_grad(&grad_b);
        grad_output.matmul_nt(&self.weight.values)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut ParamTensor)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&ParamTensor)) {
        f(&self.weight);
        f(&self.bias);
    }

    fn clear_training_state(&mut self) {
        self.input_cache = None;
        self.visit_params(&mut |p| p.grad = None);
    }
}

/// Supported pointwise non-linearities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActivationKind {
    /// Rectified linear unit `max(0, x)`.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Identity (no-op) — useful to terminate an [`Mlp`] without a
    /// non-linearity.
    Identity,
}

/// A stateless pointwise activation layer.
#[derive(Debug, Clone)]
pub struct Activation {
    kind: ActivationKind,
    input_cache: Option<Matrix>,
}

impl Activation {
    /// Creates an activation layer of the given kind.
    pub fn new(kind: ActivationKind) -> Self {
        Self {
            kind,
            input_cache: None,
        }
    }

    /// The activation kind.
    pub fn kind(&self) -> ActivationKind {
        self.kind
    }
}

impl Layer for Activation {
    fn infer(&self, input: &Matrix) -> Matrix {
        match self.kind {
            ActivationKind::Relu => input.map(|x| x.max(0.0)),
            ActivationKind::Tanh => input.map(f32::tanh),
            ActivationKind::Identity => input.clone(),
        }
    }

    fn forward_train(&mut self, input: &Matrix) -> Matrix {
        let out = self.infer(input);
        self.input_cache = Some(input.clone());
        out
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let input = self
            .input_cache
            .as_ref()
            .expect("backward called before forward(train=true)");
        match self.kind {
            ActivationKind::Relu => {
                grad_output.zip_with(input, |g, x| if x > 0.0 { g } else { 0.0 })
            }
            ActivationKind::Tanh => grad_output.zip_with(input, |g, x| {
                let t = x.tanh();
                g * (1.0 - t * t)
            }),
            ActivationKind::Identity => grad_output.clone(),
        }
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut ParamTensor)) {}

    fn visit_params_ref(&self, _f: &mut dyn FnMut(&ParamTensor)) {}

    fn clear_training_state(&mut self) {
        self.input_cache = None;
    }
}

/// A multi-layer perceptron: a chain of [`Linear`] layers with a shared
/// hidden activation, terminated by a linear output layer.
///
/// The paper's *Trainable-MLP* attribute-encoder baseline is a 2-layer MLP
/// mapping the `α`-dimensional class attribute vector to the shared embedding
/// dimension `d`.
///
/// # Example
///
/// ```
/// use nn::{ActivationKind, Layer, Mlp};
/// use rand::SeedableRng;
/// use tensor::Matrix;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut mlp = Mlp::new(&[312, 1024, 1536], ActivationKind::Relu, &mut rng);
/// let out = mlp.forward(&Matrix::ones(3, 312), false);
/// assert_eq!(out.shape(), (3, 1536));
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    /// The linear layers, one per consecutive `dims` pair. Stored concretely
    /// (not behind `dyn Layer`) so checkpointing can reach the weights
    /// through `&self`.
    layers: Vec<Linear>,
    /// One activation between each pair of consecutive linear layers
    /// (`layers.len() - 1` of them); the output layer is purely linear.
    hidden_activations: Vec<Activation>,
    activation: ActivationKind,
    dims: Vec<usize>,
}

impl Mlp {
    /// Builds an MLP with the given layer widths (`dims[0]` is the input
    /// dimensionality, `dims.last()` the output dimensionality). Hidden
    /// layers use `activation`; the output layer is purely linear.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given or any width is zero.
    pub fn new<R: Rng + ?Sized>(dims: &[usize], activation: ActivationKind, rng: &mut R) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output widths"
        );
        assert!(dims.iter().all(|&d| d > 0), "layer widths must be positive");
        let mut layers = Vec::with_capacity(dims.len() - 1);
        let mut hidden_activations = Vec::with_capacity(dims.len() - 2);
        for i in 0..dims.len() - 1 {
            let init = if i + 2 == dims.len() {
                Init::XavierUniform
            } else {
                Init::KaimingUniform
            };
            layers.push(Linear::new(dims[i], dims[i + 1], init, rng));
            if i + 2 != dims.len() {
                hidden_activations.push(Activation::new(activation));
            }
        }
        Self {
            layers,
            hidden_activations,
            activation,
            dims: dims.to_vec(),
        }
    }

    /// Assembles an MLP from its widths, hidden activation and trained
    /// layers, checking that `layers[i]` maps `dims[i]` to `dims[i + 1]`.
    /// The model file loader builds MLPs through it.
    ///
    /// # Errors
    ///
    /// A [`DeError`] when there are fewer than two widths, a zero width, or
    /// a layer of the wrong count or shape.
    pub fn try_from_layers(
        dims: Vec<usize>,
        activation: ActivationKind,
        layers: Vec<Linear>,
    ) -> Result<Self, DeError> {
        if dims.len() < 2 || dims.contains(&0) {
            return Err(
                DeError::new("MLP widths must be at least two positive dims").in_field("Mlp"),
            );
        }
        if layers.len() != dims.len() - 1 {
            return Err(DeError::new(format!(
                "expected {} layers for {} widths, got {}",
                dims.len() - 1,
                dims.len(),
                layers.len()
            ))
            .in_field("Mlp"));
        }
        for (i, layer) in layers.iter().enumerate() {
            if layer.in_features() != dims[i] || layer.out_features() != dims[i + 1] {
                return Err(DeError::new(format!(
                    "layer {i} maps {}→{}, expected {}→{}",
                    layer.in_features(),
                    layer.out_features(),
                    dims[i],
                    dims[i + 1]
                ))
                .in_field("Mlp"));
            }
        }
        let hidden_activations = (0..layers.len().saturating_sub(1))
            .map(|_| Activation::new(activation))
            .collect();
        Ok(Self {
            layers,
            hidden_activations,
            activation,
            dims,
        })
    }

    /// The layer widths this MLP was built with.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The linear layers, input side first.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// The shared hidden activation kind.
    pub fn activation(&self) -> ActivationKind {
        self.activation
    }
}

impl Layer for Mlp {
    fn infer(&self, input: &Matrix) -> Matrix {
        let mut current = input.clone();
        for i in 0..self.layers.len() {
            current = self.layers[i].infer(&current);
            if let Some(act) = self.hidden_activations.get(i) {
                current = act.infer(&current);
            }
        }
        current
    }

    fn forward_train(&mut self, input: &Matrix) -> Matrix {
        let mut current = input.clone();
        for i in 0..self.layers.len() {
            current = self.layers[i].forward_train(&current);
            if let Some(act) = self.hidden_activations.get_mut(i) {
                current = act.forward_train(&current);
            }
        }
        current
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let mut grad = grad_output.clone();
        for i in (0..self.layers.len()).rev() {
            if let Some(act) = self.hidden_activations.get_mut(i) {
                grad = act.backward(&grad);
            }
            grad = self.layers[i].backward(&grad);
        }
        grad
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut ParamTensor)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&ParamTensor)) {
        for layer in &self.layers {
            layer.visit_params_ref(f);
        }
    }

    fn clear_training_state(&mut self) {
        self.layers.iter_mut().for_each(Layer::clear_training_state);
        self.hidden_activations
            .iter_mut()
            .for_each(Layer::clear_training_state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Finite-difference check of a layer's input gradient on a scalar loss
    /// `L = Σ out²/2` (so dL/dout = out).
    fn check_input_gradient(layer: &mut dyn Layer, input: &Matrix, tol: f32) {
        let out = layer.forward(input, true);
        let grad_in = layer.backward(&out);
        let eps = 1e-3f32;
        let mut worst: f32 = 0.0;
        for idx in 0..input.len().min(20) {
            let r = idx / input.cols();
            let c = idx % input.cols();
            let mut plus = input.clone();
            plus.set(r, c, plus.get(r, c) + eps);
            let mut minus = input.clone();
            minus.set(r, c, minus.get(r, c) - eps);
            let loss = |m: &Matrix, layer: &mut dyn Layer| -> f32 {
                let o = layer.forward(m, false);
                0.5 * o.as_slice().iter().map(|x| x * x).sum::<f32>()
            };
            let numeric = (loss(&plus, layer) - loss(&minus, layer)) / (2.0 * eps);
            worst = worst.max((numeric - grad_in.get(r, c)).abs());
        }
        assert!(worst < tol, "worst finite-difference error {worst}");
    }

    #[test]
    fn linear_forward_known_values() {
        let weight = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 2.0]]);
        let bias = Matrix::from_rows(&[vec![10.0, 20.0]]);
        let mut fc = Linear::from_parts(weight, bias);
        let y = fc.forward(&Matrix::from_rows(&[vec![3.0, 4.0]]), false);
        assert_eq!(y.row(0), &[13.0, 28.0]);
        assert_eq!(fc.in_features(), 2);
        assert_eq!(fc.out_features(), 2);
    }

    #[test]
    fn linear_param_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let fc = Linear::new(2048, 1536, Init::XavierUniform, &mut rng);
        assert_eq!(fc.num_params(), 2048 * 1536 + 1536);
    }

    #[test]
    fn linear_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut fc = Linear::new(6, 4, Init::XavierUniform, &mut rng);
        let x = Matrix::random_uniform(3, 6, 1.0, &mut rng);
        check_input_gradient(&mut fc, &x, 1e-2);
    }

    #[test]
    fn linear_weight_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut fc = Linear::new(4, 3, Init::XavierUniform, &mut rng);
        let x = Matrix::random_uniform(5, 4, 1.0, &mut rng);
        // Analytic gradient for loss = Σ out² / 2.
        let out = fc.forward(&x, true);
        fc.zero_grad();
        let _ = fc.backward(&out);
        let analytic = fc.weight().grad().expect("a backward pass").clone();
        // Finite differences on one weight entry.
        let eps = 1e-3f32;
        let (wr, wc) = (1, 2);
        let loss_with_weight = |fc: &mut Linear, delta: f32| -> f32 {
            let mut w = fc.weight.values.clone();
            w.set(wr, wc, w.get(wr, wc) + delta);
            let saved = std::mem::replace(&mut fc.weight.values, w);
            let o = fc.forward(&x, false);
            fc.weight.values = saved;
            0.5 * o.as_slice().iter().map(|v| v * v).sum::<f32>()
        };
        let numeric =
            (loss_with_weight(&mut fc, eps) - loss_with_weight(&mut fc, -eps)) / (2.0 * eps);
        assert!((numeric - analytic.get(wr, wc)).abs() < 1e-2);
    }

    #[test]
    fn relu_forward_and_backward() {
        let mut act = Activation::new(ActivationKind::Relu);
        let x = Matrix::from_rows(&[vec![-1.0, 2.0]]);
        let y = act.forward(&x, true);
        assert_eq!(y.row(0), &[0.0, 2.0]);
        let grad = act.backward(&Matrix::from_rows(&[vec![5.0, 5.0]]));
        assert_eq!(grad.row(0), &[0.0, 5.0]);
        assert_eq!(act.kind(), ActivationKind::Relu);
    }

    #[test]
    fn tanh_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut act = Activation::new(ActivationKind::Tanh);
        let x = Matrix::random_uniform(2, 5, 1.0, &mut rng);
        check_input_gradient(&mut act, &x, 1e-2);
    }

    #[test]
    fn identity_activation_is_transparent() {
        let mut act = Activation::new(ActivationKind::Identity);
        let x = Matrix::from_rows(&[vec![1.5, -2.5]]);
        assert_eq!(act.forward(&x, true), x);
        let g = Matrix::from_rows(&[vec![0.1, 0.2]]);
        assert_eq!(act.backward(&g), g);
    }

    #[test]
    fn activation_has_no_params() {
        let act = Activation::new(ActivationKind::Relu);
        assert_eq!(act.num_params(), 0);
    }

    #[test]
    fn sequential_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut model = Mlp::new(&[5, 7, 3], ActivationKind::Tanh, &mut rng);
        let x = Matrix::random_uniform(2, 5, 1.0, &mut rng);
        check_input_gradient(&mut model, &x, 1e-2);
    }

    #[test]
    fn mlp_shapes_and_params() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut mlp = Mlp::new(&[312, 128, 64], ActivationKind::Relu, &mut rng);
        assert_eq!(mlp.dims(), &[312, 128, 64]);
        let y = mlp.forward(&Matrix::ones(2, 312), false);
        assert_eq!(y.shape(), (2, 64));
        assert_eq!(mlp.num_params(), 312 * 128 + 128 + 128 * 64 + 64);
    }

    #[test]
    fn zero_grad_resets_accumulators() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut fc = Linear::new(3, 2, Init::KaimingUniform, &mut rng);
        let x = Matrix::ones(1, 3);
        let y = fc.forward(&x, true);
        let _ = fc.backward(&y);
        assert!(fc.weight().grad_norm() > 0.0);
        fc.zero_grad();
        assert_eq!(fc.weight().grad().map(Matrix::frobenius_norm), Some(0.0));
    }

    /// Gradients allocated by the first backward pass equal, bit for bit,
    /// those accumulated into zeroed storage that existed beforehand.
    #[test]
    fn lazily_allocated_gradients_equal_preallocated_ones() {
        let build = || {
            let mut rng = StdRng::seed_from_u64(10);
            Mlp::new(&[6, 5, 4], ActivationKind::Tanh, &mut rng)
        };
        let (mut lazy, mut eager) = (build(), build());
        eager.visit_params(&mut |p| {
            let (rows, cols) = p.shape();
            p.accumulate_grad(&Matrix::filled(rows, cols, -0.5));
        });
        let mut rng = StdRng::seed_from_u64(11);
        let x = Matrix::random_uniform(3, 6, 1.0, &mut rng);
        let upstream = Matrix::random_uniform(3, 4, 1.0, &mut rng);
        for model in [&mut lazy, &mut eager] {
            model.zero_grad();
            let _ = model.forward(&x, true);
            let _ = model.backward(&upstream);
        }
        let bits = |model: &Mlp| {
            let mut out = Vec::new();
            model.visit_params_ref(&mut |p| {
                let grad = p
                    .grad()
                    .expect("one backward pass allocates every gradient");
                out.extend(grad.as_slice().iter().map(|x| x.to_bits()));
            });
            out
        };
        assert_eq!(bits(&lazy), bits(&eager));
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_without_forward_panics() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut fc = Linear::new(3, 2, Init::KaimingUniform, &mut rng);
        let _ = fc.backward(&Matrix::ones(1, 2));
    }

    #[test]
    #[should_panic(expected = "expected 4 input features")]
    fn linear_rejects_wrong_input_width() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut fc = Linear::new(4, 2, Init::KaimingUniform, &mut rng);
        let _ = fc.forward(&Matrix::ones(1, 5), false);
    }

    /// The immutable `infer` path must be bit-identical to the training
    /// forward and leave no cache behind (backward still panics).
    #[test]
    fn infer_is_bit_identical_to_forward_train_and_caches_nothing() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut mlp = Mlp::new(&[6, 5, 4], ActivationKind::Tanh, &mut rng);
        let x = Matrix::random_uniform(3, 6, 1.0, &mut rng);
        let inferred = mlp.infer(&x);
        let trained = mlp.forward_train(&x);
        assert_eq!(inferred.as_slice(), trained.as_slice());
        // A fresh clone that only ran `infer` has no activation cache.
        let fresh = {
            let mut rng = StdRng::seed_from_u64(11);
            Mlp::new(&[6, 5, 4], ActivationKind::Tanh, &mut rng)
        };
        let _ = fresh.infer(&x);
        let mut fresh = fresh;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fresh.backward(&Matrix::ones(3, 4))
        }));
        assert!(result.is_err(), "infer must not populate backward caches");
    }

    /// Read-only visitation mirrors the mutable order and powers the
    /// `&self` parameter count.
    #[test]
    fn visit_params_ref_matches_mutable_visitation() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut mlp = Mlp::new(&[8, 4, 2], ActivationKind::Relu, &mut rng);
        let mut mutable_shapes = Vec::new();
        mlp.visit_params(&mut |p| mutable_shapes.push(p.shape()));
        let mut ref_shapes = Vec::new();
        mlp.visit_params_ref(&mut |p| ref_shapes.push(p.shape()));
        assert_eq!(mutable_shapes, ref_shapes);
        let immutable = &mlp;
        assert_eq!(immutable.num_params(), 8 * 4 + 4 + 4 * 2 + 2);
    }
}
