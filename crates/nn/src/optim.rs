//! The first-order optimizer the paper trains with: AdamW.
//!
//! The paper optimises with **AdamW at default settings** plus a cosine
//! annealing learning-rate schedule.
//!
//! Optimizers attach per-parameter state (moment buffers) to the
//! deterministic visitation order of [`crate::Layer::visit_params`], so the
//! same optimizer instance must always be used with the same model.

use crate::param::ParamTensor;
use tensor::Matrix;

/// A parameter walk: calls the inner closure once per [`ParamTensor`], in a
/// deterministic order, so optimizers can keep per-slot state.
pub type ParamVisitor<'a> = dyn FnMut(&mut dyn FnMut(&mut ParamTensor)) + 'a;

/// A first-order optimizer updating parameters from their accumulated
/// gradients.
pub trait Optimizer {
    /// Applies one update step to every parameter visited by `visit`, using
    /// learning rate `lr`. The `visit` closure must walk the parameters in
    /// the same order on every call.
    fn step(&mut self, lr: f32, visit: &mut ParamVisitor<'_>);

    /// Human-readable optimizer name (for experiment logs).
    fn name(&self) -> &'static str;
}

/// Adam moment state and the AdamW update.
#[derive(Debug, Clone)]
struct AdamState {
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl AdamState {
    fn new(beta1: f32, beta2: f32, eps: f32) -> Self {
        Self {
            beta1,
            beta2,
            eps,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// One AdamW update: the decay is applied to the weights directly,
    /// decoupled from the gradient moments.
    fn step(&mut self, lr: f32, weight_decay: f32, visit: &mut ParamVisitor<'_>) {
        self.t += 1;
        let t = self.t as f32;
        let bias1 = 1.0 - self.beta1.powf(t);
        let bias2 = 1.0 - self.beta2.powf(t);
        let (beta1, beta2, eps) = (self.beta1, self.beta2, self.eps);
        let (m_bufs, v_bufs) = (&mut self.m, &mut self.v);
        let mut slot = 0usize;
        visit(&mut |p: &mut ParamTensor| {
            if m_bufs.len() <= slot {
                m_bufs.push(Matrix::zeros(p.values.rows(), p.values.cols()));
                v_bufs.push(Matrix::zeros(p.values.rows(), p.values.cols()));
            }
            let m = &mut m_bufs[slot];
            let v = &mut v_bufs[slot];
            debug_assert_eq!(m.shape(), p.values.shape(), "optimizer slot shape changed");
            // A parameter the backward pass never reached has no gradient
            // storage: its gradient is exactly zero, and the decay still
            // applies.
            let grad = p.grad.as_ref().map(Matrix::as_slice).unwrap_or_default();
            for (((mi, vi), g), w) in m
                .as_mut_slice()
                .iter_mut()
                .zip(v.as_mut_slice().iter_mut())
                .zip(grad.iter().copied().chain(std::iter::repeat(0.0)))
                .zip(p.values.as_mut_slice())
            {
                *mi = beta1 * *mi + (1.0 - beta1) * g;
                *vi = beta2 * *vi + (1.0 - beta2) * g * g;
                let m_hat = *mi / bias1;
                let v_hat = *vi / bias2;
                let mut update = lr * m_hat / (v_hat.sqrt() + eps);
                update += lr * weight_decay * *w;
                *w -= update;
            }
            slot += 1;
        });
    }
}

/// AdamW (Loshchilov & Hutter): Adam with *decoupled* weight decay — the
/// optimizer used by the paper.
#[derive(Debug, Clone)]
pub struct AdamW {
    state: AdamState,
    weight_decay: f32,
}

impl AdamW {
    /// Creates AdamW with the PyTorch default hyper-parameters
    /// (`β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`, `weight_decay = 0.01`).
    pub fn new() -> Self {
        Self::with_weight_decay(0.01)
    }

    /// Creates AdamW with the default moments but a custom weight decay —
    /// the knob swept in Fig. 5 of the paper.
    pub fn with_weight_decay(weight_decay: f32) -> Self {
        Self {
            state: AdamState::new(0.9, 0.999, 1e-8),
            weight_decay,
        }
    }

    /// The configured (decoupled) weight decay.
    pub fn weight_decay(&self) -> f32 {
        self.weight_decay
    }
}

impl Default for AdamW {
    fn default() -> Self {
        Self::new()
    }
}

impl Optimizer for AdamW {
    fn step(&mut self, lr: f32, visit: &mut ParamVisitor<'_>) {
        self.state.step(lr, self.weight_decay, visit);
    }

    fn name(&self) -> &'static str {
        "adamw"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::layer::{Layer, Linear};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensor::Matrix;

    /// Minimises `f(w) = Σ (w - target)²/2` with the given optimizer; returns
    /// the final parameter values.
    fn minimise_quadratic(optimizer: &mut dyn Optimizer, lr: f32, steps: usize) -> ParamTensor {
        let target = Matrix::from_rows(&[vec![3.0, -2.0, 0.5]]);
        let mut param = ParamTensor::new(Matrix::zeros(1, 3));
        for _ in 0..steps {
            param.zero_grad();
            let grad = param.values.sub(&target);
            param.accumulate_grad(&grad);
            optimizer.step(lr, &mut |f| f(&mut param));
        }
        // Verify convergence toward the target.
        let err = param.values.sub(&target).frobenius_norm();
        assert!(
            err < 0.1,
            "{} did not converge: err {err}",
            optimizer.name()
        );
        param
    }

    /// AdamW without weight decay is classic Adam; both settings converge.
    #[test]
    fn adam_and_adamw_converge_on_quadratic() {
        let mut adam = AdamW::with_weight_decay(0.0);
        minimise_quadratic(&mut adam, 0.1, 300);
        let mut adamw = AdamW::new();
        minimise_quadratic(&mut adamw, 0.1, 300);
        assert_eq!(adamw.name(), "adamw");
    }

    #[test]
    fn adamw_weight_decay_shrinks_weights() {
        // With zero gradient, AdamW's decoupled decay alone shrinks weights
        // toward zero.
        let mut p = ParamTensor::new(Matrix::filled(1, 4, 5.0));
        let mut opt = AdamW::with_weight_decay(0.1);
        assert_eq!(opt.weight_decay(), 0.1);
        for _ in 0..50 {
            p.zero_grad();
            opt.step(0.01, &mut |f| f(&mut p));
        }
        assert!(p.values.get(0, 0) < 5.0);
    }

    /// A parameter the backward pass never reached steps exactly as one
    /// holding an explicit zero gradient: same moments, same decay.
    #[test]
    fn a_step_without_gradient_storage_equals_one_with_a_zero_gradient() {
        let values = Matrix::from_rows(&[vec![5.0, -0.75, 0.0, 1e-3]]);
        let mut absent = ParamTensor::new(values.clone());
        let mut explicit = ParamTensor::new(values.clone());
        explicit.accumulate_grad(&Matrix::zeros(1, 4));
        let (mut opt_absent, mut opt_explicit) = (AdamW::new(), AdamW::new());
        for _ in 0..3 {
            opt_absent.step(0.01, &mut |f| f(&mut absent));
            opt_explicit.step(0.01, &mut |f| f(&mut explicit));
        }
        assert!(absent.grad().is_none());
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&absent.values), bits(&explicit.values));
        assert_ne!(absent.values, values, "the decoupled decay applies");
    }

    #[test]
    fn step_layer_trains_linear_regression() {
        let mut rng = StdRng::seed_from_u64(3);
        // Ground truth: y = x·W* with W* known.
        let w_true = Matrix::from_rows(&[vec![2.0, -1.0], vec![0.5, 1.5], vec![-0.3, 0.7]]);
        let x = Matrix::random_uniform(64, 3, 1.0, &mut rng);
        let y = x.matmul(&w_true);
        let mut model = Linear::new(3, 2, Init::XavierUniform, &mut rng);
        let mut opt = AdamW::with_weight_decay(0.0);
        let mut last_loss = f32::INFINITY;
        for _ in 0..400 {
            model.zero_grad();
            let pred = model.forward(&x, true);
            let diff = pred.sub(&y);
            let loss = 0.5 * diff.frobenius_norm().powi(2) / 64.0;
            let grad = diff.scale(1.0 / 64.0);
            let _ = model.backward(&grad);
            opt.step(0.05, &mut |f| model.visit_params(f));
            last_loss = loss;
        }
        assert!(last_loss < 1e-3, "regression did not converge: {last_loss}");
        assert!(model.weight().values.max_abs_diff(&w_true) < 0.05);
    }

    #[test]
    fn optimizer_state_grows_one_slot_per_param() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut model = Linear::new(4, 4, Init::KaimingUniform, &mut rng);
        let mut opt = AdamW::new();
        let x = Matrix::ones(1, 4);
        let out = model.forward(&x, true);
        let _ = model.backward(&out);
        opt.step(0.001, &mut |f| model.visit_params(f));
        assert_eq!(opt.state.m.len(), 2); // weight + bias
        assert_eq!(opt.state.v.len(), 2);
    }
}
