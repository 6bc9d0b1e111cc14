//! Minimal trainable-layer substrate for the HDC-ZSC reproduction.
//!
//! The paper trains only small dense components on top of a frozen (or
//! slowly-adapting) backbone: the FC projection of the image encoder, the
//! optional trainable-MLP attribute encoder, and a learnable temperature in
//! the similarity kernel. This crate provides exactly the machinery those
//! components need — no autograd graph, just explicit forward/backward layers
//! with deterministic parameter visitation so optimizers can keep per-slot
//! state:
//!
//! * [`Linear`], [`Activation`] and [`Mlp`] layers
//!   implementing the [`Layer`] trait.
//! * Loss functions used by the paper: [`loss::cross_entropy`] (phase III)
//!   and [`loss::weighted_bce_with_logits`] (phase II, with per-attribute
//!   positive weights to counter class imbalance).
//! * A differentiable batched [`cosine`] similarity with gradients for both
//!   operands, plus temperature scaling (the `1/K` factor of the paper's
//!   Eq. 1).
//! * The paper's optimizer and learning-rate schedule: [`AdamW`] with
//!   [`CosineAnnealingLr`].
//!
//! # Example
//!
//! ```
//! use nn::{Layer, Linear, init};
//! use tensor::Matrix;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut fc = Linear::new(8, 4, init::Init::KaimingUniform, &mut rng);
//! let x = Matrix::ones(2, 8);
//! let y = fc.forward(&x, true);
//! assert_eq!(y.shape(), (2, 4));
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod cosine;
pub mod init;
pub mod layer;
pub mod loss;
pub mod optim;
pub mod param;
pub mod scheduler;

pub use cosine::{CosineSimilarity, TemperatureScale};
pub use layer::{Activation, ActivationKind, Layer, Linear, Mlp};
pub use loss::LossOutput;
pub use optim::{AdamW, Optimizer};
pub use param::ParamTensor;
pub use scheduler::{CosineAnnealingLr, LrSchedule};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<crate::Linear>();
        assert_send::<crate::Mlp>();
        assert_send::<crate::AdamW>();
    }
}
