//! The immutable inference view of a trained model.
//!
//! A [`FrozenModel`] is a cheaply clonable, `Send + Sync` handle around an
//! [`Arc<ZscModel>`]: one set of weights, shared by reference between any
//! number of threads. Every inference entry point of [`ZscModel`] takes
//! `&self` (the forward passes cache nothing), so the frozen view exposes
//! the whole inference surface — [`ZscModel::embed_images`],
//! [`ZscModel::attribute_logits`], [`ZscModel::class_logits`],
//! [`ZscModel::predict`], [`ZscModel::sharded_class_memory`] and
//! [`ZscModel::packed_class_signature`] — through [`Deref`] without a single
//! deep copy.
//!
//! This is the serving contract the `serve` crate builds on: the
//! `QueryServer` dispatcher, `ModelSnapshot::solo_topk` and the class
//! registration control plane all operate on one shared `FrozenModel`
//! (cloning an `Arc`, never a weight matrix). Training, by contrast, keeps
//! the `&mut ZscModel` handle — to retrain a frozen model, clone the model
//! behind the handle (`(*frozen).clone()`), train the copy, and freeze the
//! result into the next snapshot.

use crate::model::ZscModel;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, atomically reference-counted view of a trained
/// [`ZscModel`].
///
/// Cloning a `FrozenModel` clones the `Arc`, not the weights; all of
/// [`ZscModel`]'s `&self` inference methods are reachable through [`Deref`].
///
/// # Example
///
/// ```
/// use dataset::AttributeSchema;
/// use hdc_zsc::{FrozenModel, ModelConfig, ZscModel};
/// use tensor::Matrix;
///
/// let schema = AttributeSchema::cub200();
/// let frozen = ZscModel::new(&ModelConfig::tiny(), &schema, 32).freeze();
/// let handle = frozen.clone(); // Arc clone — no weights copied
/// assert!(frozen.ptr_eq(&handle));
/// // The whole inference surface is available through `&self`.
/// let logits = handle.class_logits(&Matrix::ones(2, 32), &Matrix::ones(3, 312));
/// assert_eq!(logits.shape(), (2, 3));
/// ```
#[derive(Debug, Clone)]
pub struct FrozenModel {
    inner: Arc<ZscModel>,
}

impl FrozenModel {
    /// Freezes a model into an immutable shared view. What training left
    /// in it — gradient storage, the layers' cached activations, the
    /// similarity kernel's and temperature's caches — is dropped in place
    /// first, so a served model holds its weights and nothing else.
    pub fn new(mut model: ZscModel) -> Self {
        model.clear_training_state();
        Self {
            inner: Arc::new(model),
        }
    }

    /// Returns `true` if both handles point at the *same* model allocation —
    /// the pointer-identity probe the serve tests use to pin the zero-copy
    /// contract.
    pub fn ptr_eq(&self, other: &FrozenModel) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Number of live handles on the underlying model (`Arc::strong_count`).
    pub fn strong_count(&self) -> usize {
        Arc::strong_count(&self.inner)
    }
}

impl Deref for FrozenModel {
    type Target = ZscModel;

    fn deref(&self) -> &ZscModel {
        &self.inner
    }
}

impl From<ZscModel> for FrozenModel {
    fn from(model: ZscModel) -> Self {
        Self::new(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use dataset::AttributeSchema;
    use nn::{AdamW, Optimizer};
    use tensor::Matrix;

    fn frozen() -> FrozenModel {
        ZscModel::new(
            &ModelConfig::tiny().with_seed(3),
            &AttributeSchema::cub200(),
            40,
        )
        .freeze()
    }

    /// The serving layer shares frozen models across threads; this pins the
    /// auto-trait bounds at compile time.
    #[test]
    fn frozen_model_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FrozenModel>();
        assert_send_sync::<ZscModel>();
    }

    #[test]
    fn clone_shares_the_allocation() {
        let a = frozen();
        let baseline = a.strong_count();
        let b = a.clone();
        assert!(a.ptr_eq(&b));
        assert_eq!(a.strong_count(), baseline + 1);
        drop(b);
        assert_eq!(a.strong_count(), baseline);
    }

    #[test]
    fn inference_surface_is_reachable_and_matches_the_mutable_model() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(9);
        let features = Matrix::random_uniform(3, 40, 1.0, &mut rng);
        let class_attributes = Matrix::random_uniform(5, 312, 0.5, &mut rng).map(f32::abs);
        let frozen = frozen();
        let mutable: ZscModel = (*frozen).clone();
        assert_eq!(
            frozen.class_logits(&features, &class_attributes).as_slice(),
            mutable
                .class_logits(&features, &class_attributes)
                .as_slice()
        );
        assert_eq!(
            frozen.attribute_logits(&features).as_slice(),
            mutable.attribute_logits(&features).as_slice()
        );
        assert_eq!(
            frozen.predict(&features, &class_attributes),
            mutable.predict(&features, &class_attributes)
        );
        assert_eq!(
            frozen.packed_class_signature(class_attributes.row(0)),
            mutable.packed_class_signature(class_attributes.row(0))
        );
        assert_eq!(
            frozen.num_trainable_params(),
            mutable.num_trainable_params()
        );
    }

    /// Freezing a model that has trained drops what training left in it,
    /// in place: no parameter holds gradient storage, and no layer,
    /// similarity kernel or temperature holds a cached activation (read off
    /// the model's `Debug` form, which prints each cache). Class logits and
    /// packed class signatures keep their bits.
    #[test]
    fn freezing_a_trained_model_drops_its_training_state() {
        let config = ModelConfig::tiny()
            .with_attribute_encoder(crate::AttributeEncoderKind::TrainableMlp)
            .with_seed(5);
        let mut model = ZscModel::new(&config, &AttributeSchema::cub200(), 40);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(4);
        let features = Matrix::random_uniform(3, 40, 1.0, &mut rng);
        let class_attributes = Matrix::random_uniform(5, 312, 0.5, &mut rng).map(f32::abs);
        let logits = model.class_logits_train(&features, &class_attributes);
        model.backward_class(&nn::loss::cross_entropy(&logits, &[0, 3, 4]).grad);
        AdamW::new().step(0.01, &mut |f| model.visit_params(f));
        let grads = |model: &ZscModel| {
            let (mut params, mut grads) = (0, 0);
            model.visit_params_ref(&mut |p| {
                params += 1;
                grads += usize::from(p.grad().is_some());
            });
            (params, grads)
        };
        let (params, trained) = grads(&model);
        assert!(params > 3 && trained == params, "{trained} of {params}");
        assert!(format!("{model:?}").contains("cache: Some"));
        let trained_logits = model.class_logits(&features, &class_attributes);
        let trained_signature = model.packed_class_signature(class_attributes.row(2));

        let frozen = model.freeze();
        assert_eq!(grads(&frozen), (params, 0));
        assert!(!format!("{:?}", *frozen).contains("cache: Some"));
        let logits = frozen.class_logits(&features, &class_attributes);
        assert_eq!(logits.as_slice(), trained_logits.as_slice());
        let signature = frozen.packed_class_signature(class_attributes.row(2));
        assert_eq!(signature, trained_signature);
    }

    #[test]
    fn concurrent_readers_share_one_allocation() {
        let frozen = frozen();
        let features = Matrix::ones(2, 40);
        let class_attributes = Matrix::ones(4, 312);
        let reference = frozen.class_logits(&features, &class_attributes);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let handle = frozen.clone();
                let (features, class_attributes, reference) =
                    (&features, &class_attributes, &reference);
                scope.spawn(move || {
                    let logits = handle.class_logits(features, class_attributes);
                    assert_eq!(logits.as_slice(), reference.as_slice());
                });
            }
        });
        assert_eq!(frozen.strong_count(), 1);
    }
}
