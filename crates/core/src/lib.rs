//! **HDC-ZSC** — Zero-shot Classification using Hyperdimensional Computing.
//!
//! This crate implements the primary contribution of the DATE 2024 paper
//! *"Zero-shot Classification using Hyperdimensional Computing"* (Ruffino et
//! al.): a hybrid zero-shot classifier made of
//!
//! 1. a trainable **image encoder** `γ(·)` — a (simulated) pretrained
//!    backbone followed by an FC projection to the shared embedding
//!    dimension `d` ([`ImageEncoder`]);
//! 2. a **stationary HDC attribute encoder** `ϕ(·)` — random bipolar group
//!    and value codebooks bound on the fly into a 312-row attribute
//!    dictionary `B`, from which class embeddings are formed as `ϕ = A×B`
//!    ([`HdcAttributeEncoder`]); a trainable 2-layer MLP variant
//!    ([`MlpAttributeEncoder`]) is provided as the paper's *Trainable-MLP*
//!    baseline;
//! 3. a **cosine similarity kernel** with a learnable temperature relating
//!    image and class embeddings ([`nn::CosineSimilarity`]).
//!
//! Training follows the paper's three phases:
//!
//! * **Phase I** — backbone pre-training (absorbed into the simulated
//!   backbone, see the `dataset` crate);
//! * **Phase II** — attribute extraction: the FC projection is trained with
//!   a weighted BCE loss to align image embeddings with the attribute
//!   dictionary ([`AttributeExtractionTrainer`]);
//! * **Phase III** — zero-shot classification: the FC projection (and, for
//!   the MLP variant, the attribute encoder) is fine-tuned with cross
//!   entropy over class logits ([`ZscTrainer`]), then evaluated on classes
//!   never seen during training ([`evaluate_zsc`]).
//!
//! # Quickstart
//!
//! ```
//! use dataset::{CubLikeDataset, DatasetConfig, SplitKind};
//! use hdc_zsc::{ModelConfig, Pipeline, TrainConfig};
//!
//! let data = CubLikeDataset::generate(&DatasetConfig::tiny(1));
//! let model_cfg = ModelConfig::tiny();
//! let train_cfg = TrainConfig::fast();
//! let outcome = Pipeline::new(model_cfg, train_cfg).run(&data, SplitKind::Zs, 1);
//! assert!(outcome.zsc.top1 > 0.0);
//! ```
//!
//! # Deployment lifecycle
//!
//! Models follow a **train-once / serve-many** lifecycle. Training owns
//! the one `&mut` [`ZscModel`] handle; everything downstream reads
//! through `&self`:
//!
//! * [`Pipeline::run_returning_model`] returns the exact model behind
//!   the reported outcome (nothing is retrained);
//! * [`ModelFile::encode`] + [`ModelFile::save`] persist it as one
//!   binary, checksummed file named by its content, and
//!   [`ModelFile::load`] (or [`ModelFile::decode`] of bytes in hand)
//!   restores it bit-identically on the whole inference surface, after
//!   checking it against the serving schema;
//! * [`ZscModel::freeze`] produces a [`FrozenModel`] — a cheaply
//!   clonable, `Send + Sync` immutable view that any number of threads
//!   score against without copying weights; freezing drops the gradients
//!   and cached activations training left behind;
//! * the `serve` crate turns that frozen view into an online service
//!   (micro-batched query serving, live class registration, crash-safe
//!   durability, a TCP front-end) — see `docs/architecture.md` at the
//!   repository root for the full data-flow picture.
//!
//! ```
//! use dataset::{CubLikeDataset, DatasetConfig, SplitKind};
//! use hdc_zsc::{ModelConfig, ModelFile, Pipeline, TrainConfig};
//!
//! let data = CubLikeDataset::generate(&DatasetConfig::tiny(1));
//! let pipeline = Pipeline::new(ModelConfig::tiny(), TrainConfig::fast());
//! let (_outcome, model) = pipeline.run_returning_model(&data, SplitKind::Zs, 1);
//! let file = ModelFile::encode(&model, data.schema());
//! // later, in the serving process: decode into the immutable view
//! let frozen = ModelFile::decode(file.name(), file.bytes(), data.schema())
//!     .expect("schema matches")
//!     .freeze();
//! let _embeddings = frozen.embed_images(&data.features_and_labels(
//!     data.split(SplitKind::Zs).eval_classes()).0);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod attribute_encoder;
pub mod checkpoint;
pub mod config;
pub mod eval;
pub mod frozen;
pub mod image_encoder;
pub mod model;
pub mod params;
pub mod pipeline;
pub mod train;

pub use attribute_encoder::{
    AttributeEncoder, AttributeEncoderKind, HdcAttributeEncoder, MlpAttributeEncoder,
};
pub use checkpoint::{
    Checkpoint, CheckpointDelta, CheckpointError, ModelFile, SchemaFingerprint, ServeBase,
    StreamCheckpoint, CHECKPOINT_FORMAT_VERSION,
};
pub use config::{ModelConfig, TrainConfig};
pub use eval::{
    evaluate_attribute_extraction, evaluate_gzsl, evaluate_zsc, AttributeExtractionReport,
    GzslReport, SimilarityCalibration, SimilarityCalibrator, ZscReport,
};
pub use frozen::FrozenModel;
pub use image_encoder::ImageEncoder;
pub use model::ZscModel;
pub use params::ParameterBreakdown;
pub use pipeline::{stratified_nozs_split, Pipeline, PipelineOutcome};
pub use train::{AttributeExtractionTrainer, TrainingHistory, ZscTrainer};
