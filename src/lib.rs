//! Workspace meta-crate for the HDC-ZSC reproduction.
//!
//! This crate exists to host the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`); it re-exports the workspace
//! crates so examples can refer to everything through one dependency.
//!
//! * [`engine`] — batched inference engine (packed, sharded and routed
//!   class memories, row-parallel dense scoring);
//! * [`serve`] — online serving (hot-swappable snapshot `QueryServer`);
//! * [`hdc`] — hyperdimensional-computing substrate (hypervectors, binding,
//!   bundling, codebooks);
//! * [`tensor`] / [`nn`] — dense linear algebra and the trainable-layer
//!   substrate (losses, AdamW, cosine kernel);
//! * [`dataset`] — the synthetic CUB-200-2011 stand-in (schema, class
//!   attributes, instances, simulated backbones, splits);
//! * [`hdc_zsc`] — the paper's model and training pipeline;
//! * [`baselines`] — ESZSL, DAP and the literature reference registry;
//! * [`metrics`] — top-k accuracy, WMAP, seed aggregation.
//!
//! See `README.md` for build/test/bench instructions, the full crate map,
//! and the experiment-harness walkthrough.

pub use baselines;
pub use dataset;
pub use engine;
pub use hdc;
pub use hdc_zsc;
pub use metrics;
pub use nn;
pub use serve;
pub use tensor;
