//! Evaluation metrics for the HDC-ZSC reproduction.
//!
//! The paper reports three families of metrics:
//!
//! * **top-1 / top-5 accuracy** for zero-shot classification (Fig. 4,
//!   Table II) — [`topk`];
//! * **Weighted Mean Average Precision (WMAP)** and per-group top-1 accuracy
//!   for attribute extraction (Table I) — [`average_precision`](fn@average_precision) and
//!   [`wmap`]; the weighting compensates for attributes that are rare in the
//!   dataset;
//! * **µ ± σ across seeds** (§IV-A) — [`aggregate`].
//!
//! Beyond the paper, the serving roadmap adds three metric families:
//!
//! * **generalized zero-shot (GZSL)** — per-group accuracy over the
//!   seen/unseen partition and the harmonic-mean H metric — [`gzsl`];
//! * **open-set rejection** — rejection precision/recall at a calibrated
//!   similarity threshold and threshold-free AUROC — [`open_set`];
//! * **streaming drift detection** — EWMA trends and Page–Hinkley
//!   change-point alarms over per-class prototype displacement under
//!   continual learning — [`stream`].
//!
//! # Example
//!
//! ```
//! use metrics::topk::top1_accuracy;
//! use tensor::Matrix;
//!
//! let logits = Matrix::from_rows(&[vec![0.9, 0.1], vec![0.2, 0.8]]);
//! assert_eq!(top1_accuracy(&logits, &[0, 1]), 1.0);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod aggregate;
pub mod average_precision;
pub mod gzsl;
pub mod open_set;
pub mod percentile;
pub mod stream;
pub mod topk;
pub mod wmap;

pub use aggregate::SeedAggregate;
pub use average_precision::average_precision;
pub use gzsl::{harmonic_mean, partitioned_top1_accuracy, PartitionedAccuracy};
pub use open_set::{auroc, rejection_report, RejectionReport};
pub use percentile::{nearest_rank, LatencySummary};
pub use stream::{
    ClassDrift, DriftReport, Ewma, PageHinkley, StreamDriftConfig, StreamDriftDetector,
};
pub use topk::{top1_accuracy, topk_accuracy};
pub use wmap::{weighted_average_precision, GroupMetrics};
