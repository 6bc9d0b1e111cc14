//! Aggregation of metrics across random seeds (the `µ ± σ` protocol of
//! §IV-A: "results are obtained … by running five trials with different
//! seeds").

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use tensor::Summary;

/// Collects named scalar metrics across repeated trials and summarises each
/// as `µ ± σ`.
///
/// # Example
///
/// ```
/// use metrics::SeedAggregate;
///
/// let mut agg = SeedAggregate::new();
/// agg.record("top1", 63.5);
/// agg.record("top1", 64.1);
/// let summary = agg.summary("top1").expect("metric recorded");
/// assert_eq!(summary.count(), 2);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SeedAggregate {
    samples: BTreeMap<String, Vec<f32>>,
}

impl SeedAggregate {
    /// Creates an empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of the named metric.
    pub fn record(&mut self, metric: impl Into<String>, value: f32) {
        self.samples.entry(metric.into()).or_default().push(value);
    }

    /// Summary (`µ ± σ`, min, max) of the named metric, if recorded.
    pub fn summary(&self, metric: &str) -> Option<Summary> {
        self.samples.get(metric).map(|s| Summary::from_samples(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_aggregate() {
        let agg = SeedAggregate::new();
        assert!(agg.summary("missing").is_none());
    }

    #[test]
    fn record_and_summarise() {
        let mut agg = SeedAggregate::new();
        for v in [62.0, 63.0, 64.0, 65.0, 66.0] {
            agg.record("top1", v);
        }
        agg.record("top5", 88.0);
        let s = agg.summary("top1").expect("recorded");
        assert!((s.mean() - 64.0).abs() < 1e-5);
        assert_eq!(s.count(), 5);
        assert_eq!(agg.summary("top5").expect("recorded").count(), 1);
    }
}
