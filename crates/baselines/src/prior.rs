//! Trivial baselines: random guessing and the majority-class prior.
//!
//! Useful as floors in the experiment harnesses — any reported zero-shot
//! accuracy should comfortably exceed both.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Predicts classes uniformly at random (seeded, so runs are reproducible).
#[derive(Debug, Clone)]
pub struct RandomBaseline {
    num_classes: usize,
    seed: u64,
}

impl RandomBaseline {
    /// Creates a random predictor over `num_classes` classes.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes == 0`.
    pub fn new(num_classes: usize, seed: u64) -> Self {
        assert!(num_classes > 0, "need at least one class");
        Self { num_classes, seed }
    }

    /// Draws one prediction per sample.
    pub fn predict(&self, num_samples: usize) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..num_samples)
            .map(|_| rng.gen_range(0..self.num_classes))
            .collect()
    }

    /// Measured accuracy of the random predictions against labels.
    pub fn accuracy(&self, labels: &[usize]) -> f32 {
        if labels.is_empty() {
            return 0.0;
        }
        let predictions = self.predict(labels.len());
        let hits = predictions
            .iter()
            .zip(labels)
            .filter(|(p, l)| p == l)
            .count();
        hits as f32 / labels.len() as f32
    }
}

/// Always predicts the most frequent class of the training labels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MajorityClassBaseline {
    majority: usize,
}

impl MajorityClassBaseline {
    /// Fits the baseline (finds the most frequent label).
    ///
    /// # Panics
    ///
    /// Panics if `train_labels` is empty.
    pub fn fit(train_labels: &[usize]) -> Self {
        assert!(!train_labels.is_empty(), "need at least one training label");
        let max_label = *train_labels.iter().max().expect("non-empty");
        let mut counts = vec![0usize; max_label + 1];
        for &l in train_labels {
            counts[l] += 1;
        }
        let majority = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(i, _)| i)
            .expect("non-empty");
        Self { majority }
    }

    /// Accuracy on a labelled evaluation set.
    pub fn accuracy(&self, labels: &[usize]) -> f32 {
        if labels.is_empty() {
            return 0.0;
        }
        labels.iter().filter(|&&l| l == self.majority).count() as f32 / labels.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_baseline_accuracy_is_near_chance() {
        let baseline = RandomBaseline::new(10, 3);
        let labels: Vec<usize> = (0..5000).map(|i| i % 10).collect();
        let acc = baseline.accuracy(&labels);
        assert!((acc - 0.1).abs() < 0.02, "accuracy {acc}");
        assert_eq!(baseline.accuracy(&[]), 0.0);
        assert_eq!(baseline.predict(7).len(), 7);
    }

    #[test]
    fn random_baseline_is_deterministic_in_seed() {
        let a = RandomBaseline::new(5, 9).predict(20);
        let b = RandomBaseline::new(5, 9).predict(20);
        assert_eq!(a, b);
    }

    #[test]
    fn majority_baseline_picks_most_frequent() {
        let baseline = MajorityClassBaseline::fit(&[2, 2, 1, 2, 0]);
        assert_eq!(baseline.accuracy(&[2]), 1.0);
        assert!((baseline.accuracy(&[2, 2, 0, 1]) - 0.5).abs() < 1e-6);
        assert_eq!(baseline.accuracy(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one training label")]
    fn majority_baseline_rejects_empty_input() {
        let _ = MajorityClassBaseline::fit(&[]);
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn random_baseline_rejects_zero_classes() {
        let _ = RandomBaseline::new(0, 1);
    }
}
