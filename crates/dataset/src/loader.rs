//! Mini-batch iteration with deterministic shuffling.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Iterates over mini-batches of sample indices, reshuffling at the start of
/// every epoch with a seed derived from the epoch number (so runs are
/// reproducible while batches still vary across epochs).
///
/// # Example
///
/// ```
/// use dataset::BatchIterator;
///
/// let batches: Vec<Vec<usize>> = BatchIterator::new(10, 4, 0, 123).collect();
/// assert_eq!(batches.len(), 3);
/// assert_eq!(batches.iter().map(Vec::len).sum::<usize>(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct BatchIterator {
    order: Vec<usize>,
    batch_size: usize,
    cursor: usize,
}

impl BatchIterator {
    /// Creates an iterator over `num_samples` indices in batches of
    /// `batch_size`, shuffled deterministically from `(seed, epoch)`.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn new(num_samples: usize, batch_size: usize, epoch: usize, seed: u64) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        let mut order: Vec<usize> = (0..num_samples).collect();
        let mut rng =
            StdRng::seed_from_u64(seed ^ (epoch as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        // Fisher–Yates shuffle.
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        Self {
            order,
            batch_size,
            cursor: 0,
        }
    }

    /// Creates an unshuffled (sequential) iterator, used for evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn sequential(num_samples: usize, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        Self {
            order: (0..num_samples).collect(),
            batch_size,
            cursor: 0,
        }
    }
}

impl Iterator for BatchIterator {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor >= self.order.len() {
            return None;
        }
        let end = (self.cursor + self.batch_size).min(self.order.len());
        let batch = self.order[self.cursor..end].to_vec();
        self.cursor = end;
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn covers_every_index_exactly_once() {
        let batches: Vec<Vec<usize>> = BatchIterator::new(23, 5, 0, 7).collect();
        assert_eq!(batches.len(), 5);
        let all: Vec<usize> = batches.into_iter().flatten().collect();
        assert_eq!(all.len(), 23);
        let unique: BTreeSet<usize> = all.iter().cloned().collect();
        assert_eq!(unique.len(), 23);
        assert_eq!(*unique.iter().next_back().expect("non-empty"), 22);
    }

    #[test]
    fn last_batch_may_be_smaller() {
        let batches: Vec<Vec<usize>> = BatchIterator::new(10, 4, 0, 7).collect();
        assert_eq!(batches[0].len(), 4);
        assert_eq!(batches[2].len(), 2);
    }

    #[test]
    fn shuffling_is_deterministic_per_epoch_but_differs_across_epochs() {
        let a: Vec<Vec<usize>> = BatchIterator::new(50, 8, 3, 99).collect();
        let b: Vec<Vec<usize>> = BatchIterator::new(50, 8, 3, 99).collect();
        let c: Vec<Vec<usize>> = BatchIterator::new(50, 8, 4, 99).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn sequential_preserves_order() {
        let batches: Vec<Vec<usize>> = BatchIterator::sequential(6, 4).collect();
        assert_eq!(batches, vec![vec![0, 1, 2, 3], vec![4, 5]]);
    }

    #[test]
    fn empty_input_yields_no_batches() {
        assert_eq!(BatchIterator::new(0, 4, 0, 1).count(), 0);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_size_panics() {
        let _ = BatchIterator::new(5, 0, 0, 1);
    }
}
