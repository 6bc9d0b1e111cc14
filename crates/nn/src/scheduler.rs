//! Learning-rate schedules.
//!
//! The paper optimises with AdamW plus a **cosine annealing** schedule
//! (Loshchilov & Hutter, SGDR).

/// A learning-rate schedule: maps an epoch index to the learning rate to use
/// for that epoch.
pub trait LrSchedule {
    /// Learning rate for `epoch` (0-based) out of `total_epochs`.
    fn lr_at(&self, epoch: usize, total_epochs: usize) -> f32;

    /// Human-readable schedule name (for experiment logs).
    fn name(&self) -> &'static str;
}

/// Cosine annealing from `base_lr` down to `min_lr` over the full training
/// run (a single annealing cycle, no warm restarts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CosineAnnealingLr {
    /// Initial learning rate.
    pub base_lr: f32,
    /// Final learning rate reached at the last epoch.
    pub min_lr: f32,
}

impl CosineAnnealingLr {
    /// Creates a cosine annealing schedule decaying from `base_lr` to
    /// `min_lr`.
    pub fn new(base_lr: f32, min_lr: f32) -> Self {
        Self { base_lr, min_lr }
    }
}

impl LrSchedule for CosineAnnealingLr {
    fn lr_at(&self, epoch: usize, total_epochs: usize) -> f32 {
        if total_epochs <= 1 {
            return self.base_lr;
        }
        let t = epoch.min(total_epochs - 1) as f32 / (total_epochs - 1) as f32;
        self.min_lr + 0.5 * (self.base_lr - self.min_lr) * (1.0 + (std::f32::consts::PI * t).cos())
    }

    fn name(&self) -> &'static str {
        "cosine_annealing"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_starts_high_and_ends_low() {
        let s = CosineAnnealingLr::new(0.1, 0.001);
        assert!((s.lr_at(0, 10) - 0.1).abs() < 1e-6);
        assert!((s.lr_at(9, 10) - 0.001).abs() < 1e-6);
        // Monotone non-increasing over a single cycle.
        let mut prev = f32::INFINITY;
        for e in 0..10 {
            let lr = s.lr_at(e, 10);
            assert!(lr <= prev + 1e-7);
            prev = lr;
        }
        // Midpoint is roughly the average of base and min.
        let mid = s.lr_at(5, 11);
        assert!((mid - 0.0505).abs() < 1e-3);
        assert_eq!(s.name(), "cosine_annealing");
    }

    #[test]
    fn cosine_degenerate_single_epoch() {
        let s = CosineAnnealingLr::new(0.1, 0.0);
        assert_eq!(s.lr_at(0, 1), 0.1);
        assert_eq!(s.lr_at(0, 0), 0.1);
    }
}
