//! Per-image attribute realisations.
//!
//! CUB-200 provides instance-level attribute annotations in addition to the
//! class-level matrix; the paper's phase-II training predicts the *instance*
//! attributes of each training image. This module samples synthetic
//! instance-level realisations from the class-level strengths: for each
//! attribute group the instance activates (usually) one value drawn from the
//! class's strength distribution, with annotation noise and occasional
//! missing groups — reproducing the "dominating number of inactive
//! attributes" imbalance the paper's weighted BCE loss addresses.

use crate::classes::ClassAttributes;
use crate::schema::AttributeSchema;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use tensor::Matrix;

/// One synthetic image: its class label and its binary attribute realisation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Instance {
    /// Ground-truth class index (into the dataset's class list).
    pub class: usize,
    /// Active attribute columns (one per annotated group, unsorted duplicates
    /// never occur).
    pub active_attributes: Vec<usize>,
}

impl Instance {
    /// Dense binary attribute vector of length `alpha`.
    fn attribute_vector(&self, alpha: usize) -> Vec<f32> {
        let mut v = vec![0.0f32; alpha];
        for &a in &self.active_attributes {
            v[a] = 1.0;
        }
        v
    }
}

/// Parameters controlling instance sampling.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstanceNoise {
    /// Probability that a group's active value is re-drawn uniformly at
    /// random instead of following the class distribution (annotation error /
    /// occlusion).
    pub flip_prob: f64,
    /// Probability that a group is left unannotated for the instance.
    pub dropout_prob: f64,
}

impl Default for InstanceNoise {
    fn default() -> Self {
        Self {
            flip_prob: 0.10,
            dropout_prob: 0.05,
        }
    }
}

/// A set of sampled instances together with the matrices consumed by the
/// trainers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceSet {
    instances: Vec<Instance>,
    alpha: usize,
}

impl InstanceSet {
    /// Samples `per_class` instances for every class in `classes`,
    /// deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `per_class == 0`.
    pub fn sample(
        schema: &AttributeSchema,
        classes: &ClassAttributes,
        per_class: usize,
        noise: InstanceNoise,
        seed: u64,
    ) -> Self {
        assert!(per_class > 0, "need at least one instance per class");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut instances = Vec::with_capacity(classes.num_classes() * per_class);
        for class in 0..classes.num_classes() {
            for _ in 0..per_class {
                instances.push(Self::sample_one(schema, classes, class, noise, &mut rng));
            }
        }
        Self {
            instances,
            alpha: schema.num_attributes(),
        }
    }

    fn sample_one(
        schema: &AttributeSchema,
        classes: &ClassAttributes,
        class: usize,
        noise: InstanceNoise,
        rng: &mut StdRng,
    ) -> Instance {
        let mut active = Vec::with_capacity(schema.num_groups());
        for g in 0..schema.num_groups() {
            if rng.gen_bool(noise.dropout_prob) {
                continue;
            }
            let columns = schema.group_columns(g);
            let chosen = if rng.gen_bool(noise.flip_prob) {
                columns[rng.gen_range(0..columns.len())]
            } else {
                // Sample proportionally to the *cubed* class-level strengths:
                // sharpening makes the class's dominant value clearly the most
                // likely annotation while still allowing secondary values, the
                // behaviour the per-image CUB annotations exhibit.
                let weights: Vec<f32> = columns
                    .iter()
                    .map(|&c| classes.matrix().get(class, c).max(1e-4).powi(3))
                    .collect();
                let total: f32 = weights.iter().sum();
                let mut draw = rng.gen_range(0.0..total);
                let mut pick = columns[columns.len() - 1];
                for (&col, &w) in columns.iter().zip(&weights) {
                    if draw < w {
                        pick = col;
                        break;
                    }
                    draw -= w;
                }
                pick
            };
            active.push(chosen);
        }
        Instance {
            class,
            active_attributes: active,
        }
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Returns `true` if the set holds no instances.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Attribute dimensionality `α`.
    pub fn alpha(&self) -> usize {
        self.alpha
    }

    /// Borrow of the instances in sampling order (grouped by class).
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// Indices of the instances whose class is in `classes`.
    pub fn indices_of_classes(&self, classes: &[usize]) -> Vec<usize> {
        self.instances
            .iter()
            .enumerate()
            .filter(|(_, inst)| classes.contains(&inst.class))
            .map(|(i, _)| i)
            .collect()
    }

    /// Dense `N×α` binary attribute-target matrix for the given instance
    /// indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn attribute_targets(&self, indices: &[usize]) -> Matrix {
        let rows: Vec<Vec<f32>> = indices
            .iter()
            .map(|&i| self.instances[i].attribute_vector(self.alpha))
            .collect();
        if rows.is_empty() {
            Matrix::zeros(0, self.alpha)
        } else {
            Matrix::from_rows(&rows)
        }
    }

    /// Class labels of the given instance indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn labels(&self, indices: &[usize]) -> Vec<usize> {
        indices.iter().map(|&i| self.instances[i].class).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (AttributeSchema, ClassAttributes) {
        let schema = AttributeSchema::cub200();
        let classes = ClassAttributes::generate(&schema, 10, 7);
        (schema, classes)
    }

    #[test]
    fn sampling_is_deterministic_and_counts_match() {
        let (schema, classes) = fixture();
        let a = InstanceSet::sample(&schema, &classes, 5, InstanceNoise::default(), 11);
        let b = InstanceSet::sample(&schema, &classes, 5, InstanceNoise::default(), 11);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        assert!(!a.is_empty());
        assert_eq!(a.alpha(), 312);
    }

    #[test]
    fn instances_activate_at_most_one_value_per_group() {
        let (schema, classes) = fixture();
        let set = InstanceSet::sample(&schema, &classes, 3, InstanceNoise::default(), 12);
        for inst in set.instances() {
            let mut groups_seen = vec![false; schema.num_groups()];
            for &a in &inst.active_attributes {
                let g = schema.group_of(a);
                assert!(!groups_seen[g], "group {g} activated twice");
                groups_seen[g] = true;
            }
            assert!(inst.active_attributes.len() <= schema.num_groups());
        }
    }

    #[test]
    fn most_attributes_are_inactive() {
        // The imbalance the paper's weighted BCE addresses: ≤ 28 of 312
        // attributes are active per instance.
        let (schema, classes) = fixture();
        let set = InstanceSet::sample(&schema, &classes, 4, InstanceNoise::default(), 13);
        let targets = set.attribute_targets(&(0..set.len()).collect::<Vec<_>>());
        let active_fraction = targets.mean();
        assert!(active_fraction < 0.1, "active fraction {active_fraction}");
        assert!(active_fraction > 0.05);
    }

    #[test]
    fn noise_free_instances_follow_dominant_values() {
        let (schema, classes) = fixture();
        let clean = InstanceNoise {
            flip_prob: 0.0,
            dropout_prob: 0.0,
        };
        let set = InstanceSet::sample(&schema, &classes, 5, clean, 14);
        let mut dominant_hits = 0usize;
        let mut total = 0usize;
        for inst in set.instances() {
            for &a in &inst.active_attributes {
                let g = schema.group_of(a);
                total += 1;
                if classes.dominant_attribute(inst.class, g) == a {
                    dominant_hits += 1;
                }
            }
        }
        let ratio = dominant_hits as f32 / total as f32;
        assert!(
            ratio > 0.7,
            "dominant value chosen only {ratio} of the time"
        );
    }

    #[test]
    fn class_filters_and_labels() {
        let (schema, classes) = fixture();
        let set = InstanceSet::sample(&schema, &classes, 2, InstanceNoise::default(), 15);
        let picked = set.indices_of_classes(&[3, 7]);
        assert_eq!(picked.len(), 4);
        let labels = set.labels(&picked);
        assert!(labels.iter().all(|&c| c == 3 || c == 7));
        let targets = set.attribute_targets(&picked);
        assert_eq!(targets.shape(), (4, 312));
        assert_eq!(set.attribute_targets(&[]).shape(), (0, 312));
    }

    #[test]
    fn attribute_vector_is_binary() {
        let (schema, classes) = fixture();
        let set = InstanceSet::sample(&schema, &classes, 1, InstanceNoise::default(), 16);
        let v = set.instances()[0].attribute_vector(schema.num_attributes());
        assert_eq!(v.len(), 312);
        assert!(v.iter().all(|&x| x == 0.0 || x == 1.0));
    }
}
