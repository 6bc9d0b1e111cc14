//! Class-level continuous attribute matrices (the analogue of CUB's
//! annotator-agreement percentages).

use crate::schema::AttributeSchema;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensor::Matrix;

/// The continuous class-attribute matrix `A ∈ R^{C×α}` plus class names.
///
/// Each row describes one class; entry `(c, x)` is the strength with which
/// attribute `x` applies to class `c` (in `[0, 1]`, like the fraction of CUB
/// annotators who marked the attribute). Per attribute group each class has a
/// dominant value with high strength, optionally a secondary value with
/// moderate strength, and low residual strengths elsewhere — which is the
/// structure the real matrix exhibits and what makes fine-grained zero-shot
/// transfer possible (classes share values across groups in novel
/// combinations).
///
/// # Example
///
/// ```
/// use dataset::{AttributeSchema, ClassAttributes};
///
/// let schema = AttributeSchema::cub200();
/// let classes = ClassAttributes::generate(&schema, 200, 42);
/// assert_eq!(classes.matrix().shape(), (200, 312));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClassAttributes {
    names: Vec<String>,
    matrix: Matrix,
    /// Per class and per group, the dominant value's attribute column.
    dominant: Vec<Vec<usize>>,
}

impl ClassAttributes {
    /// Strength assigned to a class's dominant value within a group.
    const DOMINANT_STRENGTH: f32 = 0.9;
    /// Strength assigned to the optional secondary value.
    const SECONDARY_STRENGTH: f32 = 0.35;
    /// Upper bound of the residual (background) strengths.
    const RESIDUAL_MAX: f32 = 0.08;

    /// Generates `num_classes` mutually independent class descriptions over
    /// the given schema, deterministically from `seed`.
    ///
    /// Every class draws its dominant value independently for every group, so
    /// two classes differ in almost every group — an *easy* discrimination
    /// regime. For the fine-grained regime the paper evaluates (bird species
    /// that differ in only a few visible attributes), use
    /// [`ClassAttributes::generate_structured`].
    ///
    /// # Panics
    ///
    /// Panics if `num_classes == 0`.
    pub fn generate(schema: &AttributeSchema, num_classes: usize, seed: u64) -> Self {
        Self::generate_structured(schema, num_classes, 0, 0, seed)
    }

    /// Generates `num_classes` class descriptions organised into
    /// `num_families` families (genera): classes within a family share a
    /// common prototype and differ from it in only `distinct_groups`
    /// randomly chosen attribute groups.
    ///
    /// This reproduces the *fine-grained* character of CUB-200 — most of a
    /// bird's attributes are shared with related species and only a handful
    /// are discriminative — which is what keeps zero-shot accuracy well below
    /// 100% in the paper. With `num_families == 0` (or `>= num_classes`)
    /// every class is independent.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes == 0`.
    pub fn generate_structured(
        schema: &AttributeSchema,
        num_classes: usize,
        num_families: usize,
        distinct_groups: usize,
        seed: u64,
    ) -> Self {
        assert!(num_classes > 0, "need at least one class");
        let mut rng = StdRng::seed_from_u64(seed);
        let alpha = schema.num_attributes();
        let groups = schema.num_groups();
        let structured = num_families > 0 && num_families < num_classes;
        // Family prototypes: one dominant column per group.
        let prototype_count = if structured {
            num_families
        } else {
            num_classes
        };
        let prototypes: Vec<Vec<usize>> = (0..prototype_count)
            .map(|_| {
                (0..groups)
                    .map(|g| {
                        let columns = schema.group_columns(g);
                        columns[rng.gen_range(0..columns.len())]
                    })
                    .collect()
            })
            .collect();
        let mut matrix = Matrix::zeros(num_classes, alpha);
        let mut dominant = Vec::with_capacity(num_classes);
        for c in 0..num_classes {
            // Start from the family prototype (or an independent one).
            let prototype = &prototypes[if structured { c % num_families } else { c }];
            let mut class_dominant = prototype.clone();
            if structured {
                // Mutate a few groups so sibling species stay distinguishable
                // (always at least one, so no two classes are identical).
                let mutations = distinct_groups.clamp(1, groups);
                let mut mutated = Vec::new();
                while mutated.len() < mutations {
                    let g = rng.gen_range(0..groups);
                    if mutated.contains(&g) {
                        continue;
                    }
                    let columns = schema.group_columns(g);
                    if columns.len() < 2 {
                        mutated.push(g);
                        continue;
                    }
                    loop {
                        let candidate = columns[rng.gen_range(0..columns.len())];
                        if candidate != prototype[g] {
                            class_dominant[g] = candidate;
                            break;
                        }
                    }
                    mutated.push(g);
                }
            }
            // Low residual strengths everywhere.
            for x in 0..alpha {
                matrix.set(c, x, rng.gen_range(0.0..Self::RESIDUAL_MAX));
            }
            for (g, &dominant_col) in class_dominant.iter().enumerate() {
                let columns = schema.group_columns(g);
                matrix.set(
                    c,
                    dominant_col,
                    Self::DOMINANT_STRENGTH + rng.gen_range(0.0..(1.0 - Self::DOMINANT_STRENGTH)),
                );
                // With 30% probability the class also has a secondary value
                // (e.g. a bird whose crown is "black" for some annotators and
                // "grey" for others).
                if columns.len() > 1 && rng.gen_bool(0.3) {
                    loop {
                        let secondary = columns[rng.gen_range(0..columns.len())];
                        if secondary != dominant_col {
                            matrix.set(
                                c,
                                secondary,
                                Self::SECONDARY_STRENGTH + rng.gen_range(-0.1f32..0.1),
                            );
                            break;
                        }
                    }
                }
            }
            dominant.push(class_dominant);
        }
        let names = (0..num_classes)
            .map(|c| format!("species-{c:03}"))
            .collect();
        Self {
            names,
            matrix,
            dominant,
        }
    }

    /// Number of classes `C`.
    pub fn num_classes(&self) -> usize {
        self.matrix.rows()
    }

    /// The continuous class-attribute matrix `A ∈ R^{C×α}`.
    pub fn matrix(&self) -> &Matrix {
        &self.matrix
    }

    /// Class names (`species-000` …).
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The attribute column holding class `class`'s dominant value for group
    /// `group`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn dominant_attribute(&self, class: usize, group: usize) -> usize {
        self.dominant[class][group]
    }

    /// Returns the sub-matrix containing only the rows of the given classes
    /// (in the given order) — used to build the per-split class-attribute
    /// matrices fed to the attribute encoder.
    ///
    /// # Panics
    ///
    /// Panics if any class index is out of range.
    pub fn select(&self, classes: &[usize]) -> Matrix {
        self.matrix.select_rows(classes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> AttributeSchema {
        AttributeSchema::cub200()
    }

    #[test]
    fn shape_and_determinism() {
        let s = schema();
        let a = ClassAttributes::generate(&s, 50, 1);
        let b = ClassAttributes::generate(&s, 50, 1);
        let c = ClassAttributes::generate(&s, 50, 2);
        assert_eq!(a.matrix().shape(), (50, 312));
        assert_eq!(a, b, "generation must be deterministic in the seed");
        assert_ne!(a, c, "different seeds give different classes");
        assert_eq!(a.num_classes(), 50);
        assert_eq!(a.names().len(), 50);
    }

    #[test]
    fn every_group_has_a_dominant_value() {
        let s = schema();
        let classes = ClassAttributes::generate(&s, 20, 3);
        for c in 0..20 {
            for g in 0..s.num_groups() {
                let dom = classes.dominant_attribute(c, g);
                assert_eq!(s.group_of(dom), g);
                assert!(classes.matrix().get(c, dom) >= ClassAttributes::DOMINANT_STRENGTH);
            }
        }
    }

    #[test]
    fn strengths_lie_in_unit_interval() {
        let s = schema();
        let classes = ClassAttributes::generate(&s, 30, 4);
        for &v in classes.matrix().as_slice() {
            assert!((0.0..=1.0).contains(&v), "strength {v} out of range");
        }
    }

    #[test]
    fn classes_are_distinguishable() {
        // Two random classes should differ in the dominant value of most
        // groups — otherwise zero-shot discrimination would be impossible.
        let s = schema();
        let classes = ClassAttributes::generate(&s, 100, 5);
        let mut identical_pairs = 0;
        for a in 0..20 {
            for b in (a + 1)..20 {
                let same = (0..s.num_groups())
                    .filter(|&g| {
                        classes.dominant_attribute(a, g) == classes.dominant_attribute(b, g)
                    })
                    .count();
                if same == s.num_groups() {
                    identical_pairs += 1;
                }
            }
        }
        assert_eq!(identical_pairs, 0, "classes must not collide");
    }

    #[test]
    fn select_picks_rows_in_order() {
        let s = schema();
        let classes = ClassAttributes::generate(&s, 10, 6);
        let sub = classes.select(&[7, 2]);
        assert_eq!(sub.rows(), 2);
        assert_eq!(sub.row(0), classes.matrix().row(7));
        assert_eq!(sub.row(1), classes.matrix().row(2));
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn zero_classes_rejected() {
        let _ = ClassAttributes::generate(&schema(), 0, 1);
    }

    #[test]
    fn structured_classes_share_most_groups_within_a_family() {
        let s = schema();
        let num_classes = 40;
        let families = 8;
        let distinct = 4;
        let classes = ClassAttributes::generate_structured(&s, num_classes, families, distinct, 9);
        // Classes in the same family (same index mod families) differ in at
        // most `distinct` groups; classes in different families differ in
        // many more on average.
        let differing = |a: usize, b: usize| {
            (0..s.num_groups())
                .filter(|&g| classes.dominant_attribute(a, g) != classes.dominant_attribute(b, g))
                .count()
        };
        let same_family = differing(0, families); // classes 0 and 8 share family 0
        assert!(
            same_family <= 2 * distinct,
            "siblings differ in {same_family} groups"
        );
        assert!(same_family >= 1, "siblings must stay distinguishable");
        let cross_family = differing(0, 1);
        assert!(
            cross_family > 2 * distinct,
            "cross-family classes differ in only {cross_family} groups"
        );
    }

    #[test]
    fn structured_generation_with_zero_families_matches_independent() {
        let s = schema();
        let a = ClassAttributes::generate(&s, 12, 3);
        let b = ClassAttributes::generate_structured(&s, 12, 0, 0, 3);
        assert_eq!(a, b);
    }
}
