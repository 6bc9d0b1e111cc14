//! Seeded synthetic workload generator for large-label-space benchmarks.
//!
//! The bird-shaped dataset in this crate tops out at a few hundred classes;
//! the engine's sharded and routed class memories are built for 100k–1M.
//! This module generates ±1 class prototypes and query batches at arbitrary
//! dimensionality, class count, and noise — *clustered*, the way real label
//! spaces are (fine-grained classes form families), so coarse-to-fine
//! indexes have structure to find. `serve_sim --classes N` and the engine's
//! routed-index tests share it.
//!
//! # Model
//!
//! `clusters` latent ±1 centers are drawn uniformly; each class prototype
//! copies its center (round-robin assignment) and flips each bit with
//! probability `class_noise`; each query copies a prototype (cycling
//! through the classes) and flips each bit with probability `query_noise`.
//! Everything is a pure function of [`WorkloadConfig`], via the same seeded
//! [`StdRng`] stream the rest of the crate uses — same config, same bits,
//! on every platform.
//!
//! # Example
//!
//! ```
//! use dataset::workload::{SyntheticWorkload, WorkloadConfig};
//!
//! let workload = SyntheticWorkload::generate(&WorkloadConfig {
//!     dim: 128,
//!     classes: 40,
//!     queries: 8,
//!     ..WorkloadConfig::default()
//! });
//! assert_eq!(workload.prototypes.len(), 40);
//! assert_eq!(workload.queries.len(), 8);
//! // Each query is a noisy copy of a known prototype.
//! assert!(workload.query_class.iter().all(|&c| c < 40));
//! ```

use engine::PackedClassMemory;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape and noise of a [`SyntheticWorkload`]; every field participates in
/// the deterministic-generation contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Hypervector dimensionality of prototypes and queries.
    pub dim: usize,
    /// Number of class prototypes to generate.
    pub classes: usize,
    /// Number of latent cluster centers; `0` sizes automatically to
    /// `⌈√classes⌉`.
    pub clusters: usize,
    /// Per-bit flip probability from a center to its class prototypes.
    pub class_noise: f64,
    /// Per-bit flip probability from a prototype to its queries.
    pub query_noise: f64,
    /// Number of query rows to generate.
    pub queries: usize,
    /// Number of distractor rows to generate — uniform ±1 rows derived from
    /// no prototype, the open-set half of a mixed batch. Drawn after every
    /// other draw, so `distractors: 0` reproduces the historical stream
    /// bit-for-bit.
    pub distractors: usize,
    /// Seed of the generation stream.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            dim: 2048,
            classes: 1000,
            clusters: 0,
            class_noise: 0.05,
            query_noise: 0.02,
            queries: 64,
            distractors: 0,
            seed: 0x0c1a_55e5,
        }
    }
}

impl WorkloadConfig {
    /// The effective latent cluster count (`⌈√classes⌉` when automatic).
    fn effective_clusters(&self) -> usize {
        match self.clusters {
            0 => (self.classes as f64).sqrt().ceil() as usize,
            c => c,
        }
        .clamp(1, self.classes.max(1))
    }
}

/// A generated workload: labelled clustered ±1 class prototypes plus noisy
/// query rows with known ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticWorkload {
    /// `class000000`-style labels, one per prototype, in index order.
    pub labels: Vec<String>,
    /// One ±1 prototype row per class.
    pub prototypes: Vec<Vec<i8>>,
    /// The latent cluster each prototype was perturbed from.
    pub prototype_cluster: Vec<usize>,
    /// Noisy ±1 query rows.
    pub queries: Vec<Vec<i8>>,
    /// The prototype index each query was perturbed from — the ground-truth
    /// class for recall accounting.
    pub query_class: Vec<usize>,
    /// Uniform ±1 rows derived from no prototype — open-set distractors
    /// whose correct answer is "unknown".
    pub distractor_queries: Vec<Vec<i8>>,
}

/// Draws a uniform ±1 row.
fn random_signs(rng: &mut StdRng, dim: usize) -> Vec<i8> {
    (0..dim)
        .map(|_| if rng.gen::<bool>() { 1 } else { -1 })
        .collect()
}

/// Copies `base` and flips each position with probability `noise`.
fn perturb(rng: &mut StdRng, base: &[i8], noise: f64) -> Vec<i8> {
    base.iter()
        .map(|&s| if rng.gen_bool(noise) { -s } else { s })
        .collect()
}

impl SyntheticWorkload {
    /// Generates the workload described by `config`; pure in `config`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`, `classes == 0`, or a noise probability is
    /// outside `[0, 1]`.
    pub fn generate(config: &WorkloadConfig) -> Self {
        assert!(config.dim > 0, "dimensionality must be positive");
        assert!(config.classes > 0, "at least one class is required");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let clusters = config.effective_clusters();
        let centers: Vec<Vec<i8>> = (0..clusters)
            .map(|_| random_signs(&mut rng, config.dim))
            .collect();
        let mut labels = Vec::with_capacity(config.classes);
        let mut prototypes = Vec::with_capacity(config.classes);
        let mut prototype_cluster = Vec::with_capacity(config.classes);
        for c in 0..config.classes {
            let cluster = c % clusters;
            labels.push(format!("class{c:06}"));
            prototypes.push(perturb(&mut rng, &centers[cluster], config.class_noise));
            prototype_cluster.push(cluster);
        }
        let mut queries = Vec::with_capacity(config.queries);
        let mut query_class = Vec::with_capacity(config.queries);
        for q in 0..config.queries {
            let class = q % config.classes;
            queries.push(perturb(&mut rng, &prototypes[class], config.query_noise));
            query_class.push(class);
        }
        // Distractors come last so configs with `distractors: 0` keep the
        // exact historical rng stream (and therefore every pinned golden).
        let distractor_queries = (0..config.distractors)
            .map(|_| random_signs(&mut rng, config.dim))
            .collect();
        Self {
            labels,
            prototypes,
            prototype_cluster,
            queries,
            query_class,
            distractor_queries,
        }
    }

    /// Loads every prototype into a fresh [`PackedClassMemory`] in label
    /// order — the exhaustive-scorer setup the routed-index tests and
    /// `serve_sim` previously each rebuilt by hand.
    ///
    /// # Panics
    ///
    /// Panics if the workload holds no prototypes ([`generate`] always
    /// produces at least one).
    ///
    /// [`generate`]: SyntheticWorkload::generate
    pub fn packed_memory(&self) -> PackedClassMemory {
        let dim = self
            .prototypes
            .first()
            .expect("packed_memory needs at least one prototype")
            .len();
        let mut memory = PackedClassMemory::new(dim);
        for (label, row) in self.labels.iter().zip(&self.prototypes) {
            memory.insert_signs(label.clone(), row);
        }
        memory
    }
}

/// Shape of a [`GzslWorkload`]: an attribute-level generalized zero-shot
/// benchmark with a seen/unseen class split and open-set distractors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GzslWorkloadConfig {
    /// Total class count (seen + unseen).
    pub classes: usize,
    /// How many of the classes are *unseen* — the last `unseen` indices.
    pub unseen: usize,
    /// Width of the latent class-attribute vectors (α in the paper's
    /// notation; 312 for the CUB-shaped schema).
    pub attribute_dim: usize,
    /// Class-conditioned queries, assigned round-robin over the union class
    /// set so both partitions are populated.
    pub queries: usize,
    /// Open-set distractor queries drawn from no class.
    pub distractors: usize,
    /// Amplitude of the uniform per-attribute jitter applied to each
    /// class-conditioned query (clamped back to `[0, 1]`).
    pub noise: f64,
    /// Seed of the generation stream.
    pub seed: u64,
}

impl Default for GzslWorkloadConfig {
    fn default() -> Self {
        Self {
            classes: 40,
            unseen: 10,
            attribute_dim: 312,
            queries: 80,
            distractors: 16,
            noise: 0.05,
            seed: 0x675a_1000,
        }
    }
}

/// An attribute-level GZSL workload: continuous class-attribute vectors over
/// a seen/unseen split, mixed class-conditioned queries, and distractor
/// queries matching no class — everything a generalized zero-shot evaluation
/// with open-set rejection needs, as a pure function of its config.
///
/// Unlike [`SyntheticWorkload`] (which emits ±1 hypervectors for the engine
/// layer), this generator works at the *attribute* level: rows are continuous
/// `[0, 1]` strengths shaped like [`ClassAttributes`](crate::ClassAttributes)
/// signatures, so a model's attribute encoder can embed both the class set
/// and the queries.
#[derive(Debug, Clone, PartialEq)]
pub struct GzslWorkload {
    /// `class000000`-style labels, one per class, in index order.
    pub labels: Vec<String>,
    /// One `attribute_dim`-wide `[0, 1]` attribute vector per class.
    pub class_attributes: Vec<Vec<f32>>,
    /// Flag per class, `true` for the unseen partition (the last
    /// `config.unseen` classes).
    pub unseen: Vec<bool>,
    /// Mixed query rows at attribute level (class-conditioned first, then
    /// distractors).
    pub query_attributes: Vec<Vec<f32>>,
    /// Ground truth per query row: `Some(class)` for class-conditioned
    /// queries, `None` for distractors.
    pub query_class: Vec<Option<usize>>,
}

/// Draws a uniform `[0, 1)` attribute row.
fn random_attributes(rng: &mut StdRng, dim: usize) -> Vec<f32> {
    (0..dim).map(|_| rng.gen_range(0.0f32..1.0)).collect()
}

impl GzslWorkload {
    /// Generates the workload described by `config`; pure in `config`.
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0`, `unseen >= classes`, `attribute_dim == 0`,
    /// or `noise` is outside `[0, 1]`.
    pub fn generate(config: &GzslWorkloadConfig) -> Self {
        assert!(config.classes > 0, "at least one class is required");
        assert!(
            config.unseen < config.classes,
            "unseen classes ({}) must leave at least one seen class of {}",
            config.unseen,
            config.classes
        );
        assert!(config.attribute_dim > 0, "attribute_dim must be positive");
        assert!(
            (0.0..=1.0).contains(&config.noise),
            "noise must lie in [0, 1]"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let labels = (0..config.classes)
            .map(|c| format!("class{c:06}"))
            .collect();
        let class_attributes: Vec<Vec<f32>> = (0..config.classes)
            .map(|_| random_attributes(&mut rng, config.attribute_dim))
            .collect();
        let unseen: Vec<bool> = (0..config.classes)
            .map(|c| c >= config.classes - config.unseen)
            .collect();
        let mut query_attributes = Vec::with_capacity(config.queries + config.distractors);
        let mut query_class = Vec::with_capacity(config.queries + config.distractors);
        for q in 0..config.queries {
            let class = q % config.classes;
            let row = class_attributes[class]
                .iter()
                .map(|&a| {
                    let jitter = rng.gen_range(-config.noise..=config.noise) as f32;
                    (a + jitter).clamp(0.0, 1.0)
                })
                .collect();
            query_attributes.push(row);
            query_class.push(Some(class));
        }
        for _ in 0..config.distractors {
            query_attributes.push(random_attributes(&mut rng, config.attribute_dim));
            query_class.push(None);
        }
        Self {
            labels,
            class_attributes,
            unseen,
            query_attributes,
            query_class,
        }
    }

    /// Indices of the seen classes, ascending.
    pub fn seen_classes(&self) -> Vec<usize> {
        (0..self.unseen.len())
            .filter(|&c| !self.unseen[c])
            .collect()
    }

    /// Indices of the unseen classes, ascending.
    pub fn unseen_classes(&self) -> Vec<usize> {
        (0..self.unseen.len()).filter(|&c| self.unseen[c]).collect()
    }
}

/// Shape of a [`StreamWorkload`]: a labeled example stream whose class
/// means random-walk over time — the concept-drift half of a streaming
/// continual-learning drill.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamWorkloadConfig {
    /// Number of streamed classes.
    pub classes: usize,
    /// Width of the backbone-feature rows the stream emits.
    pub feature_dim: usize,
    /// Number of time steps the stream spans.
    pub steps: usize,
    /// Examples emitted per step, assigned round-robin over the classes so
    /// every class keeps receiving evidence.
    pub examples_per_step: usize,
    /// Amplitude of the uniform per-feature random-walk step each class
    /// mean takes *between* time steps — the concept-drift rate (`0`
    /// freezes the means: a stationary stream).
    pub drift: f64,
    /// Amplitude of the uniform per-feature jitter applied to each emitted
    /// example around its class's current mean.
    pub noise: f64,
    /// Seed of the generation stream.
    pub seed: u64,
}

impl Default for StreamWorkloadConfig {
    fn default() -> Self {
        Self {
            classes: 8,
            feature_dim: 48,
            steps: 12,
            examples_per_step: 8,
            drift: 0.08,
            noise: 0.05,
            seed: 0x57e1_a000,
        }
    }
}

/// One streamed labeled example.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamExample {
    /// The time step the example was emitted in.
    pub step: usize,
    /// Index of the class the example belongs to.
    pub class: usize,
    /// The backbone-feature row.
    pub features: Vec<f32>,
}

/// A seeded concept-drift example stream: per-class feature means
/// random-walking over time, per-example noise around the current mean —
/// as a pure function of its config, so a serving drill and its solo
/// recomputation consume bit-identical examples.
///
/// Unlike [`SyntheticWorkload`] (engine-level ±1 rows) and [`GzslWorkload`]
/// (attribute-level `[0, 1]` rows), this generator emits *backbone feature*
/// rows: the shape a query server's observation path encodes through the
/// model's image encoder.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamWorkload {
    /// `class000000`-style labels, one per class, in index order.
    pub labels: Vec<String>,
    /// Each class's mean at step 0, before any drift.
    pub initial_means: Vec<Vec<f32>>,
    /// Each class's mean after the final step's random walk.
    pub final_means: Vec<Vec<f32>>,
    /// The emitted examples, in stream order (`steps * examples_per_step`
    /// of them).
    pub examples: Vec<StreamExample>,
}

impl StreamWorkload {
    /// Generates the stream described by `config`; pure in `config`.
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0`, `feature_dim == 0`, or `drift` / `noise`
    /// is negative.
    pub fn generate(config: &StreamWorkloadConfig) -> Self {
        assert!(config.classes > 0, "at least one class is required");
        assert!(config.feature_dim > 0, "feature_dim must be positive");
        assert!(config.drift >= 0.0, "drift must be non-negative");
        assert!(config.noise >= 0.0, "noise must be non-negative");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let labels = (0..config.classes)
            .map(|c| format!("class{c:06}"))
            .collect();
        let initial_means: Vec<Vec<f32>> = (0..config.classes)
            .map(|_| {
                (0..config.feature_dim)
                    .map(|_| rng.gen_range(-1.0f32..1.0))
                    .collect()
            })
            .collect();
        let mut means = initial_means.clone();
        let mut examples = Vec::with_capacity(config.steps * config.examples_per_step);
        for step in 0..config.steps {
            for e in 0..config.examples_per_step {
                let class = (step * config.examples_per_step + e) % config.classes;
                let features = means[class]
                    .iter()
                    .map(|&m| {
                        if config.noise == 0.0 {
                            m
                        } else {
                            m + rng.gen_range(-config.noise..=config.noise) as f32
                        }
                    })
                    .collect();
                examples.push(StreamExample {
                    step,
                    class,
                    features,
                });
            }
            // The walk happens *between* steps, so step 0 samples the
            // initial means exactly and every later step sees means that
            // have moved `step` times.
            if config.drift > 0.0 {
                for mean in &mut means {
                    for m in mean.iter_mut() {
                        *m += rng.gen_range(-config.drift..=config.drift) as f32;
                    }
                }
            }
        }
        Self {
            labels,
            initial_means,
            final_means: means,
            examples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_seed_deterministic() {
        let config = WorkloadConfig {
            dim: 96,
            classes: 30,
            queries: 10,
            ..WorkloadConfig::default()
        };
        let a = SyntheticWorkload::generate(&config);
        let b = SyntheticWorkload::generate(&config);
        assert_eq!(a, b);
        let c = SyntheticWorkload::generate(&WorkloadConfig {
            seed: config.seed + 1,
            ..config
        });
        assert_ne!(a.prototypes, c.prototypes);
    }

    #[test]
    fn shapes_and_ground_truth_are_consistent() {
        let config = WorkloadConfig {
            dim: 64,
            classes: 12,
            clusters: 3,
            queries: 20,
            ..WorkloadConfig::default()
        };
        let w = SyntheticWorkload::generate(&config);
        assert_eq!(w.labels.len(), 12);
        assert_eq!(w.prototypes.len(), 12);
        assert_eq!(w.queries.len(), 20);
        assert_eq!(w.query_class.len(), 20);
        assert!(w.prototypes.iter().all(|p| p.len() == 64));
        assert!(w.queries.iter().all(|q| q.len() == 64));
        assert!(w.prototypes.iter().flatten().all(|&s| s == 1 || s == -1));
        assert!(w.prototype_cluster.iter().all(|&c| c < 3));
        assert!(w.query_class.iter().all(|&c| c < 12));
        // Labels are unique and index-ordered.
        assert_eq!(w.labels[0], "class000000");
        assert_eq!(w.labels[11], "class000011");
    }

    #[test]
    fn noise_free_queries_equal_their_prototype() {
        let w = SyntheticWorkload::generate(&WorkloadConfig {
            dim: 48,
            classes: 5,
            clusters: 2,
            class_noise: 0.0,
            query_noise: 0.0,
            queries: 5,
            distractors: 0,
            seed: 9,
        });
        for (q, &class) in w.query_class.iter().enumerate() {
            assert_eq!(w.queries[q], w.prototypes[class]);
        }
        // With zero class noise, same-cluster prototypes coincide.
        assert_eq!(w.prototypes[0], w.prototypes[2]);
    }

    #[test]
    fn distractors_extend_but_do_not_shift_the_stream() {
        let base = WorkloadConfig {
            dim: 64,
            classes: 8,
            queries: 6,
            ..WorkloadConfig::default()
        };
        let without = SyntheticWorkload::generate(&base);
        let with = SyntheticWorkload::generate(&WorkloadConfig {
            distractors: 4,
            ..base
        });
        // Everything before the distractor draws is bit-identical, so
        // pinned goldens built at `distractors: 0` stay valid.
        assert_eq!(without.prototypes, with.prototypes);
        assert_eq!(without.queries, with.queries);
        assert!(without.distractor_queries.is_empty());
        assert_eq!(with.distractor_queries.len(), 4);
        assert!(with
            .distractor_queries
            .iter()
            .all(|row| row.len() == 64 && row.iter().all(|&s| s == 1 || s == -1)));
    }

    #[test]
    fn packed_memory_holds_every_prototype_in_label_order() {
        let w = SyntheticWorkload::generate(&WorkloadConfig {
            dim: 96,
            classes: 9,
            queries: 1,
            ..WorkloadConfig::default()
        });
        let memory = w.packed_memory();
        assert_eq!(memory.len(), 9);
        assert_eq!(memory.dim(), 96);
        for (index, label) in w.labels.iter().enumerate() {
            assert_eq!(memory.label(index), label);
        }
    }

    #[test]
    fn gzsl_generation_is_seed_deterministic() {
        let config = GzslWorkloadConfig {
            classes: 10,
            unseen: 3,
            attribute_dim: 24,
            queries: 12,
            distractors: 4,
            ..GzslWorkloadConfig::default()
        };
        let a = GzslWorkload::generate(&config);
        let b = GzslWorkload::generate(&config);
        assert_eq!(a, b);
        let c = GzslWorkload::generate(&GzslWorkloadConfig {
            seed: config.seed + 1,
            ..config
        });
        assert_ne!(a.class_attributes, c.class_attributes);
    }

    #[test]
    fn gzsl_split_and_ground_truth_are_consistent() {
        let w = GzslWorkload::generate(&GzslWorkloadConfig {
            classes: 10,
            unseen: 3,
            attribute_dim: 24,
            queries: 12,
            distractors: 4,
            ..GzslWorkloadConfig::default()
        });
        assert_eq!(w.labels.len(), 10);
        assert_eq!(w.class_attributes.len(), 10);
        assert_eq!(w.seen_classes(), vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(w.unseen_classes(), vec![7, 8, 9]);
        assert_eq!(w.query_attributes.len(), 16);
        assert_eq!(w.query_class.len(), 16);
        // Round-robin covers both partitions; distractors carry no class.
        assert!(w.query_class[..12]
            .iter()
            .all(|c| matches!(c, Some(class) if *class < 10)));
        assert!(w.query_class[12..].iter().all(Option::is_none));
        // Attribute strengths stay in [0, 1].
        assert!(w
            .query_attributes
            .iter()
            .chain(&w.class_attributes)
            .flatten()
            .all(|&a| (0.0..=1.0).contains(&a)));
    }

    #[test]
    fn gzsl_noise_free_queries_equal_their_class_attributes() {
        let w = GzslWorkload::generate(&GzslWorkloadConfig {
            classes: 5,
            unseen: 2,
            attribute_dim: 16,
            queries: 5,
            distractors: 0,
            noise: 0.0,
            seed: 3,
        });
        for (q, class) in w.query_class.iter().enumerate() {
            let class = class.expect("no distractors configured");
            assert_eq!(w.query_attributes[q], w.class_attributes[class]);
        }
    }

    #[test]
    #[should_panic(expected = "at least one seen class")]
    fn gzsl_all_unseen_panics() {
        let _ = GzslWorkload::generate(&GzslWorkloadConfig {
            classes: 4,
            unseen: 4,
            ..GzslWorkloadConfig::default()
        });
    }

    #[test]
    fn stream_generation_is_seed_deterministic() {
        let config = StreamWorkloadConfig {
            classes: 5,
            feature_dim: 24,
            steps: 6,
            examples_per_step: 5,
            ..StreamWorkloadConfig::default()
        };
        let a = StreamWorkload::generate(&config);
        let b = StreamWorkload::generate(&config);
        assert_eq!(a, b);
        let c = StreamWorkload::generate(&StreamWorkloadConfig {
            seed: config.seed + 1,
            ..config
        });
        assert_ne!(a.examples, c.examples);
    }

    #[test]
    fn stream_shapes_and_round_robin_are_consistent() {
        let config = StreamWorkloadConfig {
            classes: 3,
            feature_dim: 16,
            steps: 4,
            examples_per_step: 6,
            ..StreamWorkloadConfig::default()
        };
        let w = StreamWorkload::generate(&config);
        assert_eq!(w.labels.len(), 3);
        assert_eq!(w.examples.len(), 24);
        assert!(w.examples.iter().all(|e| e.features.len() == 16));
        assert!(w.examples.iter().all(|e| e.class < 3));
        // Round-robin assignment touches every class every step.
        for step in 0..4 {
            let classes: Vec<usize> = w
                .examples
                .iter()
                .filter(|e| e.step == step)
                .map(|e| e.class)
                .collect();
            assert_eq!(classes.len(), 6);
            for c in 0..3 {
                assert!(classes.contains(&c));
            }
        }
        assert_eq!(w.initial_means.len(), 3);
        assert_eq!(w.final_means.len(), 3);
    }

    #[test]
    fn stream_without_drift_or_noise_repeats_the_means() {
        let w = StreamWorkload::generate(&StreamWorkloadConfig {
            classes: 2,
            feature_dim: 8,
            steps: 3,
            examples_per_step: 2,
            drift: 0.0,
            noise: 0.0,
            seed: 11,
        });
        assert_eq!(w.initial_means, w.final_means);
        for example in &w.examples {
            assert_eq!(example.features, w.initial_means[example.class]);
        }
    }

    #[test]
    fn stream_drift_moves_the_means() {
        let w = StreamWorkload::generate(&StreamWorkloadConfig {
            classes: 2,
            feature_dim: 32,
            steps: 8,
            examples_per_step: 2,
            drift: 0.2,
            noise: 0.0,
            ..StreamWorkloadConfig::default()
        });
        assert_ne!(w.initial_means, w.final_means);
    }

    #[test]
    fn auto_cluster_count_is_sqrt() {
        let config = WorkloadConfig {
            classes: 100,
            clusters: 0,
            ..WorkloadConfig::default()
        };
        assert_eq!(config.effective_clusters(), 10);
        let pinned = WorkloadConfig {
            clusters: 7,
            ..config
        };
        assert_eq!(pinned.effective_clusters(), 7);
    }
}
