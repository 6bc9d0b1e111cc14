//! The three workloads and their seeded inputs.
//!
//! Everything the serving stack receives — class attribute rows, query
//! feature rows, the mutation script and the per-request row picks — is a
//! pure function of the workload and the seed. The model itself is built
//! from `ModelConfig::with_seed(seed)` by the run, not here: it is part of
//! set-up, which the benchmark times.

use dataset::{CubLikeDataset, DatasetConfig};
use engine::RoutedConfig;
use hdc_zsc::ModelConfig;
use serve::SyncPolicy;
use tensor::Matrix;

/// One benchmark workload: a model shape, a class set, a traffic shape and
/// the serving configuration it runs under.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name given on the command line.
    pub name: &'static str,
    /// Model architecture; the seed is applied per run.
    pub model: ModelConfig,
    /// Backbone feature width of every query row.
    pub feature_dim: usize,
    /// Classes registered at start-up.
    pub classes: usize,
    /// Images generated per starting class; they form the query pool.
    pub images_per_class: usize,
    /// Query rows kept in the pool.
    pub pool: usize,
    /// Shards of the class memory.
    pub shards: usize,
    /// `Some` serves through the routed index.
    pub routed: Option<RoutedConfig>,
    /// Streamed observes folded per publication.
    pub publish_every: u32,
    /// `Some` runs a durable server with this sync policy and compaction
    /// period.
    pub durable: Option<(SyncPolicy, u64)>,
    /// Light query rate, requests per second over both connections.
    pub light_qps: f64,
    /// Heavy query rate; one rung of the ladder.
    pub heavy_qps: f64,
    /// Fixed rate ladder, ascending; includes the light and heavy rates.
    pub ladder: &'static [f64],
    /// p95 limit a ladder rung must meet to count as sustained. It sits well
    /// above scheduling stalls, so only a growing backlog misses it.
    pub latency_limit_us: f64,
}

/// Length of every workload's wire mutation script: enough that its p99 has
/// thirty operations beyond it.
pub const MUTATIONS: usize = 3000;

/// The mix of the mutation script, per cent of its operations by kind.
const MIX: [(Kind, usize); 6] = [
    (Kind::Register, 15),
    (Kind::Update, 15),
    (Kind::Remove, 10),
    (Kind::Observe, 40),
    (Kind::Flush, 10),
    (Kind::SetThreshold, 10),
];

/// Extra class attribute rows the mutation script registers or re-points
/// classes with: one per register.
pub const EXTRA_CLASSES: usize = MUTATIONS * MIX[0].1 / 100;

/// Every workload the benchmark knows. Rates and ladders were chosen on a
/// 2-core x86-64 container: the light rate runs well under capacity, the
/// heavy rate near 60% of it, and the ladder's top rungs past it.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "cub_paper",
            model: ModelConfig::paper_default(),
            feature_dim: 2048,
            classes: 200,
            images_per_class: 2,
            pool: 256,
            shards: 4,
            routed: None,
            publish_every: 1,
            durable: None,
            light_qps: 150.0,
            heavy_qps: 300.0,
            ladder: &[150.0, 300.0, 450.0, 600.0, 750.0, 900.0],
            latency_limit_us: 30_000.0,
        },
        Workload {
            name: "tiny_wire",
            model: ModelConfig::tiny(),
            feature_dim: 64,
            classes: 200,
            images_per_class: 2,
            pool: 256,
            shards: 4,
            routed: None,
            publish_every: 1,
            durable: None,
            light_qps: 400.0,
            heavy_qps: 1500.0,
            ladder: &[400.0, 1500.0, 2500.0, 3500.0, 4500.0, 5500.0],
            latency_limit_us: 10_000.0,
        },
        Workload {
            name: "durable_churn",
            model: ModelConfig::paper_default().with_embedding_dim(256),
            feature_dim: 128,
            classes: 500,
            images_per_class: 1,
            pool: 256,
            shards: 8,
            routed: Some(RoutedConfig {
                nprobe: 4,
                ..RoutedConfig::default()
            }),
            publish_every: 4,
            durable: Some((SyncPolicy::Always, 64)),
            light_qps: 200.0,
            heavy_qps: 1000.0,
            ladder: &[200.0, 1000.0, 2000.0, 3000.0, 4000.0, 5000.0],
            latency_limit_us: 10_000.0,
        },
    ]
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}

/// One wire mutation of the script. Every operation is valid against the
/// class set the script has built up to that point, so none is rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum MutationOp {
    /// Register a brand-new class from an extra attribute row.
    Register { label: String, attributes: usize },
    /// Re-point a live class at an extra attribute row.
    Update { label: String, attributes: usize },
    /// Remove a live class.
    Remove { label: String },
    /// Stream one query-pool row into a live class.
    Observe { label: String, row: usize },
    /// Publish pending streamed updates.
    Flush,
    /// Move the rejection threshold by this offset from the calibrated one.
    SetThreshold { offset: f32 },
}

/// The generated inputs of one workload under one seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Labels of the starting classes.
    pub labels: Vec<String>,
    /// One attribute row per starting class.
    pub class_attributes: Matrix,
    /// Attribute rows the mutation script registers and updates with.
    pub extra_attributes: Matrix,
    /// Query feature rows; requests pick rows from here.
    pub queries: Vec<Vec<f32>>,
    /// The wire mutation script.
    pub ops: Vec<MutationOp>,
    /// Seed of the per-request row picks.
    pub pick_seed: u64,
}

impl Inputs {
    /// Generates the inputs of `workload` under `seed`.
    pub fn generate(workload: &Workload, seed: u64) -> Self {
        let config = DatasetConfig {
            num_classes: workload.classes + EXTRA_CLASSES,
            images_per_class: workload.images_per_class,
            feature_dim: workload.feature_dim,
            ..DatasetConfig::cub200_full(seed)
        };
        let data = CubLikeDataset::generate(&config);
        let starting: Vec<usize> = (0..workload.classes).collect();
        let extra: Vec<usize> = (workload.classes..config.num_classes).collect();
        let labels: Vec<String> = starting.iter().map(|c| format!("class{c:04}")).collect();
        let (features, _) = data.features_and_labels(&starting);
        let mut rng = SplitMix::new(seed ^ 0x5e4e_b0e5);
        let queries: Vec<Vec<f32>> = (0..workload.pool)
            .map(|_| features.row(rng.below(features.rows())).to_vec())
            .collect();
        let ops = mutation_script(&mut rng, &labels, queries.len());
        Self {
            labels,
            class_attributes: data.class_attribute_matrix(&starting),
            extra_attributes: data.class_attribute_matrix(&extra),
            queries,
            ops,
            pick_seed: rng.next_u64(),
        }
    }

    /// A byte rendering of every input, for the determinism self-tests.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut text = |s: &str| {
            out.extend_from_slice(&(s.len() as u64).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        };
        for label in &self.labels {
            text(label);
        }
        for op in &self.ops {
            text(&format!("{op:?}"));
        }
        for matrix in [&self.class_attributes, &self.extra_attributes] {
            out.extend(
                matrix
                    .as_slice()
                    .iter()
                    .flat_map(|x| x.to_bits().to_le_bytes()),
            );
        }
        for row in &self.queries {
            out.extend(row.iter().flat_map(|x| x.to_bits().to_le_bytes()));
        }
        out.extend_from_slice(&self.pick_seed.to_le_bytes());
        out
    }

    /// The query-pool row that request `index` of connection `connection`
    /// sends in phase `phase`.
    pub fn pick(&self, phase: u64, connection: u64, index: u64) -> usize {
        let mixed = self.pick_seed
            ^ phase.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ connection.wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
            ^ index.wrapping_mul(0x1656_67b1_9e37_79f9);
        SplitMix::new(mixed).below(self.queries.len())
    }
}

/// Builds a script of [`MUTATIONS`] operations that are each valid against
/// the class set the earlier ones leave behind. The mix of kinds is fixed;
/// the seed sets their order and targets.
fn mutation_script(rng: &mut SplitMix, labels: &[String], pool: usize) -> Vec<MutationOp> {
    let mut kinds: Vec<Kind> = MIX
        .iter()
        .flat_map(|&(kind, percent)| std::iter::repeat_n(kind, MUTATIONS * percent / 100))
        .collect();
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.below(i + 1));
    }
    let mut live: Vec<String> = labels.to_vec();
    let mut registered = 0usize;
    let floor = labels.len() * 3 / 4;
    kinds
        .into_iter()
        .map(|kind| match kind {
            Kind::Register if registered < EXTRA_CLASSES => {
                let label = format!("new{registered:04}");
                live.push(label.clone());
                registered += 1;
                MutationOp::Register {
                    label,
                    attributes: registered - 1,
                }
            }
            Kind::Update => MutationOp::Update {
                label: live[rng.below(live.len())].clone(),
                attributes: rng.below(EXTRA_CLASSES),
            },
            Kind::Remove if live.len() > floor => MutationOp::Remove {
                label: live.swap_remove(rng.below(live.len())),
            },
            Kind::Flush => MutationOp::Flush,
            Kind::SetThreshold => MutationOp::SetThreshold {
                offset: (rng.below(41) as f32 - 20.0) * 1e-3,
            },
            _ => MutationOp::Observe {
                label: live[rng.below(live.len())].clone(),
                row: rng.below(pool),
            },
        })
        .collect()
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Register,
    Update,
    Remove,
    Observe,
    Flush,
    SetThreshold,
}

/// splitmix64: a tiny seeded generator, so the inputs depend on nothing but
/// the seed.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}
