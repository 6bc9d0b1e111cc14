//! Criterion benchmarks of a durable server's control plane at the shape
//! servebench's `durable_churn` workload ends its mutation script in: the
//! paper's model at d = 256 over 128-wide features, 650 classes in a routed
//! index of eight shards, `publish_every = 4`, and streamed counters for
//! most classes (1200 observes into random classes, as the script's 40%
//! observe share of 3000 mutations folds). Rows:
//!
//! * `compact` — one [`QueryServer::compact`]: the base written as JSON,
//!   fsynced and renamed over the log, under the control mutex, so every
//!   mutation waits for it;
//! * `recover` — one [`QueryServer::recover`] of the compacted directory:
//!   the base read and its model file decoded, in a fresh server;
//! * `swap_model` — one durable [`QueryServer::swap_model`] on the
//!   recovered server, alternating between two models of the same shape:
//!   the 650 classes encoded, the model file written and fsynced, the swap
//!   record (the file's name and the rebuilt memory) logged, and the routed
//!   index rebuilt, under the control mutex. The time includes cloning the
//!   model and the label list the call consumes.
//!
//! Times include the fsyncs, so they depend on the disk as well as the
//! code. The set-up logs every observe with an fsync and takes a few
//! seconds.

use criterion::{criterion_group, criterion_main, Criterion};
use dataset::AttributeSchema;
use engine::RoutedConfig;
use hdc_zsc::{ModelConfig, ZscModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{DurabilityConfig, QueryServer, ServerConfig};
use std::hint::black_box;
use std::path::Path;
use tensor::Matrix;

const FEATURE_DIM: usize = 128;
const EMBEDDING_DIM: usize = 256;
const CLASSES: usize = 650;
const OBSERVES: usize = 1200;

fn config() -> ServerConfig {
    ServerConfig {
        shards: 8,
        routed: Some(RoutedConfig {
            nprobe: 4,
            ..RoutedConfig::default()
        }),
        publish_every: 4,
        ..ServerConfig::default()
    }
}

/// The paper's model at the bench shape, drawn from `seed`.
fn model(schema: &AttributeSchema, seed: u64) -> ZscModel {
    ZscModel::new(
        &ModelConfig::paper_default()
            .with_embedding_dim(EMBEDDING_DIM)
            .with_seed(seed),
        schema,
        FEATURE_DIM,
    )
}

/// The class labels and their attribute rows.
fn classes(schema: &AttributeSchema, rng: &mut StdRng) -> (Vec<String>, Matrix) {
    let labels = (0..CLASSES).map(|c| format!("class{c:04}")).collect();
    let attributes =
        Matrix::random_uniform(CLASSES, schema.num_attributes(), 0.5, rng).map(f32::abs);
    (labels, attributes)
}

/// Durability in `dir` with no compaction of its own.
fn durability(dir: &Path) -> DurabilityConfig {
    DurabilityConfig {
        compact_every: 0,
        ..DurabilityConfig::new(dir)
    }
}

/// A durable server at the `durable_churn` end shape, logging into `dir`;
/// it never compacts on its own.
fn churned_server(schema: &AttributeSchema, dir: &Path) -> QueryServer {
    let mut rng = StdRng::seed_from_u64(1);
    let (labels, attributes) = classes(schema, &mut rng);
    let server = QueryServer::start_durable(
        model(schema, ModelConfig::paper_default().seed),
        labels.clone(),
        &attributes,
        schema,
        config(),
        durability(dir),
    )
    .expect("durable server starts");
    for _ in 0..OBSERVES {
        let label = &labels[rng.gen_range(0..CLASSES)];
        let features: Vec<f32> = (0..FEATURE_DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
        server.observe(label, &features).expect("observe logs");
    }
    server
}

fn bench_control_plane(c: &mut Criterion) {
    let schema = AttributeSchema::cub200();
    let dir = std::env::temp_dir().join(format!("zsc-bench-control-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let server = churned_server(&schema, &dir);
    let mut group = c.benchmark_group("control_plane");
    group.sample_size(20);
    group.bench_function("compact", |b| {
        b.iter(|| server.compact().expect("compaction succeeds"))
    });
    let base_bytes = server
        .durability_stats()
        .map_or(0, |stats| stats.base_bytes);
    eprintln!("  control_plane: base record of {base_bytes} bytes");
    drop(server);
    group.sample_size(10);
    group.bench_function("recover", |b| {
        b.iter(|| {
            black_box(
                QueryServer::recover(&schema, config(), DurabilityConfig::new(&dir))
                    .expect("directory recovers"),
            )
        })
    });
    let (server, _) =
        QueryServer::recover(&schema, config(), durability(&dir)).expect("directory recovers");
    let models = [model(&schema, 2), model(&schema, 3)];
    let (labels, attributes) = classes(&schema, &mut StdRng::seed_from_u64(2));
    let mut swaps = 0;
    group.bench_function("swap_model", |b| {
        b.iter(|| {
            swaps += 1;
            let model = models[swaps % 2].clone();
            server
                .swap_model(model, labels.clone(), &attributes)
                .expect("swap logs")
        })
    });
    group.finish();
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_control_plane);
criterion_main!(benches);
