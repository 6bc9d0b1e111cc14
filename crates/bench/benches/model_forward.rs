//! Criterion benchmarks of the model's forward paths: attribute-dictionary
//! construction, class encoding `A × B`, the image embed the server runs per
//! query batch, and inference-time class-logit computation (the operations
//! that run on-device at deployment); plus rendering and parsing the model's
//! checkpoint, which a durable server writes into every compaction base.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dataset::AttributeSchema;
use hdc_zsc::{Checkpoint, HdcAttributeEncoder, ModelConfig, ZscModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use tensor::Matrix;

fn bench_dictionary_construction(c: &mut Criterion) {
    let schema = AttributeSchema::cub200();
    let mut group = c.benchmark_group("attribute_dictionary");
    group.sample_size(10);
    for &dim in &[512usize, 1536] {
        group.bench_with_input(BenchmarkId::new("materialise", dim), &dim, |b, &dim| {
            b.iter(|| black_box(HdcAttributeEncoder::new(&schema, dim, 1)))
        });
    }
    group.finish();
}

fn bench_class_encoding(c: &mut Criterion) {
    let schema = AttributeSchema::cub200();
    let mut rng = StdRng::seed_from_u64(2);
    let mut group = c.benchmark_group("class_encoding");
    group.sample_size(10);
    for &(classes, dim) in &[(50usize, 512usize), (200, 1536)] {
        let encoder = HdcAttributeEncoder::new(&schema, dim, 1);
        let attributes = Matrix::random_uniform(classes, 312, 0.5, &mut rng).map(f32::abs);
        group.bench_with_input(
            BenchmarkId::new("phi_equals_a_times_b", format!("{classes}x{dim}")),
            &dim,
            |b, _| b.iter(|| black_box(encoder.encode_classes(&attributes))),
        );
    }
    group.finish();
}

/// `embed_images` at the paper shape (2048-d features to d = 1536): batch 1
/// is the served case, since the server's batches average one query; batch 16
/// is a coalesced one.
fn bench_embed(c: &mut Criterion) {
    let schema = AttributeSchema::cub200();
    let mut rng = StdRng::seed_from_u64(4);
    let model = ZscModel::new(&ModelConfig::paper_default(), &schema, 2048);
    let mut group = c.benchmark_group("embed_images");
    group.sample_size(10);
    for &batch in &[1usize, 16] {
        let features = Matrix::random_uniform(batch, 2048, 1.0, &mut rng);
        group.bench_with_input(
            BenchmarkId::new("paper_shape", format!("b{batch}_f2048_d1536")),
            &batch,
            |b, _| b.iter(|| black_box(model.embed_images(&features))),
        );
    }
    group.finish();
}

fn bench_inference(c: &mut Criterion) {
    let schema = AttributeSchema::cub200();
    let mut rng = StdRng::seed_from_u64(3);
    let mut group = c.benchmark_group("zsc_inference");
    group.sample_size(10);
    for &(batch, feature_dim, dim) in &[(16usize, 512usize, 384usize), (16, 2048, 1536)] {
        let config = ModelConfig::paper_default().with_embedding_dim(dim);
        let model = ZscModel::new(&config, &schema, feature_dim);
        let features = Matrix::random_uniform(batch, feature_dim, 1.0, &mut rng);
        let class_attributes = Matrix::random_uniform(50, 312, 0.5, &mut rng).map(f32::abs);
        group.bench_with_input(
            BenchmarkId::new("class_logits", format!("b{batch}_f{feature_dim}_d{dim}")),
            &dim,
            |b, _| b.iter(|| black_box(model.class_logits(&features, &class_attributes))),
        );
        group.bench_with_input(
            BenchmarkId::new(
                "attribute_logits",
                format!("b{batch}_f{feature_dim}_d{dim}"),
            ),
            &dim,
            |b, _| b.iter(|| black_box(model.attribute_logits(&features))),
        );
    }
    group.finish();
}

/// `Checkpoint::to_json` and `Checkpoint::from_json_str` at the servebench
/// `durable_churn` model shape (128-d features to d = 256): the model half of
/// every compaction base a durable server writes and recovery reads.
fn bench_checkpoint_json(c: &mut Criterion) {
    let schema = AttributeSchema::cub200();
    let config = ModelConfig::paper_default().with_embedding_dim(256);
    let checkpoint = Checkpoint::capture(&ZscModel::new(&config, &schema, 128), &schema);
    let json = checkpoint.to_json();
    let mut group = c.benchmark_group("checkpoint_json");
    group.sample_size(10);
    group.bench_function("to_json/f128_d256", |b| {
        b.iter(|| black_box(checkpoint.to_json()))
    });
    group.bench_function("from_json_str/f128_d256", |b| {
        b.iter(|| black_box(Checkpoint::from_json_str(&json).expect("parses")))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_dictionary_construction,
    bench_class_encoding,
    bench_embed,
    bench_inference,
    bench_checkpoint_json
);
criterion_main!(benches);
