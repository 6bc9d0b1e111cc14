//! Criterion micro-benchmarks of the batched inference engine: scalar
//! one-query-at-a-time cosine scans versus the packed popcount batch path of
//! a one-shard [`ShardedClassMemory`] (the scorer the serving layer runs),
//! across hypervector dimensionalities — the speedup trajectory the CI
//! perf-smoke job guards. The last rows time what a routed server's start
//! or swap runs over its class set at d = 1536: registering every class in a
//! four-shard memory, one label-table probe each (`register`), the one
//! k-means build over it (`routed_build`) and, for scale, one `recluster()`
//! of the built index.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use engine::{
    PackedClassMemory, PackedQueryBatch, RoutedClassMemory, RoutedConfig, ShardedClassMemory,
};
use hdc::BipolarHypervector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const DIMS: &[usize] = &[2048, 8192, 32768];
const CLASSES: usize = 100;
const BATCH: usize = 32;

struct Problem {
    prototypes: Vec<BipolarHypervector>,
    queries: Vec<BipolarHypervector>,
    memory: PackedClassMemory,
    batch: PackedQueryBatch,
}

fn problem(dim: usize) -> Problem {
    let mut rng = StdRng::seed_from_u64(dim as u64);
    let prototypes: Vec<BipolarHypervector> = (0..CLASSES)
        .map(|_| BipolarHypervector::random(dim, &mut rng))
        .collect();
    let queries: Vec<BipolarHypervector> = (0..BATCH)
        .map(|q| prototypes[q % CLASSES].flip_noise(0.2, &mut rng))
        .collect();
    let mut memory = PackedClassMemory::new(dim);
    for (c, proto) in prototypes.iter().enumerate() {
        memory.insert_signs(format!("class{c:03}"), proto.as_slice());
    }
    let mut batch = PackedQueryBatch::with_capacity(dim, BATCH);
    for q in &queries {
        batch.push_signs(q.as_slice());
    }
    Problem {
        prototypes,
        queries,
        memory,
        batch,
    }
}

/// The pre-engine path: for each query, an `i8` cosine scan over every
/// prototype, keeping the best similarity.
fn scalar_nearest_batch(p: &Problem) -> f32 {
    let mut acc = 0.0f32;
    for query in &p.queries {
        let mut best = f32::NEG_INFINITY;
        for proto in &p.prototypes {
            let sim = query.cosine(proto);
            if sim > best {
                best = sim;
            }
        }
        acc += best;
    }
    acc
}

fn bench_engine_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_batch");
    group.sample_size(10);
    for &dim in DIMS {
        let p = problem(dim);
        group.bench_with_input(BenchmarkId::new("scalar_nearest", dim), &dim, |bench, _| {
            bench.iter(|| black_box(scalar_nearest_batch(&p)))
        });
        let scorer_1t = ShardedClassMemory::from_packed(&p.memory, 1).with_threads(1);
        group.bench_with_input(BenchmarkId::new("packed_top1_1t", dim), &dim, |bench, _| {
            bench.iter(|| black_box(scorer_1t.topk_batch(&p.batch, 1)))
        });
        let scorer = ShardedClassMemory::from_packed(&p.memory, 1);
        group.bench_with_input(
            BenchmarkId::new("packed_top1_auto", dim),
            &dim,
            |bench, _| bench.iter(|| black_box(scorer.topk_batch(&p.batch, 1))),
        );
    }
    group.finish();
}

/// Class counts of the routed-build rows, at the paper's d = 1536.
const ROUTED_CLASSES: &[usize] = &[2000, 8000, 32000];
const ROUTED_DIM: usize = 1536;
const ROUTED_SHARDS: usize = 4;

fn bench_routed_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_batch");
    group.sample_size(5);
    let words_per_row = engine::words_per_row(ROUTED_DIM);
    for &classes in ROUTED_CLASSES {
        let mut rng = StdRng::seed_from_u64(classes as u64);
        let labels: Vec<String> = (0..classes).map(|c| format!("class{c:05}")).collect();
        let rows: Vec<Vec<u64>> = (0..classes)
            .map(|_| (0..words_per_row).map(|_| rng.gen::<u64>()).collect())
            .collect();
        let register = || {
            let mut memory = ShardedClassMemory::new(ROUTED_DIM, ROUTED_SHARDS);
            for (label, words) in labels.iter().zip(&rows) {
                memory.add_class_packed(label.as_str(), words);
            }
            memory
        };
        group.bench_with_input(BenchmarkId::new("register", classes), &classes, |b, _| {
            b.iter(|| black_box(register()))
        });
        let memory = register();
        group.bench_with_input(
            BenchmarkId::new("routed_build", classes),
            &classes,
            |b, _| {
                b.iter(|| {
                    black_box(RoutedClassMemory::from_sharded(
                        &memory,
                        RoutedConfig::default(),
                    ))
                })
            },
        );
        let mut routed = RoutedClassMemory::from_sharded(&memory, RoutedConfig::default());
        group.bench_with_input(BenchmarkId::new("recluster", classes), &classes, |b, _| {
            b.iter(|| routed.recluster())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine_batch, bench_routed_build);
criterion_main!(benches);
