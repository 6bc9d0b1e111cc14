//! Criterion micro-benchmarks of the batched inference engine: scalar
//! one-query-at-a-time cosine scans versus the packed popcount batch path of
//! a one-shard [`ShardedClassMemory`] (the scorer the serving layer runs),
//! across hypervector dimensionalities — the speedup trajectory the CI
//! perf-smoke job guards.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use engine::{PackedClassMemory, PackedQueryBatch, ShardedClassMemory};
use hdc::BipolarHypervector;
use rand::rngs::StdRng;
use rand::SeedableRng;
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

criterion_group!(benches, bench_engine_batch);
criterion_main!(benches);
