//! Criterion micro-benchmarks of the HDC substrate: bipolar binding, bundling
//! and similarity across hypervector dimensionalities (the operations the
//! paper proposes to offload to non-von-Neumann accelerators). The packed
//! 1-bit kernels are benchmarked by `engine_batch`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hdc::{bundler::bundle_bipolar, BipolarHypervector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const DIMS: &[usize] = &[1024, 1536, 2048, 4096, 8192];

fn bench_binding(c: &mut Criterion) {
    let mut group = c.benchmark_group("binding");
    group.sample_size(30);
    for &dim in DIMS {
        let mut rng = StdRng::seed_from_u64(1);
        let a = BipolarHypervector::random(dim, &mut rng);
        let b = BipolarHypervector::random(dim, &mut rng);
        group.bench_with_input(
            BenchmarkId::new("bipolar_hadamard", dim),
            &dim,
            |bench, _| bench.iter(|| black_box(a.bind(&b))),
        );
    }
    group.finish();
}

fn bench_similarity(c: &mut Criterion) {
    let mut group = c.benchmark_group("similarity");
    group.sample_size(30);
    for &dim in DIMS {
        let mut rng = StdRng::seed_from_u64(2);
        let a = BipolarHypervector::random(dim, &mut rng);
        let b = BipolarHypervector::random(dim, &mut rng);
        group.bench_with_input(BenchmarkId::new("bipolar_cosine", dim), &dim, |bench, _| {
            bench.iter(|| black_box(a.cosine(&b)))
        });
    }
    group.finish();
}

fn bench_bundling(c: &mut Criterion) {
    let mut group = c.benchmark_group("bundling");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(3);
    for &n in &[8usize, 32, 128] {
        let items: Vec<BipolarHypervector> = (0..n)
            .map(|_| BipolarHypervector::random(2048, &mut rng))
            .collect();
        group.bench_with_input(BenchmarkId::new("majority_2048", n), &n, |bench, _| {
            bench.iter(|| black_box(bundle_bipolar(&items).expect("non-empty")))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_binding, bench_similarity, bench_bundling);
criterion_main!(benches);
