//! Property tests for the lookup contract of the label-returning class
//! memories: one checker, run against the sharded and routed memories built
//! from the *same* labelled ±1 prototype set, with a monolithic
//! [`PackedClassMemory`] as the reference.
//!
//! Pinned per memory:
//!
//! * the truncation contract — `top_k` returns `min(k, len)` entries,
//!   `k == 0` is empty, oversized `k` returns every class;
//! * the tie-break — similarity descending, equal similarities ordered by
//!   label ascending;
//! * batch consistency — `topk_batch` agrees with per-query `top_k` bit
//!   for bit.
//!
//! Pinned across memories:
//!
//! * packed ↔ sharded results are **bit-identical** (labels and similarity
//!   bits) for every shard count — the monolithic-merge contract;
//! * packed ↔ routed (full probing) ↔ `routed.as_sharded()` results are
//!   **bit-identical** for every cluster count — the coarse-to-fine
//!   exact-re-rank contract.
//!
//! Prototypes are drawn from a small pool of patterns so exact ties are
//! frequent rather than accidental.

use engine::{
    pack_signs, PackedClassMemory, PackedQueryBatch, RoutedClassMemory, RoutedConfig,
    ShardedClassMemory,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_signs(dim: usize, rng: &mut StdRng) -> Vec<i8> {
    (0..dim)
        .map(|_| if rng.gen::<bool>() { 1 } else { -1 })
        .collect()
}

/// Asserts the lookup contract of one sharded or routed memory over a batch
/// and its individual queries. A macro rather than a function: the two
/// memories share the lookup methods by name, not through a trait.
macro_rules! check_contract {
    ($memory:expr, $batch:expr, $queries:expr, $ctx:expr) => {{
        let memory = $memory;
        let batch: &PackedQueryBatch = $batch;
        let queries: &[&[u64]] = $queries;
        let ctx: &str = $ctx;
        let classes = memory.len();
        assert_eq!(memory.is_empty(), classes == 0, "{ctx}: is_empty");

        for (q, query) in queries.iter().enumerate() {
            for k in [0usize, 1, 2, classes, classes + 3, classes * 2 + 1] {
                let top = memory.top_k(query, k);
                assert_eq!(top.len(), k.min(classes), "{ctx}: q{q} k{k} truncation");
                // Ordering: similarity descending; exact ties label-ascending.
                for pair in top.windows(2) {
                    let ((la, sa), (lb, sb)) = (&pair[0], &pair[1]);
                    assert!(
                        sa > sb || (sa == sb && la < lb),
                        "{ctx}: q{q} k{k} ordering violated: ({la}, {sa}) before ({lb}, {sb})"
                    );
                }
            }
            // Oversized k covers every stored class exactly once.
            let mut all: Vec<&str> = memory
                .top_k(query, classes + 1)
                .into_iter()
                .map(|(l, _)| l)
                .collect();
            all.sort_unstable();
            all.dedup();
            assert_eq!(
                all.len(),
                classes,
                "{ctx}: q{q} full top-k covers all classes"
            );
        }

        // Batch lookups agree with per-query lookups bit for bit.
        for k in [0usize, 1, 3, classes + 2] {
            let topk_batch = memory.topk_batch(batch, k);
            assert_eq!(topk_batch.len(), batch.len(), "{ctx}: topk_batch len");
            for (q, query) in queries.iter().enumerate() {
                let solo: Vec<(&str, u32)> = memory
                    .top_k(query, k)
                    .into_iter()
                    .map(|(l, s)| (l, s.to_bits()))
                    .collect();
                let batched: Vec<(&str, u32)> = topk_batch[q]
                    .iter()
                    .map(|(l, s)| (*l, s.to_bits()))
                    .collect();
                assert_eq!(batched, solo, "{ctx}: q{q} k{k} batch top-k");
            }
        }
    }};
}

/// One generated problem: labelled ±1 prototypes (drawn from a small pattern
/// pool so ties are common) plus query rows.
struct Problem {
    labels: Vec<String>,
    protos: Vec<Vec<i8>>,
    queries: Vec<Vec<i8>>,
}

fn build_problem(dim: usize, classes: usize, queries: usize, pool: usize, seed: u64) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    let patterns: Vec<Vec<i8>> = (0..pool.max(1))
        .map(|_| random_signs(dim, &mut rng))
        .collect();
    let protos: Vec<Vec<i8>> = (0..classes)
        .map(|_| patterns[rng.gen_range(0..patterns.len())].clone())
        .collect();
    let labels: Vec<String> = (0..classes).map(|c| format!("c{c:02}")).collect();
    let queries = (0..queries).map(|_| random_signs(dim, &mut rng)).collect();
    Problem {
        labels,
        protos,
        queries,
    }
}

proptest! {
    /// The lookup contract holds for the sharded and routed memories, and
    /// both are bit-identical to the monolithic packed memory.
    #[test]
    fn all_backends_satisfy_the_scorer_contract(
        dim in 1usize..180,
        classes in 1usize..14,
        queries in 1usize..6,
        pool in 1usize..5,
        shards in 1usize..4,
        threads in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let problem = build_problem(dim, classes, queries, pool, seed);

        // The monolithic reference.
        let mut packed = PackedClassMemory::new(dim);
        for (label, proto) in problem.labels.iter().zip(&problem.protos) {
            packed.insert_signs(label.clone(), proto);
        }
        let mut packed_batch = PackedQueryBatch::new(dim);
        for q in &problem.queries {
            packed_batch.push_signs(q);
        }
        let packed_queries: Vec<Vec<u64>> = problem.queries.iter().map(|q| pack_signs(q)).collect();
        let packed_refs: Vec<&[u64]> = packed_queries.iter().map(Vec::as_slice).collect();

        // Sharded memory over the same class set.
        let mut sharded = ShardedClassMemory::new(dim, shards);
        for (label, proto) in problem.labels.iter().zip(&problem.protos) {
            sharded.add_class(label.clone(), proto);
        }
        let sharded = sharded.with_threads(threads);
        check_contract!(&sharded, &packed_batch, &packed_refs, "sharded");

        // Routed memory over the same class set, fully probing (the mode
        // whose contract is bit-identical to the exhaustive scan). Reuse
        // the shard count draw as the cluster count.
        let mut routed = RoutedClassMemory::new(
            dim,
            RoutedConfig { clusters: shards, seed, ..RoutedConfig::default() },
        );
        for (label, proto) in problem.labels.iter().zip(&problem.protos) {
            routed.add_class(label.clone(), proto);
        }
        let routed = routed.with_threads(threads);
        check_contract!(&routed, &packed_batch, &packed_refs, "routed");

        // Cross-memory bit-parity: packed ↔ sharded ↔ routed.
        for (q, query) in packed_refs.iter().enumerate() {
            for k in [1usize, classes, classes + 4] {
                let p: Vec<(&str, u32)> = packed
                    .top_k(query, k)
                    .into_iter()
                    .map(|(i, s)| (packed.label(i), s.to_bits()))
                    .collect();
                let s: Vec<(&str, u32)> = sharded
                    .top_k(query, k)
                    .into_iter()
                    .map(|(l, s)| (l, s.to_bits()))
                    .collect();
                let r: Vec<(&str, u32)> = routed
                    .top_k(query, k)
                    .into_iter()
                    .map(|(l, s)| (l, s.to_bits()))
                    .collect();
                let c: Vec<(&str, u32)> = routed
                    .as_sharded()
                    .top_k(query, k)
                    .into_iter()
                    .map(|(l, s)| (l, s.to_bits()))
                    .collect();
                prop_assert_eq!(p.clone(), s, "packed vs sharded q{} k{}", q, k);
                prop_assert_eq!(p.clone(), r, "packed vs routed q{} k{}", q, k);
                prop_assert_eq!(p, c, "packed vs routed clusters q{} k{}", q, k);
            }
        }
    }

    /// Empty memories are well-behaved: no classes, an empty top-1 and an
    /// empty top-k.
    #[test]
    fn empty_memories_are_consistent(dim in 1usize..100) {
        let packed = PackedClassMemory::new(dim);
        let sharded = ShardedClassMemory::new(dim, 2);
        let routed = RoutedClassMemory::new(dim, RoutedConfig::default());
        let query = vec![0u64; engine::words_per_row(dim)];
        prop_assert!(packed.is_empty());
        prop_assert!(sharded.is_empty());
        prop_assert!(routed.is_empty());
        prop_assert!(packed.top_k(&query, 1).is_empty());
        prop_assert!(sharded.top_k(&query, 1).is_empty());
        prop_assert!(routed.top_k(&query, 1).is_empty());
        prop_assert!(packed.top_k(&query, 3).is_empty());
        prop_assert!(sharded.top_k(&query, 3).is_empty());
        prop_assert!(routed.top_k(&query, 3).is_empty());
    }
}
