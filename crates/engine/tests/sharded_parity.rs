//! Property tests pinning the sharded class memory's exactness contract:
//! for shard counts {1, 2, 3, 7}, ragged (non-multiple-of-64) dimensions,
//! `k ≥ num_classes`, and after arbitrary add/update/remove interleavings,
//! the sharded top-k labels and similarity bits are identical to a
//! monolithic [`PackedClassMemory`] holding the same class set.

use engine::{pack_signs, PackedClassMemory, PackedQueryBatch, ShardedClassMemory};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];

fn random_signs(dim: usize, rng: &mut StdRng) -> Vec<i8> {
    (0..dim)
        .map(|_| if rng.gen::<bool>() { 1 } else { -1 })
        .collect()
}

/// `(label, top-k labels + similarity bits)` comparison rows for one query.
fn monolithic_topk(memory: &PackedClassMemory, query: &[u64], k: usize) -> Vec<(String, u32)> {
    memory
        .top_k(query, k)
        .into_iter()
        .map(|(index, sim)| (memory.label(index).to_string(), sim.to_bits()))
        .collect()
}

fn sharded_topk(memory: &ShardedClassMemory, query: &[u64], k: usize) -> Vec<(String, u32)> {
    memory
        .top_k(query, k)
        .into_iter()
        .map(|(label, sim)| (label.to_string(), sim.to_bits()))
        .collect()
}

/// Asserts top-k parity (top-1 included) between a monolithic memory and its
/// sharded counterparts for a set of random queries, including
/// `k ≥ num_classes` and `k = 0`.
fn assert_parity(
    mono: &PackedClassMemory,
    sharded: &[ShardedClassMemory],
    dim: usize,
    rng: &mut StdRng,
) {
    let classes = mono.len();
    let ks = [
        0usize,
        1,
        classes / 2,
        classes,
        classes + 7,
        classes * 2 + 1,
    ];
    for _ in 0..3 {
        let query = pack_signs(&random_signs(dim, rng));
        for memory in sharded {
            let shards = memory.num_shards();
            assert_eq!(memory.len(), classes, "shards={shards}");
            for &k in &ks {
                assert_eq!(
                    sharded_topk(memory, &query, k),
                    monolithic_topk(mono, &query, k),
                    "dim={dim} shards={shards} k={k}"
                );
            }
        }
    }
}

proptest! {
    /// Freshly built memories: identical top-k labels/scores across shard
    /// counts, ragged dims, and k at/above the class count.
    #[test]
    fn sharded_topk_bit_identical_to_monolithic(
        dim in 1usize..300,
        classes in 1usize..30,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mono = PackedClassMemory::new(dim);
        let mut sharded: Vec<ShardedClassMemory> = SHARD_COUNTS
            .iter()
            .map(|&s| ShardedClassMemory::new(dim, s))
            .collect();
        for c in 0..classes {
            let row = random_signs(dim, &mut rng);
            let label = format!("class{c:04}");
            mono.insert_signs(label.clone(), &row);
            for memory in &mut sharded {
                memory.add_class(label.clone(), &row);
            }
        }
        assert_parity(&mono, &sharded, dim, &mut rng);
    }

    /// Parity survives arbitrary interleavings of add / update / remove:
    /// after every mutation the sharded memories hold exactly the monolith's
    /// class set and keep returning identical top-k labels and bits.
    #[test]
    fn parity_after_add_update_remove_sequences(
        dim in 1usize..200,
        initial in 1usize..12,
        ops in 4usize..24,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mono = PackedClassMemory::new(dim);
        let mut sharded: Vec<ShardedClassMemory> = SHARD_COUNTS
            .iter()
            .map(|&s| ShardedClassMemory::new(dim, s))
            .collect();
        let mut live: Vec<String> = Vec::new();
        let mut next_label = 0usize;
        let add = |mono: &mut PackedClassMemory,
                       sharded: &mut Vec<ShardedClassMemory>,
                       live: &mut Vec<String>,
                       next_label: &mut usize,
                       rng: &mut StdRng| {
            let label = format!("class{:04}", *next_label);
            *next_label += 1;
            let row = random_signs(dim, rng);
            mono.insert_signs(label.clone(), &row);
            for memory in sharded.iter_mut() {
                memory.add_class(label.clone(), &row);
            }
            live.push(label);
        };
        for _ in 0..initial {
            add(&mut mono, &mut sharded, &mut live, &mut next_label, &mut rng);
        }
        for _ in 0..ops {
            match rng.gen::<u32>() % 3 {
                0 => add(&mut mono, &mut sharded, &mut live, &mut next_label, &mut rng),
                1 if !live.is_empty() => {
                    // Update an existing class in place everywhere.
                    let target = live[rng.gen::<usize>() % live.len()].clone();
                    let row = random_signs(dim, &mut rng);
                    mono.insert_signs(target.clone(), &row);
                    for memory in sharded.iter_mut() {
                        prop_assert!(memory.update_class(&target, &row));
                    }
                }
                _ if live.len() > 1 => {
                    // Remove a class everywhere (keep at least one live so
                    // top-1 always has a winner).
                    let target = live.remove(rng.gen::<usize>() % live.len());
                    prop_assert!(mono.remove(&target).is_some());
                    for memory in sharded.iter_mut() {
                        prop_assert!(memory.remove_class(&target));
                        prop_assert!(!memory.contains(&target));
                    }
                }
                _ => {}
            }
            assert_parity(&mono, &sharded, dim, &mut rng);
        }
    }

    /// Batch lookups agree with single-query lookups (and therefore with the
    /// monolith) for every shard count and thread count.
    #[test]
    fn batch_lookups_match_single_query_lookups(
        dim in 1usize..250,
        classes in 1usize..16,
        queries in 1usize..10,
        k in 1usize..20,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<i8>> = (0..classes).map(|_| random_signs(dim, &mut rng)).collect();
        let query_rows: Vec<Vec<i8>> =
            (0..queries).map(|_| random_signs(dim, &mut rng)).collect();
        let mut batch = PackedQueryBatch::new(dim);
        for q in &query_rows {
            batch.push_signs(q);
        }
        for &shards in &SHARD_COUNTS {
            for threads in [1usize, 3] {
                let mut memory = ShardedClassMemory::new(dim, shards).with_threads(threads);
                for (c, row) in rows.iter().enumerate() {
                    memory.add_class(format!("class{c:04}"), row);
                }
                let topk = memory.topk_batch(&batch, k);
                prop_assert_eq!(topk.len(), queries);
                for (q, signs) in query_rows.iter().enumerate() {
                    let packed = pack_signs(signs);
                    prop_assert_eq!(
                        &topk[q],
                        &memory.top_k(&packed, k),
                        "shards={} threads={} q={}", shards, threads, q
                    );
                }
            }
        }
    }
}
