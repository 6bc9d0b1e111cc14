//! Property tests pinning the routed class memory's exactness contract:
//! with full probing, for cluster counts {1, 2, 7}, ragged
//! (non-multiple-of-64) dimensions, `k ≥ num_classes`, and after arbitrary
//! add/update/remove interleavings, the routed top-k labels and similarity
//! bits are identical to a monolithic [`PackedClassMemory`] holding the
//! same class set — the mirror of `sharded_parity.rs` for the
//! coarse-to-fine index. A deterministic workload-generator test pins the
//! other half of the bargain: on clustered data, partial probing
//! shortlists a sub-linear candidate fraction while keeping recall high.

use dataset::workload::{SyntheticWorkload, WorkloadConfig};
use engine::{pack_signs, PackedClassMemory, PackedQueryBatch, RoutedClassMemory, RoutedConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CLUSTER_COUNTS: [usize; 3] = [1, 2, 7];

/// Routed memories under test probe exhaustively (`nprobe = 0`) — the mode
/// whose results are contractually bit-identical to the monolith. The
/// re-cluster threshold stays at its default so mutation sequences exercise
/// deterministic re-clustering mid-stream.
fn config_for(clusters: usize, seed: u64) -> RoutedConfig {
    RoutedConfig {
        clusters,
        nprobe: 0,
        seed,
        ..RoutedConfig::default()
    }
}

fn random_signs(dim: usize, rng: &mut StdRng) -> Vec<i8> {
    (0..dim)
        .map(|_| if rng.gen::<bool>() { 1 } else { -1 })
        .collect()
}

fn monolithic_topk(memory: &PackedClassMemory, query: &[u64], k: usize) -> Vec<(String, u32)> {
    memory
        .top_k(query, k)
        .into_iter()
        .map(|(index, sim)| (memory.label(index).to_string(), sim.to_bits()))
        .collect()
}

fn routed_topk(memory: &RoutedClassMemory, query: &[u64], k: usize) -> Vec<(String, u32)> {
    memory
        .top_k(query, k)
        .into_iter()
        .map(|(label, sim)| (label.to_string(), sim.to_bits()))
        .collect()
}

/// Asserts top-k parity (top-1 included) between a monolithic memory and its
/// routed counterparts for a set of random queries, including
/// `k ≥ num_classes` and `k = 0`.
fn assert_parity(
    mono: &PackedClassMemory,
    routed: &[RoutedClassMemory],
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
        for memory in routed {
            let clusters = memory.as_sharded().num_shards();
            assert_eq!(memory.len(), classes, "clusters={clusters}");
            assert!(memory.probes_exhaustively());
            for &k in &ks {
                assert_eq!(
                    routed_topk(memory, &query, k),
                    monolithic_topk(mono, &query, k),
                    "dim={dim} clusters={clusters} k={k}"
                );
            }
        }
    }
}

proptest! {
    /// Freshly clustered memories: identical top-k labels/scores across
    /// cluster counts, ragged dims, and k at/above the class count.
    #[test]
    fn routed_topk_bit_identical_to_monolithic(
        dim in 1usize..300,
        classes in 1usize..30,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mono = PackedClassMemory::new(dim);
        for c in 0..classes {
            let row = random_signs(dim, &mut rng);
            mono.insert_signs(format!("class{c:04}"), &row);
        }
        let routed: Vec<RoutedClassMemory> = CLUSTER_COUNTS
            .iter()
            .map(|&k| RoutedClassMemory::from_packed(&mono, config_for(k, seed)))
            .collect();
        assert_parity(&mono, &routed, dim, &mut rng);
    }

    /// Parity survives arbitrary interleavings of add / update / remove —
    /// including the deterministic re-clusterings those mutations trigger:
    /// after every mutation the routed memories hold exactly the monolith's
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
        let mut routed: Vec<RoutedClassMemory> = CLUSTER_COUNTS
            .iter()
            .map(|&k| RoutedClassMemory::new(dim, config_for(k, seed)))
            .collect();
        let mut live: Vec<String> = Vec::new();
        let mut next_label = 0usize;
        let add = |mono: &mut PackedClassMemory,
                       routed: &mut Vec<RoutedClassMemory>,
                       live: &mut Vec<String>,
                       next_label: &mut usize,
                       rng: &mut StdRng| {
            let label = format!("class{:04}", *next_label);
            *next_label += 1;
            let row = random_signs(dim, rng);
            mono.insert_signs(label.clone(), &row);
            for memory in routed.iter_mut() {
                memory.add_class(label.clone(), &row);
            }
            live.push(label);
        };
        for _ in 0..initial {
            add(&mut mono, &mut routed, &mut live, &mut next_label, &mut rng);
        }
        for _ in 0..ops {
            match rng.gen::<u32>() % 3 {
                0 => add(&mut mono, &mut routed, &mut live, &mut next_label, &mut rng),
                1 if !live.is_empty() => {
                    // Update an existing class in place everywhere.
                    let target = live[rng.gen::<usize>() % live.len()].clone();
                    let row = random_signs(dim, &mut rng);
                    mono.insert_signs(target.clone(), &row);
                    for memory in routed.iter_mut() {
                        prop_assert!(memory.update_class(&target, &row));
                    }
                }
                _ if live.len() > 1 => {
                    // Remove a class everywhere (keep at least one live so
                    // top-1 always has a winner).
                    let target = live.remove(rng.gen::<usize>() % live.len());
                    prop_assert!(mono.remove(&target).is_some());
                    for memory in routed.iter_mut() {
                        prop_assert!(memory.remove_class(&target));
                        prop_assert!(!memory.as_sharded().contains(&target));
                    }
                }
                _ => {}
            }
            assert_parity(&mono, &routed, dim, &mut rng);
        }
    }

    /// Batch lookups agree with single-query lookups (and therefore with
    /// the monolith) for every cluster count and thread count.
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
        for &clusters in &CLUSTER_COUNTS {
            for threads in [1usize, 3] {
                let mut memory =
                    RoutedClassMemory::new(dim, config_for(clusters, seed)).with_threads(threads);
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
                        "clusters={} threads={} q={}", clusters, threads, q
                    );
                }
            }
        }
    }
}

/// On a clustered synthetic workload (the `dataset::workload` generator
/// `serve_sim --classes` shares), partial probing at `nprobe = ⌈√k⌉`
/// shortlists well under half the classes while recall@1 against the
/// exhaustive scorer stays high — the sub-linearity bargain, pinned
/// deterministically.
#[test]
fn partial_probing_is_sublinear_with_high_recall_on_clustered_data() {
    let config = WorkloadConfig {
        dim: 512,
        classes: 600,
        clusters: 24,
        class_noise: 0.05,
        query_noise: 0.02,
        queries: 48,
        distractors: 0,
        seed: 71,
    };
    let workload = SyntheticWorkload::generate(&config);
    let mono = workload.packed_memory();
    let mut routed = RoutedClassMemory::from_packed(
        &mono,
        RoutedConfig {
            clusters: 24,
            seed: 7,
            ..RoutedConfig::default()
        },
    );
    routed.set_nprobe((routed.as_sharded().num_shards() as f64).sqrt().ceil() as usize);
    assert!(!routed.probes_exhaustively());

    let mut candidate_total = 0usize;
    let mut hits = 0usize;
    for signs in &workload.queries {
        let query = pack_signs(signs);
        candidate_total += routed.candidate_classes(&query);
        let routed_label = routed.top_k(&query, 1)[0].0;
        let mono_index = mono.top_k(&query, 1)[0].0;
        if routed_label == mono.label(mono_index) {
            hits += 1;
        }
    }
    let candidate_fraction =
        candidate_total as f64 / (workload.queries.len() * config.classes) as f64;
    let recall = hits as f64 / workload.queries.len() as f64;
    assert!(
        candidate_fraction < 0.5,
        "candidate fraction {candidate_fraction:.3} is not sub-linear"
    );
    assert!(
        recall >= 0.9,
        "recall@1 {recall:.3} too low at candidate fraction {candidate_fraction:.3}"
    );
}
