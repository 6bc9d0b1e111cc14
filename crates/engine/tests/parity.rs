//! Property tests pinning the engine's exactness contract: packed batched
//! results are bit-identical to a scalar `i8` reference across random
//! dimensions (including non-multiples of 64), class counts, batch sizes,
//! shard counts and thread counts.

use engine::{
    pack_signs, similarity_from_hamming, PackedClassMemory, PackedQueryBatch, Pool,
    RoutedClassMemory, RoutedConfig, ShardedClassMemory,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random ±1 sign vector.
fn random_signs(dim: usize, rng: &mut StdRng) -> Vec<i8> {
    (0..dim)
        .map(|_| if rng.gen::<bool>() { 1 } else { -1 })
        .collect()
}

/// The scalar reference: bipolar cosine as `dot as f32 / dim as f32`, the
/// exact expression `hdc::BipolarHypervector::cosine` evaluates.
fn scalar_cosine(a: &[i8], b: &[i8]) -> f32 {
    let dot: i64 = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| i64::from(x) * i64::from(y))
        .sum();
    dot as f32 / a.len() as f32
}

/// Scalar reference nearest: max similarity, ties to the smallest label.
fn scalar_nearest(query: &[i8], labels: &[String], protos: &[Vec<i8>]) -> Option<(usize, f32)> {
    let mut best: Option<(usize, f32)> = None;
    for (i, p) in protos.iter().enumerate() {
        let sim = scalar_cosine(query, p);
        let better = match best {
            None => true,
            Some((bi, bs)) => sim > bs || (sim == bs && labels[i] < labels[bi]),
        };
        if better {
            best = Some((i, sim));
        }
    }
    best
}

/// Scalar reference top-k: sorted by similarity descending, label ascending.
fn scalar_top_k(
    query: &[i8],
    labels: &[String],
    protos: &[Vec<i8>],
    k: usize,
) -> Vec<(usize, f32)> {
    let mut scored: Vec<(usize, f32)> = protos
        .iter()
        .enumerate()
        .map(|(i, p)| (i, scalar_cosine(query, p)))
        .collect();
    scored.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("similarities are finite")
            .then_with(|| labels[a.0].cmp(&labels[b.0]))
    });
    scored.truncate(k);
    scored
}

/// A generated problem: `(labels, prototypes, query rows, packed memory,
/// packed batch)`.
type Problem = (
    Vec<String>,
    Vec<Vec<i8>>,
    Vec<Vec<i8>>,
    PackedClassMemory,
    PackedQueryBatch,
);

/// Builds a random problem: dims deliberately include values far from
/// multiples of 64 so the tail-word masking is always exercised.
fn build_problem(dim: usize, classes: usize, queries: usize, seed: u64) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    let labels: Vec<String> = (0..classes).map(|c| format!("class{c:04}")).collect();
    let protos: Vec<Vec<i8>> = (0..classes).map(|_| random_signs(dim, &mut rng)).collect();
    // A mix of noisy prototype copies (realistic queries with near-tie
    // scores) and fresh random vectors.
    let query_rows: Vec<Vec<i8>> = (0..queries)
        .map(|q| {
            if q % 2 == 0 && !protos.is_empty() {
                let mut noisy = protos[q % protos.len()].clone();
                for v in noisy.iter_mut() {
                    if rng.gen::<f32>() < 0.2 {
                        *v = -*v;
                    }
                }
                noisy
            } else {
                random_signs(dim, &mut rng)
            }
        })
        .collect();
    let mut memory = PackedClassMemory::new(dim);
    for (label, proto) in labels.iter().zip(&protos) {
        memory.insert_signs(label.clone(), proto);
    }
    let mut batch = PackedQueryBatch::new(dim);
    for q in &query_rows {
        batch.push_signs(q);
    }
    (labels, protos, query_rows, memory, batch)
}

/// Thread counts the batched lookups are checked at: serial, small, more
/// threads than most batches have queries, and a prime that leaves ragged
/// chunks.
const THREADS: [usize; 5] = [1, 2, 3, 8, 19];

/// The problem's classes redistributed over `shards` shards, scored with
/// `threads` threads — the scorer the serving layer runs.
fn sharded(memory: &PackedClassMemory, shards: usize, threads: usize) -> ShardedClassMemory {
    ShardedClassMemory::from_packed(memory, shards).with_threads(threads)
}

proptest! {
    #[test]
    fn nearest_and_topk_bit_identical_to_scalar(
        dim in 1usize..300,
        classes in 1usize..24,
        queries in 1usize..10,
        k in 0usize..30,
        shards in 1usize..5,
        thread_index in 0usize..THREADS.len(),
        seed in 0u64..1_000_000,
    ) {
        let (labels, protos, query_rows, memory, batch) =
            build_problem(dim, classes, queries, seed);
        let scorer = sharded(&memory, shards, THREADS[thread_index]);
        // Full probing (the default): the routed index's exact mode. The
        // shard count draw doubles as the cluster count.
        let routed = RoutedClassMemory::from_packed(
            &memory,
            RoutedConfig { clusters: shards, ..RoutedConfig::default() },
        );
        let top1 = scorer.topk_batch(&batch, 1);
        let topk = scorer.topk_batch(&batch, k);
        for (qi, query) in query_rows.iter().enumerate() {
            let expected = scalar_nearest(query, &labels, &protos).expect("non-empty");
            let want = (labels[expected.0].as_str(), expected.1.to_bits());
            let packed = memory.top_k(batch.row(qi), 1)[0];
            prop_assert_eq!((memory.label(packed.0), packed.1.to_bits()), want, "packed q={}", qi);
            let (label, sim) = top1[qi][0];
            prop_assert_eq!((label, sim.to_bits()), want, "sharded dim={} q={}", dim, qi);
            let (label, sim) = routed.top_k(batch.row(qi), 1)[0];
            prop_assert_eq!((label, sim.to_bits()), want, "routed q={}", qi);

            let expected_topk = scalar_top_k(query, &labels, &protos, k);
            let packed_topk = memory.top_k(batch.row(qi), k);
            prop_assert_eq!(topk[qi].len(), expected_topk.len());
            prop_assert_eq!(packed_topk.len(), expected_topk.len());
            for ((got, packed), want) in topk[qi].iter().zip(&packed_topk).zip(&expected_topk) {
                prop_assert_eq!(got.0, labels[want.0].as_str(), "dim={} q={}", dim, qi);
                prop_assert_eq!(got.1.to_bits(), want.1.to_bits());
                prop_assert_eq!(packed.0, want.0, "packed dim={} q={}", dim, qi);
                prop_assert_eq!(packed.1.to_bits(), want.1.to_bits());
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_logits(
        dim in 1usize..400,
        classes in 1usize..20,
        queries in 1usize..40,
        shards in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        let (_labels, _protos, _query_rows, memory, batch) =
            build_problem(dim, classes, queries, seed);
        // `k = classes` ranks every class, so each class's similarity is
        // compared, not only the winners'.
        let reference = sharded(&memory, shards, THREADS[0]);
        let reference_topk = reference.topk_batch(&batch, classes);
        let reference_top1 = reference.topk_batch(&batch, 1);
        for threads in THREADS[1..].iter().copied() {
            let scorer = sharded(&memory, shards, threads);
            prop_assert_eq!(
                scorer.topk_batch(&batch, classes), reference_topk,
                "threads={} shards={} dim={}", threads, shards, dim
            );
            prop_assert_eq!(
                scorer.topk_batch(&batch, 1), reference_top1,
                "threads={} shards={}", threads, shards
            );
        }
    }

    #[test]
    fn dense_cosine_thread_invariant_and_matches_reference(
        rows in 1usize..20,
        cols in 1usize..40,
        protos in 1usize..15,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = tensor::Matrix::random_uniform(rows, cols, 1.0, &mut rng);
        let b = tensor::Matrix::random_uniform(protos, cols, 1.0, &mut rng);
        let reference = tensor::ops::cosine_similarity_matrix(&a, &b);
        for threads in [1usize, 2, 7] {
            let scores = engine::dense::cosine_scores(&a, &b, &Pool::new(threads));
            prop_assert_eq!(scores.as_slice(), reference.as_slice(), "threads={}", threads);
        }
    }

    /// `Matrix::topk_rows` sits downstream of every engine scoring path
    /// (`metrics::topk_accuracy` consumes logit matrices through it). Its
    /// selection-based implementation must match the full-sort reference —
    /// descending by value, ties to the smaller index — including on logit
    /// matrices that are full of exact ties (quantised values).
    #[test]
    fn topk_rows_matches_full_sort_reference(
        rows in 1usize..12,
        cols in 1usize..40,
        k in 0usize..45,
        levels in 1u32..6,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Quantise to a few levels so duplicate values (ties) are common.
        let m = tensor::Matrix::random_uniform(rows, cols, 1.0, &mut rng)
            .map(|x| (x * levels as f32).round() / levels as f32);
        let got = m.topk_rows(k);
        for (r, got_row) in got.iter().enumerate() {
            let row = m.row(r);
            let mut reference: Vec<usize> = (0..cols).collect();
            // Stable sort on value only: equal values keep ascending index
            // order, the documented tie rule.
            reference.sort_by(|&a, &b| {
                row[b].partial_cmp(&row[a]).expect("finite values")
            });
            reference.truncate(k);
            prop_assert_eq!(
                got_row, &reference,
                "rows={} cols={} k={} r={}", rows, cols, k, r
            );
        }
    }

    #[test]
    fn packed_roundtrip_preserves_similarity_identity(
        dim in 1usize..600,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let signs = random_signs(dim, &mut rng);
        let words = pack_signs(&signs);
        // Self-similarity is exactly 1, and the word row hamming against
        // itself is 0.
        let mut memory = PackedClassMemory::new(dim);
        memory.insert_signs("self", &signs);
        let (index, sim) = memory.top_k(&words, 1)[0];
        prop_assert_eq!(index, 0);
        prop_assert_eq!(sim.to_bits(), 1.0f32.to_bits());
        prop_assert_eq!(similarity_from_hamming(dim, 0).to_bits(), 1.0f32.to_bits());
    }

    #[test]
    fn xor_of_packed_rows_equals_packed_hadamard_product(
        dim in 1usize..600,
        seed in 0u64..1_000_000,
    ) {
        // Binding commutes with packing: XOR on words is the Hadamard
        // product on signs, and the tail bits past `dim` stay clear.
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_signs(dim, &mut rng);
        let b = random_signs(dim, &mut rng);
        let hadamard: Vec<i8> = a.iter().zip(&b).map(|(x, y)| x * y).collect();
        let xor: Vec<u64> = pack_signs(&a)
            .iter()
            .zip(pack_signs(&b))
            .map(|(x, y)| x ^ y)
            .collect();
        prop_assert_eq!(xor, pack_signs(&hadamard));
    }
}
