//! Property-based tests for the HDC substrate: algebraic laws of binding and
//! bundling. Packed-vs-bipolar equivalence is pinned by the `engine` crate's
//! parity tests.

use hdc::{bundler::bundle_bipolar, BipolarHypervector, Bundler};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy producing a pair of independent random bipolar hypervectors of a
/// shared (moderate) dimensionality plus the RNG seed used to build them.
fn hv_pair() -> impl Strategy<Value = (BipolarHypervector, BipolarHypervector)> {
    (64usize..1024, any::<u64>()).prop_map(|(dim, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        (
            BipolarHypervector::random(dim, &mut rng),
            BipolarHypervector::random(dim, &mut rng),
        )
    })
}

fn hv_triple() -> impl Strategy<Value = (BipolarHypervector, BipolarHypervector, BipolarHypervector)>
{
    (64usize..512, any::<u64>()).prop_map(|(dim, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        (
            BipolarHypervector::random(dim, &mut rng),
            BipolarHypervector::random(dim, &mut rng),
            BipolarHypervector::random(dim, &mut rng),
        )
    })
}

proptest! {
    #[test]
    fn binding_is_commutative((a, b) in hv_pair()) {
        prop_assert_eq!(a.bind(&b), b.bind(&a));
    }

    #[test]
    fn binding_is_self_inverse((a, b) in hv_pair()) {
        prop_assert_eq!(a.bind(&b).bind(&b), a);
    }

    #[test]
    fn binding_is_associative((a, b, c) in hv_triple()) {
        prop_assert_eq!(a.bind(&b).bind(&c), a.bind(&b.bind(&c)));
    }

    #[test]
    fn binding_preserves_similarity((a, b, c) in hv_triple()) {
        let before = a.cosine(&b);
        let after = a.bind(&c).cosine(&b.bind(&c));
        prop_assert!((before - after).abs() < 1e-6);
    }

    #[test]
    fn cosine_is_symmetric_and_bounded((a, b) in hv_pair()) {
        let ab = a.cosine(&b);
        let ba = b.cosine(&a);
        prop_assert!((ab - ba).abs() < 1e-6);
        prop_assert!((-1.0..=1.0).contains(&ab));
        prop_assert!((a.cosine(&a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn bundle_contains_every_item(seed in any::<u64>(), n in 1usize..9) {
        let dim = 2048;
        let mut rng = StdRng::seed_from_u64(seed);
        let items: Vec<_> = (0..n).map(|_| BipolarHypervector::random(dim, &mut rng)).collect();
        let bundle = bundle_bipolar(&items).expect("non-empty");
        // Each constituent must be markedly more similar to the bundle than
        // an unrelated random hypervector would be (|cos| ≈ 0.02 at d=2048).
        for item in &items {
            prop_assert!(bundle.cosine(item) > 0.15, "cos = {}", bundle.cosine(item));
        }
    }
}

// Exactness laws of the i32-counter bundler that streaming continual
// learning builds on: addition order never matters, any partition of a
// stream across bundlers merges back to the sequential result, and the
// counters stay exact at counts far past what a vote-margin could track.
proptest! {
    #[test]
    fn bundling_is_order_independent(seed in any::<u64>(), n in 2usize..10) {
        let dim = 256;
        let mut rng = StdRng::seed_from_u64(seed);
        let items: Vec<_> =
            (0..n).map(|_| BipolarHypervector::random(dim, &mut rng)).collect();
        // A seed-derived rotation gives a nontrivial permutation of the
        // addition order without needing a permutation strategy.
        let shift = (seed % n as u64) as usize;
        let mut forward = Bundler::new(dim);
        let mut rotated = Bundler::new(dim);
        for hv in &items {
            forward.add(hv);
        }
        for i in 0..n {
            rotated.add(&items[(i + shift) % n]);
        }
        prop_assert_eq!(forward.counts(), rotated.counts());
        prop_assert_eq!(forward.finish(), rotated.finish());
    }

    #[test]
    fn merge_equals_sequential_addition(seed in any::<u64>(), n in 1usize..12, split in 0usize..12) {
        let dim = 192;
        let split = split % (n + 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let items: Vec<_> =
            (0..n).map(|_| BipolarHypervector::random(dim, &mut rng)).collect();
        let mut sequential = Bundler::new(dim);
        for hv in &items {
            sequential.add(hv);
        }
        let mut left = Bundler::new(dim);
        let mut right = Bundler::new(dim);
        for hv in &items[..split] {
            left.add(hv);
        }
        for hv in &items[split..] {
            right.add(hv);
        }
        left.merge(&right);
        prop_assert_eq!(left.counts(), sequential.counts());
        prop_assert_eq!(left.len(), sequential.len());
        if !left.is_empty() {
            prop_assert_eq!(left.finish(), sequential.finish());
        }
    }

    #[test]
    fn counters_stay_exact_at_large_counts(seed in any::<u64>(), weight in 1i32..1_000_000) {
        // Merging restored counters reaches magnitudes a float (or
        // saturating vote) accumulator would corrupt; the i32 counters must
        // hold the exact algebraic sum.
        let dim = 64;
        let mut rng = StdRng::seed_from_u64(seed);
        let a = BipolarHypervector::random(dim, &mut rng);
        let b = BipolarHypervector::random(dim, &mut rng);
        // A bundler holding `weight` copies of `hv` (negative: subtracted).
        let scaled = |hv: &BipolarHypervector, weight: i32| {
            let counts = hv.as_slice().iter().map(|&s| weight * s as i32).collect();
            Bundler::from_parts(counts, weight.unsigned_abs() as usize, 0).expect("non-empty")
        };
        let mut bundler = scaled(&a, weight);
        bundler.merge(&scaled(&b, weight - 1));
        bundler.merge(&scaled(&a, -weight));
        // The ±weight contributions of `a` cancel exactly, leaving only
        // (weight - 1) · b — no drift, no rounding, at any magnitude.
        let expected: Vec<i32> =
            b.as_slice().iter().map(|&s| (weight - 1) * s as i32).collect();
        prop_assert_eq!(bundler.counts(), expected.as_slice());
        if weight > 1 {
            prop_assert_eq!(bundler.finish(), b);
        }
    }
}
