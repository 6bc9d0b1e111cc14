//! Property tests pinning the label table every packed memory keeps beside
//! its rows: after random add, update and remove sequences, finding a class
//! by label on the packed, sharded and routed memories agrees with a linear
//! scan over the stored labels, and the looked-up row holds the words last
//! written under that label.

use engine::{pack_signs, PackedClassMemory, RoutedClassMemory, RoutedConfig, ShardedClassMemory};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

fn random_signs(dim: usize, rng: &mut StdRng) -> Vec<i8> {
    (0..dim)
        .map(|_| if rng.gen::<bool>() { 1 } else { -1 })
        .collect()
}

/// `(shard, row)` of `label` by a linear scan over every shard's labels.
fn scan(memory: &ShardedClassMemory, label: &str) -> Option<(usize, usize)> {
    (0..memory.num_shards()).find_map(|s| {
        memory
            .shard(s)
            .labels()
            .position(|l| l == label)
            .map(|row| (s, row))
    })
}

/// Every shard's table agrees with a scan of its labels for every label in
/// `probes`, and the whole memory with `expected` (label → words).
fn assert_tables(
    memory: &ShardedClassMemory,
    expected: &BTreeMap<String, Vec<u64>>,
    probes: &[String],
) {
    assert_eq!(memory.len(), expected.len());
    for s in 0..memory.num_shards() {
        assert_packed_table(memory.shard(s), probes);
    }
    for label in probes {
        let found = scan(memory, label);
        assert_eq!(memory.contains(label), found.is_some(), "{label}");
        let words = found.map(|(s, row)| memory.shard(s).row_words(row));
        assert_eq!(memory.class_words(label), words, "{label}");
        assert_eq!(words, expected.get(label).map(Vec::as_slice), "{label}");
    }
}

fn assert_packed_table(memory: &PackedClassMemory, probes: &[String]) {
    for label in probes {
        let scanned = memory.labels().position(|l| l == label);
        assert_eq!(memory.position(label), scanned, "{label}");
    }
}

proptest! {
    #[test]
    fn label_table_matches_a_linear_scan_after_mutations(
        dim in 1usize..150,
        ops in 1usize..60,
        shards in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = RoutedConfig {
            clusters: 3,
            ..RoutedConfig::default()
        };
        let mut packed = PackedClassMemory::new(dim);
        let mut sharded = ShardedClassMemory::new(dim, shards);
        let mut routed = RoutedClassMemory::new(dim, config);
        let mut expected: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        // A small label pool, so adds hit stored labels (updates) and
        // removes hit both stored and missing ones.
        let pool: Vec<String> = (0..12).map(|c| format!("class{c:02}")).collect();
        for _ in 0..ops {
            let label = pool[rng.gen::<usize>() % pool.len()].clone();
            match rng.gen::<u32>() % 3 {
                0 | 1 => {
                    let signs = random_signs(dim, &mut rng);
                    let stored = expected.contains_key(&label);
                    prop_assert_eq!(packed.insert_signs(label.clone(), &signs).1, stored);
                    prop_assert_eq!(sharded.add_class(label.clone(), &signs).1, stored);
                    prop_assert_eq!(routed.add_class(label.clone(), &signs).1, stored);
                    expected.insert(label, pack_signs(&signs));
                }
                _ => {
                    let stored = expected.remove(&label).is_some();
                    prop_assert_eq!(packed.remove(&label).is_some(), stored);
                    prop_assert_eq!(sharded.remove_class(&label), stored);
                    prop_assert_eq!(routed.remove_class(&label), stored);
                }
            }
            assert_packed_table(&packed, &pool);
            for label in &pool {
                let words = packed.position(label).map(|row| packed.row_words(row));
                prop_assert_eq!(words, expected.get(label).map(Vec::as_slice));
            }
            assert_tables(&sharded, &expected, &pool);
            assert_tables(routed.as_sharded(), &expected, &pool);
        }
        // A serde round trip rebuilds each table from the labels.
        let json = serde_json::to_string(&sharded).expect("serializes");
        let imported: ShardedClassMemory = serde_json::from_str(&json).expect("imports");
        assert_tables(&imported, &expected, &pool);
        let json = serde_json::to_string(&routed).expect("serializes");
        let imported: RoutedClassMemory = serde_json::from_str(&json).expect("imports");
        assert_tables(imported.as_sharded(), &expected, &pool);
    }
}

/// A shard document that holds one label twice is refused with a typed
/// error; the table cannot hold both rows.
#[test]
fn a_shard_holding_one_label_twice_is_refused() {
    let doc = "{\"dim\": 64, \"words_per_row\": 1, \"labels\": [\"a\", \"b\", \"a\"], \
               \"words\": [1, 2, 3]}";
    let err = serde_json::from_str::<PackedClassMemory>(doc).expect_err("duplicate label");
    assert!(err.to_string().contains("label `a` stored twice"), "{err}");
}
