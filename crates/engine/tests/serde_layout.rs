//! Pins the on-disk JSON of both partitioned class memories byte for byte.
//!
//! A WAL's base record and every `swap` record embed a
//! `ShardedClassMemory`, and routed bases embed a `RoutedClassMemory`, so
//! their key names, key order and numbers are a storage format: a WAL
//! directory written by an older build must still recover. Each fixture is a small ragged-dim
//! (70-bit, two words per row) memory after one `remove_class`, so the
//! parts are unbalanced and the tail words carry fewer than 64 live bits.

use engine::{PackedClassMemory, RoutedClassMemory, RoutedConfig, ShardedClassMemory};

const DIM: usize = 70;

/// Nine deterministic ±1 prototypes, `class000` … `class008`.
fn prototypes() -> Vec<(String, Vec<i8>)> {
    let mut state = 0x0dd_5eedu64;
    (0..9)
        .map(|c| {
            let signs = (0..DIM)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    if state >> 63 == 0 {
                        1
                    } else {
                        -1
                    }
                })
                .collect();
            (format!("class{c:03}"), signs)
        })
        .collect()
}

#[test]
fn sharded_memory_json_is_pinned() {
    let mut memory = ShardedClassMemory::new(DIM, 3);
    for (label, signs) in prototypes() {
        memory.add_class(label, &signs);
    }
    assert!(memory.remove_class("class004"));
    let json = serde_json::to_string_pretty(&memory).expect("serializes");
    assert_eq!(json, include_str!("serde_layout/sharded.json"));
    let back: ShardedClassMemory = serde_json::from_str(&json).expect("imports");
    assert_eq!(back, memory);
}

#[test]
fn routed_memory_json_is_pinned() {
    let mut mono = PackedClassMemory::new(DIM);
    for (label, signs) in prototypes() {
        mono.insert_signs(label, &signs);
    }
    let config = RoutedConfig {
        clusters: 3,
        recluster_percent: 0,
        ..RoutedConfig::default()
    };
    let mut memory = RoutedClassMemory::from_packed(&mono, config);
    assert!(memory.remove_class("class004"));
    let json = serde_json::to_string_pretty(&memory).expect("serializes");
    assert_eq!(json, include_str!("serde_layout/routed.json"));
    let back: RoutedClassMemory = serde_json::from_str(&json).expect("imports");
    assert_eq!(back, memory);
}
