//! Crash-recovery tests for the durable serving path: a durable
//! [`QueryServer`]'s WAL directory, cut off at **any** record boundary (with
//! or without a torn partial record after it), must recover to a server
//! whose class memory is **bit-identical** to the in-memory snapshot that
//! was serving after exactly that prefix of mutations — same snapshot
//! version, same labels, same top-k bits.
//!
//! The deterministic test drives a full lifecycle (register / update /
//! remove / swap, across a compaction boundary) and recovers it; the
//! property test generates arbitrary mutation interleavings from a seeded
//! LCG, cuts the log at an arbitrary boundary, and checks the recovered
//! state against the live snapshot timeline the server itself published.

use dataset::AttributeSchema;
use engine::{PackedClassMemory, RoutedClassMemory, ShardedClassMemory};
use hdc_zsc::{CheckpointError, ModelConfig, ModelFile, ZscModel};
use proptest::prelude::*;
use serve::{
    wal, DurabilityConfig, ModelSnapshot, QueryServer, ServeError, ServerConfig, StreamStats,
    SyncPolicy,
};
use std::path::PathBuf;
use std::sync::Arc;
use tensor::Matrix;

const FEATURE_DIM: usize = 16;

fn schema() -> AttributeSchema {
    // A small synthetic attribute space keeps per-case model construction
    // (and the swaps' model files) cheap.
    AttributeSchema::synthetic(4, 3)
}

fn alpha() -> usize {
    schema().num_attributes()
}

fn model(seed: u64) -> ZscModel {
    ZscModel::new(&ModelConfig::tiny().with_seed(seed), &schema(), FEATURE_DIM)
}

fn config() -> ServerConfig {
    ServerConfig {
        max_batch: 4,
        max_wait_us: 50,
        threads: 2,
        top_k: 3,
        shards: 3,
        routed: None,
        publish_every: 1,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zsc-crash-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A tiny deterministic generator (an LCG) so the property test's mutation
/// script is a pure function of its seed.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn unit_f32(&mut self) -> f32 {
        (self.next() % 10_000) as f32 / 10_000.0
    }

    fn attr_row(&mut self, width: usize) -> Vec<f32> {
        (0..width).map(|_| self.unit_f32()).collect()
    }
}

fn probe_rows() -> Vec<Vec<f32>> {
    (0..4)
        .map(|p| {
            (0..FEATURE_DIM)
                .map(|i| 0.05 * (p * 7 + i) as f32)
                .collect()
        })
        .collect()
}

/// A memory's classes as `(label, packed words)`, sorted by label: the
/// class-set contract, independent of shard or cluster placement.
fn class_set(memory: &ShardedClassMemory) -> Vec<(String, Vec<u64>)> {
    let mut set: Vec<(String, Vec<u64>)> = memory
        .labels()
        .map(|label| {
            let words = memory.class_words(label).expect("label just listed");
            (label.to_string(), words.to_vec())
        })
        .collect();
    set.sort_unstable();
    set
}

/// Bit-exact comparison of a recovered snapshot against the live snapshot
/// that served the same mutation prefix.
fn assert_snapshots_match(recovered: &ModelSnapshot, expected: &ModelSnapshot, context: &str) {
    assert_eq!(
        recovered.version(),
        expected.version(),
        "{context}: version diverged"
    );
    assert_eq!(
        recovered.memory(),
        expected.memory(),
        "{context}: class memory diverged"
    );
    assert_eq!(
        recovered.routed(),
        expected.routed(),
        "{context}: routed index diverged"
    );
    assert_eq!(
        recovered.threshold().map(f32::to_bits),
        expected.threshold().map(f32::to_bits),
        "{context}: threshold diverged"
    );
    for (p, row) in probe_rows().iter().enumerate() {
        let got: Vec<(String, u32)> = recovered
            .solo_topk(row, 3)
            .into_iter()
            .map(|(l, s)| (l, s.to_bits()))
            .collect();
        let want: Vec<(String, u32)> = expected
            .solo_topk(row, 3)
            .into_iter()
            .map(|(l, s)| (l, s.to_bits()))
            .collect();
        assert_eq!(got, want, "{context}: probe {p} scored differently");
    }
}

/// The deterministic acceptance drill: a durable server lives through
/// registrations, updates, removals, a model swap, and an automatic
/// compaction; killed (forgotten, so no destructor runs) and recovered, it
/// serves **bit-identical** results at the same snapshot version — and a
/// torn partial record appended by a simulated mid-append crash is
/// detected and ignored.
#[test]
fn kill_and_recover_restores_the_exact_serving_state() {
    let dir = temp_dir("lifecycle");
    let a = alpha();
    let labels: Vec<String> = (0..5).map(|c| format!("class{c}")).collect();
    let mut lcg = Lcg(99);
    let class_attributes = Matrix::from_rows(&(0..5).map(|_| lcg.attr_row(a)).collect::<Vec<_>>());
    let server = QueryServer::start_durable(
        model(1),
        labels.clone(),
        &class_attributes,
        &schema(),
        config(),
        DurabilityConfig {
            dir: dir.clone(),
            sync: SyncPolicy::Always,
            // Low enough that the mutation script below crosses a
            // compaction: recovery then spans base + WAL suffix.
            compact_every: 4,
        },
    )
    .expect("durable server starts");

    server
        .register_class("hot0", &lcg.attr_row(a))
        .expect("registers");
    server
        .update_class("class2", &lcg.attr_row(a))
        .expect("updates");
    server.remove_class("class0").expect("removes");
    let swap_labels: Vec<String> = (0..4).map(|c| format!("sw{c}")).collect();
    let swap_attributes = Matrix::from_rows(&(0..4).map(|_| lcg.attr_row(a)).collect::<Vec<_>>());
    // Mutation 4 of 4: triggers the automatic compaction (base rewritten,
    // log rotated) right after the swap publishes.
    server
        .swap_model(model(2), swap_labels.clone(), &swap_attributes)
        .expect("swaps");
    // Two more past the compaction boundary so recovery replays a suffix.
    server
        .register_class("hot1", &lcg.attr_row(a))
        .expect("registers");
    server.remove_class("sw3").expect("removes");

    let expected = server.snapshot();
    assert_eq!(expected.version(), 6);
    // The "kill": no `Drop` runs, so there is no dispatcher join; only
    // what each mutation already synced survives.
    std::mem::forget(server);

    // Recover and verify bit-identity, then keep living: the recovered
    // server accepts further mutations and queries.
    let (recovered, report) =
        QueryServer::recover(&schema(), config(), DurabilityConfig::new(dir.clone()))
            .expect("recovers");
    assert_eq!(report.snapshot_version, 6);
    assert_eq!(
        report.replayed_records, 2,
        "suffix past the compaction base"
    );
    assert!(!report.torn_tail);
    assert_snapshots_match(&recovered.snapshot(), &expected, "clean recovery");
    // The served path, not just the snapshot, answers with the pre-kill bits.
    for (p, row) in probe_rows().iter().enumerate() {
        let (version, served) = recovered
            .query_traced(row)
            .expect("recovered server serves");
        let served: Vec<(String, u32)> =
            served.into_iter().map(|(l, s)| (l, s.to_bits())).collect();
        let want: Vec<(String, u32)> = expected
            .solo_topk(row, config().top_k)
            .into_iter()
            .map(|(l, s)| (l, s.to_bits()))
            .collect();
        assert_eq!(version, 6, "probe {p}: served by the recovered version");
        assert_eq!(
            served, want,
            "probe {p}: served answer diverged from the pre-kill snapshot"
        );
    }
    recovered
        .register_class("post-crash", &lcg.attr_row(a))
        .expect("recovered server accepts mutations");
    assert!(recovered.query(&probe_rows()[0]).is_ok());
    let expected = recovered.snapshot();
    assert_eq!(expected.version(), 7);
    drop(recovered);

    // Simulate a crash mid-append: garbage shorter than a frame header at
    // the log's tail. Recovery must flag and ignore it — state unchanged.
    {
        use std::io::Write;
        let mut log = std::fs::OpenOptions::new()
            .append(true)
            .open(wal::wal_path(&dir))
            .expect("open log");
        log.write_all(&[0x13, 0x37, 0x00]).expect("append garbage");
    }
    let (torn, report) =
        QueryServer::recover(&schema(), config(), DurabilityConfig::new(dir.clone()))
            .expect("recovers past the torn tail");
    assert!(report.torn_tail, "the partial record must be detected");
    assert_eq!(report.snapshot_version, 7);
    assert_snapshots_match(&torn.snapshot(), &expected, "torn-tail recovery");
    drop(torn);
    std::fs::remove_dir_all(&dir).ok();
}

/// The one-class-set check of a routed snapshot: `memory()` and
/// `routed()` name the same labels with the same words, and a full-probe
/// `routed().top_k` equals a monolithic packed memory built independently
/// from those words.
fn assert_one_class_set(snapshot: &ModelSnapshot, context: &str) {
    let memory = snapshot.memory();
    let routed = snapshot.routed().expect("routed server");
    let set = class_set(memory);
    assert_eq!(routed.len(), set.len(), "{context}: class count diverged");
    let mut reference = PackedClassMemory::new(memory.dim());
    for (label, words) in &set {
        assert_eq!(
            routed.class_words(label),
            Some(&words[..]),
            "{context}: `{label}` words diverged"
        );
        reference.insert_packed(label.clone(), words);
    }
    let mut full = routed.clone();
    full.set_nprobe(0);
    for (p, row) in probe_rows().into_iter().enumerate() {
        let embedding = snapshot.model().embed_images(&Matrix::from_rows(&[row]));
        let query = engine::pack_float_signs(embedding.row(0));
        let got: Vec<(&str, u32)> = full
            .top_k(&query, set.len())
            .into_iter()
            .map(|(label, sim)| (label, sim.to_bits()))
            .collect();
        let want: Vec<(&str, u32)> = reference
            .top_k(&query, set.len())
            .into_iter()
            .map(|(row, sim)| (reference.label(row), sim.to_bits()))
            .collect();
        assert_eq!(
            got, want,
            "{context}: probe {p} full-probe ranking diverged"
        );
    }
}

/// The routed-mode drill: a durable server carrying a coarse-to-fine
/// routed index — probing *partially*, so results genuinely depend on the
/// clustering structure — lives through registrations, updates, removals,
/// streamed observes, a flush, a threshold change, a model swap, and
/// compactions. Every published snapshot keeps one class set (see
/// [`assert_one_class_set`]), and the swap builds the routed index a fresh
/// start builds: it encodes the new class set at the configured shard
/// width, not at the snapshot's cluster count. Killed and recovered under
/// the same configuration, the rebuilt index is **structurally identical**
/// (same cluster assignment, same centroids, same drift counter) and
/// serves bit-identical results. Recovery under a different routed
/// configuration falls back to a fresh deterministic clustering; recovery
/// without routing serves the same class set from a sharded memory.
#[test]
fn kill_and_recover_restores_the_exact_routed_index() {
    let dir = temp_dir("routed");
    let a = alpha();
    let routed_config = engine::RoutedConfig {
        clusters: 3,
        nprobe: 2, // partial probing: results depend on the structure
        ..engine::RoutedConfig::default()
    };
    let config = ServerConfig {
        routed: Some(routed_config),
        // Four shards against three clusters, so the swap check below
        // tells the configured width from the cluster count.
        shards: 4,
        publish_every: 2,
        ..config()
    };
    let labels: Vec<String> = (0..6).map(|c| format!("class{c}")).collect();
    let mut lcg = Lcg(4242);
    let class_attributes = Matrix::from_rows(&(0..6).map(|_| lcg.attr_row(a)).collect::<Vec<_>>());
    let server = QueryServer::start_durable(
        model(3),
        labels.clone(),
        &class_attributes,
        &schema(),
        config,
        DurabilityConfig {
            dir: dir.clone(),
            sync: SyncPolicy::Always,
            // Compactions after records 3, 6 and 9: the last base captures
            // the routed index after the swap, so recovery must resume —
            // not re-derive — it.
            compact_every: 3,
        },
    )
    .expect("durable routed server starts");
    assert_one_class_set(&server.snapshot(), "start");

    let step = server
        .register_class("hot0", &lcg.attr_row(a))
        .expect("registers");
    assert_one_class_set(&step, "register");
    let step = server
        .update_class("class1", &lcg.attr_row(a))
        .expect("updates");
    assert_one_class_set(&step, "update");
    let step = server.remove_class("class4").expect("removes");
    assert_one_class_set(&step, "remove");
    let short = server
        .observe("class0", &feature_row(&mut lcg))
        .expect("observes");
    assert!(short.is_none(), "one observe short of the boundary");
    let step = server
        .observe("class3", &feature_row(&mut lcg))
        .expect("observes")
        .expect("the second observe publishes");
    assert_one_class_set(&step, "observe boundary");
    server
        .observe("hot0", &feature_row(&mut lcg))
        .expect("observes");
    assert_one_class_set(&server.flush().expect("flushes"), "flush");
    let step = server.set_threshold(0.125).expect("sets the threshold");
    assert_one_class_set(&step, "set_threshold");
    let swap_labels: Vec<String> = (0..5).map(|c| format!("sw{c}")).collect();
    let swap_attributes = Matrix::from_rows(&(0..5).map(|_| lcg.attr_row(a)).collect::<Vec<_>>());
    let step = server
        .swap_model(model(4), swap_labels.clone(), &swap_attributes)
        .expect("swaps");
    assert_one_class_set(&step, "swap");
    let fresh = QueryServer::start(model(4), swap_labels, &swap_attributes, config)
        .expect("fresh server starts");
    assert_eq!(
        step.routed(),
        fresh.snapshot().routed(),
        "a swap must build the routed index a fresh start builds"
    );
    drop(fresh);
    server
        .register_class("hot1", &lcg.attr_row(a))
        .expect("registers past the compaction boundary");

    let expected = server.snapshot();
    assert_one_class_set(&expected, "register after swap");
    assert_eq!(expected.version(), 8);
    drop(server);

    let (recovered, report) =
        QueryServer::recover(&schema(), config, DurabilityConfig::new(dir.clone()))
            .expect("recovers");
    assert_eq!(report.snapshot_version, 8);
    assert_eq!(report.replayed_records, 1, "the register after the swap");
    let snapshot = recovered.snapshot();
    assert_eq!(
        snapshot.routed(),
        expected.routed(),
        "recovered routed index diverged structurally"
    );
    assert!(!snapshot.routed().expect("routed").probes_exhaustively());
    assert_one_class_set(&snapshot, "recover");
    assert_snapshots_match(&snapshot, &expected, "routed recovery");
    drop(recovered);

    // A different routed configuration cannot resume the saved structure:
    // recovery re-clusters deterministically, so two such recoveries agree
    // with each other.
    let other = ServerConfig {
        routed: Some(engine::RoutedConfig {
            clusters: 2,
            nprobe: 0,
            ..engine::RoutedConfig::default()
        }),
        ..config
    };
    let (fresh_a, _) = QueryServer::recover(&schema(), other, DurabilityConfig::new(dir.clone()))
        .expect("recovers under a new routed config");
    let (fresh_b, _) = QueryServer::recover(&schema(), other, DurabilityConfig::new(dir.clone()))
        .expect("recovers again");
    let a_snap = fresh_a.snapshot();
    let b_snap = fresh_b.snapshot();
    assert_eq!(a_snap.routed(), b_snap.routed(), "fresh rebuilds diverged");
    assert_eq!(
        a_snap.routed().expect("routed").as_sharded().num_shards(),
        2
    );
    drop(fresh_a);
    drop(fresh_b);

    // Routing off: the index is dropped and the same class set — same
    // labels, same words — is served from the base's sharded memory with
    // the suffix replayed into it. Its shard layout is the routed
    // clusters' (the base's memory) plus the least-loaded placement of the
    // replayed register, so only the class set is comparable.
    let unrouted = ServerConfig {
        routed: None,
        publish_every: 1,
        ..config
    };
    let (plain, _) = QueryServer::recover(&schema(), unrouted, DurabilityConfig::new(dir.clone()))
        .expect("recovers unrouted");
    assert!(plain.snapshot().routed().is_none());
    assert_eq!(
        class_set(plain.snapshot().memory()),
        class_set(expected.memory())
    );
    drop(plain);
    std::fs::remove_dir_all(&dir).ok();
}

/// A routed server over more classes than
/// [`engine::RoutedClassMemory::MIN_RECLUSTER_DRIFT`] serves the one bulk
/// build of its class memory, one k-means pass in label order, at start and
/// at a swap. The swap is logged, not compacted, so recovery replays it and
/// must rebuild the index the live server built.
#[test]
fn a_routed_server_serves_the_bulk_build_and_recovers_a_logged_swap() {
    let dir = temp_dir("routed-bulk");
    let a = alpha();
    let routed_config = engine::RoutedConfig::default(); // ⌈√n⌉ clusters
    let config = ServerConfig {
        routed: Some(routed_config),
        ..config()
    };
    let bulk_build = |model: &ZscModel, labels: &[String], attributes: &Matrix| {
        let memory = model.sharded_class_memory(labels.to_vec(), attributes, config.shards);
        RoutedClassMemory::from_sharded(&memory, routed_config)
    };
    let mut lcg = Lcg(77);
    let labels: Vec<String> = (0..12).map(|c| format!("class{c:02}")).collect();
    let attributes = Matrix::from_rows(&(0..12).map(|_| lcg.attr_row(a)).collect::<Vec<_>>());
    let server = QueryServer::start_durable(
        model(5),
        labels.clone(),
        &attributes,
        &schema(),
        config,
        DurabilityConfig {
            dir: dir.clone(),
            sync: SyncPolicy::Always,
            compact_every: 0,
        },
    )
    .expect("durable routed server starts");
    let started = server.snapshot();
    let routed = started.routed().expect("routed server");
    assert_eq!(routed.as_sharded().num_shards(), 4, "⌈√12⌉ clusters");
    assert_eq!(
        Some(&bulk_build(&model(5), &labels, &attributes)),
        started.routed()
    );
    assert_one_class_set(&started, "start");

    let swap_labels: Vec<String> = (0..10).map(|c| format!("sw{c:02}")).collect();
    let swap_attributes = Matrix::from_rows(&(0..10).map(|_| lcg.attr_row(a)).collect::<Vec<_>>());
    let live = server
        .swap_model(model(6), swap_labels.clone(), &swap_attributes)
        .expect("swaps");
    assert_eq!(
        Some(&bulk_build(&model(6), &swap_labels, &swap_attributes)),
        live.routed()
    );
    assert_one_class_set(&live, "swap");
    drop(server);

    let (recovered, report) =
        QueryServer::recover(&schema(), config, DurabilityConfig::new(dir.clone()))
            .expect("recovers");
    assert_eq!(report.replayed_records, 1, "the swap record");
    assert_snapshots_match(&recovered.snapshot(), &live, "replayed swap");
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}

/// Typed duplicate rejection (and that the rejection really publishes and
/// logs nothing: the version does not move).
#[test]
fn duplicate_register_is_a_typed_error_and_publishes_nothing() {
    let a = alpha();
    let server = QueryServer::start(
        model(5),
        vec!["a".to_string(), "b".to_string()],
        &Matrix::ones(2, a),
        config(),
    )
    .expect("server starts");
    match server.register_class("a", &vec![0.5; a]) {
        Err(ServeError::DuplicateLabel(label)) => assert_eq!(label, "a"),
        other => panic!("expected DuplicateLabel, got {other:?}"),
    }
    assert_eq!(server.snapshot().version(), 0);
    assert_eq!(server.stats().swaps, 0);
    // update_class remains the explicit overwrite path.
    assert_eq!(
        server
            .update_class("a", &vec![0.5; a])
            .expect("updates")
            .version(),
        1
    );
}

/// Starting a fresh durable server on a directory that already holds a
/// durable state is refused before anything is written, so the state it
/// would have overwritten still recovers.
#[test]
fn start_durable_refuses_a_directory_holding_a_durable_state() {
    let dir = temp_dir("refuse");
    let a = alpha();
    let start = || {
        QueryServer::start_durable(
            model(6),
            vec!["a".to_string(), "b".to_string()],
            &Matrix::ones(2, a),
            &schema(),
            config(),
            DurabilityConfig::new(dir.clone()),
        )
    };
    let server = start().expect("durable server starts");
    let acked = server
        .register_class("acked", &vec![0.5; a])
        .expect("registers")
        .version();
    drop(server);

    match start() {
        Err(ServeError::InvalidConfig(msg)) => {
            assert!(msg.contains(&dir.display().to_string()), "{msg}");
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
    let (recovered, report) =
        QueryServer::recover(&schema(), config(), DurabilityConfig::new(dir.clone()))
            .expect("the refused directory still recovers");
    assert_eq!(report.snapshot_version, acked);
    assert!(recovered.snapshot().memory().contains("acked"));
    let (version, _) = recovered
        .query_traced(&probe_rows()[0])
        .expect("recovered server serves");
    assert_eq!(version, acked);
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}

/// `compact` is explicit on durable servers and a typed no-op elsewhere.
#[test]
fn explicit_compaction_folds_the_log() {
    let dir = temp_dir("compact");
    let a = alpha();
    let server = QueryServer::start_durable(
        model(7),
        vec!["x".to_string(), "y".to_string()],
        &Matrix::ones(2, a),
        &schema(),
        config(),
        DurabilityConfig {
            dir: dir.clone(),
            sync: SyncPolicy::Always,
            compact_every: 0, // automatic compaction disabled
        },
    )
    .expect("durable server starts");
    server
        .register_class("z", &vec![0.25; a])
        .expect("registers");
    assert!(server.compact().expect("compacts"));
    let expected = server.snapshot();
    drop(server);
    // The log was rotated: recovery replays nothing, yet lands on the same
    // state because the base absorbed the mutation.
    let (recovered, report) =
        QueryServer::recover(&schema(), config(), DurabilityConfig::new(dir.clone()))
            .expect("recovers");
    assert_eq!(report.replayed_records, 0);
    assert_snapshots_match(&recovered.snapshot(), &expected, "post-compaction recovery");
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();

    let non_durable = QueryServer::start(
        model(7),
        vec!["x".to_string()],
        &Matrix::ones(1, a),
        config(),
    )
    .expect("server starts");
    assert!(!non_durable.compact().expect("no-op"));
}

/// A failed automatic compaction is not the mutation's failure: the
/// mutation is already logged and published. With the new log's temp file
/// `wal.log.tmp` blocked by a non-empty directory, mutations still return
/// `Ok` and are logged to the old log, the compaction stays due (every
/// later mutation retries it), an explicit `compact` reports the error,
/// and once the blocker is gone `compact` succeeds and recovery matches
/// the live snapshot.
#[test]
fn failed_automatic_compaction_does_not_fail_the_mutation() {
    let dir = temp_dir("compact-fail");
    let a = alpha();
    let server = QueryServer::start_durable(
        model(13),
        vec!["x".to_string(), "y".to_string()],
        &Matrix::ones(2, a),
        &schema(),
        config(),
        DurabilityConfig {
            dir: dir.clone(),
            sync: SyncPolicy::Always,
            compact_every: 1,
        },
    )
    .expect("durable server starts");
    let blocker = dir.join("wal.log.tmp");
    std::fs::create_dir(&blocker).expect("block the new log");
    std::fs::write(blocker.join("blocker"), b"x").expect("fill blocker");

    let published = server
        .register_class("c", &vec![0.25; a])
        .expect("a logged, published register is Ok");
    assert!(published.memory().contains("c"));
    server.set_threshold(0.125).expect("sets threshold");
    let stats = |server: &QueryServer| server.durability_stats().expect("durable");
    assert_eq!(
        stats(&server).records_since_compaction,
        2,
        "the compaction stays due"
    );
    assert!(
        matches!(server.compact(), Err(ServeError::Wal(wal::WalError::Io(_)))),
        "explicit compaction reports the failure"
    );

    std::fs::remove_dir_all(&blocker).expect("unblock the new log");
    assert!(server.compact().expect("compacts"));
    assert_eq!(stats(&server).records_since_compaction, 0);
    let expected = server.snapshot();
    drop(server);
    let (recovered, report) =
        QueryServer::recover(&schema(), config(), DurabilityConfig::new(dir.clone()))
            .expect("recovers");
    assert_eq!(report.replayed_records, 0);
    assert_snapshots_match(&recovered.snapshot(), &expected, "post-retry recovery");
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}

/// The names of the model files in `dir`, sorted.
fn model_files(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("list dir")
        .map(|entry| {
            entry
                .expect("entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| name.starts_with("model-"))
        .collect();
    names.sort_unstable();
    names
}

/// The model file the log's base record names.
fn base_model_file(dir: &std::path::Path) -> String {
    wal::replay(wal::wal_path(dir))
        .expect("log replays")
        .base
        .expect("the log opens with a base")
        .model_file
}

/// A swap writes its model file before it appends its record. A crash in
/// between leaves a model file nothing names: recovery returns the
/// pre-swap state, and the next compaction deletes the orphan. A swap that
/// was logged and then compacted leaves exactly one model file, the one
/// the base names.
#[test]
fn a_crash_between_model_file_and_swap_record_recovers_the_pre_swap_state() {
    let dir = temp_dir("orphan-model");
    let a = alpha();
    let server = QueryServer::start_durable(
        model(29),
        vec!["x".to_string(), "y".to_string()],
        &Matrix::ones(2, a),
        &schema(),
        config(),
        DurabilityConfig {
            compact_every: 0,
            ..DurabilityConfig::new(dir.clone())
        },
    )
    .expect("durable server starts");
    server
        .register_class("z", &vec![0.25; a])
        .expect("registers");
    let expected = server.snapshot();
    // The swap's first step, then the crash.
    let orphan = ModelFile::encode(&model(30), &schema());
    orphan.save(&dir).expect("model file writes");
    std::mem::forget(server);
    assert_eq!(model_files(&dir).len(), 2);

    let (recovered, report) =
        QueryServer::recover(&schema(), config(), DurabilityConfig::new(dir.clone()))
            .expect("recovers");
    assert_eq!(report.replayed_records, 1);
    assert_snapshots_match(&recovered.snapshot(), &expected, "pre-swap recovery");
    assert!(recovered.compact().expect("compacts"));
    assert_eq!(model_files(&dir), [base_model_file(&dir)]);

    recovered
        .swap_model(model(31), vec!["s".to_string()], &Matrix::ones(1, a))
        .expect("swaps");
    assert_eq!(model_files(&dir).len(), 2, "the swap wrote its model file");
    assert!(recovered.compact().expect("compacts"));
    let swapped = ModelFile::encode(&model(31), &schema());
    assert_eq!(model_files(&dir), [swapped.name()]);
    assert_eq!(base_model_file(&dir), swapped.name());
    let stats = recovered.durability_stats().expect("durable");
    assert_eq!(stats.model_bytes, swapped.bytes().len() as u64);
    let log_len = std::fs::metadata(wal::wal_path(&dir)).expect("log").len();
    assert_eq!(stats.wal_bytes, log_len);
    assert_eq!(log_len, 20 + stats.base_bytes, "the header, then the base");
    let expected = recovered.snapshot();
    drop(recovered);
    let (again, report) =
        QueryServer::recover(&schema(), config(), DurabilityConfig::new(dir.clone()))
            .expect("recovers the swapped model");
    assert_eq!(report.replayed_records, 0);
    assert_snapshots_match(&again.snapshot(), &expected, "post-swap recovery");
    drop(again);
    std::fs::remove_dir_all(&dir).ok();
}

/// A base naming a model file that is gone, or whose bytes are damaged,
/// fails recovery with a typed checkpoint error instead of serving a
/// different model.
#[test]
fn a_missing_or_corrupt_model_file_fails_recovery() {
    let dir = temp_dir("bad-model");
    let a = alpha();
    drop(
        QueryServer::start_durable(
            model(37),
            vec!["x".to_string(), "y".to_string()],
            &Matrix::ones(2, a),
            &schema(),
            config(),
            DurabilityConfig::new(dir.clone()),
        )
        .expect("durable server starts"),
    );
    let path = dir.join(base_model_file(&dir));
    let intact = std::fs::read(&path).expect("read model file");
    let recover = || QueryServer::recover(&schema(), config(), DurabilityConfig::new(dir.clone()));

    let mut damaged = intact.clone();
    let last = damaged.len() - 1;
    damaged[last] ^= 0x01;
    std::fs::write(&path, &damaged).expect("damage model file");
    assert!(
        matches!(
            recover(),
            Err(ServeError::Checkpoint(
                CheckpointError::ChecksumMismatch { .. }
            ))
        ),
        "a damaged model file must fail its checksum"
    );
    std::fs::remove_file(&path).expect("remove model file");
    match recover() {
        Err(ServeError::Checkpoint(CheckpointError::Io(e))) => {
            assert_eq!(e.kind(), std::io::ErrorKind::NotFound);
        }
        other => panic!("expected a missing-file error, got {:?}", other.err()),
    }
    std::fs::write(&path, &intact).expect("restore model file");
    assert!(recover().is_ok(), "the intact directory recovers");
    std::fs::remove_dir_all(&dir).ok();
}

/// A durable swap of a paper-shaped model (2048-d features to d = 1536,
/// the CUB schema) is logged and recovers bit-identically: the record
/// names the 12 MB model file instead of embedding it.
#[test]
fn a_paper_shaped_swap_is_logged_and_recovers() {
    let dir = temp_dir("paper-swap");
    let schema = AttributeSchema::cub200();
    let paper = |seed| ZscModel::new(&ModelConfig::paper_default().with_seed(seed), &schema, 2048);
    let mut lcg = Lcg(47);
    let class_attributes =
        Matrix::from_rows(&(0..3).map(|_| lcg.attr_row(312)).collect::<Vec<_>>());
    let labels: Vec<String> = (0..3).map(|c| format!("bird{c}")).collect();
    let server = QueryServer::start_durable(
        paper(1),
        labels.clone(),
        &class_attributes,
        &schema,
        config(),
        DurabilityConfig {
            compact_every: 0,
            ..DurabilityConfig::new(dir.clone())
        },
    )
    .expect("durable server starts");
    let swapped = server
        .swap_model(paper(2), labels, &class_attributes)
        .expect("a paper-shaped swap is logged");
    let log_bytes = server.durability_stats().expect("durable").wal_bytes;
    assert!(log_bytes < 4096, "the swap record is {log_bytes} bytes");
    drop(server);

    let (recovered, report) =
        QueryServer::recover(&schema, config(), DurabilityConfig::new(dir.clone()))
            .expect("recovers");
    assert_eq!(report.replayed_records, 1);
    let got = recovered.snapshot();
    assert_eq!(got.version(), swapped.version());
    assert_eq!(got.memory(), swapped.memory());
    let probe: Vec<f32> = (0..2048).map(|i| ((i % 13) as f32 - 6.0) / 6.0).collect();
    let bits = |snapshot: &ModelSnapshot| -> Vec<(String, u32)> {
        snapshot
            .solo_topk(&probe, 3)
            .into_iter()
            .map(|(l, s)| (l, s.to_bits()))
            .collect()
    };
    assert_eq!(bits(&got), bits(&swapped));
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}

/// Replay runs the same checks as the live verbs: a logged record the live
/// path would have rejected — prototype words of the wrong width, a
/// non-finite threshold, an observe of an unregistered class, a swap whose
/// class memory is not as wide as its model's embeddings — fails recovery
/// as a corrupt log at that record's own end offset instead of being
/// applied.
#[test]
fn replay_rejects_records_the_live_path_would_reject() {
    let a = alpha();
    for forged in 0..4 {
        let dir = temp_dir(&format!("forged-{forged}"));
        let server = QueryServer::start_durable(
            model(19),
            vec!["x".to_string(), "y".to_string()],
            &Matrix::ones(2, a),
            &schema(),
            config(),
            DurabilityConfig::new(dir.clone()),
        )
        .expect("durable server starts");
        let memory = server.snapshot().memory().clone();
        let words = memory.words_per_row();
        drop(server);
        let op = match forged {
            0 => wal::WalOp::Register {
                label: "wide".to_string(),
                words: vec![0; words + 1],
            },
            1 => wal::WalOp::SetThreshold {
                bits: Some(f32::NAN.to_bits()),
            },
            2 => wal::WalOp::Observe {
                label: "ghost".to_string(),
                words: vec![0; words],
            },
            // The model file the server wrote at start, with a class
            // memory one word wider than its embeddings.
            _ => wal::WalOp::Swap {
                model_file: ModelFile::encode(&model(19), &schema()).name().to_string(),
                memory: ShardedClassMemory::from_sign_matrix(
                    ["wide"],
                    &Matrix::ones(1, memory.dim() + 64),
                    1,
                ),
            },
        };
        let path = wal::wal_path(&dir);
        let (mut log, _) = wal::WriteAheadLog::open(&path, SyncPolicy::Always).expect("opens");
        log.append(&op).expect("appends");
        drop(log);
        let end = wal::replay(&path)
            .expect("the forged record is well-framed")
            .entries
            .last()
            .expect("the forged record is logged")
            .end_offset;
        let recovered =
            QueryServer::recover(&schema(), config(), DurabilityConfig::new(dir.clone()));
        match recovered {
            Err(ServeError::Wal(wal::WalError::Corrupt { offset, .. })) => {
                assert_eq!(offset, end, "{op:?}: corrupt at another record")
            }
            other => panic!(
                "{op:?}: expected a corrupt-log error, got {:?}",
                other.err()
            ),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

fn feature_row(lcg: &mut Lcg) -> Vec<f32> {
    (0..FEATURE_DIM).map(|_| lcg.unit_f32() - 0.5).collect()
}

/// The streaming kill→recover drill: a durable server batching observes
/// three-per-publication is killed **mid-batch**; recovery must resume the
/// exact batching position (same pending classes, same `since_publish`),
/// serve bit-identically, and — after the stream resumes — land on memory
/// bit-identical to an uninterrupted twin that streamed the same examples
/// with no crash. A second phase compacts mid-batch so the stream state
/// rides the checkpoint delta rather than WAL replay.
#[test]
fn kill_and_recover_resumes_the_exact_stream_position() {
    let dir = temp_dir("stream");
    let a = alpha();
    let labels: Vec<String> = (0..3).map(|c| format!("class{c}")).collect();
    let mut lcg = Lcg(77);
    let class_attributes = Matrix::from_rows(&(0..3).map(|_| lcg.attr_row(a)).collect::<Vec<_>>());
    let config = ServerConfig {
        publish_every: 3,
        ..config()
    };
    // One pre-generated example stream, shared with the uninterrupted twin.
    let examples: Vec<(String, Vec<f32>)> = (0..11)
        .map(|i| (format!("class{}", i % 3), feature_row(&mut lcg)))
        .collect();

    let server = QueryServer::start_durable(
        model(11),
        labels.clone(),
        &class_attributes,
        &schema(),
        config,
        DurabilityConfig {
            dir: dir.clone(),
            sync: SyncPolicy::Always,
            compact_every: 0,
        },
    )
    .expect("durable server starts");
    // 7 observes: publications at #3 and #6, then one observe into the
    // third batch — the kill lands mid-batch.
    for (i, (label, row)) in examples[..7].iter().enumerate() {
        let published = server.observe(label, row).expect("observe");
        assert_eq!(
            published.is_some(),
            (i + 1) % 3 == 0,
            "observe {i}: wrong publication boundary"
        );
    }
    let expected = server.snapshot();
    assert_eq!(expected.version(), 2);
    let expected_stats = server.stream_stats();
    assert_eq!(expected_stats.since_publish, 1);
    assert_eq!(expected_stats.pending_classes, 1);
    drop(server); // the kill, one observe into a batch

    let (recovered, report) =
        QueryServer::recover(&schema(), config, DurabilityConfig::new(dir.clone()))
            .expect("recovers");
    assert_eq!(report.snapshot_version, 2);
    assert_eq!(report.replayed_records, 7);
    assert_snapshots_match(
        &recovered.snapshot(),
        &expected,
        "mid-batch stream recovery",
    );
    let stats = recovered.stream_stats();
    assert_eq!(stats.observes, 7, "replay recounts every observe");
    assert_eq!(stats.since_publish, expected_stats.since_publish);
    assert_eq!(stats.pending_classes, expected_stats.pending_classes);
    assert_eq!(
        stats.publishes, expected_stats.publishes,
        "drift detector rebuilt by replay"
    );

    // Resume the stream: observes 8 and 9 complete the interrupted batch on
    // the recovered server — at the same version the uninterrupted run
    // publishes.
    for (label, row) in &examples[7..9] {
        recovered.observe(label, row).expect("observe resumes");
    }
    assert_eq!(recovered.snapshot().version(), 3);

    // Mid-batch compaction: observe 10 opens a new batch, then the base
    // absorbs counters + batching position; recovery replays *nothing* yet
    // resumes the stream exactly.
    recovered
        .observe(&examples[9].0, &examples[9].1)
        .expect("observe");
    assert!(recovered.compact().expect("compacts"));
    let expected = recovered.snapshot();
    drop(recovered);
    let (resumed, report) =
        QueryServer::recover(&schema(), config, DurabilityConfig::new(dir.clone()))
            .expect("recovers from stream checkpoint");
    assert_eq!(report.replayed_records, 0, "the base absorbed the stream");
    assert_snapshots_match(
        &resumed.snapshot(),
        &expected,
        "post-compaction stream recovery",
    );
    assert_eq!(resumed.stream_stats().since_publish, 1);
    assert_eq!(resumed.stream_stats().pending_classes, 1);
    resumed
        .observe(&examples[10].0, &examples[10].1)
        .expect("observe");
    let final_flush = resumed.flush().expect("flush publishes the partial batch");
    assert_eq!(final_flush.version(), 4);
    drop(resumed);
    std::fs::remove_dir_all(&dir).ok();

    // The uninterrupted twin: same model, same example stream, no kill, no
    // compaction — the final class memory must be bit-identical.
    let twin =
        QueryServer::start(model(11), labels, &class_attributes, config).expect("twin starts");
    for (label, row) in &examples {
        twin.observe(label, row).expect("twin observe");
    }
    let twin_final = twin.flush().expect("twin flush");
    assert_eq!(twin_final.version(), 4);
    assert_eq!(
        twin_final.memory(),
        final_flush.memory(),
        "crash-recovered stream diverged from the uninterrupted twin"
    );
}

/// Recovery needs no configuration to match: a server that streamed
/// observes four per publication and was killed mid-batch recovers the
/// acknowledged version, class words and batching position under another
/// `publish_every`, because its log records the cadence it was written
/// under. The recovered server then opens a fresh log under the new
/// cadence and serves on under it, and recovers again under a third.
#[test]
fn recovery_under_another_publish_every_returns_the_acknowledged_state() {
    let dir = temp_dir("cadence");
    let a = alpha();
    let labels: Vec<String> = (0..3).map(|c| format!("class{c}")).collect();
    let mut lcg = Lcg(83);
    let class_attributes = Matrix::from_rows(&(0..3).map(|_| lcg.attr_row(a)).collect::<Vec<_>>());
    let with_cadence = |publish_every| ServerConfig {
        publish_every,
        ..config()
    };
    let durability = || DurabilityConfig {
        compact_every: 0,
        ..DurabilityConfig::new(dir.clone())
    };
    let server = QueryServer::start_durable(
        model(53),
        labels,
        &class_attributes,
        &schema(),
        with_cadence(4),
        durability(),
    )
    .expect("durable server starts");
    // Ten observes: publications at #4 and #8, then two into the third
    // batch.
    for i in 0..10 {
        let label = format!("class{}", i % 3);
        server
            .observe(&label, &feature_row(&mut lcg))
            .expect("observe");
    }
    let acked = server.snapshot();
    let acked_stream = server.stream_stats();
    assert_eq!(acked.version(), 2);
    assert_eq!(acked_stream.since_publish, 2);
    drop(server);

    let (recovered, report) = QueryServer::recover(&schema(), with_cadence(1), durability())
        .expect("recovers under another cadence");
    assert_eq!(report.snapshot_version, acked.version());
    assert_eq!(report.replayed_records, 10);
    assert_snapshots_match(&recovered.snapshot(), &acked, "cadence 4 → 1");
    let stream = recovered.stream_stats();
    assert_eq!(stream.since_publish, acked_stream.since_publish);
    assert_eq!(stream.pending_classes, acked_stream.pending_classes);
    // The recovered state now heads a fresh log of the new cadence.
    let log = wal::replay(wal::wal_path(&dir)).expect("log replays");
    assert_eq!(
        log.base.expect("the log opens with a base").publish_every,
        1
    );
    assert!(log.entries.is_empty());
    assert_eq!(
        recovered
            .durability_stats()
            .expect("durable")
            .records_since_compaction,
        0
    );
    // Under cadence 1 the next observe publishes the pending batch.
    let published = recovered
        .observe("class0", &feature_row(&mut lcg))
        .expect("observe")
        .expect("cadence 1 publishes every observe");
    assert_eq!(published.version(), acked.version() + 1);
    drop(recovered);

    let (again, report) = QueryServer::recover(&schema(), with_cadence(3), durability())
        .expect("recovers under a third cadence");
    assert_eq!(report.snapshot_version, published.version());
    assert_eq!(report.replayed_records, 1);
    assert_snapshots_match(&again.snapshot(), &published, "cadence 1 → 3");
    drop(again);
    std::fs::remove_dir_all(&dir).ok();
}

/// One step of the property test's mutation script, covering every WAL
/// record kind. The script is a pure function of the LCG state, so the same
/// seed always produces the same server history.
fn apply_scripted_op(
    server: &QueryServer,
    lcg: &mut Lcg,
    live: &mut Vec<String>,
    fresh: &mut usize,
) {
    let a = alpha();
    let mut register = |lcg: &mut Lcg, live: &mut Vec<String>| {
        let label = format!("dyn{}", *fresh);
        *fresh += 1;
        server
            .register_class(label.clone(), &lcg.attr_row(a))
            .expect("scripted register");
        live.push(label);
    };
    match lcg.next() % 13 {
        // Registers dominate so the set grows.
        0..=3 => register(lcg, live),
        4 | 5 => {
            let target = live[(lcg.next() as usize) % live.len()].clone();
            server
                .update_class(&target, &lcg.attr_row(a))
                .expect("scripted update");
        }
        6 if live.len() > 1 => {
            let victim = live.remove((lcg.next() as usize) % live.len());
            server.remove_class(&victim).expect("scripted remove");
        }
        6 => register(lcg, live),
        7 => {
            let labels: Vec<String> = (0..3).map(|c| format!("sw{}-{c}", *fresh)).collect();
            *fresh += 1;
            let attrs = Matrix::from_rows(&(0..3).map(|_| lcg.attr_row(a)).collect::<Vec<_>>());
            server
                .swap_model(model(lcg.next()), labels.clone(), &attrs)
                .expect("scripted swap");
            *live = labels;
        }
        // Streamed observes publish on the `publish_every` cadence.
        8 | 9 => {
            let target = live[(lcg.next() as usize) % live.len()].clone();
            server
                .observe(&target, &feature_row(lcg))
                .expect("scripted observe");
        }
        10 => {
            server
                .set_threshold(lcg.unit_f32() - 0.5)
                .expect("scripted set_threshold");
        }
        11 => {
            server.clear_threshold().expect("scripted clear_threshold");
        }
        // Logs a record only when observes are pending.
        _ => {
            server.flush().expect("scripted flush");
        }
    }
}

proptest! {
    /// The tentpole property: for an arbitrary mutation interleaving, the
    /// WAL cut at an arbitrary record boundary recovers to a server
    /// bit-identical to the in-memory snapshot that was serving after the
    /// same prefix of mutations — optionally with a torn partial record
    /// after the cut, which must be flagged and ignored.
    #[test]
    fn recovery_at_any_record_boundary_matches_the_live_prefix(
        seed in 0u64..100_000,
        op_count in 1usize..14,
        cut_sel in 0usize..1_000,
        publish_every in 1u32..4,
        routed in any::<bool>(),
    ) {
        let dir = temp_dir(&format!("prop-{seed}-{op_count}-{cut_sel}"));
        let a = alpha();
        let config = ServerConfig {
            publish_every,
            // Partial probing, so answers depend on the routed structure.
            routed: routed.then_some(engine::RoutedConfig {
                clusters: 2,
                nprobe: 1,
                ..engine::RoutedConfig::default()
            }),
            ..config()
        };
        let mut lcg = Lcg(seed ^ 0x9e3779b97f4a7c15);
        let mut live: Vec<String> = (0..3).map(|c| format!("class{c}")).collect();
        let class_attributes = Matrix::from_rows(
            &(0..3).map(|_| lcg.attr_row(a)).collect::<Vec<_>>(),
        );
        let server = QueryServer::start_durable(
            model(seed),
            live.clone(),
            &class_attributes,
            &schema(),
            config,
            DurabilityConfig {
                dir: dir.clone(),
                sync: SyncPolicy::Always,
                // Compaction off: the log keeps every record, so any prefix
                // is a reachable cut point.
                compact_every: 0,
            },
        )
        .expect("durable server starts");
        // The log's header and base record: a cut there keeps no record.
        let head = server.durability_stats().expect("durable").wal_bytes;

        // The reference timeline: the snapshot the server itself served,
        // and its stream counters, after 0, 1, … logged records.
        let mut timeline: Vec<(Arc<ModelSnapshot>, StreamStats)> =
            vec![(server.snapshot(), server.stream_stats())];
        let mut fresh = 0usize;
        for _ in 0..op_count {
            apply_scripted_op(&server, &mut lcg, &mut live, &mut fresh);
            // A flush with nothing pending logs nothing; every other op logs
            // exactly one record.
            let logged = server.durability_stats().expect("durable").next_record_seq;
            if logged == timeline.len() as u64 {
                timeline.push((server.snapshot(), server.stream_stats()));
            }
        }
        drop(server); // the crash

        // Cut the log at an arbitrary record boundary.
        let log_path = wal::wal_path(&dir);
        let full = wal::replay(&log_path).expect("full log replays");
        let records = timeline.len() - 1;
        prop_assert_eq!(full.entries.len(), records);
        let cut = cut_sel % (records + 1);
        let offset = if cut == 0 {
            head
        } else {
            full.entries[cut - 1].end_offset
        };
        let bytes = std::fs::read(&log_path).expect("read log");
        let mut kept = bytes[..offset as usize].to_vec();
        // In a third of the cases, the crash also tore the next append.
        let torn = cut_sel % 3 == 0 && cut < records;
        if torn {
            let tail_end = (offset as usize + 5).min(bytes.len());
            kept.extend_from_slice(&bytes[offset as usize..tail_end]);
        }
        std::fs::write(&log_path, &kept).expect("write cut log");

        let (recovered, report) =
            QueryServer::recover(&schema(), config, DurabilityConfig::new(dir.clone()))
                .expect("recovers");
        prop_assert_eq!(report.replayed_records, cut as u64);
        prop_assert_eq!(report.torn_tail, torn);
        let context = format!(
            "seed {seed}, {op_count} ops, cut {cut}, publish_every {publish_every}, routed {routed}"
        );
        let (expected, expected_stream) = &timeline[cut];
        assert_snapshots_match(&recovered.snapshot(), expected, &context);
        prop_assert_eq!(recovered.stream_stats(), *expected_stream, "{}", context);
        drop(recovered);
        std::fs::remove_dir_all(&dir).ok();
    }
}
