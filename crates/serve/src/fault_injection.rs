//! Fault injection on the durable write path: a short write, a failed
//! fsync and a failed reopen of a compaction's new log, each at op `n` of
//! a mutation script on a durable [`QueryServer`]. In every case the
//! failing operation returns [`ServeError::Wal`] and publishes nothing,
//! every later mutation gets [`WalError::Failed`] and touches no file,
//! queries are still answered from the last published snapshot, and
//! [`QueryServer::recover`] on the directory returns exactly the last
//! acknowledged state.
//!
//! The same short write and failed fsync in a model file's write fail
//! `start_durable` before any log exists, and fail a `swap_model` with
//! nothing logged or published and the log still live. In a compaction's
//! new log, before its rename, they fail that compaction only: the old log
//! stays byte-identical and live, and the next compaction succeeds.

use crate::wal::fault::{self, Fault};
use crate::wal::{self, WalError};
use crate::{DurabilityConfig, ModelSnapshot, QueryServer, ServeError, ServerConfig};
use dataset::AttributeSchema;
use hdc_zsc::{CheckpointError, ModelConfig, ZscModel};
use std::sync::Arc;
use tensor::Matrix;

const FEATURE_DIM: usize = 16;

fn schema() -> AttributeSchema {
    AttributeSchema::synthetic(4, 3)
}

fn config() -> ServerConfig {
    ServerConfig {
        max_batch: 4,
        max_wait_us: 50,
        threads: 1,
        top_k: 3,
        shards: 2,
        routed: None,
        publish_every: 3,
    }
}

/// A deterministic attribute or feature row, distinct per `seed`.
fn row(width: usize, seed: usize) -> Vec<f32> {
    (0..width)
        .map(|i| (((seed * 31 + i * 17) % 23) as f32 - 11.0) / 11.0)
        .collect()
}

fn probes() -> Vec<Vec<f32>> {
    (0..4).map(|p| row(FEATURE_DIM, 100 + p)).collect()
}

/// Step `i` of the script: seven logged mutations and one explicit
/// compaction per cycle of eight.
fn step(server: &QueryServer, i: usize) -> Result<(), ServeError> {
    let alpha = schema().num_attributes();
    let cycle = i / 8;
    match i % 8 {
        0 => server
            .register_class(format!("c{cycle}"), &row(alpha, i))
            .map(drop),
        1 => server.observe("x", &row(FEATURE_DIM, i)).map(drop),
        2 => server.flush().map(drop),
        3 => server.update_class("x", &row(alpha, i)).map(drop),
        4 => server.set_threshold(0.125 * cycle as f32 - 0.5).map(drop),
        5 => server.compact().map(drop),
        6 => server.remove_class(&format!("c{cycle}")).map(drop),
        _ => server.clear_threshold().map(drop),
    }
}

/// What recovery must reproduce: version, threshold bits, sorted class
/// words and the `solo_topk` bits of every probe.
type State = (
    u64,
    Option<u32>,
    Vec<(String, Vec<u64>)>,
    Vec<Vec<(String, u32)>>,
);

fn state(snapshot: &ModelSnapshot) -> State {
    let memory = snapshot.memory();
    let mut classes: Vec<(String, Vec<u64>)> = memory
        .labels()
        .map(|label| {
            let words = memory.class_words(label).expect("listed label");
            (label.to_string(), words.to_vec())
        })
        .collect();
    classes.sort_unstable();
    let topk = probes()
        .iter()
        .map(|probe| {
            snapshot
                .solo_topk(probe, 3)
                .into_iter()
                .map(|(label, sim)| (label, sim.to_bits()))
                .collect()
        })
        .collect();
    (
        snapshot.version(),
        snapshot.threshold().map(f32::to_bits),
        classes,
        topk,
    )
}

fn inject(fault: Fault, n: u32) {
    let context = format!("{fault:?} at op {n}");
    let dir = std::env::temp_dir().join(format!("zsc-fault-{}-{fault:?}-{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let alpha = schema().num_attributes();
    let class_attributes = Matrix::from_rows(&[row(alpha, 1), row(alpha, 2)]);
    let server = QueryServer::start_durable(
        ZscModel::new(&ModelConfig::tiny().with_seed(3), &schema(), FEATURE_DIM),
        vec!["x".to_string(), "y".to_string()],
        &class_attributes,
        &schema(),
        config(),
        DurabilityConfig {
            compact_every: 0,
            ..DurabilityConfig::new(&dir)
        },
    )
    .expect("durable server starts");

    fault::arm(fault, n);
    let fired = (0..40).any(|i| {
        let before = server.snapshot();
        let Err(e) = step(&server, i) else {
            return false;
        };
        assert!(
            matches!(e, ServeError::Wal(WalError::Io(_))),
            "{context}: step {i} failed with {e:?}"
        );
        assert!(
            Arc::ptr_eq(&before, &server.snapshot()),
            "{context}: the failed step published a version"
        );
        true
    });
    assert!(fired, "{context}: the fault never fired");
    let acked = server.snapshot();
    let files = || std::fs::read(wal::wal_path(&dir)).expect("read log");
    let on_disk = files();

    let alpha_row = row(alpha, 99);
    let later: [(&str, Result<(), ServeError>); 7] = [
        (
            "register",
            server.register_class("late", &alpha_row).map(drop),
        ),
        ("update", server.update_class("x", &alpha_row).map(drop)),
        ("remove", server.remove_class("y").map(drop)),
        (
            "observe",
            server.observe("x", &row(FEATURE_DIM, 99)).map(drop),
        ),
        ("set_threshold", server.set_threshold(0.25).map(drop)),
        ("clear_threshold", server.clear_threshold().map(drop)),
        ("compact", server.compact().map(drop)),
    ];
    for (verb, result) in later {
        assert!(
            matches!(result, Err(ServeError::Wal(WalError::Failed))),
            "{context}: a later {verb} returned {result:?}"
        );
    }
    assert!(Arc::ptr_eq(&acked, &server.snapshot()), "{context}");
    assert!(
        files() == on_disk,
        "{context}: a stopped log touched a file"
    );

    let expected = state(&acked);
    for (p, probe) in probes().iter().enumerate() {
        let (version, answer) = server.query_traced(probe).expect("queries are answered");
        let answer: Vec<(String, u32)> = answer
            .into_iter()
            .map(|(label, sim)| (label, sim.to_bits()))
            .collect();
        assert_eq!(version, acked.version(), "{context}: probe {p}");
        assert_eq!(answer, expected.3[p], "{context}: probe {p}");
    }
    drop(server);

    let (recovered, _) = QueryServer::recover(&schema(), config(), DurabilityConfig::new(&dir))
        .unwrap_or_else(|e| panic!("{context}: recovery failed: {e}"));
    assert_eq!(state(&recovered.snapshot()), expected, "{context}");
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_short_write_stops_the_log_and_recovery_returns_the_acknowledged_state() {
    for n in [0, 3, 9] {
        inject(Fault::ShortWrite, n);
    }
}

#[test]
fn a_failed_fsync_stops_the_log_and_recovery_returns_the_acknowledged_state() {
    for n in [0, 3, 9] {
        inject(Fault::Fsync, n);
    }
}

#[test]
fn a_failed_reopen_after_rotation_stops_the_log_and_recovery_returns_the_acknowledged_state() {
    for n in [0, 1] {
        inject(Fault::Reopen, n);
    }
}

fn model_files(dir: &std::path::Path) -> usize {
    std::fs::read_dir(dir)
        .expect("list dir")
        .filter(|entry| {
            let name = entry.as_ref().expect("entry").file_name();
            let name = name.to_string_lossy();
            name.starts_with("model-") && name.ends_with(".bin")
        })
        .count()
}

/// A model file's write fails at `fault`: at `start_durable` the start
/// fails with no log written; at `swap_model` nothing is logged
/// or published, the log stays live for the next mutation, and recovery
/// returns the pre-swap state.
fn inject_into_model_file(fault: Fault) {
    let context = format!("{fault:?} in a model-file write");
    let dir =
        std::env::temp_dir().join(format!("zsc-fault-model-{}-{fault:?}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let alpha = schema().num_attributes();
    let class_attributes = Matrix::from_rows(&[row(alpha, 1), row(alpha, 2)]);
    let start = || {
        QueryServer::start_durable(
            ZscModel::new(&ModelConfig::tiny().with_seed(3), &schema(), FEATURE_DIM),
            vec!["x".to_string(), "y".to_string()],
            &class_attributes,
            &schema(),
            config(),
            DurabilityConfig {
                compact_every: 0,
                ..DurabilityConfig::new(&dir)
            },
        )
    };

    fault::arm(fault, 0);
    let failed = start();
    assert!(
        matches!(failed, Err(ServeError::Checkpoint(CheckpointError::Io(_)))),
        "{context}: start_durable returned {:?}",
        failed.map(|_| ())
    );
    assert!(
        !wal::wal_path(&dir).exists(),
        "{context}: a log was written"
    );
    assert_eq!(model_files(&dir), 0, "{context}");

    let server = start().expect("durable server starts");
    let before = server.snapshot();
    let log_len = || std::fs::metadata(wal::wal_path(&dir)).expect("log").len();
    let logged = log_len();
    fault::arm(fault, 0);
    let swapped = server.swap_model(
        ZscModel::new(&ModelConfig::tiny().with_seed(4), &schema(), FEATURE_DIM),
        vec!["s".to_string()],
        &Matrix::from_rows(&[row(alpha, 3)]),
    );
    assert!(
        matches!(swapped, Err(ServeError::Checkpoint(CheckpointError::Io(_)))),
        "{context}: swap_model returned {:?}",
        swapped.map(|_| ())
    );
    assert!(
        Arc::ptr_eq(&before, &server.snapshot()),
        "{context}: published"
    );
    assert_eq!(
        log_len(),
        logged,
        "{context}: the failed swap logged a record"
    );
    assert_eq!(
        model_files(&dir),
        1,
        "{context}: only the start's model file"
    );
    server
        .register_class("after", &row(alpha, 4))
        .expect("the log stays live");
    let expected = state(&server.snapshot());
    drop(server);

    let (recovered, report) =
        QueryServer::recover(&schema(), config(), DurabilityConfig::new(&dir))
            .unwrap_or_else(|e| panic!("{context}: recovery failed: {e}"));
    assert_eq!(report.replayed_records, 1, "{context}");
    assert_eq!(state(&recovered.snapshot()), expected, "{context}");
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_short_model_file_write_fails_the_start_or_the_swap_and_logs_nothing() {
    inject_into_model_file(Fault::ShortWrite);
}

#[test]
fn a_failed_model_file_fsync_fails_the_start_or_the_swap_and_logs_nothing() {
    inject_into_model_file(Fault::Fsync);
}

/// A compaction's new log fails at `fault` before its rename: the
/// compaction returns [`WalError::Io`], `wal.log` keeps its bytes and takes
/// the next mutation, the next compaction succeeds, and recovery returns
/// the acknowledged state.
fn inject_into_new_log(fault: Fault) {
    let context = format!("{fault:?} in a compaction's new log");
    let dir = std::env::temp_dir().join(format!("zsc-fault-log-{}-{fault:?}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let alpha = schema().num_attributes();
    let class_attributes = Matrix::from_rows(&[row(alpha, 1), row(alpha, 2)]);
    let server = QueryServer::start_durable(
        ZscModel::new(&ModelConfig::tiny().with_seed(3), &schema(), FEATURE_DIM),
        vec!["x".to_string(), "y".to_string()],
        &class_attributes,
        &schema(),
        config(),
        DurabilityConfig {
            compact_every: 0,
            ..DurabilityConfig::new(&dir)
        },
    )
    .expect("durable server starts");
    for i in 0..5 {
        step(&server, i).expect("scripted step");
    }
    let log = || std::fs::read(wal::wal_path(&dir)).expect("read log");
    let before = log();
    fault::arm(fault, 0);
    let compacted = server.compact();
    assert!(
        matches!(compacted, Err(ServeError::Wal(WalError::Io(_)))),
        "{context}: compact returned {compacted:?}"
    );
    assert!(log() == before, "{context}: the live log changed");
    server
        .register_class("after", &row(alpha, 4))
        .expect("the log stays live");
    assert_eq!(
        server
            .durability_stats()
            .expect("durable")
            .records_since_compaction,
        6,
        "{context}: the compaction stays due"
    );
    assert!(server.compact().expect("the next compaction succeeds"));
    server.observe("x", &row(FEATURE_DIM, 5)).expect("observes");
    let expected = state(&server.snapshot());
    drop(server);

    let (recovered, report) =
        QueryServer::recover(&schema(), config(), DurabilityConfig::new(&dir))
            .unwrap_or_else(|e| panic!("{context}: recovery failed: {e}"));
    assert_eq!(report.replayed_records, 1, "{context}");
    assert_eq!(state(&recovered.snapshot()), expected, "{context}");
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_short_write_of_a_new_log_fails_the_compaction_and_keeps_the_old_log_live() {
    inject_into_new_log(Fault::ShortWrite);
}

#[test]
fn a_failed_fsync_of_a_new_log_fails_the_compaction_and_keeps_the_old_log_live() {
    inject_into_new_log(Fault::Fsync);
}
