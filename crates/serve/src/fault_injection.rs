//! Fault injection on the durable write path: a short write, a failed
//! fsync and a failed reopen after a rotation, each at op `n` of a
//! mutation script on a durable [`QueryServer`]. In every case the failing
//! operation returns [`ServeError::Wal`] and publishes nothing, every later
//! mutation gets [`WalError::Failed`] and touches no file, queries are
//! still answered from the last published snapshot, and
//! [`QueryServer::recover`] on the directory returns exactly the last
//! acknowledged state.

use crate::wal::fault::{self, Fault};
use crate::wal::{self, WalError};
use crate::{DurabilityConfig, ModelSnapshot, QueryServer, ServeError, ServerConfig};
use dataset::AttributeSchema;
use hdc_zsc::{ModelConfig, ZscModel};
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
    let files = || {
        let read = |path| std::fs::read(path).expect("read");
        (read(wal::base_path(&dir)), read(wal::wal_path(&dir)))
    };
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
