//! Pins the write-ahead log's bytes.
//!
//! A WAL directory written by one build must recover under the next, so the
//! file header, the `[len][crc32][payload]` frames and the JSON payload of
//! every record kind are a storage format. The fixtures hold the log after
//! a fixed sequence of every record kind but swap (whose payload is a whole
//! model checkpoint, pinned by the checkpoint's own tests), and the log
//! after a rotation plus one more append.

use serve::wal::{self, WalOp, WriteAheadLog};
use serve::SyncPolicy;

fn records() -> Vec<WalOp> {
    vec![
        WalOp::Register {
            label: "alpha".to_string(),
            words: vec![0x0123_4567_89ab_cdef, u64::MAX],
        },
        WalOp::Update {
            label: "alpha".to_string(),
            words: vec![0, 0x8000_0000_0000_0001],
        },
        WalOp::Remove {
            label: "beta".to_string(),
        },
        WalOp::SetThreshold {
            bits: Some((-0.25f32).to_bits()),
        },
        WalOp::SetThreshold { bits: None },
        WalOp::Observe {
            label: "alpha".to_string(),
            words: vec![0xdead_beef_0bad_f00d, 42],
        },
        WalOp::Flush,
    ]
}

#[test]
fn wal_bytes_are_pinned() {
    let dir = std::env::temp_dir().join(format!("zsc-wal-layout-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = wal::wal_path(&dir);

    let mut log = WriteAheadLog::create(&path, SyncPolicy::Always).expect("log creates");
    for (seq, op) in records().iter().enumerate() {
        assert_eq!(log.append(op).expect("appends"), seq as u64);
    }
    let logged = std::fs::read(&path).expect("read log");
    assert_eq!(logged, include_bytes!("wal_layout/logged.bin"));

    log.rotate().expect("rotates");
    let last = WalOp::Remove {
        label: "alpha".to_string(),
    };
    assert_eq!(log.append(&last).expect("appends"), 7);
    drop(log);
    let rotated = std::fs::read(&path).expect("read log");
    assert_eq!(rotated, include_bytes!("wal_layout/rotated.bin"));

    let replay = wal::replay(&path).expect("replays");
    assert_eq!(replay.first_seq, 7);
    assert_eq!(replay.entries.len(), 1);
    assert_eq!(replay.entries[0].op, last);
    std::fs::remove_dir_all(&dir).ok();
}
