//! Pins the bytes of a durable server's directory.
//!
//! A WAL directory written by one build must recover under the next, so the
//! log's file header, the `[len][crc32][payload]` frames and the JSON
//! payload of every record kind, the base record included, and the binary
//! model file are a storage format. The fixtures hold the log after a fixed
//! sequence of every record kind but swap and base, the log after a
//! rotation plus one more append, a tiny model's `model-<fingerprint>.bin`,
//! a durable server's log right after its start, sharded and routed (the
//! header and the base record), and its log after a swap, whose record
//! names its model file. `model_format1.bin` is the same model in the
//! retired format-1 layout, which must be refused by version, and
//! `two_file/` is the directory an earlier build's durable start wrote, a
//! `base.json` beside a log without a base, which must be refused; neither
//! is ever rewritten.
//!
//! After an intentional format change, `WAL_LAYOUT_BLESS=1 cargo test -p
//! serve --test wal_layout` rewrites the fixtures of the durable-directory
//! test; say which changed and why.

use dataset::AttributeSchema;
use engine::RoutedConfig;
use hdc_zsc::{CheckpointError, ModelConfig, ModelFile, ZscModel};
use serve::wal::{self, WalError, WalOp, WriteAheadLog};
use serve::{DurabilityConfig, QueryServer, ServeError, ServerConfig, SyncPolicy};
use std::path::{Path, PathBuf};
use tensor::Matrix;

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

fn schema() -> AttributeSchema {
    AttributeSchema::synthetic(4, 3)
}

fn model(seed: u64, feature_dim: usize) -> ZscModel {
    ZscModel::new(&ModelConfig::tiny().with_seed(seed), &schema(), feature_dim)
}

fn labels() -> Vec<String> {
    ["x", "y", "z"].map(String::from).to_vec()
}

/// One deterministic attribute row per class.
fn class_attributes() -> Matrix {
    let alpha = schema().num_attributes();
    Matrix::from_rows(
        &(0..3)
            .map(|c| {
                (0..alpha)
                    .map(|i| ((c * 7 + i * 3) % 5) as f32 / 4.0)
                    .collect()
            })
            .collect::<Vec<_>>(),
    )
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zsc-dir-layout-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A durable server over the three classes, in routed mode or not.
fn start(dir: &Path, feature_dim: usize, routed: bool) -> QueryServer {
    let config = ServerConfig {
        threads: 1,
        shards: 2,
        routed: routed.then_some(RoutedConfig {
            clusters: 2,
            ..RoutedConfig::default()
        }),
        ..ServerConfig::default()
    };
    QueryServer::start_durable(
        model(3, feature_dim),
        labels(),
        &class_attributes(),
        &schema(),
        config,
        DurabilityConfig {
            compact_every: 0,
            ..DurabilityConfig::new(dir)
        },
    )
    .expect("durable server starts")
}

/// The names of the model files in `dir`, sorted.
fn model_files(dir: &Path) -> Vec<String> {
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

/// Compares `bytes` with the fixture `name`, or rewrites the fixture under
/// `WAL_LAYOUT_BLESS=1`.
fn pinned(name: &str, bytes: &[u8]) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/wal_layout")
        .join(name);
    if std::env::var_os("WAL_LAYOUT_BLESS").is_some() {
        std::fs::write(&path, bytes).expect("bless fixture");
        return;
    }
    let fixture = std::fs::read(&path).expect("read fixture");
    assert!(fixture == bytes, "{name} differs from its fixture");
}

#[test]
fn model_files_bases_and_swap_records_are_pinned() {
    let dir = fresh_dir("sharded");
    let server = start(&dir, 8, false);
    let started = model_files(&dir);
    assert_eq!(started, ["model-e416c9221d7f395e.bin"]);
    pinned(
        "model.bin",
        &std::fs::read(dir.join(&started[0])).expect("read model"),
    );
    pinned(
        "headed_sharded.bin",
        &std::fs::read(wal::wal_path(&dir)).expect("read log"),
    );
    server
        .swap_model(model(5, 8), labels(), &class_attributes())
        .expect("swaps");
    pinned(
        "swapped.bin",
        &std::fs::read(wal::wal_path(&dir)).expect("read log"),
    );
    drop(server);
    std::fs::remove_dir_all(&dir).ok();

    let dir = fresh_dir("routed");
    drop(start(&dir, 8, true));
    pinned(
        "headed_routed.bin",
        &std::fs::read(wal::wal_path(&dir)).expect("read log"),
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A swap record names the model's file instead of embedding the model,
/// so its length does not grow with the weights: swapping in models of
/// 8-d and of 256-d features logs records of equal length.
#[test]
fn a_swap_record_does_not_grow_with_the_model() {
    let record_len = |feature_dim: usize| {
        let dir = fresh_dir(&format!("swap-{feature_dim}"));
        let server = start(&dir, feature_dim, false);
        let before = std::fs::metadata(wal::wal_path(&dir)).expect("log").len();
        server
            .swap_model(model(5, feature_dim), labels(), &class_attributes())
            .expect("swaps");
        let after = std::fs::metadata(wal::wal_path(&dir)).expect("log").len();
        drop(server);
        std::fs::remove_dir_all(&dir).ok();
        after - before
    };
    assert_eq!(record_len(8), record_len(256));
}

/// A model file an earlier build wrote in format 1 (the dictionary stored
/// beside the codebooks, a CRC-32 and an FNV-1a name) is refused by its
/// version before anything else in it is read.
#[test]
fn a_format_1_model_file_is_refused_by_version() {
    let bytes = include_bytes!("wal_layout/model_format1.bin");
    match ModelFile::decode("model-a0d9bd806bd182b5.bin", bytes, &schema()) {
        Err(CheckpointError::UnsupportedVersion {
            found: 1,
            supported: 2,
        }) => {}
        other => panic!("expected UnsupportedVersion, got {:?}", other.map(|_| ())),
    }
}

/// The directory an earlier build's durable start wrote — `base.json`
/// beside a header-only `wal.log`, and the model file — is refused by
/// recovery with a typed error, since its log does not open with a base,
/// and is not overwritten by a fresh durable start. There is no migration.
#[test]
fn a_two_file_directory_from_an_earlier_build_is_refused() {
    let dir = fresh_dir("two-file");
    std::fs::create_dir_all(&dir).expect("create dir");
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/wal_layout");
    for (fixture, name) in [
        ("two_file/base.json", "base.json"),
        ("two_file/wal.log", "wal.log"),
        ("model.bin", "model-e416c9221d7f395e.bin"),
    ] {
        std::fs::copy(fixtures.join(fixture), dir.join(name)).expect("copy fixture");
    }
    let config = ServerConfig {
        threads: 1,
        shards: 2,
        ..ServerConfig::default()
    };
    match QueryServer::recover(&schema(), config, DurabilityConfig::new(&dir)) {
        Err(ServeError::Wal(WalError::MissingBase)) => {}
        other => panic!("expected MissingBase, got {:?}", other.map(|(_, r)| r)),
    }
    assert!(matches!(
        QueryServer::start_durable(
            model(3, 8),
            labels(),
            &class_attributes(),
            &schema(),
            config,
            DurabilityConfig::new(&dir),
        ),
        Err(ServeError::InvalidConfig(_))
    ));
    std::fs::remove_dir_all(&dir).ok();
}

/// The log header and the base record's payload of `headed_routed.bin`.
fn routed_base() -> (&'static [u8], String) {
    let bytes: &'static [u8] = include_bytes!("wal_layout/headed_routed.bin");
    let payload = std::str::from_utf8(&bytes[28..]).expect("UTF-8 payload");
    (&bytes[..20], payload.to_string())
}

/// Replays a log of `header` and one frame around `payload`, with a
/// correct length and CRC-32, so only what the payload says is checked.
fn replay_reframed(header: &[u8], payload: &[u8]) -> Result<wal::WalReplay, WalError> {
    static LOGS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = LOGS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("zsc-reframed-{}-{n}.log", std::process::id()));
    let mut log = header.to_vec();
    log.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    log.extend_from_slice(&wal::crc32(payload).to_le_bytes());
    log.extend_from_slice(payload);
    std::fs::write(&path, log).expect("write log");
    let replay = wal::replay(&path);
    std::fs::remove_file(&path).ok();
    replay
}

/// Every cut of the base record's payload, re-framed with a correct CRC so
/// it is not a torn tail, is typed corruption and never a panic.
#[test]
fn every_cut_of_a_base_payload_is_typed_corruption() {
    let (header, payload) = routed_base();
    let whole = replay_reframed(header, payload.as_bytes()).expect("the fixture replays");
    assert!(whole.base.is_some());
    for cut in 0..payload.len() {
        match replay_reframed(header, &payload.as_bytes()[..cut]) {
            Err(WalError::Corrupt { offset: 20, .. }) => {}
            other => panic!("cut at {cut}: {:?}", other.map(|r| r.base.is_some())),
        }
    }
}

/// A base payload that repeats a key, hides an unknown key past the
/// reader's depth limit, writes a word from 2^53 on unquoted, or carries
/// stream counts above their class's observations or as strings is typed
/// corruption. Reordered keys, an extra unknown key and labels written
/// with `\u` escapes (a surrogate pair included) still load.
#[test]
fn hostile_base_payloads_are_typed_corruption() {
    let (header, payload) = routed_base();
    let stream = |counts: &str| {
        format!(
            r#""stream":{{"accumulators":{{"dim":64,"classes":[{{"label":"x","n":1,"counts":{counts}}}]}},"pending":["x"],"since_publish":1}}"#
        )
    };
    let ones = format!("[{}]", vec!["1"; 64].join(","));
    let twos = format!("[{}]", vec!["2"; 64].join(","));
    let deep = format!(r#"{{"deep":{}{},"#, "[".repeat(200), "]".repeat(200));
    let observed = payload.replacen(r#""stream":null"#, &stream(&ones), 1);
    let replay = replay_reframed(header, observed.as_bytes()).expect("a stream base loads");
    let base = replay.base.expect("a base");
    let counters = base.stream.expect("stream state").accumulators;
    assert_eq!(counters.observations("x"), Some(1));
    let hostile = [
        (
            "a repeated op",
            payload.replacen(r#""op":"base","#, r#""op":"base","op":"base","#, 1),
        ),
        (
            "a repeated base key",
            payload.replacen(r#""drift":0,"#, r#""drift":0,"drift":0,"#, 1),
        ),
        ("a deep unknown key", payload.replacen('{', &deep, 1)),
        (
            "an unquoted word",
            payload.replacen(r#""15433845342562776483""#, "15433845342562776483", 1),
        ),
        (
            "an unquoted centroid",
            payload.replacen(r#""14136799853774374307""#, "14136799853774374307", 1),
        ),
        (
            "a count above n",
            payload.replacen(r#""stream":null"#, &stream(&twos), 1),
        ),
        (
            "counts as a string",
            payload.replacen(r#""stream":null"#, &stream(r#""1""#), 1),
        ),
        (
            "counts that are no numbers",
            payload.replacen(r#""stream":null"#, &stream(r#"["x"]"#), 1),
        ),
    ];
    for (what, text) in hostile {
        assert_ne!(text, payload, "{what} edits the payload");
        match replay_reframed(header, text.as_bytes()) {
            Err(WalError::Corrupt { offset: 20, .. }) => {}
            other => panic!("{what}: {:?}", other.map(|r| r.base.is_some())),
        }
    }

    let original = replay_reframed(header, payload.as_bytes())
        .expect("replays")
        .base
        .expect("a base");
    let base_start = payload.find(r#""base":{"#).expect("a base key") + 7;
    let fields = &payload[base_start + 1..payload.len() - 2];
    let mut keys: Vec<&str> = split_top_level(fields);
    keys.reverse();
    let reordered = format!(
        r#"{{"base":{{"extra":{{"classes":[1,{{"index":"x"}}]}},{}}},"unknown":[],"op":"base"}}"#,
        keys.join(",")
    );
    let replay = replay_reframed(header, reordered.as_bytes()).expect("reordered keys load");
    assert_eq!(replay.base.as_ref(), Some(&original));
    let escaped = payload.replacen(r#"["x"]"#, r#"["\u0078"]"#, 1);
    let replay = replay_reframed(header, escaped.as_bytes()).expect("escaped labels load");
    assert_eq!(replay.base.as_ref(), Some(&original));
    let paired = payload.replacen(r#"["z","y"]"#, r#"["z","\ud83d\ude00"]"#, 1);
    let replay = replay_reframed(header, paired.as_bytes()).expect("a surrogate pair loads");
    let memory = replay.base.expect("a base").index.memory().clone();
    assert!(memory.contains("z") && memory.contains("😀") && !memory.contains("y"));
}

/// The top-level `key:value` entries of an object's contents, split on the
/// commas outside strings, brackets and braces.
fn split_top_level(fields: &str) -> Vec<&str> {
    let (mut parts, mut depth, mut quoted, mut start) = (Vec::new(), 0, false, 0);
    let bytes = fields.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'"' if i == 0 || bytes[i - 1] != b'\\' => quoted = !quoted,
            b'{' | b'[' if !quoted => depth += 1,
            b'}' | b']' if !quoted => depth -= 1,
            b',' if !quoted && depth == 0 => {
                parts.push(&fields[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&fields[start..]);
    parts
}
