//! End-to-end serve benchmark for the HDC zero-shot classifier.
//!
//! One command drives the real serving stack from outside, through its
//! public API: `QueryServer` behind a `NetServer`, two `NetClient`
//! connections on loopback, closed-loop query traffic and open-loop traffic
//! at fixed rates, a wire
//! mutation script, and — on the durable workload — WAL, compaction and
//! recovery. Every answer is checked bit-for-bit against
//! `ModelSnapshot::solo_topk` on the snapshot that served it. A separate
//! traced run times calls into each layer's public functions. See
//! `README.md` in this directory for the metrics and workloads.

pub mod inputs;
pub mod load;
pub mod run;
pub mod trace;

/// End-to-end metrics, `(name, unit)`, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_us.closed", "us"),
];

/// End-to-end metrics a metric run reports on standard error only,
/// `(name, unit)`: too unsteady between runs on a shared 2-core host to
/// gate, zero on a correct run, or measured on one workload. `README.md`
/// gives the reasons one by one.
pub const REPORTED: &[(&str, &str)] = &[
    ("p50_us.light", "us"),
    ("p50_us.heavy", "us"),
    ("p95_us.light", "us"),
    ("p95_us.heavy", "us"),
    ("sustained_qps", "1/s"),
    ("mutation_p50_us", "us"),
    ("mutation_p99_us", "us"),
    ("failed_ratio", "ratio"),
    ("recover_s", "s"),
];

/// Per-layer metrics, `(name, unit)`, printed with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.codec_us", "us"),
    ("net.frame_bytes", "bytes"),
    ("net.wire_us", "us"),
    ("net.shed_ratio", "ratio"),
    ("server.inproc_p50_us", "us"),
    ("server.wait_us", "us"),
    ("server.mean_batch", "rows"),
    ("server.batch_fill", "ratio"),
    ("server.batches", "count"),
    ("tensor.from_rows_us", "us"),
    ("embed.batch_us", "us"),
    ("embed.row_us", "us"),
    ("engine.pack_us", "us"),
    ("engine.score_us", "us"),
    ("engine.candidate_fraction", "ratio"),
    ("server.verdict_us", "us"),
    ("hdc_zsc.encode_class_us", "us"),
    ("publish.repack_us", "us"),
    ("stream.fold_us", "us"),
    ("wal.append_us", "us"),
    ("wal.record_bytes", "bytes"),
    ("compact.us", "us"),
    ("compact.base_bytes", "bytes"),
    ("checkpoint.capture_us", "us"),
    ("checkpoint.save_us", "us"),
    ("recover.load_base_s", "s"),
    ("recover.replay_s", "s"),
    ("recover.records", "count"),
    ("loadgen.late_us", "us"),
    ("trace.overhead_us", "us"),
    ("unattributed_us", "us"),
];
