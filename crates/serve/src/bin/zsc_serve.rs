//! End-to-end train-once / serve-many driver, including serve-time class
//! registration.
//!
//! Exercises the full deployment lifecycle on a synthetic CUB-like dataset:
//!
//! 1. **train** — `Pipeline::run_returning_model` (the returned model is the
//!    exact model behind the reported outcome);
//! 2. **save** — `Checkpoint::save_json`;
//! 3. **load** — `Checkpoint::load_json` into a fresh model object;
//! 4. **serve** — a [`serve::QueryServer`] answers a simulated traffic mix
//!    (several caller threads, mixed single queries and small batches)
//!    over the evaluation classes *minus* `--register N` held-out classes;
//! 5. **register** — the held-out classes are registered through the live
//!    server (`register_class`; one snapshot swap per class, no restart,
//!    no queue drain);
//! 6. **re-serve** — the same traffic mix runs again over *all* evaluation
//!    classes, now served by the swapped snapshots.
//!
//! Every served top-1 is cross-checked against direct in-process scoring of
//! the loaded model — phase 4 against the initial class set, phase 6 against
//! the full post-registration set — they must be bit-identical. The output
//! is a single JSON object on stdout with the same per-path stats shape as
//! `serve_sim` (queries / elapsed_s / qps / p50_us / p95_us / p99_us: both
//! report [`metrics::LatencySummary`]).
//!
//! **Durability drill:** with `--wal-dir PATH` the server runs durable —
//! every live registration is write-ahead-logged before it is published.
//! Adding `--kill-after-register` hard-exits the process right after the
//! registration phase (no destructors, simulating a crash), first recording
//! a probe file of queries and their expected bit-exact answers. A second
//! invocation with `--wal-dir PATH --recover` then rebuilds the server from
//! the log alone and asserts every probe answers bit-identically.
//!
//! **Network load generator:** `--net` switches to an alternative mode that
//! binds the TCP front-end ([`serve::net::NetServer`]) over a freshly
//! trained model and drives it with an open-loop load generator, sweeping
//! the `--net-qps` target levels. Each step reports offered load vs goodput
//! plus p50/p95/p99 latency; load-shed requests are the typed `overloaded`
//! rejections of the wire protocol and are dropped, not retried, so goodput
//! under overload is visible. Every answered query is cross-checked
//! bit-identically against `ModelSnapshot::solo_topk`. See
//! `docs/operations.md` for how to read the report.
//!
//! `--net-addr host:port` points the same load generator at an
//! **already-running** front-end instead of standing one up: no model is
//! trained, the query pool is synthesized in the feature width the remote
//! `welcome` frame declares, and — with no local model to score against —
//! the bit-identity cross-check is *skipped and reported as skipped* in
//! both the log and the JSON (`"bit_identity": "skipped"`). No mutation
//! drill runs against a remote server.
//!
//! **Calibration drill:** `--calibrate` switches to a generalized
//! zero-shot + open-set mode over the attribute-level
//! [`dataset::GzslWorkload`] generator (see `docs/evaluation.md`). It
//! evaluates the GZSL H metric over the seen/unseen partition, fits a
//! rejection threshold on the served known-query similarities
//! ([`hdc_zsc::SimilarityCalibrator`], 10% target false-reject rate),
//! installs it on the live server (`set_threshold`, one snapshot swap),
//! and re-serves the mixed known + distractor traffic asserting every
//! `unknown` verdict is bit-consistent with
//! [`serve::ModelSnapshot::solo_topk`] recomputation and the empirical
//! false-reject rate stays at or under the target. The JSON report
//! carries the H metric, the fitted threshold (raw `f32` bits), verdict
//! counts, rejection precision/recall, and AUROC.
//!
//! ```text
//! zsc_serve [--classes N] [--images N] [--feature-dim N] [--epochs N]
//!           [--queries N] [--callers N] [--max-batch N] [--max-wait-us N]
//!           [--threads N] [--top-k K] [--shards N] [--register N]
//!           [--seed N] [--checkpoint PATH] [--wal-dir PATH] [--recover]
//!           [--kill-after-register] [--net] [--net-addr HOST:PORT]
//!           [--net-qps A,B,..] [--net-clients N] [--net-requests N]
//!           [--net-admission N] [--calibrate] [--quick] [--json]
//! ```

use dataset::{
    AttributeSchema, CubLikeDataset, DatasetConfig, GzslWorkload, GzslWorkloadConfig, SplitKind,
    StreamWorkload, StreamWorkloadConfig,
};
use engine::ShardedClassMemory;
use hdc_zsc::{
    evaluate_gzsl, Checkpoint, ModelConfig, Pipeline, SimilarityCalibrator, TrainConfig, ZscModel,
};
use metrics::LatencySummary;
use serde::{Serialize, Value};
use serve::net::{wire, ClientConfig, NetClient, NetConfig, NetServer};
use serve::{DurabilityConfig, QueryServer, ScoredLabel, ServerConfig};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tensor::Matrix;

/// Workload configuration parsed from the command line.
#[derive(Debug, Clone)]
struct Config {
    classes: usize,
    images: usize,
    feature_dim: usize,
    epochs: usize,
    queries: usize,
    callers: usize,
    max_batch: usize,
    max_wait_us: u64,
    threads: usize,
    top_k: usize,
    shards: usize,
    register: usize,
    seed: u64,
    checkpoint: std::path::PathBuf,
    wal_dir: Option<std::path::PathBuf>,
    recover: bool,
    kill_after_register: bool,
    net: bool,
    net_addr: Option<String>,
    net_qps: Vec<u64>,
    net_clients: usize,
    net_requests: usize,
    net_admission: usize,
    calibrate: bool,
    stream: bool,
    json: bool,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            classes: 20,
            images: 8,
            feature_dim: 64,
            epochs: 4,
            queries: 2048,
            callers: 4,
            max_batch: 64,
            max_wait_us: 200,
            threads: engine::Pool::auto().threads(),
            top_k: 5,
            shards: 4,
            register: 3,
            seed: 42,
            checkpoint: std::env::temp_dir().join("zsc_serve_checkpoint.json"),
            wal_dir: None,
            recover: false,
            kill_after_register: false,
            net: false,
            net_addr: None,
            net_qps: vec![2_000, 8_000, 32_000],
            net_clients: 8,
            net_requests: 2_000,
            net_admission: 64,
            calibrate: false,
            stream: false,
            json: false,
        }
    }
}

fn parse_args() -> Config {
    let mut config = Config::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> String {
            args.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match arg.as_str() {
            "--classes" => config.classes = value("--classes").parse().expect("--classes"),
            "--images" => config.images = value("--images").parse().expect("--images"),
            "--feature-dim" => {
                config.feature_dim = value("--feature-dim").parse().expect("--feature-dim");
            }
            "--epochs" => config.epochs = value("--epochs").parse().expect("--epochs"),
            "--queries" => config.queries = value("--queries").parse().expect("--queries"),
            "--callers" => config.callers = value("--callers").parse().expect("--callers"),
            "--max-batch" => config.max_batch = value("--max-batch").parse().expect("--max-batch"),
            "--max-wait-us" => {
                config.max_wait_us = value("--max-wait-us").parse().expect("--max-wait-us");
            }
            "--threads" => config.threads = value("--threads").parse().expect("--threads"),
            "--top-k" => config.top_k = value("--top-k").parse().expect("--top-k"),
            "--shards" => config.shards = value("--shards").parse().expect("--shards"),
            "--register" => config.register = value("--register").parse().expect("--register"),
            "--seed" => config.seed = value("--seed").parse().expect("--seed"),
            "--checkpoint" => config.checkpoint = value("--checkpoint").into(),
            "--wal-dir" => config.wal_dir = Some(value("--wal-dir").into()),
            "--recover" => config.recover = true,
            "--kill-after-register" => config.kill_after_register = true,
            "--net" => config.net = true,
            "--net-addr" => {
                config.net_addr = Some(value("--net-addr"));
                config.net = true;
            }
            "--net-qps" => {
                config.net_qps = value("--net-qps")
                    .split(',')
                    .map(|level| level.trim().parse().expect("--net-qps"))
                    .collect();
                assert!(
                    !config.net_qps.is_empty(),
                    "--net-qps needs at least one level"
                );
            }
            "--net-clients" => {
                config.net_clients = value("--net-clients").parse().expect("--net-clients");
            }
            "--net-requests" => {
                config.net_requests = value("--net-requests").parse().expect("--net-requests");
            }
            "--net-admission" => {
                config.net_admission = value("--net-admission").parse().expect("--net-admission");
            }
            "--calibrate" => config.calibrate = true,
            "--stream" => config.stream = true,
            "--quick" => {
                // Small CI smoke: train → save → load → serve → register →
                // re-serve in a few seconds.
                config.classes = 12;
                config.images = 6;
                config.feature_dim = 48;
                config.epochs = 2;
                config.queries = 256;
                config.callers = 2;
                config.register = 2;
                config.net_qps = vec![1_000, 4_000];
                config.net_clients = 4;
                config.net_requests = 160;
            }
            "--json" => config.json = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: zsc_serve [--classes N] [--images N] [--feature-dim N] [--epochs N] \
                     [--queries N] [--callers N] [--max-batch N] [--max-wait-us N] [--threads N] \
                     [--top-k K] [--shards N] [--register N] [--seed N] [--checkpoint PATH] \
                     [--wal-dir PATH] [--recover] [--kill-after-register] \
                     [--net] [--net-addr HOST:PORT] [--net-qps A,B,..] [--net-clients N] \
                     [--net-requests N] [--net-admission N] [--calibrate] [--stream] [--quick] \
                     [--json]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument {other}"),
        }
    }
    assert!(config.classes > 1 && config.images > 0 && config.queries > 0 && config.callers > 0);
    config
}

/// Drives one multi-caller traffic phase through the server and returns
/// `(stats, served top-1 per query index)`.
fn run_traffic(
    server: &QueryServer,
    queries: &[Vec<f32>],
    callers: usize,
) -> (LatencySummary, Vec<ScoredLabel>) {
    let latencies: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(queries.len()));
    let served: Mutex<Vec<(usize, ScoredLabel)>> = Mutex::new(Vec::with_capacity(queries.len()));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (caller, chunk) in queries.chunks(queries.len().div_ceil(callers)).enumerate() {
            let latencies = &latencies;
            let served = &served;
            let base = caller * queries.len().div_ceil(callers);
            scope.spawn(move || {
                let mut index = 0usize;
                while index < chunk.len() {
                    // Mixed traffic: mostly single queries, every third
                    // submission a small batch of up to 4 rows.
                    let batch = if index % 3 == 2 {
                        (chunk.len() - index).min(4)
                    } else {
                        1
                    };
                    let rows = &chunk[index..index + batch];
                    let submit = Instant::now();
                    let results = server.query_batch(rows).expect("query served");
                    // Every query in a batched submission blocks from
                    // submission until the shared result returns, so each
                    // one experienced the full wall time.
                    let us = submit.elapsed().as_secs_f64() * 1e6;
                    let mut lats = latencies.lock().expect("latency mutex");
                    for _ in 0..batch {
                        lats.push(us);
                    }
                    let mut top = served.lock().expect("served mutex");
                    for (offset, mut result) in results.into_iter().enumerate() {
                        top.push((base + index + offset, result.remove(0)));
                    }
                    index += batch;
                }
            });
        }
    });
    // Callers run concurrently, so throughput is over the wall-clock window,
    // not the latency sum.
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut served_top = served.into_inner().expect("served mutex");
    served_top.sort_by_key(|(index, _)| *index);
    assert_eq!(served_top.len(), queries.len());
    let latencies = latencies.into_inner().expect("latency mutex");
    (
        LatencySummary::new(latencies.len(), latencies, elapsed_s),
        served_top.into_iter().map(|(_, top)| top).collect(),
    )
}

/// Scores every query solo against the reference model + memory and asserts
/// the served top-1s are bit-identical; returns the direct-path stats.
fn cross_check(
    phase: &str,
    reference_model: &ZscModel,
    reference_memory: &ShardedClassMemory,
    queries: &[Vec<f32>],
    served: &[ScoredLabel],
) -> LatencySummary {
    let mut direct_latencies = Vec::with_capacity(queries.len());
    let direct_start = Instant::now();
    for (q, (features, (label, sim))) in queries.iter().zip(served).enumerate() {
        let start = Instant::now();
        let embedding =
            reference_model.embed_images(&Matrix::from_rows(std::slice::from_ref(features)));
        let packed = engine::pack_float_signs(embedding.row(0));
        let (direct_label, direct_sim) =
            reference_memory.nearest(&packed).expect("non-empty memory");
        direct_latencies.push(start.elapsed().as_secs_f64() * 1e6);
        assert_eq!(label, direct_label, "{phase} query {q}: served wrong label");
        assert_eq!(
            sim.to_bits(),
            direct_sim.to_bits(),
            "{phase} query {q}: served similarity diverges"
        );
    }
    let direct_s = direct_start.elapsed().as_secs_f64();
    eprintln!("zsc_serve: {phase} top-1 results are bit-identical to direct in-process scoring");
    LatencySummary::new(direct_latencies.len(), direct_latencies, direct_s)
}

/// Where the kill/recover drill records its expected answers, inside the
/// WAL directory (next to `wal.log` and `base.json`).
fn probe_path(wal_dir: &std::path::Path) -> std::path::PathBuf {
    wal_dir.join("probe.json")
}

/// Snapshots the pre-kill ground truth: the serving schema, the snapshot
/// version, and a handful of queries with their bit-exact top-k answers.
fn write_probe_file(
    wal_dir: &std::path::Path,
    schema: &AttributeSchema,
    server: &QueryServer,
    queries: &[Vec<f32>],
    top_k: usize,
) {
    use std::io::Write;
    let snapshot = server.snapshot();
    let probes: Vec<Value> = queries
        .iter()
        .take(8)
        .map(|features| {
            let top: Vec<Value> = snapshot
                .solo_topk(features, top_k)
                .into_iter()
                .map(|(label, sim)| {
                    Value::Object(vec![
                        ("label".to_string(), label.to_value()),
                        ("sim_bits".to_string(), sim.to_bits().to_value()),
                    ])
                })
                .collect();
            Value::Object(vec![
                ("features".to_string(), features.to_value()),
                ("top".to_string(), Value::Array(top)),
            ])
        })
        .collect();
    let document = Value::Object(vec![
        ("schema".to_string(), schema.to_value()),
        (
            "snapshot_version".to_string(),
            snapshot.version().to_value(),
        ),
        ("top_k".to_string(), top_k.to_value()),
        ("probes".to_string(), Value::Array(probes)),
    ]);
    let mut file = std::fs::File::create(probe_path(wal_dir)).expect("create probe file");
    let rendered = serde_json::to_string_pretty(&document).expect("render probe file");
    file.write_all(rendered.as_bytes())
        .expect("write probe file");
    // The probe file must survive the kill that follows immediately.
    file.sync_all().expect("sync probe file");
}

/// `--recover`: rebuild the server from the WAL directory alone and assert
/// every recorded probe answers bit-identically to the pre-kill server.
fn run_recovery(config: &Config) {
    let wal_dir = config
        .wal_dir
        .as_deref()
        .expect("--recover requires --wal-dir");
    let probe_doc = std::fs::read_to_string(probe_path(wal_dir)).expect("read probe file");
    let probe_doc = serde_json::parse_value(&probe_doc).expect("probe file parses");
    let schema: AttributeSchema =
        serde_json::from_value(probe_doc.get("schema").expect("probe schema"))
            .expect("probe schema decodes");
    let expected_version: u64 =
        serde_json::from_value(probe_doc.get("snapshot_version").expect("probe version"))
            .expect("probe version decodes");
    let top_k: usize = serde_json::from_value(probe_doc.get("top_k").expect("probe top_k"))
        .expect("probe top_k decodes");

    let recover_start = Instant::now();
    let (server, report) = QueryServer::recover(
        &schema,
        ServerConfig {
            max_batch: config.max_batch,
            max_wait_us: config.max_wait_us,
            threads: config.threads,
            top_k,
            shards: config.shards,
            routed: None,
            publish_every: 1,
        },
        DurabilityConfig::new(wal_dir),
    )
    .expect("recovery succeeds");
    let recover_s = recover_start.elapsed().as_secs_f64();
    assert_eq!(
        report.snapshot_version, expected_version,
        "recovery must resume at the pre-kill snapshot version"
    );

    let Some(Value::Array(probes)) = probe_doc.get("probes") else {
        panic!("probe file holds no probes");
    };
    for (p, probe) in probes.iter().enumerate() {
        let features: Vec<f32> =
            serde_json::from_value(probe.get("features").expect("probe features"))
                .expect("probe features decode");
        let Some(Value::Array(expected)) = probe.get("top") else {
            panic!("probe {p} records no answers");
        };
        // Both serving paths must reproduce the pre-kill bits: the live
        // micro-batched query path and the snapshot's solo scorer.
        let served = server.query(&features).expect("recovered server serves");
        let solo = server.snapshot().solo_topk(&features, top_k);
        assert_eq!(
            served.len(),
            expected.len(),
            "probe {p}: wrong answer count"
        );
        for (k, ((slabel, ssim), want)) in served.iter().zip(expected).enumerate() {
            let wlabel: String =
                serde_json::from_value(want.get("label").expect("label")).expect("label decodes");
            let wbits: u32 = serde_json::from_value(want.get("sim_bits").expect("sim_bits"))
                .expect("sim_bits decode");
            assert_eq!(slabel, &wlabel, "probe {p} rank {k}: label diverged");
            assert_eq!(
                ssim.to_bits(),
                wbits,
                "probe {p} rank {k}: similarity bits diverged"
            );
            assert_eq!(
                &solo[k].0, &wlabel,
                "probe {p} rank {k}: solo label diverged"
            );
            assert_eq!(solo[k].1.to_bits(), wbits, "probe {p} rank {k}: solo bits");
        }
    }
    eprintln!(
        "zsc_serve: recovered {} probes bit-identical to the pre-kill server",
        probes.len()
    );

    let json = format!(
        "{{\"recovered\": true, \"snapshot_version\": {}, \"replayed_records\": {}, \
         \"torn_tail\": {}, \"probes_checked\": {}, \"recover_s\": {recover_s:.6}}}",
        report.snapshot_version,
        report.replayed_records,
        report.torn_tail,
        probes.len()
    );
    if config.json {
        println!("{json}");
    } else {
        eprintln!("{json}");
    }
}

/// Reference answers for the sweep's bit-identity cross-check: per pool
/// row, the `(label, raw f32 bits)` pairs solo scoring produced.
type ExpectedBits = [Vec<(String, u32)>];

/// The shared open-loop qps sweep behind both `--net` modes. Each step
/// schedules sends at the target rate (open loop: a sender that falls
/// behind fires its backlog immediately rather than stretching the
/// schedule) and load-shed requests are dropped, not retried. When
/// `expected` carries the reference answers of a local model, every
/// answered query is cross-checked bit-identically; when it is `None`
/// (remote server, `--net-addr`) answers are checked for shape only and
/// the caller reports the cross-check as skipped.
fn net_sweep(
    addr: std::net::SocketAddr,
    pool: &[Vec<f32>],
    expected: Option<(u64, &ExpectedBits)>,
    config: &Config,
) -> Vec<String> {
    let clients = config.net_clients.max(1);
    let per_client = (config.net_requests / clients).max(1);
    let mut steps = Vec::new();
    for &target in &config.net_qps {
        let interval = Duration::from_secs_f64(clients as f64 / target.max(1) as f64);
        let latencies: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(clients * per_client));
        let step_start = Instant::now();
        let (answered, shed) = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for c in 0..clients {
                let latencies = &latencies;
                handles.push(scope.spawn(move || {
                    let mut client = NetClient::connect(addr, ClientConfig::default())
                        .expect("load generator connects");
                    let (mut answered, mut shed) = (0usize, 0usize);
                    let start = Instant::now();
                    for i in 0..per_client {
                        // Open-loop schedule: request i of this sender is
                        // due at i * interval; a late sender fires
                        // immediately instead of stretching the schedule.
                        let due = interval.mul_f64(i as f64);
                        let now = start.elapsed();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let pick = (c * per_client + i) % pool.len();
                        let submit = Instant::now();
                        match client.query(&pool[pick], None) {
                            Ok((version, served)) => {
                                if let Some((sweep_version, want_all)) = expected {
                                    assert_eq!(
                                        version, sweep_version,
                                        "no mutations during the sweep"
                                    );
                                    let want = &want_all[pick];
                                    assert_eq!(served.len(), want.len());
                                    for ((sl, ss), (el, eb)) in served.iter().zip(want) {
                                        assert_eq!(
                                            sl, el,
                                            "served label diverged from solo scoring"
                                        );
                                        assert_eq!(
                                            ss.to_bits(),
                                            *eb,
                                            "served similarity diverged from solo scoring"
                                        );
                                    }
                                } else {
                                    assert!(
                                        !served.is_empty(),
                                        "remote server answered an empty top-k"
                                    );
                                }
                                latencies
                                    .lock()
                                    .expect("latency mutex")
                                    .push(submit.elapsed().as_secs_f64() * 1e6);
                                answered += 1;
                            }
                            Err(e) if e.is_rejection(wire::code::OVERLOADED) => shed += 1,
                            Err(e) => panic!("load generator hit an unexpected failure: {e}"),
                        }
                    }
                    (answered, shed)
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("sender thread"))
                .fold((0usize, 0usize), |(a, s), (da, ds)| (a + da, s + ds))
        });
        let elapsed_s = step_start.elapsed().as_secs_f64();
        let sent = clients * per_client;
        let lats = latencies.into_inner().expect("latency mutex");
        let stats = LatencySummary::new(lats.len(), lats, elapsed_s);
        eprintln!(
            "zsc_serve: net step target {target} q/s \u{2192} sent {sent}, answered {answered}, \
             shed {shed}, goodput {:.0} q/s (p50 {:.0}\u{b5}s, p99 {:.0}\u{b5}s)",
            stats.qps, stats.p50_us, stats.p99_us
        );
        steps.push(format!(
            "{{\"target_qps\": {target}, \"sent\": {sent}, \"answered\": {answered}, \
             \"shed\": {shed}, \"goodput_qps\": {:.1}, \"p50_us\": {:.1}, \"p95_us\": {:.1}, \
             \"p99_us\": {:.1}, \"elapsed_s\": {:.6}}}",
            stats.qps, stats.p50_us, stats.p95_us, stats.p99_us, stats.elapsed_s
        ));
    }
    steps
}

/// `--net --net-addr host:port`: drive the same open-loop load generator
/// against an **already-running** front-end. No model is trained and no
/// local server is stood up: the query pool is synthesized in the
/// feature width the remote `welcome` frame declares. Without a local
/// model there is no reference scorer, so the bit-identity cross-check
/// is skipped and *reported* as skipped; the sweep still pins liveness,
/// typed load-shedding, and latency. The mutation drill does not run —
/// the remote model is not ours to mutate.
fn run_net_remote(config: &Config, addr_spec: &str) {
    use std::net::ToSocketAddrs;
    let addr = addr_spec
        .to_socket_addrs()
        .unwrap_or_else(|e| panic!("--net-addr {addr_spec}: {e}"))
        .next()
        .unwrap_or_else(|| panic!("--net-addr {addr_spec} resolved to no address"));
    let mut probe = NetClient::connect(addr, ClientConfig::default())
        .expect("remote front-end accepts the handshake");
    let welcome = probe.welcome();
    eprintln!(
        "zsc_serve: remote front-end at {addr}: protocol v{}, feature_dim {}, \
         {} classes at snapshot v{}",
        welcome.protocol, welcome.feature_dim, welcome.classes, welcome.snapshot_version
    );

    let pool = synthetic_pool(64, welcome.feature_dim as usize, config.seed);
    let steps = net_sweep(addr, &pool, None, config);
    eprintln!(
        "zsc_serve: bit-identity cross-check SKIPPED \u{2014} remote server at {addr_spec}, \
         no local model to score against"
    );

    let stats = probe
        .stats()
        .expect("remote front-end answers a stats request");
    let clients = config.net_clients.max(1);
    let per_client = (config.net_requests / clients).max(1);
    let json = format!(
        "{{\n  \"config\": {{\"net_addr\": \"{addr_spec}\", \"seed\": {}, \
         \"net_clients\": {clients}, \"net_requests_per_client\": {per_client}}},\n  \
         \"bit_identity\": \"skipped\",\n  \
         \"remote\": {{\"protocol\": {}, \"feature_dim\": {}, \"classes\": {}, \
         \"snapshot_version\": {}, \"queries\": {}, \"batches\": {}, \
         \"net_requests\": {}}},\n  \
         \"net_sweep\": [{}]\n}}",
        config.seed,
        welcome.protocol,
        welcome.feature_dim,
        stats.classes,
        stats.snapshot_version,
        stats.queries,
        stats.batches,
        stats.net_requests,
        steps.join(", "),
    );
    if config.json {
        println!("{json}");
    } else {
        eprintln!("{json}");
    }
}

/// Seeded synthetic feature rows for driving a remote server we know
/// only the feature width of: splitmix64 mapped into [0, 1).
fn synthetic_pool(rows: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 40) as f32 / (1u64 << 24) as f32
    };
    (0..rows)
        .map(|_| (0..dim).map(|_| next()).collect())
        .collect()
}

/// `--net`: stand the TCP front-end up over a freshly trained model and
/// drive it with an open-loop network load generator, sweeping target
/// qps levels.
///
/// Each sweep step schedules sends at the target rate (open loop: the
/// schedule does not slow down because responses are slow — a sender
/// that falls behind fires its backlog immediately). Load-shed requests
/// (typed `overloaded` rejections) are **dropped, not retried**, so the
/// report separates *offered* load from *goodput*. Every answered query
/// is cross-checked bit-identically against
/// [`serve::ModelSnapshot::solo_topk`]; a drained or corrupted answer
/// aborts the run. After the sweep a short mutation drill registers,
/// queries, and removes a class over the wire.
fn run_net_mode(config: &Config) {
    // --- train + serve ------------------------------------------------------
    let mut dataset_config = DatasetConfig::tiny(config.seed);
    dataset_config.num_classes = config.classes;
    dataset_config.images_per_class = config.images;
    dataset_config.feature_dim = config.feature_dim;
    let data = CubLikeDataset::generate(&dataset_config);
    let pipeline = Pipeline::new(
        ModelConfig::tiny(),
        TrainConfig::fast().with_epochs(config.epochs),
    );
    let train_start = Instant::now();
    let (outcome, model) = pipeline.run_returning_model(&data, SplitKind::Zs, config.seed);
    let train_s = train_start.elapsed().as_secs_f64();
    eprintln!("zsc_serve: trained in {train_s:.2}s, eval {}", outcome.zsc);

    let schema = data.schema();
    let split = data.split(SplitKind::Zs);
    let eval_classes = split.eval_classes();
    let eval_class_attr = data.class_attribute_matrix(eval_classes);
    let labels: Vec<String> = eval_classes
        .iter()
        .map(|c| format!("class{c:03}"))
        .collect();
    let server = Arc::new(
        QueryServer::start(
            model,
            labels,
            &eval_class_attr,
            ServerConfig {
                max_batch: config.max_batch,
                max_wait_us: config.max_wait_us,
                threads: config.threads,
                top_k: config.top_k,
                shards: config.shards,
                routed: None,
                publish_every: 1,
            },
        )
        .expect("server starts"),
    );
    let net = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&server),
        schema,
        NetConfig {
            admission_capacity: config.net_admission,
            max_connections: config.net_clients + 4,
            ..NetConfig::default()
        },
    )
    .expect("front-end binds");
    let addr = net.local_addr();
    eprintln!(
        "zsc_serve: front-end listening on {addr} (admission capacity {})",
        config.net_admission
    );

    // The reference answers: version 0 serves the whole sweep (no
    // mutations run until the drill afterwards), so the expected bits
    // per pool row are fixed up front.
    let (eval_x, _) = data.features_and_labels(eval_classes);
    let pool: Vec<Vec<f32>> = (0..eval_x.rows().min(64))
        .map(|q| eval_x.row(q).to_vec())
        .collect();
    let snapshot = server.snapshot();
    let sweep_version = snapshot.version();
    let expected: Vec<Vec<(String, u32)>> = pool
        .iter()
        .map(|q| {
            snapshot
                .solo_topk(q, config.top_k)
                .into_iter()
                .map(|(label, sim)| (label, sim.to_bits()))
                .collect()
        })
        .collect();

    // --- open-loop qps sweep ------------------------------------------------
    let clients = config.net_clients.max(1);
    let per_client = (config.net_requests / clients).max(1);
    let expected_bits: Vec<Vec<(String, u32)>> = expected;
    let steps = net_sweep(addr, &pool, Some((sweep_version, &expected_bits)), config);
    eprintln!("zsc_serve: all answered sweep queries were bit-identical to solo scoring");

    // --- mutation drill over the wire --------------------------------------
    let mut admin = NetClient::connect(addr, ClientConfig::default()).expect("admin connects");
    let drill_attributes = eval_class_attr.row(0).to_vec();
    let registered_version = admin
        .register_class("net_drill", &drill_attributes)
        .expect("register over the wire");
    let (served_version, served) = admin
        .query(&pool[0], None)
        .expect("query after registration");
    assert_eq!(served_version, registered_version);
    assert!(!served.is_empty());
    let removed_version = admin
        .remove_class("net_drill")
        .expect("remove over the wire");
    assert_eq!(removed_version, registered_version + 1);
    eprintln!(
        "zsc_serve: wire mutation drill registered and removed a class \
         (v{sweep_version} → v{removed_version})"
    );

    let front_end = net.stats();
    net.shutdown();
    let json = format!(
        "{{\n  \"config\": {{\"classes\": {}, \"images\": {}, \"feature_dim\": {}, \
         \"epochs\": {}, \"top_k\": {}, \"shards\": {}, \"seed\": {}, \"net_clients\": {clients}, \
         \"net_requests_per_client\": {per_client}, \"net_admission\": {}}},\n  \
         \"train\": {{\"elapsed_s\": {train_s:.3}, \"zs_top1\": {:.4}}},\n  \
         \"bit_identity\": \"checked\",\n  \
         \"net_sweep\": [{}],\n  \
         \"front_end\": {{\"connections\": {}, \"refused_connections\": {}, \"requests\": {}, \
         \"admitted\": {}, \"overloaded\": {}, \"quota_rejections\": {}, \
         \"draining_rejections\": {}}}\n}}",
        config.classes,
        config.images,
        config.feature_dim,
        config.epochs,
        config.top_k,
        config.shards,
        config.seed,
        config.net_admission,
        outcome.zsc.top1,
        steps.join(", "),
        front_end.connections,
        front_end.refused_connections,
        front_end.requests,
        front_end.admitted,
        front_end.overloaded,
        front_end.quota_rejections,
        front_end.draining_rejections,
    );
    if config.json {
        println!("{json}");
    } else {
        eprintln!("{json}");
    }
}

/// Renders an `Option<f32>` metric as a JSON number or `null`.
fn json_opt(value: Option<f32>) -> String {
    value.map_or_else(|| "null".to_string(), |v| format!("{v:.6}"))
}

/// `--calibrate`: generalized zero-shot + open-set drill over the
/// attribute-level [`GzslWorkload`] generator.
///
/// The drill model runs without the FC projection (γ = identity), so
/// query rows are the *attribute-encoder embeddings* of each query's
/// attribute vector — both sides of the cosine live in the same
/// hypervector space and the whole run is a pure function of the seed.
/// Steps: GZSL H-metric evaluation over the seen/unseen union, threshold
/// fitting on the served known-query similarities, one `set_threshold`
/// snapshot swap on the live server, and a mixed known + distractor
/// re-serve whose verdicts are cross-checked against solo recomputation.
fn run_calibrate(config: &Config) {
    let schema = AttributeSchema::cub200();
    let classes = config.classes.max(4);
    let workload = GzslWorkload::generate(&GzslWorkloadConfig {
        classes,
        unseen: config.register.clamp(1, classes - 1),
        attribute_dim: schema.num_attributes(),
        queries: config.queries,
        distractors: (config.queries / 8).max(16),
        // Heavier jitter than the generator default, so the H metric and
        // the rejection trade-off are exercised away from the trivial
        // all-correct / all-separable corner.
        noise: 0.35,
        seed: config.seed,
    });
    let model = ZscModel::new(
        &ModelConfig::tiny()
            .with_projection(false)
            .with_seed(config.seed),
        &schema,
        config.feature_dim,
    );
    let class_attr = Matrix::from_rows(&workload.class_attributes);
    let query_embeddings = model
        .attribute_encoder()
        .infer_classes(&Matrix::from_rows(&workload.query_attributes));
    let known_indices: Vec<usize> = (0..workload.query_class.len())
        .filter(|&q| workload.query_class[q].is_some())
        .collect();
    let known_targets: Vec<usize> = known_indices
        .iter()
        .map(|&q| workload.query_class[q].expect("known query"))
        .collect();
    let distractors = workload.query_class.len() - known_indices.len();
    eprintln!(
        "zsc_serve: calibrate drill over {classes} classes ({} unseen), {} known queries, \
         {distractors} distractors",
        workload.unseen_classes().len(),
        known_indices.len()
    );

    // --- GZSL H metric over the seen/unseen union ---------------------------
    let known_features = query_embeddings.select_rows(&known_indices);
    let gzsl = evaluate_gzsl(
        &model,
        &known_features,
        &known_targets,
        &class_attr,
        &workload.unseen,
    );
    eprintln!("zsc_serve: gzsl {gzsl}");

    // --- serve, calibrate, install the threshold live -----------------------
    let server = QueryServer::start(
        model,
        workload.labels.clone(),
        &class_attr,
        ServerConfig {
            max_batch: config.max_batch,
            max_wait_us: config.max_wait_us,
            threads: config.threads,
            top_k: config.top_k,
            shards: config.shards,
            routed: None,
            publish_every: 1,
        },
    )
    .expect("server starts");
    let rows: Vec<Vec<f32>> = (0..query_embeddings.rows())
        .map(|q| query_embeddings.row(q).to_vec())
        .collect();
    let mut known_sims = Vec::with_capacity(known_indices.len());
    for &q in &known_indices {
        let (_, top, verdict) = server.query_with_verdict(&rows[q]).expect("query served");
        assert_eq!(verdict, None, "no verdicts before calibration");
        known_sims.push(top.first().expect("non-empty class set").1);
    }
    let target_false_reject = 0.1f32;
    let calibration = SimilarityCalibrator::new(target_false_reject).fit(&known_sims);
    let calibrated = server
        .set_threshold(calibration.threshold)
        .expect("threshold installs");
    eprintln!(
        "zsc_serve: fitted threshold {} (bits {:#010x}) on {} known sims, installed in \
         snapshot v{}",
        calibration.threshold,
        calibration.threshold.to_bits(),
        known_sims.len(),
        calibrated.version()
    );

    // --- mixed re-serve: every verdict cross-checked against solo scoring ---
    let snapshot = server.snapshot();
    let mut sims = Vec::with_capacity(rows.len());
    let mut known_flags = Vec::with_capacity(rows.len());
    let (mut accepted_known, mut rejected_known) = (0usize, 0usize);
    let (mut accepted_distractor, mut rejected_distractor) = (0usize, 0usize);
    for (q, row) in rows.iter().enumerate() {
        let (version, top, verdict) = server.query_with_verdict(row).expect("query served");
        assert_eq!(version, snapshot.version(), "no mutations during the drill");
        let solo = snapshot.solo_topk(row, config.top_k);
        for ((sl, ss), (dl, ds)) in top.iter().zip(&solo) {
            assert_eq!(sl, dl, "served label diverged from solo scoring");
            assert_eq!(
                ss.to_bits(),
                ds.to_bits(),
                "served similarity diverged from solo scoring"
            );
        }
        let verdict = verdict.expect("threshold is installed");
        assert_eq!(
            Some(verdict),
            snapshot.verdict(&solo),
            "served verdict diverged from solo recomputation"
        );
        let is_known = workload.query_class[q].is_some();
        sims.push(top[0].1);
        known_flags.push(is_known);
        match (is_known, verdict) {
            (true, serve::Verdict::Known) => accepted_known += 1,
            (true, serve::Verdict::Unknown) => rejected_known += 1,
            (false, serve::Verdict::Known) => accepted_distractor += 1,
            (false, serve::Verdict::Unknown) => rejected_distractor += 1,
        }
    }
    let rejection = metrics::rejection_report(&sims, &known_flags, calibration.threshold);
    let auroc = metrics::auroc(&sims, &known_flags);
    assert_eq!(
        rejection.rejected,
        rejected_known + rejected_distractor,
        "the metrics-layer reject rule and the served verdicts must agree"
    );
    let false_reject_rate = rejection.false_reject_rate.unwrap_or(0.0);
    assert!(
        false_reject_rate <= target_false_reject + 1e-6,
        "calibration overshoots its target: {false_reject_rate} > {target_false_reject}"
    );
    eprintln!(
        "zsc_serve: verdicts known {accepted_known}+{rejected_known} / distractor \
         {accepted_distractor}+{rejected_distractor} (accepted+rejected), false-reject \
         {false_reject_rate:.4} ≤ target {target_false_reject}, auroc {}",
        json_opt(auroc)
    );

    let json = format!(
        "{{\n  \"config\": {{\"classes\": {classes}, \"unseen\": {}, \"attribute_dim\": {}, \
         \"embedding_dim\": {}, \"queries\": {}, \"distractors\": {distractors}, \
         \"top_k\": {}, \"seed\": {}}},\n  \
         \"gzsl\": {{\"seen\": {}, \"unseen\": {}, \"harmonic\": {:.6}, \
         \"num_seen_classes\": {}, \"num_unseen_classes\": {}, \"num_samples\": {}}},\n  \
         \"calibration\": {{\"target_false_reject\": {target_false_reject}, \
         \"threshold\": {}, \"threshold_bits\": {}, \"fitted_on\": {}}},\n  \
         \"serve\": {{\"snapshot_version\": {}, \"accepted_known\": {accepted_known}, \
         \"rejected_known\": {rejected_known}, \"accepted_distractor\": {accepted_distractor}, \
         \"rejected_distractor\": {rejected_distractor}, \"false_reject_rate\": {:.6}, \
         \"rejection_precision\": {}, \"rejection_recall\": {}, \"auroc\": {}}}\n}}",
        workload.unseen_classes().len(),
        schema.num_attributes(),
        config.feature_dim,
        known_indices.len(),
        config.top_k,
        config.seed,
        json_opt(gzsl.seen),
        json_opt(gzsl.unseen),
        gzsl.harmonic,
        gzsl.num_seen_classes,
        gzsl.num_unseen_classes,
        gzsl.num_samples,
        calibration.threshold,
        calibration.threshold.to_bits(),
        known_sims.len(),
        snapshot.version(),
        false_reject_rate,
        json_opt(rejection.precision),
        json_opt(rejection.recall),
        json_opt(auroc),
    );
    if config.json {
        println!("{json}");
    } else {
        eprintln!("{json}");
    }
}

/// `--stream`: the streaming continual-learning drill. Trains a tiny
/// model, serves it durably behind the TCP front-end, and streams a
/// seeded concept-drift workload ([`StreamWorkload`]) through the wire
/// `observe` verb in **lockstep** with a non-durable in-process twin
/// folding the exact same examples — every wire-reported version must
/// match the twin's, and after the explicit `flush` the two class
/// memories must be bit-identical. The server is then killed (dropped), a
/// torn partial record is appended to the WAL tail, and
/// [`QueryServer::recover`] must rebuild the exact serving state —
/// counters, batching position, and served bits — after which the
/// resumed stream and the twin still publish identical snapshots.
fn run_stream(config: &Config) {
    const PUBLISH_EVERY: u32 = 4;
    eprintln!(
        "zsc_serve: streaming drill — classes={} images={} feature_dim={} epochs={} \
         publish_every={PUBLISH_EVERY}",
        config.classes, config.images, config.feature_dim, config.epochs
    );

    // --- train ------------------------------------------------------------
    let mut dataset_config = DatasetConfig::tiny(config.seed);
    dataset_config.num_classes = config.classes;
    dataset_config.images_per_class = config.images;
    dataset_config.feature_dim = config.feature_dim;
    let data = CubLikeDataset::generate(&dataset_config);
    let pipeline = Pipeline::new(
        ModelConfig::tiny(),
        TrainConfig::fast().with_epochs(config.epochs),
    );
    let train_start = Instant::now();
    let (outcome, model) = pipeline.run_returning_model(&data, SplitKind::Zs, config.seed);
    let train_s = train_start.elapsed().as_secs_f64();
    eprintln!("zsc_serve: trained in {train_s:.2}s, eval {}", outcome.zsc);

    let schema = data.schema();
    let split = data.split(SplitKind::Zs);
    let eval_classes = split.eval_classes();
    let class_attr = data.class_attribute_matrix(eval_classes);
    let labels: Vec<String> = eval_classes
        .iter()
        .map(|c| format!("class{c:03}"))
        .collect();
    let frozen = model.freeze();

    let server_config = ServerConfig {
        max_batch: config.max_batch,
        max_wait_us: config.max_wait_us,
        threads: config.threads,
        top_k: config.top_k,
        shards: config.shards,
        routed: None,
        publish_every: PUBLISH_EVERY,
    };
    let wal_dir = config
        .wal_dir
        .clone()
        .unwrap_or_else(|| std::env::temp_dir().join(format!("zsc-stream-{}", std::process::id())));
    std::fs::remove_dir_all(&wal_dir).ok();
    let server = Arc::new(
        QueryServer::start_durable(
            frozen.clone(),
            labels.clone(),
            &class_attr,
            schema,
            server_config,
            DurabilityConfig {
                dir: wal_dir.clone(),
                sync: serve::SyncPolicy::Always,
                // Low enough that the stream below crosses a compaction
                // mid-batch: the counters then ride the checkpoint delta,
                // not WAL replay.
                compact_every: 32,
            },
        )
        .expect("durable server starts"),
    );
    // The uninterrupted in-process twin: same frozen model, same classes,
    // no WAL, no network — the reference the streamed server must match
    // bit-for-bit at every publication.
    let twin = QueryServer::start(frozen, labels.clone(), &class_attr, server_config)
        .expect("twin starts");
    let net = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&server),
        schema,
        NetConfig::default(),
    )
    .expect("front-end binds");
    let mut client =
        NetClient::connect(net.local_addr(), ClientConfig::default()).expect("client connects");

    // --- stream over the socket, lockstep with the twin ---------------------
    let workload = StreamWorkload::generate(&StreamWorkloadConfig {
        classes: labels.len(),
        feature_dim: config.feature_dim,
        steps: 11,
        examples_per_step: 7,
        drift: 0.12,
        noise: 0.05,
        seed: config.seed,
    });
    let observe_lockstep = |client: &mut NetClient, example: &dataset::StreamExample| -> u64 {
        let label = &labels[example.class];
        let version = client
            .observe(label, &example.features)
            .expect("observe over the wire");
        twin.observe(label, &example.features)
            .expect("twin observe");
        assert_eq!(
            version,
            twin.snapshot().version(),
            "wire and twin versions diverged at a publication boundary"
        );
        version
    };
    let phase_one = 70usize;
    for example in &workload.examples[..phase_one] {
        observe_lockstep(&mut client, example);
    }
    // Explicit boundary: the partial batch (70 % 4 = 2 observes) publishes.
    let flushed_version = client.flush().expect("flush over the wire");
    twin.flush().expect("twin flush");
    assert_eq!(flushed_version, twin.snapshot().version());
    assert_eq!(
        server.snapshot().memory(),
        twin.snapshot().memory(),
        "streamed memory diverged from the in-process twin after flush"
    );
    eprintln!(
        "zsc_serve: {phase_one} observes + flush published v{flushed_version}, \
         memory bit-identical to the twin"
    );

    // Served answers through the socket are bit-identical to solo scoring
    // on the twin's snapshot (same memory, same model).
    let twin_snapshot = twin.snapshot();
    for example in workload.examples.iter().step_by(17) {
        let (version, served) = client.query(&example.features, None).expect("query served");
        assert_eq!(version, flushed_version);
        let expected = twin_snapshot.solo_topk(&example.features, config.top_k);
        assert_eq!(served.len(), expected.len());
        for ((sl, ss), (el, es)) in served.iter().zip(&expected) {
            assert_eq!(sl, el, "served label diverged from solo scoring");
            assert_eq!(ss.to_bits(), es.to_bits(), "served bits diverged");
        }
    }

    // A few more observes leave the server mid-batch, then the kill.
    for example in &workload.examples[phase_one..] {
        observe_lockstep(&mut client, example);
    }
    let wire_stats = client.stats().expect("stats over the wire");
    assert_eq!(wire_stats.observes, workload.examples.len() as u64);
    assert!(wire_stats.wal_bytes > 0, "durable server reports WAL bytes");
    let expected = server.snapshot();
    let expected_stream = server.stream_stats();
    eprintln!(
        "zsc_serve: killed mid-batch at v{} ({} pending, {} since publish, wal {} bytes, \
         {} records since compaction, {} drift alarms)",
        expected.version(),
        expected_stream.pending_classes,
        expected_stream.since_publish,
        wire_stats.wal_bytes,
        wire_stats.records_since_compaction,
        wire_stats.drift_alarms,
    );
    drop(client);
    net.shutdown();
    drop(net);
    drop(server); // the kill: only the WAL directory survives

    // --- torn tail + recovery ----------------------------------------------
    {
        use std::io::Write;
        let mut log = std::fs::OpenOptions::new()
            .append(true)
            .open(serve::wal::wal_path(&wal_dir))
            .expect("open log");
        log.write_all(&[0x13, 0x37, 0xAB])
            .expect("append torn tail");
    }
    let (recovered, report) = QueryServer::recover(
        schema,
        server_config,
        DurabilityConfig::new(wal_dir.clone()),
    )
    .expect("recovers");
    assert!(report.torn_tail, "the torn partial record must be detected");
    assert_eq!(report.snapshot_version, expected.version());
    assert_eq!(
        recovered.snapshot().memory(),
        expected.memory(),
        "recovered memory diverged from the pre-kill snapshot"
    );
    let recovered_stream = recovered.stream_stats();
    assert_eq!(
        recovered_stream.since_publish,
        expected_stream.since_publish
    );
    assert_eq!(
        recovered_stream.pending_classes,
        expected_stream.pending_classes
    );
    eprintln!(
        "zsc_serve: recovered past the torn tail to v{} ({} records replayed), \
         batching position intact",
        report.snapshot_version, report.replayed_records
    );

    // --- resume the stream on the recovered server ---------------------------
    // One more observe lands the interrupted batch's boundary on both
    // servers; the published memories must still agree bit-for-bit.
    let resume = &workload.examples[0];
    let resumed_published = recovered
        .observe(&labels[resume.class], &resume.features)
        .expect("recovered server observes")
        .expect("boundary publishes");
    twin.observe(&labels[resume.class], &resume.features)
        .expect("twin observes");
    assert_eq!(resumed_published.version(), twin.snapshot().version());
    assert_eq!(
        resumed_published.memory(),
        twin.snapshot().memory(),
        "post-recovery publication diverged from the uninterrupted twin"
    );
    let durability = recovered
        .durability_stats()
        .expect("recovered server is durable");
    let drift = recovered.drift_report();

    let json = format!(
        "{{\n  \"config\": {{\"classes\": {}, \"images\": {}, \"feature_dim\": {}, \
         \"epochs\": {}, \"seed\": {}, \"publish_every\": {PUBLISH_EVERY}}},\n  \
         \"train\": {{\"elapsed_s\": {:.3}, \"zs_top1\": {:.4}}},\n  \
         \"stream\": {{\"observes\": {}, \"streamed_classes\": {}, \"publishes\": {}, \
         \"drift_alarms\": {}, \"final_version\": {}}},\n  \
         \"durability\": {{\"wal_bytes\": {}, \"records_since_compaction\": {}}},\n  \
         \"recovery\": {{\"torn_tail\": {}, \"replayed_records\": {}, \
         \"snapshot_version\": {}}},\n  \
         \"checks\": {{\"lockstep_versions\": true, \"bit_identical_to_twin\": true, \
         \"resumed_after_recovery\": true}}\n}}",
        config.classes,
        config.images,
        config.feature_dim,
        config.epochs,
        config.seed,
        train_s,
        outcome.zsc.top1,
        workload.examples.len() + 1,
        drift.classes.len(),
        drift.publishes,
        drift.alarms,
        resumed_published.version(),
        durability.wal_bytes,
        durability.records_since_compaction,
        report.torn_tail,
        report.replayed_records,
        report.snapshot_version,
    );
    if config.json {
        println!("{json}");
    } else {
        eprintln!("{json}");
    }
}

fn main() {
    let config = parse_args();
    if config.recover {
        run_recovery(&config);
        return;
    }
    if config.calibrate {
        run_calibrate(&config);
        return;
    }
    if config.stream {
        run_stream(&config);
        return;
    }
    if config.net {
        match &config.net_addr {
            Some(addr) => run_net_remote(&config, addr),
            None => run_net_mode(&config),
        }
        return;
    }
    eprintln!(
        "zsc_serve: classes={} images={} feature_dim={} epochs={} queries={} callers={} \
         shards={} register={}",
        config.classes,
        config.images,
        config.feature_dim,
        config.epochs,
        config.queries,
        config.callers,
        config.shards,
        config.register
    );

    // --- train ------------------------------------------------------------
    let mut dataset_config = DatasetConfig::tiny(config.seed);
    dataset_config.num_classes = config.classes;
    dataset_config.images_per_class = config.images;
    dataset_config.feature_dim = config.feature_dim;
    let data = CubLikeDataset::generate(&dataset_config);
    let pipeline = Pipeline::new(
        ModelConfig::tiny(),
        TrainConfig::fast().with_epochs(config.epochs),
    );
    let train_start = Instant::now();
    let (outcome, model) = pipeline.run_returning_model(&data, SplitKind::Zs, config.seed);
    let train_s = train_start.elapsed().as_secs_f64();
    eprintln!("zsc_serve: trained in {train_s:.2}s, eval {}", outcome.zsc);

    // --- save → load ------------------------------------------------------
    let schema = data.schema();
    Checkpoint::capture(&model, schema)
        .save_json(&config.checkpoint)
        .expect("write checkpoint");
    let checkpoint_bytes = std::fs::metadata(&config.checkpoint)
        .map(|m| m.len())
        .unwrap_or(0);
    drop(model); // from here on, only the reloaded model exists
    let loaded = Checkpoint::load_json(&config.checkpoint).expect("reload checkpoint");
    eprintln!(
        "zsc_serve: checkpoint {} ({checkpoint_bytes} bytes) reloaded, format v{}",
        config.checkpoint.display(),
        loaded.format_version
    );

    // --- serve over the initial class set ----------------------------------
    // The last `--register` evaluation classes are held out of the initial
    // serving set and registered through the live server later.
    let split = data.split(SplitKind::Zs);
    let eval_classes = split.eval_classes();
    let eval_class_attr = data.class_attribute_matrix(eval_classes);
    let labels: Vec<String> = eval_classes
        .iter()
        .map(|c| format!("class{c:03}"))
        .collect();
    let register = config.register.min(labels.len().saturating_sub(1));
    let initial = labels.len() - register;
    let initial_labels: Vec<String> = labels[..initial].to_vec();
    let initial_attr = eval_class_attr.select_rows(&(0..initial).collect::<Vec<_>>());

    let reference_model = loaded
        .clone()
        .into_model(schema)
        .expect("checkpoint matches the schema");
    let reference_initial =
        reference_model.sharded_class_memory(initial_labels.clone(), &initial_attr, config.shards);
    let reference_full =
        reference_model.sharded_class_memory(labels.clone(), &eval_class_attr, config.shards);
    let server_config = ServerConfig {
        max_batch: config.max_batch,
        max_wait_us: config.max_wait_us,
        threads: config.threads,
        top_k: config.top_k,
        shards: config.shards,
        routed: None,
        publish_every: 1,
    };
    let server = match &config.wal_dir {
        // Durable serving: class mutations are write-ahead-logged under
        // `--wal-dir` before they are published (see `serve::wal`).
        Some(dir) => {
            let frozen = loaded
                .into_frozen(schema)
                .expect("checkpoint matches the schema");
            QueryServer::start_durable(
                frozen,
                initial_labels,
                &initial_attr,
                schema,
                server_config,
                DurabilityConfig::new(dir.clone()),
            )
            .expect("durable server starts from checkpoint")
        }
        None => QueryServer::from_checkpoint(
            loaded,
            schema,
            initial_labels,
            &initial_attr,
            server_config,
        )
        .expect("server starts from checkpoint"),
    };

    // Traffic: evaluation-side features, cycled up to the requested query
    // count and spread over caller threads.
    let (eval_x, _) = data.features_and_labels(eval_classes);
    let queries: Vec<Vec<f32>> = (0..config.queries)
        .map(|q| eval_x.row(q % eval_x.rows()).to_vec())
        .collect();
    let (serve_stats, served_initial) = run_traffic(&server, &queries, config.callers);
    let direct_stats = cross_check(
        "pre-registration",
        &reference_model,
        &reference_initial,
        &queries,
        &served_initial,
    );

    // --- register the held-out classes through the live server -------------
    let register_start = Instant::now();
    for (r, label) in labels.iter().enumerate().skip(initial) {
        let snapshot = server
            .register_class(label.clone(), eval_class_attr.row(r))
            .expect("class registers");
        eprintln!(
            "zsc_serve: registered {label} in snapshot v{} ({} classes live)",
            snapshot.version(),
            snapshot.memory().len()
        );
    }
    let register_s = register_start.elapsed().as_secs_f64();
    let final_snapshot = server.snapshot();
    assert_eq!(final_snapshot.memory().len(), labels.len());
    for label in &labels {
        assert!(
            final_snapshot.memory().contains(label),
            "{label} must be servable after registration"
        );
    }

    // --- optional kill: record ground truth, then die without cleanup ------
    if config.kill_after_register {
        let dir = config
            .wal_dir
            .as_deref()
            .expect("--kill-after-register requires --wal-dir");
        write_probe_file(dir, schema, &server, &queries, config.top_k);
        eprintln!(
            "zsc_serve: probe file written under {}; exiting hard (no destructors) to \
             simulate a crash — run again with --recover",
            dir.display()
        );
        // No Drop runs past this point: the WAL alone must carry the state.
        std::process::exit(0);
    }

    // --- re-serve: the registered classes are live, no restart -------------
    let (post_stats, served_post) = run_traffic(&server, &queries, config.callers);
    let _ = cross_check(
        "post-registration",
        &reference_model,
        &reference_full,
        &queries,
        &served_post,
    );
    let newly_served = served_post
        .iter()
        .filter(|(label, _)| labels[initial..].contains(label))
        .count();
    eprintln!(
        "zsc_serve: {newly_served}/{} post-registration top-1s resolved to a live-registered class",
        served_post.len()
    );

    let batching = server.stats();
    // Durable runs report the live WAL footprint; `null` otherwise, so the
    // document shape is stable across modes.
    let durability_json = match server.durability_stats() {
        Some(d) => format!(
            "{{\"wal_bytes\": {}, \"records_since_compaction\": {}, \"next_record_seq\": {}}}",
            d.wal_bytes, d.records_since_compaction, d.next_record_seq
        ),
        None => "null".to_string(),
    };
    let json = format!(
        "{{\n  \"config\": {{\"classes\": {}, \"images\": {}, \"feature_dim\": {}, \
         \"epochs\": {}, \"queries\": {}, \"callers\": {}, \"max_batch\": {}, \
         \"max_wait_us\": {}, \"threads\": {}, \"top_k\": {}, \"shards\": {}, \
         \"register\": {register}, \"seed\": {}}},\n  \
         \"train\": {{\"elapsed_s\": {:.3}, \"zs_top1\": {:.4}}},\n  \
         \"checkpoint\": {{\"path\": \"{}\", \"bytes\": {}}},\n  \
         \"serve\": {},\n  \
         \"register_phase\": {{\"classes\": {register}, \"elapsed_s\": {:.6}, \
         \"final_version\": {}, \"top1_hits_on_registered\": {newly_served}}},\n  \
         \"serve_post_register\": {},\n  \"direct\": {},\n  \
         \"batching\": {{\"batches\": {}, \"mean_batch\": {:.2}, \"max_batch_observed\": {}, \
         \"swaps\": {}}},\n  \"durability\": {durability_json}\n}}",
        config.classes,
        config.images,
        config.feature_dim,
        config.epochs,
        config.queries,
        config.callers,
        config.max_batch,
        config.max_wait_us,
        config.threads,
        config.top_k,
        config.shards,
        config.seed,
        train_s,
        outcome.zsc.top1,
        config.checkpoint.display(),
        checkpoint_bytes,
        serve_stats.to_json(),
        register_s,
        final_snapshot.version(),
        post_stats.to_json(),
        direct_stats.to_json(),
        batching.batches,
        batching.mean_batch(),
        batching.max_batch_observed,
        batching.swaps,
    );
    if config.json {
        println!("{json}");
    } else {
        eprintln!("{json}");
        eprintln!(
            "serve {:.0} q/s (p99 {:.0}µs, mean batch {:.1}) | post-register {:.0} q/s | \
             direct {:.0} q/s | {} swaps",
            serve_stats.qps,
            serve_stats.p99_us,
            batching.mean_batch(),
            post_stats.qps,
            direct_stats.qps,
            batching.swaps
        );
    }
}
