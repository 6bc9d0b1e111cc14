//! End-to-end train-once / serve-many driver, including serve-time class
//! registration.
//!
//! Exercises the full deployment lifecycle on a synthetic CUB-like dataset:
//!
//! 1. **train** — `Pipeline::run_returning_model` (the returned model is the
//!    exact model behind the reported outcome);
//! 2. **save** — `ModelFile::encode` + `ModelFile::save`, one binary model
//!    file in the `--checkpoint` directory;
//! 3. **load** — `ModelFile::load` into a fresh model object;
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
//! With `--wal-dir PATH` the server runs durable: every live registration
//! is write-ahead-logged before it is published, and the report's
//! `durability` object carries the WAL, base-record and model-file sizes
//! and the last compaction's wall time. `PATH` then holds `wal.log` and one
//! `model-<fingerprint>.bin`; it must not already hold a `wal.log` (recover
//! such a directory with [`serve::QueryServer::recover`], or remove it).
//!
//! ```text
//! zsc_serve [--classes N] [--images N] [--feature-dim N] [--epochs N]
//!           [--queries N] [--callers N] [--max-batch N] [--max-wait-us N]
//!           [--threads N] [--top-k K] [--shards N] [--register N]
//!           [--seed N] [--checkpoint DIR] [--wal-dir PATH] [--quick] [--json]
//! ```

use dataset::{CubLikeDataset, DatasetConfig, SplitKind};
use engine::ShardedClassMemory;
use hdc_zsc::{ModelConfig, ModelFile, Pipeline, TrainConfig, ZscModel};
use metrics::LatencySummary;
use serve::{DurabilityConfig, QueryServer, ScoredLabel, ServerConfig};
use std::sync::Mutex;
use std::time::Instant;
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
            checkpoint: std::env::temp_dir().join("zsc_serve_checkpoint"),
            wal_dir: None,
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
            }
            "--json" => config.json = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: zsc_serve [--classes N] [--images N] [--feature-dim N] [--epochs N] \
                     [--queries N] [--callers N] [--max-batch N] [--max-wait-us N] [--threads N] \
                     [--top-k K] [--shards N] [--register N] [--seed N] [--checkpoint DIR] \
                     [--wal-dir PATH] [--quick] [--json]"
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
        let (direct_label, direct_sim) = *reference_memory
            .top_k(&packed, 1)
            .first()
            .expect("non-empty memory");
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

fn main() {
    let config = parse_args();
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
    // `--checkpoint` names the directory the model file is written into,
    // under its content-derived name.
    let schema = data.schema();
    let file = ModelFile::encode(&model, schema);
    std::fs::create_dir_all(&config.checkpoint).expect("create checkpoint directory");
    file.save(&config.checkpoint).expect("write model file");
    let checkpoint_path = config.checkpoint.join(file.name());
    let checkpoint_bytes = file.bytes().len();
    let name = file.name().to_string();
    drop((model, file)); // from here on, only the reloaded model exists
    let loaded = ModelFile::load(&config.checkpoint, &name, schema).expect("reload model file");
    eprintln!(
        "zsc_serve: model file {} ({checkpoint_bytes} bytes) reloaded",
        checkpoint_path.display()
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

    let reference_model = loaded.clone();
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
        Some(dir) => QueryServer::start_durable(
            loaded,
            initial_labels,
            &initial_attr,
            schema,
            server_config,
            DurabilityConfig::new(dir.clone()),
        )
        .expect("durable server starts from the model file"),
        None => QueryServer::start(loaded, initial_labels, &initial_attr, server_config)
            .expect("server starts from the model file"),
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
            "{{\"wal_bytes\": {}, \"records_since_compaction\": {}, \"next_record_seq\": {}, \
             \"base_bytes\": {}, \"model_bytes\": {}, \"last_compaction_us\": {}}}",
            d.wal_bytes,
            d.records_since_compaction,
            d.next_record_seq,
            d.base_bytes,
            d.model_bytes,
            d.last_compaction_us
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
        checkpoint_path.display(),
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
