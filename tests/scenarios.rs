//! Scenario/golden regression harness.
//!
//! Each scenario is a seeded end-to-end script (train → serve → register
//! classes → re-query, or a pure engine mutation sequence) whose outcome is
//! rendered to a canonical JSON document and compared **byte-for-byte**
//! against a committed golden file under `tests/scenarios/golden/`. Because
//! everything in the workspace is a pure function of `(config, seed)` and
//! the engine's scoring paths are bit-identical across thread and shard
//! counts, these documents pin the system's externally visible behaviour —
//! logits, labels, metrics, snapshot versions — across releases: any future
//! PR that changes a single output bit turns up as a golden diff instead of
//! slipping through.
//!
//! ## Blessing new goldens
//!
//! When a change *intentionally* alters an outcome (or a new scenario is
//! added), regenerate the goldens with:
//!
//! ```bash
//! SCENARIO_BLESS=1 cargo test --test scenarios
//! ```
//!
//! and commit the rewritten files. Without `SCENARIO_BLESS`, a mismatch
//! fails the test and writes the actual document to
//! `target/scenario-diffs/<name>.actual.json` so CI can upload it and the
//! divergence can be inspected with any JSON diff tool.

use baselines::{DirectAttributePrediction, Eszsl, EszslConfig, GzslOutcome, RandomBaseline};
use dataset::{
    AttributeSchema, CubLikeDataset, DatasetConfig, GzslWorkload, GzslWorkloadConfig, SplitKind,
    StreamWorkload, StreamWorkloadConfig,
};
use hdc_zsc::{evaluate_gzsl, ModelConfig, Pipeline, SimilarityCalibrator, TrainConfig, ZscModel};
use serde::Value;
use serde_json::to_value;
use serve::{wal, DurabilityConfig, QueryServer, ServerConfig, SyncPolicy};
use std::path::PathBuf;
use tensor::Matrix;

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/scenarios/golden")
        .join(format!("{name}.json"))
}

fn diff_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target/scenario-diffs")
        .join(format!("{name}.actual.json"))
}

/// Renders `document` canonically and compares it against the committed
/// golden; see the module docs for the bless workflow.
fn check_golden(name: &str, document: &Value) {
    let actual = serde_json::to_string_pretty(document).expect("scenario document renders") + "\n";
    let path = golden_path(name);
    if std::env::var_os("SCENARIO_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &actual).expect("write golden");
        eprintln!("scenario `{name}`: blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "scenario `{name}`: no golden at {} ({e}); run `SCENARIO_BLESS=1 cargo test \
             --test scenarios` and commit the result",
            path.display()
        )
    });
    if actual != expected {
        let diff = diff_path(name);
        std::fs::create_dir_all(diff.parent().expect("diff dir")).expect("create diff dir");
        std::fs::write(&diff, &actual).expect("write actual document");
        // Point at the first diverging line to make CI logs useful without
        // downloading the artifact.
        let line = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .map_or(actual.lines().count().min(expected.lines().count()), |l| {
                l + 1
            });
        panic!(
            "scenario `{name}` diverged from its golden (first difference at line {line}).\n\
             golden:  {}\nactual:  {}\n\
             If the change is intentional, re-bless with `SCENARIO_BLESS=1 cargo test --test \
             scenarios` and commit the new golden.",
            path.display(),
            diff.display()
        );
    }
}

fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `(label, similarity)` pairs as a JSON array; the float similarities
/// round-trip bit-exactly through the shortest-representation formatter, so
/// a byte-equal golden pins the exact logit bits.
fn scored(top: &[(String, f32)]) -> Value {
    Value::Array(
        top.iter()
            .map(|(label, sim)| {
                object(vec![
                    ("label", to_value(&label)),
                    ("similarity", to_value(&sim)),
                ])
            })
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// Pipeline golden scenarios
// ---------------------------------------------------------------------------

/// `Pipeline::run` on the seeded synthetic dataset: the committed golden is
/// the full serialized `PipelineOutcome` (accuracies, per-group WMAP, loss
/// curves, parameter accounting), bit-exact.
fn pipeline_document(split: SplitKind, name: &str) -> Value {
    let mut config = DatasetConfig::tiny(29);
    config.num_classes = 12;
    config.images_per_class = 6;
    config.feature_dim = 48;
    let data = CubLikeDataset::generate(&config);
    let pipeline = Pipeline::new(ModelConfig::tiny(), TrainConfig::fast().with_epochs(3));
    let outcome = pipeline.run(&data, split, 1);
    object(vec![
        ("scenario", to_value(&name)),
        ("dataset_seed", to_value(&29u64)),
        ("pipeline_seed", to_value(&1u64)),
        ("split", to_value(&format!("{split:?}"))),
        ("outcome", to_value(&outcome)),
    ])
}

#[test]
fn scenario_pipeline_zs() {
    check_golden(
        "pipeline_zs",
        &pipeline_document(SplitKind::Zs, "pipeline_zs"),
    );
}

#[test]
fn scenario_pipeline_nozs() {
    check_golden(
        "pipeline_nozs",
        &pipeline_document(SplitKind::NoZs, "pipeline_nozs"),
    );
}

// ---------------------------------------------------------------------------
// Sharded memory mutation scenario
// ---------------------------------------------------------------------------

/// A pure engine script: a deterministic add/update/remove sequence against
/// a 3-shard memory at a ragged dimension, dumping shard occupancy and
/// top-k outcomes (including `k = 0` and `k` past the class count) after
/// every stage.
#[test]
fn scenario_sharded_memory_ops() {
    let dim = 70usize; // ragged: 2 words, 6 live tail bits
    let mut state = 0x5eed_cafe_f00du64;
    let mut next_signs = || -> Vec<i8> {
        (0..dim)
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
            .collect()
    };
    let mut memory = engine::ShardedClassMemory::new(dim, 3);
    let probe = engine::pack_signs(&next_signs());
    let mut stages: Vec<Value> = Vec::new();
    let mut record = |stage: &str, memory: &engine::ShardedClassMemory| {
        let shard_sizes: Vec<usize> = (0..memory.num_shards())
            .map(|s| memory.shard(s).len())
            .collect();
        let dump = |k: usize| {
            scored(
                &memory
                    .top_k(&probe, k)
                    .into_iter()
                    .map(|(label, sim)| (label.to_string(), sim))
                    .collect::<Vec<_>>(),
            )
        };
        stages.push(object(vec![
            ("stage", to_value(&stage)),
            ("classes", to_value(&memory.len())),
            ("shard_sizes", to_value(&shard_sizes)),
            ("top_0", dump(0)),
            ("top_3", dump(3)),
            ("top_all_plus_5", dump(memory.len() + 5)),
        ]));
    };
    let rows: Vec<Vec<i8>> = (0..10).map(|_| next_signs()).collect();
    for (c, row) in rows.iter().take(7).enumerate() {
        memory.add_class(format!("class{c:02}"), row);
    }
    record("seed_7_classes", &memory);
    memory.update_class("class02", &rows[7]);
    memory.update_class("class05", &rows[8]);
    record("update_2_classes", &memory);
    memory.remove_class("class01");
    memory.remove_class("class04");
    record("remove_2_classes", &memory);
    memory.add_class("class07", &rows[9]);
    memory.add_class("class02", &rows[0]); // upsert an existing label
    record("add_after_remove", &memory);
    check_golden(
        "sharded_memory_ops",
        &object(vec![
            ("scenario", to_value("sharded_memory_ops")),
            ("dim", to_value(&dim)),
            ("shards", to_value(&3usize)),
            ("stages", Value::Array(stages)),
        ]),
    );
}

// ---------------------------------------------------------------------------
// Routed index mutation scenario
// ---------------------------------------------------------------------------

/// The coarse-to-fine routed index under the same kind of deterministic
/// mutation script: adds, updates, removes, an upsert, and an explicit
/// re-cluster against a 3-cluster index at a ragged dimension. Every stage
/// dumps the cluster shape, the candidate count the probe visits under
/// partial probing (`nprobe = 2`), the partial-probe top-3, and the
/// full-probe top-3 — the latter must stay bit-identical to the exhaustive
/// scan forever, and the golden pins both alongside the routing structure
/// that produced them.
#[test]
fn scenario_routed_memory_ops() {
    let dim = 70usize; // ragged: 2 words, 6 live tail bits
    let mut state = 0x5eed_cafe_f00du64;
    let mut next_signs = || -> Vec<i8> {
        (0..dim)
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
            .collect()
    };
    let mut routed = engine::RoutedClassMemory::new(
        dim,
        engine::RoutedConfig {
            clusters: 3,
            nprobe: 2,
            ..engine::RoutedConfig::default()
        },
    );
    let mut exhaustive = engine::PackedClassMemory::new(dim);
    let probe = engine::pack_signs(&next_signs());
    let mut stages: Vec<Value> = Vec::new();
    let mut record = |stage: &str,
                      routed: &mut engine::RoutedClassMemory,
                      exhaustive: &engine::PackedClassMemory| {
        let clusters = routed.as_sharded();
        let cluster_sizes: Vec<usize> = (0..clusters.num_shards())
            .map(|c| clusters.shard(c).len())
            .collect();
        let dump = |r: &engine::RoutedClassMemory| {
            scored(
                &r.top_k(&probe, 3)
                    .into_iter()
                    .map(|(label, sim)| (label.to_string(), sim))
                    .collect::<Vec<_>>(),
            )
        };
        let partial_top = dump(routed);
        let candidates = routed.candidate_classes(&probe);
        routed.set_nprobe(0);
        let full_top = dump(routed);
        // The bit-identity contract, asserted before it is pinned: full
        // probing must agree exactly with the monolithic scan.
        let reference = scored(
            &exhaustive
                .top_k(&probe, 3)
                .into_iter()
                .map(|(index, sim)| (exhaustive.label(index).to_string(), sim))
                .collect::<Vec<_>>(),
        );
        assert_eq!(full_top, reference, "full probing diverged at `{stage}`");
        routed.set_nprobe(2);
        stages.push(object(vec![
            ("stage", to_value(&stage)),
            ("classes", to_value(&routed.len())),
            ("cluster_sizes", to_value(&cluster_sizes)),
            ("candidates_at_nprobe_2", to_value(&candidates)),
            ("top_3_partial", partial_top),
            ("top_3_full", full_top),
        ]));
    };
    let rows: Vec<Vec<i8>> = (0..10).map(|_| next_signs()).collect();
    for (c, row) in rows.iter().take(7).enumerate() {
        routed.add_class(format!("class{c:02}"), row);
        exhaustive.insert_signs(format!("class{c:02}"), row);
    }
    record("seed_7_classes", &mut routed, &exhaustive);
    routed.update_class("class02", &rows[7]);
    exhaustive.insert_signs("class02", &rows[7]);
    routed.update_class("class05", &rows[8]);
    exhaustive.insert_signs("class05", &rows[8]);
    record("update_2_classes", &mut routed, &exhaustive);
    routed.remove_class("class01");
    exhaustive.remove("class01");
    routed.remove_class("class04");
    exhaustive.remove("class04");
    record("remove_2_classes", &mut routed, &exhaustive);
    routed.add_class("class07", &rows[9]);
    exhaustive.insert_signs("class07", &rows[9]);
    routed.add_class("class02", &rows[0]); // upsert an existing label
    exhaustive.insert_signs("class02", &rows[0]);
    record("add_after_remove", &mut routed, &exhaustive);
    routed.recluster();
    record("explicit_recluster", &mut routed, &exhaustive);
    check_golden(
        "routed_memory_ops",
        &object(vec![
            ("scenario", to_value("routed_memory_ops")),
            ("dim", to_value(&dim)),
            ("clusters", to_value(&3usize)),
            ("nprobe", to_value(&2usize)),
            ("stages", Value::Array(stages)),
        ]),
    );
}

// ---------------------------------------------------------------------------
// Serve-time hot-swap scenario
// ---------------------------------------------------------------------------

/// The full online lifecycle: train → serve a subset of the evaluation
/// classes → register the held-out classes through the live server →
/// re-query → update → remove. Every response is recorded with the snapshot
/// version that served it; queries are issued sequentially so the version
/// trace is deterministic.
#[test]
fn scenario_serve_hot_swap() {
    let mut config = DatasetConfig::tiny(37);
    config.num_classes = 24;
    config.images_per_class = 6;
    config.feature_dim = 48;
    let data = CubLikeDataset::generate(&config);
    let pipeline = Pipeline::new(ModelConfig::tiny(), TrainConfig::fast().with_epochs(2));
    let (_, model) = pipeline.run_returning_model(&data, SplitKind::Zs, 2);

    let split = data.split(SplitKind::Zs);
    let eval_classes = split.eval_classes();
    let class_attr = data.class_attribute_matrix(eval_classes);
    let labels: Vec<String> = eval_classes
        .iter()
        .map(|c| format!("class{c:03}"))
        .collect();
    // Hold the last two evaluation classes out of the initial serving set.
    let initial = labels.len() - 2;
    let server = QueryServer::start(
        model,
        labels[..initial].to_vec(),
        &class_attr.select_rows(&(0..initial).collect::<Vec<_>>()),
        ServerConfig {
            max_batch: 8,
            max_wait_us: 50,
            threads: 2,
            top_k: 3,
            shards: 3,
            routed: None,
            publish_every: 1,
        },
    )
    .expect("server starts");

    let (eval_x, _) = data.features_and_labels(eval_classes);
    let queries: Vec<Vec<f32>> = (0..5).map(|q| eval_x.row(q * 3).to_vec()).collect();
    let run_queries = |server: &QueryServer| -> Value {
        Value::Array(
            queries
                .iter()
                .map(|q| {
                    let (version, top) = server.query_traced(q).expect("query served");
                    object(vec![("version", to_value(&version)), ("top", scored(&top))])
                })
                .collect(),
        )
    };

    let before = run_queries(&server);

    // Register the held-out classes through the live server.
    let mut registrations: Vec<Value> = Vec::new();
    for (r, label) in labels.iter().enumerate().skip(initial) {
        let snapshot = server
            .register_class(label.clone(), class_attr.row(r))
            .expect("class registers");
        registrations.push(object(vec![
            ("label", to_value(&label)),
            ("version", to_value(&snapshot.version())),
            ("classes_live", to_value(&snapshot.memory().len())),
        ]));
    }
    let after_register = run_queries(&server);

    // Re-point one registered class at different attributes, then drop one
    // of the original classes.
    let updated = server
        .update_class(&labels[initial], class_attr.row(0))
        .expect("class updates");
    let removed = server.remove_class(&labels[0]).expect("class removes");
    let after_mutations = run_queries(&server);

    let stats = server.stats();
    check_golden(
        "serve_hot_swap",
        &object(vec![
            ("scenario", to_value("serve_hot_swap")),
            ("dataset_seed", to_value(&37u64)),
            ("pipeline_seed", to_value(&2u64)),
            ("initial_classes", to_value(&initial)),
            ("queries_before_register", before),
            ("registrations", Value::Array(registrations)),
            ("queries_after_register", after_register),
            ("update_version", to_value(&updated.version())),
            ("remove_version", to_value(&removed.version())),
            ("queries_after_mutations", after_mutations),
            // Only deterministic counters belong in a golden: batch counts
            // depend on coalescing timing, swap counts do not.
            ("swaps", to_value(&stats.swaps)),
            ("queries_served", to_value(&stats.queries)),
        ]),
    );
}

// ---------------------------------------------------------------------------
// Crash-recovery scenario
// ---------------------------------------------------------------------------

/// The durability lifecycle as a golden: a durable server registers,
/// updates, and removes classes; the process "dies" (the WAL directory is
/// all that survives, including a torn partial record appended to simulate
/// a crash mid-append); recovery rebuilds the server and re-runs the same
/// queries. The golden pins the pre-crash traces, the recovery report, and
/// the post-recovery traces — which must carry the same snapshot version
/// and the same similarity bits, or the crash-safety contract broke.
#[test]
fn scenario_serve_crash_recovery() {
    let mut config = DatasetConfig::tiny(41);
    config.num_classes = 20;
    config.images_per_class = 6;
    config.feature_dim = 48;
    let data = CubLikeDataset::generate(&config);
    let pipeline = Pipeline::new(ModelConfig::tiny(), TrainConfig::fast().with_epochs(2));
    let (_, model) = pipeline.run_returning_model(&data, SplitKind::Zs, 3);
    let schema = data.schema();

    let split = data.split(SplitKind::Zs);
    let eval_classes = split.eval_classes();
    let class_attr = data.class_attribute_matrix(eval_classes);
    let labels: Vec<String> = eval_classes
        .iter()
        .map(|c| format!("class{c:03}"))
        .collect();
    let initial = labels.len() - 2;
    let server_config = ServerConfig {
        max_batch: 8,
        max_wait_us: 50,
        threads: 2,
        top_k: 3,
        shards: 3,
        routed: None,
        publish_every: 1,
    };
    // The WAL directory is scratch state, not part of the golden.
    let wal_dir = std::env::temp_dir().join(format!("zsc-scenario-crash-{}", std::process::id()));
    std::fs::remove_dir_all(&wal_dir).ok();
    let server = QueryServer::start_durable(
        model,
        labels[..initial].to_vec(),
        &class_attr.select_rows(&(0..initial).collect::<Vec<_>>()),
        schema,
        server_config,
        DurabilityConfig {
            dir: wal_dir.clone(),
            sync: SyncPolicy::Always,
            // Compaction off keeps the replayed-record count (and with it
            // this golden) a pure function of the mutation script.
            compact_every: 0,
        },
    )
    .expect("durable server starts");

    let (eval_x, _) = data.features_and_labels(eval_classes);
    let queries: Vec<Vec<f32>> = (0..5).map(|q| eval_x.row(q * 3).to_vec()).collect();
    let run_queries = |server: &QueryServer| -> Value {
        Value::Array(
            queries
                .iter()
                .map(|q| {
                    let (version, top) = server.query_traced(q).expect("query served");
                    object(vec![("version", to_value(&version)), ("top", scored(&top))])
                })
                .collect(),
        )
    };

    // The mutation script: register the held-out classes, re-point one,
    // drop one of the originals. Four WAL records.
    for (r, label) in labels.iter().enumerate().skip(initial) {
        server
            .register_class(label.clone(), class_attr.row(r))
            .expect("class registers");
    }
    server
        .update_class(&labels[initial], class_attr.row(0))
        .expect("class updates");
    server.remove_class(&labels[0]).expect("class removes");
    let before_crash = run_queries(&server);
    drop(server); // the crash: only the WAL directory survives

    // A torn partial record after the last acknowledged one — the signature
    // of dying mid-append. Recovery must flag and ignore it.
    {
        use std::io::Write;
        let mut log = std::fs::OpenOptions::new()
            .append(true)
            .open(wal::wal_path(&wal_dir))
            .expect("open log");
        log.write_all(&[0x13, 0x37, 0xAB])
            .expect("append torn bytes");
    }

    let (recovered, report) = QueryServer::recover(
        schema,
        server_config,
        DurabilityConfig {
            dir: wal_dir.clone(),
            sync: SyncPolicy::Always,
            compact_every: 0,
        },
    )
    .expect("recovers");
    let after_recovery = run_queries(&recovered);
    drop(recovered);
    std::fs::remove_dir_all(&wal_dir).ok();

    check_golden(
        "serve_crash_recovery",
        &object(vec![
            ("scenario", to_value("serve_crash_recovery")),
            ("dataset_seed", to_value(&41u64)),
            ("pipeline_seed", to_value(&3u64)),
            ("initial_classes", to_value(&initial)),
            ("queries_before_crash", before_crash),
            (
                "recovery",
                object(vec![
                    ("snapshot_version", to_value(&report.snapshot_version)),
                    ("replayed_records", to_value(&report.replayed_records)),
                    ("torn_tail", to_value(&report.torn_tail)),
                ]),
            ),
            ("queries_after_recovery", after_recovery),
        ]),
    );
}

// ---------------------------------------------------------------------------
// Generalized zero-shot evaluation scenario
// ---------------------------------------------------------------------------

/// GZSL on the attribute-level synthetic workload, as a golden: the HDC
/// model's seen/unseen/H report ([`evaluate_gzsl`]), the rejection
/// threshold a [`SimilarityCalibrator`] fits on the known-query logits
/// (pinned as raw `f32` bits) with the open-set metrics it induces, and
/// the H-metric comparison against the ESZSL, DAP, and random-prior
/// baselines on the same workload. The drill model runs without the FC
/// projection, so query feature rows are the attribute-encoder embeddings
/// of the workload's query attribute vectors — both sides of every cosine
/// live in one hypervector space and the whole document is a pure
/// function of the seeds.
#[test]
fn scenario_gzsl_eval() {
    let schema = AttributeSchema::cub200();
    let workload = GzslWorkload::generate(&GzslWorkloadConfig {
        classes: 10,
        unseen: 3,
        attribute_dim: schema.num_attributes(),
        queries: 60,
        distractors: 12,
        noise: 0.35,
        seed: 0x675a_0001,
    });
    let model = ZscModel::new(
        &ModelConfig::tiny().with_projection(false).with_seed(7),
        &schema,
        48,
    );
    let class_attr = Matrix::from_rows(&workload.class_attributes);
    let query_attr = Matrix::from_rows(&workload.query_attributes);
    let query_embeddings = model.attribute_encoder().infer_classes(&query_attr);
    let known_indices: Vec<usize> = (0..workload.query_class.len())
        .filter(|&q| workload.query_class[q].is_some())
        .collect();
    let known_targets: Vec<usize> = known_indices
        .iter()
        .map(|&q| workload.query_class[q].expect("known query"))
        .collect();

    // The HDC model under the generalized protocol.
    let gzsl = evaluate_gzsl(
        &model,
        &query_embeddings.select_rows(&known_indices),
        &known_targets,
        &class_attr,
        &workload.unseen,
    );

    // Open-set calibration on the known-query top-1 logits, then the
    // rejection metrics the fitted threshold induces over the full mixed
    // batch (knowns + distractors).
    let logits = model.class_logits(&query_embeddings, &class_attr);
    let top1: Vec<f32> = (0..logits.rows())
        .map(|q| {
            logits
                .row(q)
                .iter()
                .copied()
                .fold(f32::NEG_INFINITY, f32::max)
        })
        .collect();
    let known_flags: Vec<bool> = workload.query_class.iter().map(Option::is_some).collect();
    let known_top1: Vec<f32> = known_indices.iter().map(|&q| top1[q]).collect();
    let calibration = SimilarityCalibrator::new(0.1).fit(&known_top1);
    let rejection = metrics::rejection_report(&top1, &known_flags, calibration.threshold);
    let auroc = metrics::auroc(&top1, &known_flags).expect("both partitions are populated");

    // The same workload through the baselines: trained on the raw
    // attribute rows of the *seen*-class queries (the unseen classes are
    // the last indices, so seen targets already index the seen signature
    // block), scored over the union class set.
    let seen_count = workload.seen_classes().len();
    let train_indices: Vec<usize> = known_indices
        .iter()
        .copied()
        .filter(|&q| workload.query_class[q].expect("known query") < seen_count)
        .collect();
    let train_x = query_attr.select_rows(&train_indices);
    let train_targets: Vec<usize> = train_indices
        .iter()
        .map(|&q| workload.query_class[q].expect("known query"))
        .collect();
    let seen_signatures = class_attr.select_rows(&(0..seen_count).collect::<Vec<_>>());
    let eval_x = query_attr.select_rows(&known_indices);

    let eszsl = Eszsl::fit(
        &train_x,
        &train_targets,
        &seen_signatures,
        &EszslConfig::default(),
    );
    let eszsl_outcome = GzslOutcome::from_scores(
        &eszsl.scores(&eval_x, &class_attr),
        &known_targets,
        &workload.unseen,
    );
    let attribute_targets = Matrix::from_rows(
        &train_targets
            .iter()
            .map(|&c| workload.class_attributes[c].clone())
            .collect::<Vec<_>>(),
    );
    let dap = DirectAttributePrediction::fit(&train_x, &attribute_targets, 0.1);
    let dap_outcome = GzslOutcome::from_scores(
        &dap.class_scores(&eval_x, &class_attr),
        &known_targets,
        &workload.unseen,
    );
    let random_outcome = GzslOutcome::from_predictions(
        &RandomBaseline::new(workload.labels.len(), 11).predict(known_targets.len()),
        &known_targets,
        &workload.unseen,
    );
    let outcome = |o: &GzslOutcome| {
        object(vec![
            ("seen", to_value(&o.seen)),
            ("unseen", to_value(&o.unseen)),
            ("harmonic", to_value(&o.harmonic)),
        ])
    };

    check_golden(
        "gzsl_eval",
        &object(vec![
            ("scenario", to_value("gzsl_eval")),
            ("workload_seed", to_value(&0x675a_0001u64)),
            ("model_seed", to_value(&7u64)),
            ("classes", to_value(&workload.labels.len())),
            ("unseen_classes", to_value(&workload.unseen_classes())),
            ("gzsl", to_value(&gzsl)),
            (
                "calibration",
                object(vec![
                    (
                        "target_false_reject",
                        to_value(&calibration.target_false_reject),
                    ),
                    ("threshold", to_value(&calibration.threshold)),
                    ("threshold_bits", to_value(&calibration.threshold.to_bits())),
                ]),
            ),
            (
                "open_set",
                object(vec![
                    ("rejected", to_value(&rejection.rejected)),
                    (
                        "precision",
                        rejection.precision.map_or(Value::Null, |p| to_value(&p)),
                    ),
                    (
                        "recall",
                        rejection.recall.map_or(Value::Null, |r| to_value(&r)),
                    ),
                    (
                        "false_reject_rate",
                        rejection
                            .false_reject_rate
                            .map_or(Value::Null, |f| to_value(&f)),
                    ),
                    ("auroc", to_value(&auroc)),
                ]),
            ),
            (
                "baselines",
                object(vec![
                    ("eszsl", outcome(&eszsl_outcome)),
                    ("dap", outcome(&dap_outcome)),
                    ("random_prior", outcome(&random_outcome)),
                ]),
            ),
        ]),
    );
}

// ---------------------------------------------------------------------------
// Open-set serving scenario
// ---------------------------------------------------------------------------

/// Serve-time open-set rejection as a golden, on a **routed durable**
/// server: register classes, calibrate a threshold on served similarities
/// and install it live (`set_threshold`, one WAL record + one snapshot
/// swap), trace the verdicts, then crash with a torn WAL tail and
/// recover. The golden pins the verdict traces before and after
/// calibration, the fitted threshold bits, the recovery report, and the
/// post-recovery traces — which must reproduce the pre-crash threshold
/// and verdicts bit-for-bit. Full-probe routed answers are asserted
/// bit-identical to the exhaustive sharded scan before anything is
/// pinned.
#[test]
fn scenario_open_set_serve() {
    let mut config = DatasetConfig::tiny(43);
    config.num_classes = 20;
    config.images_per_class = 6;
    config.feature_dim = 48;
    let data = CubLikeDataset::generate(&config);
    let pipeline = Pipeline::new(ModelConfig::tiny(), TrainConfig::fast().with_epochs(2));
    let (_, model) = pipeline.run_returning_model(&data, SplitKind::Zs, 4);
    let schema = data.schema();

    let split = data.split(SplitKind::Zs);
    let eval_classes = split.eval_classes();
    let class_attr = data.class_attribute_matrix(eval_classes);
    let labels: Vec<String> = eval_classes
        .iter()
        .map(|c| format!("class{c:03}"))
        .collect();
    let initial = labels.len() - 2;
    let server_config = ServerConfig {
        max_batch: 8,
        max_wait_us: 50,
        threads: 2,
        top_k: 3,
        shards: 3,
        routed: Some(engine::RoutedConfig {
            clusters: 3,
            nprobe: 2,
            ..engine::RoutedConfig::default()
        }),
        publish_every: 1,
    };
    let wal_dir =
        std::env::temp_dir().join(format!("zsc-scenario-open-set-{}", std::process::id()));
    std::fs::remove_dir_all(&wal_dir).ok();
    let server = QueryServer::start_durable(
        model,
        labels[..initial].to_vec(),
        &class_attr.select_rows(&(0..initial).collect::<Vec<_>>()),
        schema,
        server_config,
        DurabilityConfig {
            dir: wal_dir.clone(),
            sync: SyncPolicy::Always,
            compact_every: 0,
        },
    )
    .expect("durable server starts");

    let (eval_x, _) = data.features_and_labels(eval_classes);
    let queries: Vec<Vec<f32>> = (0..5).map(|q| eval_x.row(q * 3).to_vec()).collect();
    let run_queries = |server: &QueryServer| -> Value {
        Value::Array(
            queries
                .iter()
                .map(|q| {
                    let (version, top, verdict) =
                        server.query_with_verdict(q).expect("query served");
                    object(vec![
                        ("version", to_value(&version)),
                        (
                            "verdict",
                            verdict.map_or(Value::Null, |v| to_value(&v.to_string())),
                        ),
                        ("top", scored(&top)),
                    ])
                })
                .collect(),
        )
    };

    // Register the held-out classes (two WAL records), then trace the
    // uncalibrated verdicts: all null.
    for (r, label) in labels.iter().enumerate().skip(initial) {
        server
            .register_class(label.clone(), class_attr.row(r))
            .expect("class registers");
    }
    let before_calibration = run_queries(&server);

    // Calibrate on the served top-1 similarities at a 25% target
    // false-reject rate — deliberately coarse so the trace shows both
    // verdicts — and install the threshold live (one more WAL record).
    let sims: Vec<f32> = queries
        .iter()
        .map(|q| server.query(q).expect("query served")[0].1)
        .collect();
    let calibration = SimilarityCalibrator::new(0.25).fit(&sims);
    let calibrated = server
        .set_threshold(calibration.threshold)
        .expect("threshold installs");
    let after_calibration = run_queries(&server);

    // The routed bit-identity contract, asserted before it is pinned:
    // full probing must agree exactly with an exhaustive scan of a packed
    // memory built independently from the snapshot's class words.
    let snapshot = server.snapshot();
    let mut full = snapshot.routed().expect("routed server").clone();
    full.set_nprobe(0);
    let mut exhaustive = engine::PackedClassMemory::new(snapshot.memory().dim());
    for label in snapshot.memory().labels() {
        let words = full
            .class_words(label)
            .expect("routed index holds the label");
        exhaustive.insert_packed(label, words);
    }
    for (q, features) in queries.iter().enumerate() {
        let embedding = snapshot
            .model()
            .embed_images(&Matrix::from_rows(std::slice::from_ref(features)));
        let packed = engine::pack_float_signs(embedding.row(0));
        let routed_bits: Vec<(String, u32)> = full
            .top_k(&packed, 3)
            .into_iter()
            .map(|(label, sim)| (label.to_string(), sim.to_bits()))
            .collect();
        let exhaustive_bits: Vec<(String, u32)> = exhaustive
            .top_k(&packed, 3)
            .into_iter()
            .map(|(row, sim)| (exhaustive.label(row).to_string(), sim.to_bits()))
            .collect();
        assert_eq!(
            routed_bits, exhaustive_bits,
            "query {q}: full-probe routed answers diverged from the exhaustive scan"
        );
    }
    drop(server); // the crash: only the WAL directory survives

    // A torn partial record after the last acknowledged one; recovery
    // must flag and ignore it — and still carry the threshold.
    {
        use std::io::Write;
        let mut log = std::fs::OpenOptions::new()
            .append(true)
            .open(wal::wal_path(&wal_dir))
            .expect("open log");
        log.write_all(&[0x13, 0x37, 0xAB])
            .expect("append torn bytes");
    }
    let (recovered, report) = QueryServer::recover(
        schema,
        server_config,
        DurabilityConfig {
            dir: wal_dir.clone(),
            sync: SyncPolicy::Always,
            compact_every: 0,
        },
    )
    .expect("recovers");
    let recovered_threshold = recovered
        .snapshot()
        .threshold()
        .expect("threshold survives recovery");
    assert_eq!(
        recovered_threshold.to_bits(),
        calibration.threshold.to_bits(),
        "recovery must restore the calibrated threshold bit-exactly"
    );
    let after_recovery = run_queries(&recovered);
    drop(recovered);
    std::fs::remove_dir_all(&wal_dir).ok();

    check_golden(
        "open_set_serve",
        &object(vec![
            ("scenario", to_value("open_set_serve")),
            ("dataset_seed", to_value(&43u64)),
            ("pipeline_seed", to_value(&4u64)),
            ("initial_classes", to_value(&initial)),
            ("queries_before_calibration", before_calibration),
            (
                "calibration",
                object(vec![
                    (
                        "target_false_reject",
                        to_value(&calibration.target_false_reject),
                    ),
                    ("threshold", to_value(&calibration.threshold)),
                    ("threshold_bits", to_value(&calibration.threshold.to_bits())),
                    ("set_version", to_value(&calibrated.version())),
                ]),
            ),
            ("queries_after_calibration", after_calibration),
            (
                "recovery",
                object(vec![
                    ("snapshot_version", to_value(&report.snapshot_version)),
                    ("replayed_records", to_value(&report.replayed_records)),
                    ("torn_tail", to_value(&report.torn_tail)),
                    ("threshold_bits", to_value(&recovered_threshold.to_bits())),
                ]),
            ),
            ("queries_after_recovery", after_recovery),
        ]),
    );
}

// ---------------------------------------------------------------------------
// Streaming continual-learning scenario
// ---------------------------------------------------------------------------

/// The streaming continual-learning lifecycle as a golden: a durable server
/// registers two held-out classes, folds a concept-drifting labeled example
/// stream into exact per-class counters (`observe`) with batched publication
/// (`publish_every: 4`), flushes mid-stream, then dies mid-batch with a torn
/// WAL tail; recovery replays the observation log and the stream resumes to
/// its end. The golden pins the publication-boundary versions, the stream
/// and drift counters at every stage, the recovery report, and the served
/// traces after the final flush — and before anything is pinned, the
/// recovered server's memory is asserted bit-identical to an uninterrupted
/// non-durable twin that consumed the same stream, which is the exactness
/// contract of the counter representation.
#[test]
fn scenario_stream_learn() {
    let mut config = DatasetConfig::tiny(47);
    config.num_classes = 20;
    config.images_per_class = 6;
    config.feature_dim = 48;
    let data = CubLikeDataset::generate(&config);
    let pipeline = Pipeline::new(ModelConfig::tiny(), TrainConfig::fast().with_epochs(2));
    let (_, model) = pipeline.run_returning_model(&data, SplitKind::Zs, 5);
    let schema = data.schema();

    let split = data.split(SplitKind::Zs);
    let eval_classes = split.eval_classes();
    let class_attr = data.class_attribute_matrix(eval_classes);
    let labels: Vec<String> = eval_classes
        .iter()
        .map(|c| format!("class{c:03}"))
        .collect();
    let initial = labels.len() - 2;
    let server_config = ServerConfig {
        max_batch: 8,
        max_wait_us: 50,
        threads: 2,
        top_k: 3,
        shards: 3,
        routed: None,
        // Batched publication: every 4th observation re-signs the pending
        // classes into one snapshot swap.
        publish_every: 4,
    };
    let wal_dir = std::env::temp_dir().join(format!("zsc-scenario-stream-{}", std::process::id()));
    std::fs::remove_dir_all(&wal_dir).ok();
    let durability = || DurabilityConfig {
        dir: wal_dir.clone(),
        sync: SyncPolicy::Always,
        // Compaction off keeps the replayed-record count (and with it this
        // golden) a pure function of the observation script.
        compact_every: 0,
    };
    let frozen = model.freeze();
    let server = QueryServer::start_durable(
        frozen.clone(),
        labels[..initial].to_vec(),
        &class_attr.select_rows(&(0..initial).collect::<Vec<_>>()),
        schema,
        server_config,
        durability(),
    )
    .expect("durable server starts");

    // Register the held-out classes (two WAL records), then stream into
    // them plus one original class: the continual-learning verbs run
    // against both freshly registered and long-standing prototypes.
    for (r, label) in labels.iter().enumerate().skip(initial) {
        server
            .register_class(label.clone(), class_attr.row(r))
            .expect("class registers");
    }
    let streamed: [&String; 3] = [&labels[initial], &labels[initial + 1], &labels[0]];

    // The concept-drift stream; pure in its config, so the durable run and
    // the uninterrupted twin consume bit-identical examples.
    let workload = StreamWorkload::generate(&StreamWorkloadConfig {
        classes: streamed.len(),
        feature_dim: 48,
        steps: 9,
        examples_per_step: 3,
        drift: 0.25,
        noise: 0.05,
        seed: 4747,
    });
    assert_eq!(workload.examples.len(), 27);
    let observe = |server: &QueryServer, index: usize| -> Option<u64> {
        let example = &workload.examples[index];
        server
            .observe(streamed[example.class], &example.features)
            .expect("observe accepted")
            .map(|snapshot| snapshot.version())
    };
    let stream_stats_value = |server: &QueryServer| -> Value {
        let stats = server.stream_stats();
        object(vec![
            ("observes", to_value(&stats.observes)),
            ("pending_classes", to_value(&stats.pending_classes)),
            ("since_publish", to_value(&stats.since_publish)),
            ("publishes", to_value(&stats.publishes)),
            ("drift_alarms", to_value(&stats.drift_alarms)),
        ])
    };

    // Part A: 14 observations (boundaries at 4, 8, 12) and an explicit
    // flush publishing the 2 left pending.
    let boundary_versions: Vec<Value> = (0..14)
        .filter_map(|i| observe(&server, i))
        .map(|v| to_value(&v))
        .collect();
    let flushed = server.flush().expect("flush publishes").version();

    // Part B: 5 more observations (boundary at the 4th), leaving one
    // observation pending — the server dies mid-batch.
    let mut part_b_boundaries = 0u64;
    for i in 14..19 {
        if observe(&server, i).is_some() {
            part_b_boundaries += 1;
        }
    }
    assert_eq!(part_b_boundaries, 1, "observes 14..18 land one boundary");
    let stats_before_crash = stream_stats_value(&server);
    let version_at_crash = server.snapshot().version();
    drop(server); // the crash: only the WAL directory survives

    // A torn partial record after the last acknowledged one — dying
    // mid-append. Recovery must flag and ignore it.
    {
        use std::io::Write;
        let mut log = std::fs::OpenOptions::new()
            .append(true)
            .open(wal::wal_path(&wal_dir))
            .expect("open log");
        log.write_all(&[0x13, 0x37, 0xAB])
            .expect("append torn bytes");
    }
    let (recovered, report) =
        QueryServer::recover(schema, server_config, durability()).expect("recovers");
    assert!(report.torn_tail, "the torn tail must be detected");
    assert_eq!(
        recovered.snapshot().version(),
        version_at_crash,
        "recovery must land on the pre-crash version"
    );
    let stats_after_recovery = stream_stats_value(&recovered);

    // Part C: the stream resumes where it left off — the recovered batching
    // state machine places the next boundaries exactly where an
    // uninterrupted run would — and a final flush publishes the tail.
    for i in 19..27 {
        observe(&recovered, i);
    }
    let final_version = recovered.flush().expect("final flush").version();

    // The uninterrupted twin: same model, same registration script, same
    // stream, same flush positions, no crash. Exact online updates mean the
    // recovered server's memory is bit-identical to it.
    let twin = QueryServer::start(
        frozen,
        labels[..initial].to_vec(),
        &class_attr.select_rows(&(0..initial).collect::<Vec<_>>()),
        server_config,
    )
    .expect("twin starts");
    for (r, label) in labels.iter().enumerate().skip(initial) {
        twin.register_class(label.clone(), class_attr.row(r))
            .expect("twin registers");
    }
    for i in 0..14 {
        observe(&twin, i);
    }
    twin.flush().expect("twin mid-stream flush");
    for i in 14..27 {
        observe(&twin, i);
    }
    let twin_final = twin.flush().expect("twin final flush");
    let recovered_final = recovered.snapshot();
    assert_eq!(
        twin_final.version(),
        final_version,
        "the twin must publish the same version chronology"
    );
    assert!(
        recovered_final.memory() == twin_final.memory(),
        "recovered stream must be bit-identical to the uninterrupted twin"
    );
    drop(twin);

    // Served traces after the final flush: the model's own eval rows plus
    // the last step's drifted stream rows.
    let (eval_x, _) = data.features_and_labels(eval_classes);
    let mut queries: Vec<Vec<f32>> = (0..4).map(|q| eval_x.row(q * 3).to_vec()).collect();
    queries.extend(workload.examples[24..27].iter().map(|e| e.features.clone()));
    let final_queries = Value::Array(
        queries
            .iter()
            .map(|q| {
                let (version, top) = recovered.query_traced(q).expect("query served");
                object(vec![("version", to_value(&version)), ("top", scored(&top))])
            })
            .collect(),
    );
    let final_stats = stream_stats_value(&recovered);
    let drift = recovered.drift_report();
    let drift_classes = Value::Array(
        drift
            .classes
            .iter()
            .map(|class| {
                object(vec![
                    ("label", to_value(&class.label)),
                    ("publishes", to_value(&class.publishes)),
                    ("last_displacement", to_value(&class.last_displacement)),
                    ("mean_displacement", to_value(&class.mean_displacement)),
                    ("alarms", to_value(&class.alarms)),
                    ("drifted", to_value(&class.drifted)),
                ])
            })
            .collect(),
    );
    drop(recovered);
    std::fs::remove_dir_all(&wal_dir).ok();

    check_golden(
        "stream_learn",
        &object(vec![
            ("scenario", to_value("stream_learn")),
            ("dataset_seed", to_value(&47u64)),
            ("pipeline_seed", to_value(&5u64)),
            ("initial_classes", to_value(&initial)),
            (
                "streamed_labels",
                Value::Array(streamed.iter().map(|l| to_value(&l)).collect()),
            ),
            ("publish_every", to_value(&4u64)),
            (
                "stream",
                object(vec![
                    ("examples", to_value(&27u64)),
                    ("boundary_versions", Value::Array(boundary_versions)),
                    ("flush_version", to_value(&flushed)),
                    ("version_at_crash", to_value(&version_at_crash)),
                    ("stats_before_crash", stats_before_crash),
                ]),
            ),
            (
                "recovery",
                object(vec![
                    ("snapshot_version", to_value(&report.snapshot_version)),
                    ("replayed_records", to_value(&report.replayed_records)),
                    ("torn_tail", to_value(&report.torn_tail)),
                    ("stats_after_recovery", stats_after_recovery),
                ]),
            ),
            (
                "resumed",
                object(vec![
                    ("final_version", to_value(&final_version)),
                    ("twin_bit_identical", to_value(&true)),
                    ("stats", final_stats),
                ]),
            ),
            (
                "drift",
                object(vec![
                    ("publishes", to_value(&drift.publishes)),
                    ("alarms", to_value(&drift.alarms)),
                    ("classes", drift_classes),
                ]),
            ),
            ("queries_after_final_flush", final_queries),
        ]),
    );
}
