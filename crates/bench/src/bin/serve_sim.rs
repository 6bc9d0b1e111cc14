//! Serving-traffic simulator for the batched inference engine.
//!
//! Simulates sustained nearest-class query traffic against an associative
//! class memory and reports throughput and latency percentiles for two
//! paths:
//!
//! * `scalar` — the pre-engine reference: one query at a time, a scalar
//!   `i8` cosine scan over every bipolar prototype;
//! * `batched_1t` — `topk_batch(batch, 1)` on a one-shard
//!   [`engine::ShardedClassMemory`], the lookup the serving layer runs, on a
//!   single thread (this is what the CI `perf-smoke` floor is asserted
//!   against, so the gate does not depend on runner core counts). Its best
//!   similarities are cross-checked bit-identical against the scalar scan.
//!
//! Output is a single JSON object on stdout (diagnostics go to stderr), so
//! CI can archive it as an artifact and enforce `--min-speedup`.
//!
//! ```text
//! serve_sim [--dim N] [--classes N] [--batch N] [--batches N]
//!           [--seed N] [--noise P] [--quick] [--json] [--min-speedup X]
//! ```
//!
//! `--quick` selects a small but representative workload (dim 8192,
//! 200 classes) for CI; `--min-speedup X` exits non-zero if the
//! single-thread batched throughput is below `X ×` the scalar throughput.
//! Flags the chosen tier does not read (`--min-speedup` under
//! `--index routed`; the routed flags below otherwise) are rejected rather
//! than ignored.
//!
//! # Routed tier (`--index routed`)
//!
//! `--index routed` switches to the **large-label-space** tier: a seeded
//! clustered workload from [`dataset::workload`] (the same generator the
//! engine's routed-index tests pin their recall numbers on) is scored
//! through both the exhaustive engine path (a one-shard
//! [`engine::ShardedClassMemory`]) and an
//! [`engine::RoutedClassMemory`] probing `--nprobe` of `--clusters`
//! clusters (defaults: `⌈√classes⌉` clusters, `⌈√clusters⌉` probes). The
//! report adds the sub-linearity numbers: mean candidate fraction,
//! recall@1 / recall@10 against the exhaustive scorer, the
//! routed-vs-exhaustive speedup, and the same agreement measured over an
//! open-set batch of distractor queries that match no class (the GZSL
//! workload's off-distribution half — a shortlist that only holds up
//! on-distribution shows up here first). `--max-candidate-fraction X` exits
//! non-zero if the shortlist is not sub-linear enough — the CI gate at
//! `--classes 100000`. The scalar reference scan is skipped in this tier
//! (it would take minutes at 100k classes and pins nothing new).

use dataset::workload::{SyntheticWorkload, WorkloadConfig};
use engine::{
    PackedClassMemory, PackedQueryBatch, RoutedClassMemory, RoutedConfig, ShardedClassMemory,
};
use hdc::BipolarHypervector;
use metrics::LatencySummary;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Workload and reporting configuration parsed from the command line.
#[derive(Debug, Clone)]
struct Config {
    dim: usize,
    classes: usize,
    batch: usize,
    batches: usize,
    seed: u64,
    noise: f64,
    json: bool,
    min_speedup: Option<f64>,
    /// `"exhaustive"` (default) or `"routed"` — the large-label-space tier.
    index: String,
    /// Routed tier: coarse cluster count (`0` = `⌈√classes⌉`).
    clusters: usize,
    /// Routed tier: probed clusters per query (`None` = `⌈√clusters⌉`,
    /// `Some(0)` = probe all).
    nprobe: Option<usize>,
    /// Routed tier: exit non-zero when the mean candidate fraction reaches
    /// this value.
    max_candidate_fraction: Option<f64>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            dim: 8192,
            classes: 200,
            batch: 64,
            batches: 48,
            seed: 42,
            noise: 0.2,
            json: false,
            min_speedup: None,
            index: "exhaustive".to_string(),
            clusters: 0,
            nprobe: None,
            max_candidate_fraction: None,
        }
    }
}

fn parse_args() -> Config {
    let mut config = Config::default();
    let mut args = std::env::args().skip(1);
    let mut given = Vec::new();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> String {
            args.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match arg.as_str() {
            "--dim" => config.dim = value("--dim").parse().expect("--dim"),
            "--classes" => config.classes = value("--classes").parse().expect("--classes"),
            "--batch" => config.batch = value("--batch").parse().expect("--batch"),
            "--batches" => config.batches = value("--batches").parse().expect("--batches"),
            "--seed" => config.seed = value("--seed").parse().expect("--seed"),
            "--noise" => config.noise = value("--noise").parse().expect("--noise"),
            "--quick" => {
                // Small but representative CI workload: the acceptance shape
                // (dim 8192 / 200 classes) with fewer batches.
                config.dim = 8192;
                config.classes = 200;
                config.batch = 32;
                config.batches = 12;
            }
            "--json" => config.json = true,
            "--min-speedup" => {
                config.min_speedup = Some(value("--min-speedup").parse().expect("--min-speedup"));
            }
            "--index" => config.index = value("--index"),
            "--clusters" => config.clusters = value("--clusters").parse().expect("--clusters"),
            "--nprobe" => config.nprobe = Some(value("--nprobe").parse().expect("--nprobe")),
            "--max-candidate-fraction" => {
                config.max_candidate_fraction = Some(
                    value("--max-candidate-fraction")
                        .parse()
                        .expect("--max-candidate-fraction"),
                );
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: serve_sim [--dim N] [--classes N] [--batch N] [--batches N] \
                     [--seed N] [--noise P] [--quick] [--json] [--min-speedup X] \
                     [--index exhaustive|routed] [--clusters K] [--nprobe P] \
                     [--max-candidate-fraction X]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument {other}"),
        }
        given.push(arg);
    }
    assert!(config.dim > 0 && config.classes > 0 && config.batch > 0 && config.batches > 0);
    assert!(
        matches!(config.index.as_str(), "exhaustive" | "routed"),
        "--index must be `exhaustive` or `routed`"
    );
    let unread: &[&str] = if config.index == "routed" {
        &["--min-speedup"]
    } else {
        &["--max-candidate-fraction", "--clusters", "--nprobe"]
    };
    for flag in unread {
        assert!(
            !given.iter().any(|arg| arg == flag),
            "{flag} is not read by the {} tier",
            config.index
        );
    }
    config
}

/// Summarises a serial timing loop: `latencies_us` holds one latency per
/// *unit of work* (a query for the scalar path, a batch for the batched
/// paths), `queries` is the total query count either way, and throughput is
/// measured over the latency sum.
fn summarize(queries: usize, latencies_us: Vec<f64>) -> LatencySummary {
    let elapsed_s = latencies_us.iter().sum::<f64>() / 1e6;
    LatencySummary::new(queries, latencies_us, elapsed_s)
}

/// The large-label-space tier: clustered workload, exhaustive vs routed,
/// sub-linearity and recall accounting. Runs instead of the scalar-anchored
/// tiers when `--index routed` is given.
fn run_routed_tier(config: &Config) {
    let clusters = match config.clusters {
        0 => (config.classes as f64).sqrt().ceil() as usize,
        c => c,
    };
    let nprobe = config
        .nprobe
        .unwrap_or_else(|| (clusters as f64).sqrt().ceil() as usize);
    eprintln!(
        "serve_sim[routed]: dim={} classes={} clusters={clusters} nprobe={nprobe} \
         batch={} batches={}",
        config.dim, config.classes, config.batch, config.batches
    );

    // The shared clustered workload: same generator, same seed conventions
    // as the engine's routed-index tests. One batch worth of distractors
    // rides along for the open-set half of the report; they are drawn after
    // the in-distribution stream, so the pinned recall numbers are
    // untouched.
    let workload = SyntheticWorkload::generate(&WorkloadConfig {
        dim: config.dim,
        classes: config.classes,
        clusters: 0, // latent families: auto ⌈√classes⌉
        class_noise: 0.05,
        query_noise: config.noise,
        queries: config.batches * config.batch,
        distractors: config.batch,
        seed: config.seed,
    });
    // Loading inserts every class one at a time, one label-table probe each.
    let load_start = Instant::now();
    let memory = workload.packed_memory();
    let load_s = load_start.elapsed().as_secs_f64();
    let build_start = Instant::now();
    let mut routed = RoutedClassMemory::from_packed(
        &memory,
        RoutedConfig {
            clusters,
            nprobe,
            ..RoutedConfig::default()
        },
    );
    routed.set_nprobe(nprobe);
    let build_s = build_start.elapsed().as_secs_f64();
    eprintln!(
        "serve_sim[routed]: loaded {} classes in {load_s:.2}s, clustered them into {} \
         clusters in {build_s:.2}s",
        memory.len(),
        routed.as_sharded().num_shards()
    );

    let packed_batches: Vec<PackedQueryBatch> = workload
        .queries
        .chunks(config.batch)
        .map(|chunk| {
            let mut batch = PackedQueryBatch::with_capacity(config.dim, chunk.len());
            for q in chunk {
                batch.push_signs(q);
            }
            batch
        })
        .collect();
    let total_queries = workload.queries.len();

    // Exhaustive baseline: the serving scorer's batched popcount sweep over
    // every class.
    let scorer = ShardedClassMemory::from_packed(&memory, 1);
    let mut exhaustive_top: Vec<Vec<(&str, f32)>> = Vec::with_capacity(total_queries);
    let mut exhaustive_latencies = Vec::with_capacity(packed_batches.len());
    for batch in &packed_batches {
        let start = Instant::now();
        let top = scorer.topk_batch(batch, 10);
        exhaustive_latencies.push(start.elapsed().as_secs_f64() * 1e6);
        exhaustive_top.extend(top);
    }
    let exhaustive = summarize(total_queries, exhaustive_latencies);

    // Routed path: probe, shortlist, exact re-rank.
    let mut routed_top: Vec<Vec<(String, f32)>> = Vec::with_capacity(total_queries);
    let mut routed_latencies = Vec::with_capacity(packed_batches.len());
    for batch in &packed_batches {
        let start = Instant::now();
        let top = routed.topk_batch(batch, 10);
        routed_latencies.push(start.elapsed().as_secs_f64() * 1e6);
        routed_top.extend(
            top.into_iter()
                .map(|t| t.into_iter().map(|(l, s)| (l.to_string(), s)).collect()),
        );
    }
    let routed_stats = summarize(total_queries, routed_latencies);

    // Sub-linearity + recall accounting (outside the timed loops).
    let mut candidate_total = 0usize;
    for query in workload.queries.iter() {
        candidate_total += routed.candidate_classes(&engine::pack_signs(query));
    }
    let candidate_fraction =
        candidate_total as f64 / (total_queries * config.classes).max(1) as f64;
    let mut hits_at_1 = 0usize;
    let mut overlap_at_10 = 0usize;
    let mut overlap_denominator = 0usize;
    for (ex, ro) in exhaustive_top.iter().zip(&routed_top) {
        let ex_labels: Vec<&str> = ex.iter().map(|&(l, _)| l).collect();
        if let (Some(first_ex), Some((first_ro, _))) = (ex_labels.first(), ro.first()) {
            if first_ex == first_ro {
                hits_at_1 += 1;
            }
        }
        overlap_denominator += ex_labels.len();
        overlap_at_10 += ro
            .iter()
            .filter(|(l, _)| ex_labels.contains(&l.as_str()))
            .count();
    }
    let recall_at_1 = hits_at_1 as f64 / total_queries.max(1) as f64;
    let recall_at_10 = overlap_at_10 as f64 / overlap_denominator.max(1) as f64;
    let routed_speedup = routed_stats.qps / exhaustive.qps.max(1e-12);

    // Open-set half: distractor queries match no class, so their nearest
    // neighbour is an arbitrary low-similarity winner — exactly where a
    // shortlist that only works on-distribution would silently diverge from
    // the exhaustive scorer. Recall here is routed-vs-exhaustive agreement
    // on that GZSL distractor workload; the CI gate stays on the
    // in-distribution numbers above.
    let mut distractor_hits_at_1 = 0usize;
    let mut distractor_overlap_at_10 = 0usize;
    let mut distractor_overlap_denominator = 0usize;
    for signs in &workload.distractor_queries {
        let query = engine::pack_signs(signs);
        let ex_labels: Vec<&str> = scorer
            .top_k(&query, 10)
            .into_iter()
            .map(|(l, _)| l)
            .collect();
        let ro = routed.top_k(&query, 10);
        if let (Some(first_ex), Some((first_ro, _))) = (ex_labels.first(), ro.first()) {
            if first_ex == first_ro {
                distractor_hits_at_1 += 1;
            }
        }
        distractor_overlap_denominator += ex_labels.len();
        distractor_overlap_at_10 += ro.iter().filter(|(l, _)| ex_labels.contains(l)).count();
    }
    let distractors = workload.distractor_queries.len();
    let distractor_recall_at_1 = distractor_hits_at_1 as f64 / distractors.max(1) as f64;
    let distractor_recall_at_10 =
        distractor_overlap_at_10 as f64 / distractor_overlap_denominator.max(1) as f64;

    let json = format!(
        "{{\n  \"config\": {{\"dim\": {}, \"classes\": {}, \"batch\": {}, \"batches\": {}, \
         \"threads\": {}, \"seed\": {}, \"noise\": {}, \"index\": \"routed\", \
         \"clusters\": {clusters}, \"nprobe\": {nprobe}}},\n  \
         \"load_s\": {load_s:.3},\n  \"build_s\": {build_s:.3},\n  \"exhaustive\": {},\n  \"routed\": {},\n  \
         \"routed_speedup\": {routed_speedup:.2},\n  \
         \"candidate_fraction\": {candidate_fraction:.4},\n  \
         \"recall_at_1\": {recall_at_1:.4},\n  \"recall_at_10\": {recall_at_10:.4},\n  \
         \"distractors\": {distractors},\n  \
         \"distractor_recall_at_1\": {distractor_recall_at_1:.4},\n  \
         \"distractor_recall_at_10\": {distractor_recall_at_10:.4}\n}}",
        config.dim,
        config.classes,
        config.batch,
        config.batches,
        scorer.threads(),
        config.seed,
        config.noise,
        exhaustive.to_json(),
        routed_stats.to_json(),
    );
    if config.json {
        println!("{json}");
    } else {
        eprintln!("{json}");
    }
    eprintln!(
        "exhaustive {:.0} q/s | routed({clusters}c/{nprobe}p) {:.0} q/s ({routed_speedup:.1}x) | \
         candidates {:.1}% | recall@1 {recall_at_1:.3} | recall@10 {recall_at_10:.3} | \
         distractor recall@1 {distractor_recall_at_1:.3} ({distractors} distractors)",
        exhaustive.qps,
        routed_stats.qps,
        candidate_fraction * 100.0
    );

    if let Some(ceiling) = config.max_candidate_fraction {
        if candidate_fraction >= ceiling {
            eprintln!(
                "SUB-LINEARITY REGRESSION: candidate fraction {candidate_fraction:.4} \
                 is not below the ceiling {ceiling:.4}"
            );
            std::process::exit(1);
        }
        eprintln!("sub-linearity ok: {candidate_fraction:.4} < {ceiling:.4}");
    }
}

fn main() {
    let config = parse_args();
    if config.index == "routed" {
        run_routed_tier(&config);
        return;
    }
    let mut rng = StdRng::seed_from_u64(config.seed);

    eprintln!(
        "serve_sim: dim={} classes={} batch={} batches={}",
        config.dim, config.classes, config.batch, config.batches
    );

    // Class memory: random bipolar prototypes, both as the scalar reference
    // set and packed into the engine's contiguous word matrix.
    let prototypes: Vec<BipolarHypervector> = (0..config.classes)
        .map(|_| BipolarHypervector::random(config.dim, &mut rng))
        .collect();
    let mut memory = PackedClassMemory::new(config.dim);
    for (c, proto) in prototypes.iter().enumerate() {
        memory.insert_signs(format!("class{c:04}"), proto.as_slice());
    }

    // Query stream: noisy prototype copies, the realistic cleanup workload.
    let queries: Vec<BipolarHypervector> = (0..config.batches * config.batch)
        .map(|q| prototypes[q % prototypes.len()].flip_noise(config.noise, &mut rng))
        .collect();
    let packed_batches: Vec<PackedQueryBatch> = queries
        .chunks(config.batch)
        .map(|chunk| {
            let mut batch = PackedQueryBatch::with_capacity(config.dim, chunk.len());
            for q in chunk {
                batch.push_signs(q.as_slice());
            }
            batch
        })
        .collect();

    // --- scalar reference: one query at a time, i8 cosine scan ------------
    let mut scalar_best = Vec::with_capacity(queries.len());
    let mut scalar_latencies = Vec::with_capacity(queries.len());
    for query in &queries {
        let start = Instant::now();
        let mut best = f32::NEG_INFINITY;
        for proto in &prototypes {
            let sim = query.cosine(proto);
            if sim > best {
                best = sim;
            }
        }
        scalar_latencies.push(start.elapsed().as_secs_f64() * 1e6);
        scalar_best.push(best);
    }
    let scalar = summarize(queries.len(), scalar_latencies);

    // --- batched engine path: the serving lookup, one shard, one thread ---
    let scorer = ShardedClassMemory::from_packed(&memory, 1).with_threads(1);
    let mut batched_best = Vec::with_capacity(queries.len());
    let mut batched_latencies = Vec::with_capacity(packed_batches.len());
    for batch in &packed_batches {
        let start = Instant::now();
        let top1 = scorer.topk_batch(batch, 1);
        batched_latencies.push(start.elapsed().as_secs_f64() * 1e6);
        batched_best.extend(top1.into_iter().map(|top| top[0].1));
    }
    let batched_1t = summarize(queries.len(), batched_latencies);

    // Cross-check: the engine's best similarity must be bit-identical to the
    // scalar scan's (tie-safe: compares scores, not winner labels).
    for (q, (a, b)) in scalar_best.iter().zip(&batched_best).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "query {q}: scalar best {a} != batched best {b}"
        );
    }
    eprintln!("serve_sim: scalar and batched best-similarities are bit-identical");

    let speedup_1t = batched_1t.qps / scalar.qps.max(1e-12);
    let json = format!(
        "{{\n  \"config\": {{\"dim\": {}, \"classes\": {}, \"batch\": {}, \"batches\": {}, \
         \"seed\": {}, \"noise\": {}}},\n  \"scalar\": {},\n  \"batched_1t\": {},\n  \
         \"speedup_1t\": {:.2}\n}}",
        config.dim,
        config.classes,
        config.batch,
        config.batches,
        config.seed,
        config.noise,
        scalar.to_json(),
        batched_1t.to_json(),
        speedup_1t,
    );
    if config.json {
        println!("{json}");
    } else {
        eprintln!("{json}");
        eprintln!(
            "scalar {:.0} q/s | batched(1t) {:.0} q/s ({:.1}x)",
            scalar.qps, batched_1t.qps, speedup_1t
        );
    }

    if let Some(floor) = config.min_speedup {
        if speedup_1t < floor {
            eprintln!(
                "PERF REGRESSION: single-thread batched speedup {speedup_1t:.2}x \
                 is below the floor {floor:.2}x"
            );
            std::process::exit(1);
        }
        eprintln!("perf floor ok: {speedup_1t:.2}x >= {floor:.2}x");
    }
}
