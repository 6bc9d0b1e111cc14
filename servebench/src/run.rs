//! One benchmark run: set-up, the timed phases, the correctness check and
//! the report.
//!
//! A metric run (`--trace 0`) measures end-to-end numbers only. A traced
//! run (`--trace 1`) repeats the light phase with and without spans and
//! times calls into each layer's public functions on the workload's own
//! inputs; it yields the per-layer numbers.

use crate::inputs::{Inputs, MutationOp, Workload};
use crate::load::{closed_loop, open_loop, Checker, Phase, Target, Until};
use crate::trace::Tracer;
use crate::{END_TO_END, PER_LAYER};
use dataset::AttributeSchema;
use engine::PackedQueryBatch;
use hdc_zsc::{Checkpoint, CheckpointDelta, SimilarityCalibrator, ZscModel};
use serve::net::frame::FRAME_HEADER_LEN;
use serve::net::{wire, ClientConfig, NetClient, NetConfig, NetError, NetServer};
use serve::wal::{self, SyncPolicy, WalOp, WriteAheadLog};
use serve::{DurabilityConfig, ModelSnapshot, QueryServer, ServerConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tensor::Matrix;

/// Spare set-ups timed after each round of a metric run, beside the
/// serving stack's own; `setup_s` is the median of all of them.
const SPARE_SET_UPS: usize = 2;
/// Alternating light and heavy rounds per metric run.
const ROUNDS: usize = 10;
/// Windows each further ladder rung is measured in.
const RUNG_WINDOWS: usize = 3;
/// Untimed traffic at the light rate before anything is measured.
const WARM_UP: Duration = Duration::from_secs(1);
/// Phase ids for the per-request row picks.
const WARM_UP_PHASE: u64 = 0;
const LIGHT_PHASE: u64 = 1;
const HEAVY_PHASE: u64 = 2;
const CHURN_PHASE: u64 = 3;
const CLOSED_PHASE: u64 = 4;
const LADDER_PHASE: u64 = 10;
/// Load threads (and connections) of the query phases.
const CONNECTIONS: usize = 2;
/// False-reject rate the rejection threshold is calibrated to.
const TARGET_FALSE_REJECT: f32 = 0.05;

/// Command-line options of one run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of a metric run.
    pub trace: bool,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every answer matched its reference and every structural check held.
    pub correct: bool,
    /// Operations sent: queries and mutations.
    pub attempted: u64,
    /// Operations that errored, were shed, came back wrong or never came
    /// back, plus failed structural checks.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed` and the metrics of
    /// this run's kind, in declaration order.
    pub fn to_json(&self, trace: bool) -> String {
        let names = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(f64::NAN);
                let value = if value.is_finite() {
                    format!("{value}")
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The serving configuration of `workload`.
fn server_config(workload: &Workload) -> ServerConfig {
    ServerConfig {
        shards: workload.shards,
        routed: workload.routed,
        publish_every: workload.publish_every,
        ..ServerConfig::default()
    }
}

fn durability(workload: &Workload, dir: &Path) -> Option<DurabilityConfig> {
    workload
        .durable
        .map(|(sync, compact_every)| DurabilityConfig {
            dir: dir.to_path_buf(),
            sync,
            compact_every,
        })
}

/// A running server with its TCP front-end.
struct Stack {
    server: Arc<QueryServer>,
    net: NetServer,
}

impl Stack {
    /// Builds the model, encodes the classes, starts the server (writing the
    /// first base when durable) and binds the front-end: what `setup_s`
    /// times.
    fn start(
        workload: &Workload,
        inputs: &Inputs,
        seed: u64,
        schema: &AttributeSchema,
        dir: &Path,
    ) -> Self {
        let model = ZscModel::new(
            &workload.model.with_seed(seed),
            schema,
            workload.feature_dim,
        );
        let config = server_config(workload);
        let server = match durability(workload, dir) {
            Some(durability) => QueryServer::start_durable(
                model,
                inputs.labels.clone(),
                &inputs.class_attributes,
                schema,
                config,
                durability,
            ),
            None => QueryServer::start(
                model,
                inputs.labels.clone(),
                &inputs.class_attributes,
                config,
            ),
        }
        .expect("server starts");
        let server = Arc::new(server);
        let net = NetServer::bind(
            "127.0.0.1:0",
            Arc::clone(&server),
            schema,
            NetConfig::default(),
        )
        .expect("front-end binds");
        Self { server, net }
    }

    /// Drains the front-end, then stops the server (a final WAL sync).
    fn stop(self) {
        self.net.shutdown();
        drop(self.net);
        self.server.stop();
    }
}

/// Sets a spare stack up in `dir`, stops it, and returns the set-up time in
/// seconds.
fn time_set_up(
    workload: &Workload,
    inputs: &Inputs,
    seed: u64,
    schema: &AttributeSchema,
    dir: &Path,
) -> f64 {
    let start = Instant::now();
    let spare = Stack::start(workload, inputs, seed, schema, dir);
    let seconds = start.elapsed().as_secs_f64();
    spare.stop();
    let _ = std::fs::remove_dir_all(dir);
    seconds
}

/// Fits the open-set threshold to the query pool's top-1 similarities, so
/// verdicts run on every answer.
fn calibrate(snapshot: &ModelSnapshot, inputs: &Inputs) -> f32 {
    let sims: Vec<f32> = inputs
        .queries
        .iter()
        .take(64)
        .map(|q| snapshot.solo_topk(q, 1)[0].1)
        .collect();
    SimilarityCalibrator::new(TARGET_FALSE_REJECT)
        .fit(&sims)
        .threshold
}

fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    metrics::nearest_rank(&values, 0.5)
}

/// Peak resident set of this process (VmHWM), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs `workload` once. `state` is a scratch directory inside the checkout
/// for WAL, bases and traces; the run empties it of its WAL files.
pub fn run(workload: &Workload, options: &Options, state: &Path) -> Report {
    let inputs = Inputs::generate(workload, options.seed);
    let schema = AttributeSchema::cub200();
    let dir = state.join(format!("{}-{}", workload.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let start = Instant::now();
    let stack = Stack::start(workload, &inputs, options.seed, &schema, &dir);
    let setup = start.elapsed().as_secs_f64();
    let threshold = calibrate(&stack.server.snapshot(), &inputs);
    let calibrated = stack
        .server
        .set_threshold(threshold)
        .expect("threshold publishes");
    let mut snapshots = BTreeMap::from([(calibrated.version(), calibrated)]);
    let addr = stack.net.local_addr();
    let _ = open_loop(
        Target::Socket(addr),
        &inputs,
        WARM_UP_PHASE,
        workload.light_qps,
        CONNECTIONS,
        Until::Elapsed(WARM_UP),
        None,
    );
    let report = if options.trace {
        let tracer = Tracer::default();
        let report = traced(
            workload, options, &inputs, &schema, &stack, &snapshots, &dir, &tracer,
        );
        let path = state
            .join("traces")
            .join(format!("{}-seed{}.tsv", workload.name, options.seed));
        if let Err(e) = tracer.write(&path) {
            eprintln!(
                "servebench: could not write spans to {}: {e}",
                path.display()
            );
        }
        stack.stop();
        report
    } else {
        measured(
            workload,
            options,
            &inputs,
            &schema,
            stack,
            &mut snapshots,
            threshold,
            &dir,
            setup,
        )
    };
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// The value a quiet round sees: the 20th percentile over rounds of one
/// figure. Outside load on a shared host only ever adds latency and takes
/// throughput, and it comes in bursts that spoil whole rounds; a change to
/// the program moves every round, the quiet ones included.
fn quiet(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    metrics::nearest_rank(&values, 0.2)
}

/// The latencies of the quieter half of `rounds`, ranked by their median,
/// pooled and ascending: for the reason in [`quiet`], with every sample of
/// those rounds behind the figure taken from them.
fn quiet_half(mut rounds: Vec<Vec<f64>>) -> Vec<f64> {
    for round in &mut rounds {
        round.sort_by(f64::total_cmp);
    }
    rounds.sort_by(|a, b| percentile(a, 0.5).total_cmp(&percentile(b, 0.5)));
    let keep = rounds.len().div_ceil(2);
    let mut pooled: Vec<f64> = rounds.into_iter().take(keep).flatten().collect();
    pooled.sort_by(f64::total_cmp);
    pooled
}

/// Nearest-rank percentile of ascending `values`; 0 when there are none.
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        metrics::nearest_rank(values, p)
    }
}

/// One ladder rung, from its rounds (or windows).
#[derive(Debug, Clone, Copy)]
struct Rung {
    rate: f64,
    samples: usize,
    /// p50 of the quieter half of the rounds; quiet-round p95 and lateness
    /// at the end; median-round p99, which only the report shows.
    p50: f64,
    p95: f64,
    p99: f64,
    late_us: f64,
    /// Best-round goodput: outside load only takes throughput away.
    goodput: f64,
    failures: usize,
}

impl Rung {
    fn of(rate: f64, rounds: &[Phase]) -> Self {
        let each = |f: fn(&Phase) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
        let quieter = quiet_half(rounds.iter().map(Phase::latencies).collect());
        Self {
            rate,
            samples: rounds.iter().map(|p| p.samples.len()).sum(),
            p50: percentile(&quieter, 0.5),
            p95: quiet(each(|p| p.percentile(0.95))),
            p99: median(each(|p| p.percentile(0.99))),
            late_us: quiet(each(Phase::final_late_us)),
            goodput: each(Phase::goodput).into_iter().fold(0.0, f64::max),
            failures: rounds.iter().map(Phase::failures).sum(),
        }
    }

    /// p95 within the limit, nothing failed, and the generator not falling
    /// further behind. p95 rather than p99: on a shared 2-core host the 1%
    /// tail is scheduler and steal stalls, which would fail rungs at random.
    fn sustained(&self, limit_us: f64) -> bool {
        self.failures == 0 && self.p95 <= limit_us && self.late_us <= limit_us
    }
}

/// The highest goodput of a rung that was sustained or saturated, with
/// nothing failing. Below capacity a sustained rung's goodput is its rate.
/// A saturated rung's backlog grows, so the server answers as fast as it
/// can and its goodput is the capacity the sustained rate approaches from
/// below. The figure then moves smoothly with capacity instead of jumping a
/// whole rung, and a rung spoilt by outside load without saturating drops
/// out rather than ending the ladder.
fn sustained_qps(rungs: &[Rung], limit_us: f64) -> f64 {
    rungs
        .iter()
        .filter(|r| r.sustained(limit_us) || (r.failures == 0 && r.late_us > limit_us))
        .map(|r| r.goodput)
        .fold(0.0, f64::max)
}

/// The metric run.
#[allow(clippy::too_many_arguments)]
fn measured(
    workload: &Workload,
    options: &Options,
    inputs: &Inputs,
    schema: &AttributeSchema,
    stack: Stack,
    snapshots: &mut BTreeMap<u64, Arc<ModelSnapshot>>,
    threshold: f32,
    dir: &Path,
    setup: f64,
) -> Report {
    let socket = Target::Socket(stack.net.local_addr());
    let spare_dir = dir.with_extension("spare");
    let mut setup = vec![setup];
    // One admin connection runs the whole script, as an operator would.
    let mut mutator = NetClient::connect(stack.net.local_addr(), ClientConfig::default())
        .expect("mutator connects");
    let phase = |id: u64, rate: f64, share: f64| {
        let until = Until::Elapsed(Duration::from_secs_f64(options.seconds * share));
        open_loop(socket, inputs, id, rate, CONNECTIONS, until, None)
    };
    // Closed-loop, light and heavy queries and a slice of the mutation
    // script alternate over several rounds, so a burst of outside load
    // spoils some rounds rather than the run, and each figure is the quiet
    // rounds'.
    let mut light_rounds = Vec::with_capacity(ROUNDS);
    let mut heavy_rounds = Vec::with_capacity(ROUNDS);
    let mut closed_rounds = Vec::with_capacity(ROUNDS);
    let mut beside = Vec::with_capacity(ROUNDS);
    let mut slice_latencies: Vec<Vec<f64>> = Vec::with_capacity(ROUNDS);
    let mut failed = 0u64;
    let mut slices = inputs.ops.chunks(inputs.ops.len().div_ceil(ROUNDS));
    for round in 0..ROUNDS as u64 {
        let share = 1.0 / ROUNDS as f64;
        closed_rounds.push(closed_loop(
            stack.net.local_addr(),
            inputs,
            CLOSED_PHASE + 1000 * round,
            Duration::from_secs_f64(options.seconds * 0.4 * share),
        ));
        light_rounds.push(phase(
            LIGHT_PHASE + 1000 * round,
            workload.light_qps,
            0.2 * share,
        ));
        heavy_rounds.push(phase(
            HEAVY_PHASE + 1000 * round,
            workload.heavy_qps,
            0.15 * share,
        ));
        if let Some(ops) = slices.next() {
            let slice = churn(
                workload,
                inputs,
                ops,
                CHURN_PHASE + 1000 * round,
                &stack,
                &mut mutator,
                threshold,
            );
            failed += acknowledge(ops, &slice, inputs, threshold, snapshots);
            slice_latencies.push(slice.records.iter().map(|r| r.latency_us).collect());
            beside.push(slice.queries);
        }
        // Spread over the run, so a slow stretch of the host moves a few
        // set-ups rather than all of them.
        for _ in 0..SPARE_SET_UPS {
            setup.push(time_set_up(
                workload,
                inputs,
                options.seed,
                schema,
                &spare_dir,
            ));
        }
    }
    drop(mutator);
    let light = Rung::of(workload.light_qps, &light_rounds);
    let heavy = Rung::of(workload.heavy_qps, &heavy_rounds);
    let others = workload
        .ladder
        .iter()
        .filter(|&&r| r != light.rate && r != heavy.rate)
        .count();
    let mut rung_phases: Vec<Phase> = Vec::new();
    let mut rungs: Vec<Rung> = Vec::new();
    for (i, &rate) in workload.ladder.iter().enumerate() {
        let rung = if rate == light.rate {
            light
        } else if rate == heavy.rate {
            heavy
        } else {
            let share = 0.25 / (others * RUNG_WINDOWS) as f64;
            let windows: Vec<Phase> = (0..RUNG_WINDOWS as u64)
                .map(|w| phase(LADDER_PHASE + 100 * w + i as u64, rate, share))
                .collect();
            let rung = Rung::of(rate, &windows);
            rung_phases.extend(windows);
            rung
        };
        rungs.push(rung);
    }
    let sustained_qps = sustained_qps(&rungs, workload.latency_limit_us);

    let recovery = workload
        .durable
        .map(|_| recover(workload, schema, stack, snapshots, dir));
    if let Some(recovery) = &recovery {
        if !recovery.ok {
            failed += 1;
        }
    }

    let mut checker = Checker::new(snapshots, inputs, server_config(workload).top_k);
    let mut attempted = inputs.ops.len() as u64;
    for phase in closed_rounds
        .iter()
        .chain(&light_rounds)
        .chain(&heavy_rounds)
        .chain(&rung_phases)
        .chain(&beside)
    {
        attempted += phase.samples.len() as u64;
        failed += checker.failed(phase) as u64;
    }
    // The script's slices are spread over the run, so a burst of outside
    // load spoils a slice or two. The median pools the quieter half of the
    // slices and the p99 is the quiet slices' own, as for the query rounds;
    // a slice's p99 is its fourth slowest of 300. Only a flush with nothing
    // pending logs no record, and flushes are a tenth of the script, so a
    // slice logs at least 270 records. On `durable_churn` one record in 64
    // compacts, so every slice holds at least four compaction stalls, and
    // its p99 is one of them.
    let slice_p99s = slice_latencies
        .iter()
        .map(|slice| {
            let mut slice = slice.clone();
            slice.sort_by(f64::total_cmp);
            percentile(&slice, 0.99)
        })
        .collect();
    let mutation_p99 = quiet(slice_p99s);
    let mut mutation_latencies = slice_latencies.concat();
    mutation_latencies.sort_by(f64::total_cmp);
    let quieter = quiet_half(slice_latencies);
    let setup_s = median(setup.clone());
    let failed_ratio = failed as f64 / attempted as f64;
    let closed_quieter = quiet_half(closed_rounds.iter().map(Phase::latencies).collect());
    let closed_p50 = percentile(&closed_quieter, 0.5);
    let mut metrics = BTreeMap::from([
        ("setup_s", setup_s),
        ("peak_rss_mb", peak_rss_mb()),
        ("p50_us.closed", closed_p50),
        ("p50_us.light", light.p50),
        ("p95_us.light", light.p95),
        ("p50_us.heavy", heavy.p50),
        ("p95_us.heavy", heavy.p95),
        ("sustained_qps", sustained_qps),
        ("mutation_p50_us", percentile(&quieter, 0.5)),
        ("mutation_p99_us", mutation_p99),
        ("failed_ratio", failed_ratio),
    ]);

    if let Some(recovery) = &recovery {
        metrics.insert("recover_s", recovery.seconds);
    }

    let name = workload.name;
    let (fastest, slowest) = setup
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &s| (lo.min(s), hi.max(s)));
    eprintln!(
        "servebench: {name}: set-up n={} min {fastest:.4} s median {setup_s:.4} s max {slowest:.4} s",
        setup.len(),
    );
    eprintln!(
        "servebench: {name}: {ROUNDS} closed-loop rounds, one query in flight: n={}, the \
         quieter half n={}, p50 {closed_p50:.0} us",
        closed_rounds.iter().map(|p| p.samples.len()).sum::<usize>(),
        closed_quieter.len(),
    );
    eprintln!(
        "servebench: {name}: {ROUNDS} rounds each of light {} q/s (n={}) and heavy {} q/s \
         (n={}); mutations n={}, the quieter half n={}; over all of them p50 {:.0} us \
         p99 {:.0} us max {:.0} us; queries beside them n={}",
        light.rate,
        light.samples,
        heavy.rate,
        heavy.samples,
        mutation_latencies.len(),
        quieter.len(),
        percentile(&mutation_latencies, 0.5),
        percentile(&mutation_latencies, 0.99),
        percentile(&mutation_latencies, 1.0),
        beside.iter().map(|p| p.samples.len()).sum::<usize>(),
    );
    for rung in &rungs {
        eprintln!(
            "servebench: {name}: rung {} q/s: n={} p50 {:.0} us p95 {:.0} us p99 {:.0} us \
             goodput {:.1} q/s late at end {:.0} us, failures {}{}",
            rung.rate,
            rung.samples,
            rung.p50,
            rung.p95,
            rung.p99,
            rung.goodput,
            rung.late_us,
            rung.failures,
            if rung.sustained(workload.latency_limit_us) {
                ""
            } else {
                " (not sustained)"
            }
        );
    }
    if let Some(recovery) = &recovery {
        eprintln!(
            "servebench: {name}: recover_s = {:.4} s ({} records replayed, {} pending at stop); \
             recovered state {}",
            recovery.seconds,
            recovery.replayed,
            recovery.pending,
            if recovery.ok { "matches" } else { "DIFFERS" }
        );
    }
    eprintln!("servebench: {name}: failed_ratio = {failed_ratio} ({failed} of {attempted})");
    Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}

/// One acknowledged (or refused) wire mutation.
struct MutationRecord {
    latency_us: f64,
    /// The acknowledged version and the snapshot serving right after it.
    outcome: Result<(u64, Arc<ModelSnapshot>), String>,
}

struct Churn {
    records: Vec<MutationRecord>,
    queries: Phase,
}

/// Raises a flag when dropped, so the query thread stops even if the
/// mutator panics.
struct RaiseOnDrop<'a>(&'a AtomicBool);

impl Drop for RaiseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Sends one scripted mutation over the wire.
fn send_mutation(
    client: &mut NetClient,
    op: &MutationOp,
    inputs: &Inputs,
    threshold: f32,
) -> Result<u64, NetError> {
    match op {
        MutationOp::Register { label, attributes } => {
            client.register_class(label.clone(), inputs.extra_attributes.row(*attributes))
        }
        MutationOp::Update { label, attributes } => {
            client.update_class(label, inputs.extra_attributes.row(*attributes))
        }
        MutationOp::Remove { label } => client.remove_class(label),
        MutationOp::Observe { label, row } => client.observe(label, &inputs.queries[*row]),
        MutationOp::Flush => client.flush(),
        MutationOp::SetThreshold { offset } => client.set_threshold(Some(threshold + offset)),
    }
}

/// A slice of the mutation script, closed loop on one connection, beside
/// light-rate queries on the other. Each mutation is timed from send to
/// acknowledgement; the mutator is the only writer, so the snapshot serving
/// right after an acknowledgement is the one it published.
fn churn(
    workload: &Workload,
    inputs: &Inputs,
    ops: &[MutationOp],
    phase_id: u64,
    stack: &Stack,
    client: &mut NetClient,
    threshold: f32,
) -> Churn {
    let done = AtomicBool::new(false);
    let addr = stack.net.local_addr();
    let server = &stack.server;
    std::thread::scope(|scope| {
        let mutator = scope.spawn(|| {
            let _raise = RaiseOnDrop(&done);
            ops.iter()
                .map(|op| {
                    let sent = Instant::now();
                    let result = send_mutation(client, op, inputs, threshold);
                    let latency_us = sent.elapsed().as_secs_f64() * 1e6;
                    MutationRecord {
                        latency_us,
                        outcome: result
                            .map(|version| (version, server.snapshot()))
                            .map_err(|e| e.to_string()),
                    }
                })
                .collect()
        });
        let queries = open_loop(
            Target::Socket(addr),
            inputs,
            phase_id,
            workload.light_qps / CONNECTIONS as f64,
            1,
            Until::Flag(&done),
            None,
        );
        Churn {
            records: mutator.join().expect("mutator thread"),
            queries,
        }
    })
}

/// Checks a slice's acknowledgements, each against the snapshot it
/// published, and returns how many failed. Of the acknowledged snapshots it
/// keeps those a served query can name, so memory does not grow with the
/// script: the versions the queries beside the slice report, and the last
/// one, which serves until the next slice.
fn acknowledge(
    ops: &[MutationOp],
    slice: &Churn,
    inputs: &Inputs,
    threshold: f32,
    snapshots: &mut BTreeMap<u64, Arc<ModelSnapshot>>,
) -> u64 {
    let served: BTreeSet<u64> = slice
        .queries
        .samples
        .iter()
        .filter_map(|s| s.answer.as_ref().ok().map(|a| a.version))
        .collect();
    let mut failed = 0;
    let mut last = None;
    for (op, record) in ops.iter().zip(&slice.records) {
        match &record.outcome {
            Ok((version, snapshot)) if mutation_ok(op, *version, snapshot, inputs, threshold) => {
                if served.contains(version) {
                    snapshots.insert(*version, Arc::clone(snapshot));
                }
                last = Some(snapshot);
            }
            Ok(_) => {
                eprintln!("servebench: mutation {op:?} did not publish what it asked for");
                failed += 1;
            }
            Err(e) => {
                eprintln!("servebench: mutation {op:?} failed: {e}");
                failed += 1;
            }
        }
    }
    if let Some(last) = last {
        snapshots.insert(last.version(), Arc::clone(last));
    }
    failed
}

/// Whether an acknowledged mutation published what it asked for.
fn mutation_ok(
    op: &MutationOp,
    version: u64,
    snapshot: &ModelSnapshot,
    inputs: &Inputs,
    threshold: f32,
) -> bool {
    if snapshot.version() != version {
        return false;
    }
    let routed_words = |label: &str| snapshot.routed().map(|r| r.class_words(label));
    match op {
        MutationOp::Register { label, attributes } | MutationOp::Update { label, attributes } => {
            let want = snapshot
                .model()
                .packed_class_signature(inputs.extra_attributes.row(*attributes));
            snapshot.memory().class_words(label) == Some(&want[..])
                && routed_words(label).is_none_or(|words| words == Some(&want[..]))
        }
        MutationOp::Remove { label } => {
            !snapshot.memory().contains(label) && routed_words(label).is_none_or(|w| w.is_none())
        }
        MutationOp::Observe { label, .. } => snapshot.memory().contains(label),
        MutationOp::Flush => true,
        MutationOp::SetThreshold { offset } => {
            snapshot.threshold().map(f32::to_bits) == Some((threshold + offset).to_bits())
        }
    }
}

struct Recovery {
    seconds: f64,
    replayed: u64,
    pending: u64,
    ok: bool,
}

/// Stops the durable server with WAL records pending after the last
/// compaction, times `QueryServer::recover`, and checks that the rebuilt
/// state is the last acknowledged snapshot, class word for class word.
fn recover(
    workload: &Workload,
    schema: &AttributeSchema,
    stack: Stack,
    snapshots: &mut BTreeMap<u64, Arc<ModelSnapshot>>,
    dir: &Path,
) -> Recovery {
    let pending = stack
        .server
        .durability_stats()
        .map_or(0, |d| d.records_since_compaction);
    if pending == 0 {
        // The script ended on a compaction: log one more record so recovery
        // has a WAL suffix to replay.
        let current = stack.server.snapshot();
        let again = stack
            .server
            .set_threshold(current.threshold().unwrap_or(0.0))
            .expect("threshold publishes");
        snapshots.insert(again.version(), again);
    }
    let pending = stack
        .server
        .durability_stats()
        .map_or(0, |d| d.records_since_compaction);
    let last = Arc::clone(snapshots.values().next_back().expect("one snapshot"));
    stack.stop();
    let start = Instant::now();
    let recovered = QueryServer::recover(
        schema,
        server_config(workload),
        durability(workload, dir).expect("durable workload"),
    );
    let seconds = start.elapsed().as_secs_f64();
    let Ok((server, report)) = recovered else {
        eprintln!("servebench: recovery failed: {:?}", recovered.err());
        return Recovery {
            seconds,
            replayed: 0,
            pending,
            ok: false,
        };
    };
    let got = server.snapshot();
    let mut want_labels: Vec<&str> = last.memory().labels().collect();
    let mut got_labels: Vec<&str> = got.memory().labels().collect();
    want_labels.sort_unstable();
    got_labels.sort_unstable();
    let same_words = want_labels.iter().all(|label| {
        got.memory().class_words(label) == last.memory().class_words(label)
            && got.routed().map(|r| r.class_words(label))
                == last.routed().map(|r| r.class_words(label))
    });
    let ok = report.snapshot_version == last.version()
        && got.version() == last.version()
        && want_labels == got_labels
        && same_words
        && got.threshold().map(f32::to_bits) == last.threshold().map(f32::to_bits);
    server.stop();
    Recovery {
        seconds,
        replayed: report.replayed_records,
        pending,
        ok,
    }
}

/// Unpacks packed sign words (set bit = −1), as the server's stream fold
/// does before counting.
fn unpack_signs(words: &[u64], dim: usize) -> Vec<i8> {
    (0..dim)
        .map(|i| {
            if (words[i / 64] >> (i % 64)) & 1 == 1 {
                -1
            } else {
                1
            }
        })
        .collect()
}

/// Repeats `f` at least once and until `budget` is spent or `max` calls
/// were made.
fn repeat(budget: Duration, max: usize, mut f: impl FnMut(usize)) {
    let start = Instant::now();
    for i in 0..max {
        f(i);
        if start.elapsed() >= budget {
            break;
        }
    }
}

/// The traced run: per-layer metrics.
#[allow(clippy::too_many_arguments)]
fn traced(
    workload: &Workload,
    options: &Options,
    inputs: &Inputs,
    schema: &AttributeSchema,
    stack: &Stack,
    snapshots: &BTreeMap<u64, Arc<ModelSnapshot>>,
    dir: &Path,
    tracer: &Tracer,
) -> Report {
    let server = &stack.server;
    let socket = Target::Socket(stack.net.local_addr());
    let span = Until::Elapsed(Duration::from_secs_f64(options.seconds * 0.2));
    let light = workload.light_qps;

    // Query path, outside in: socket without and with spans, then the same
    // rate in process.
    let plain = open_loop(socket, inputs, LIGHT_PHASE, light, CONNECTIONS, span, None);
    let socket_traced = open_loop(
        socket,
        inputs,
        LIGHT_PHASE,
        light,
        CONNECTIONS,
        span,
        Some(tracer),
    );
    let before = server.stats();
    let inproc = open_loop(
        Target::InProcess(server),
        inputs,
        LIGHT_PHASE,
        light,
        CONNECTIONS,
        span,
        Some(tracer),
    );
    let after = server.stats();
    let light_batch = ((after.queries - before.queries) as f64
        / (after.batches - before.batches).max(1) as f64)
        .round()
        .max(1.0) as usize;
    let (before, net_before) = (server.stats(), stack.net.stats());
    let heavy = open_loop(
        socket,
        inputs,
        HEAVY_PHASE,
        workload.heavy_qps,
        CONNECTIONS,
        span,
        None,
    );
    let (after, net_after) = (server.stats(), stack.net.stats());
    let heavy_batches = after.batches - before.batches;
    let heavy_mean = (after.queries - before.queries) as f64 / heavy_batches.max(1) as f64;
    let heavy_batch = heavy_mean.round().max(1.0) as usize;
    let shed_ratio = (net_after.overloaded - net_before.overloaded) as f64
        / (net_after.requests - net_before.requests).max(1) as f64;

    let snapshot = server.snapshot();
    let config = server_config(workload);
    let top_k = config.top_k;
    let rows = |batch: usize, offset: usize| -> Vec<Vec<f32>> {
        (0..batch)
            .map(|i| inputs.queries[(offset + i) % inputs.queries.len()].clone())
            .collect()
    };

    // The dispatcher's blocking path at the heavy mean batch, layer by
    // layer, and as one block at the light mean batch.
    let budget = Duration::from_millis(600);
    repeat(budget, 200, |i| {
        let batch = rows(heavy_batch, i * heavy_batch);
        let parent = tracer.id();
        let start = Instant::now();
        let request = i as u64;
        let p = Some(parent);
        let features = tracer.time("tensor.from_rows", p, request, || Matrix::from_rows(&batch));
        let embeddings = tracer.time("embed.batch", p, request, || {
            snapshot.model().embed_images(&features)
        });
        let packed = tracer.time("engine.pack", p, request, || {
            PackedQueryBatch::from_sign_matrix(&embeddings)
        });
        let scored = tracer.time("engine.score", p, request, || match snapshot.routed() {
            Some(routed) => routed.topk_batch(&packed, top_k),
            None => snapshot.memory().topk_batch(&packed, top_k),
        });
        tracer.time("server.verdict", p, request, || {
            for result in scored {
                let labelled: Vec<(String, f32)> = result
                    .into_iter()
                    .map(|(l, s)| (l.to_string(), s))
                    .collect();
                black_box(snapshot.verdict(&labelled));
                black_box(labelled);
            }
        });
        tracer.record(parent, "dispatch", None, request, start, Instant::now());
    });
    repeat(budget, 200, |i| {
        let batch = rows(light_batch, i * light_batch);
        tracer.time("light.compute", None, i as u64, || {
            let features = Matrix::from_rows(&batch);
            let embeddings = snapshot.model().embed_images(&features);
            let packed = PackedQueryBatch::from_sign_matrix(&embeddings);
            let scored = match snapshot.routed() {
                Some(routed) => routed.topk_batch(&packed, top_k),
                None => snapshot.memory().topk_batch(&packed, top_k),
            };
            for result in scored {
                let labelled: Vec<(String, f32)> = result
                    .into_iter()
                    .map(|(l, s)| (l.to_string(), s))
                    .collect();
                black_box(snapshot.verdict(&labelled));
            }
        });
    });
    repeat(budget, 200, |i| {
        let one = Matrix::from_rows(&rows(1, i));
        tracer.time("embed.row", None, i as u64, || {
            black_box(snapshot.model().embed_images(&one))
        });
    });
    let candidate_fraction = match snapshot.routed() {
        Some(routed) => {
            let total: usize = inputs
                .queries
                .iter()
                .take(64)
                .map(|q| {
                    let embedding = snapshot
                        .model()
                        .embed_images(&Matrix::from_rows(std::slice::from_ref(q)));
                    routed.candidate_classes(&engine::pack_float_signs(embedding.row(0)))
                })
                .sum();
            total as f64 / (64 * routed.len()) as f64
        }
        None => 1.0,
    };

    // Wire codec: both sides' encode and decode of one query.
    let mut frame_bytes = Vec::new();
    repeat(budget, 200, |i| {
        let row = &inputs.queries[i % inputs.queries.len()];
        let solo = snapshot.solo_topk(row, top_k);
        let response = wire::Response::TopK {
            version: snapshot.version(),
            results: solo
                .iter()
                .map(|(label, sim)| wire::WireScore {
                    label: label.clone(),
                    sim_bits: sim.to_bits(),
                })
                .collect(),
            verdict: snapshot.verdict(&solo),
        };
        let request = wire::Request::Query {
            features: row.clone(),
            k: None,
        };
        let bytes = tracer.time("net.codec", None, i as u64, || {
            let sent = request.encode();
            let decoded = wire::Request::decode(&sent).expect("request decodes");
            let answered = response.encode();
            let back = wire::Response::decode(&answered).expect("response decodes");
            black_box((decoded, back));
            sent.len() + answered.len()
        });
        frame_bytes.push((bytes + 2 * FRAME_HEADER_LEN) as f64);
    });

    // Control plane: class encoding, copy-on-write publish, stream folding.
    let mut records = Vec::new();
    let extra = inputs.extra_attributes.rows();
    repeat(budget, 64, |i| {
        let request = i as u64;
        let words = tracer.time("hdc_zsc.encode_class", None, request, || {
            snapshot
                .model()
                .packed_class_signature(inputs.extra_attributes.row(i % extra))
        });
        let label = format!("traced{i:04}");
        tracer.time("publish.repack", None, request, || {
            let mut memory = snapshot.memory().clone();
            memory.add_class_packed(label.clone(), &words);
            let routed = snapshot.routed().cloned().map(|mut routed| {
                routed.add_class_packed(label.clone(), &words);
                routed
            });
            black_box((memory, routed));
        });
        let victim = inputs.labels[i % inputs.labels.len()].as_str();
        tracer.time("publish.repack", None, request, || {
            let mut memory = snapshot.memory().clone();
            memory.remove_class(victim);
            let routed = snapshot.routed().cloned().map(|mut routed| {
                routed.remove_class(victim);
                routed
            });
            black_box((memory, routed));
        });
        records.push(WalOp::Register { label, words });
    });
    let dim = snapshot.memory().dim();
    let mut accumulators = hdc::ClassAccumulator::new(dim);
    repeat(budget, 64, |i| {
        let row = &inputs.queries[i % inputs.queries.len()];
        let embedding = snapshot
            .model()
            .embed_images(&Matrix::from_rows(std::slice::from_ref(row)));
        let words = engine::pack_float_signs(embedding.row(0));
        let label = inputs.labels[i % 8].clone();
        tracer.time("stream.fold", None, i as u64, || {
            let example = hdc::BipolarHypervector::from_signs(&unpack_signs(&words, dim));
            accumulators
                .observe(label.as_str(), &example)
                .expect("example width matches the memory");
        });
        records.push(WalOp::Observe { label, words });
    });

    // Durability: appends under the workload's sync policy, replay,
    // compaction (capture, save, rotate) and base load.
    std::fs::create_dir_all(dir).expect("state directory");
    let wal_path = dir.join("traced.wal");
    let base_path = dir.join("traced-base.json");
    let policy = workload
        .durable
        .map_or(SyncPolicy::Always, |(sync, _)| sync);
    let mut log = WriteAheadLog::create(&wal_path, policy).expect("log creates");
    let header = std::fs::metadata(&wal_path).expect("log exists").len();
    let pending = workload
        .durable
        .map_or(63, |(_, every)| every.saturating_sub(1))
        .max(1) as usize;
    let appended: Vec<&WalOp> = records.iter().cycle().take(pending).collect();
    for (i, op) in appended.iter().enumerate() {
        tracer.time("wal.append", None, i as u64, || {
            log.append(op).expect("record appends")
        });
    }
    let log_bytes = std::fs::metadata(&wal_path).expect("log exists").len() - header;
    let replay = tracer.time("recover.replay", None, 0, || {
        wal::replay(&wal_path).expect("log replays")
    });
    let replayed = replay.entries.len();
    repeat(Duration::from_secs(3), 5, |i| {
        let parent = tracer.id();
        let start = Instant::now();
        let p = Some(parent);
        let delta = tracer.time("checkpoint.capture", p, i as u64, || CheckpointDelta {
            snapshot_version: snapshot.version(),
            next_record_seq: log.next_seq(),
            base: Checkpoint::capture(snapshot.model(), schema),
            memory: snapshot.memory().clone(),
            routed: snapshot.routed().cloned(),
            threshold: snapshot.threshold(),
            stream: None,
        });
        tracer.time("checkpoint.save", p, i as u64, || {
            delta.save_json(&base_path).expect("base saves")
        });
        tracer.time("wal.rotate", p, i as u64, || {
            log.rotate().expect("log rotates")
        });
        tracer.record(parent, "compact", None, i as u64, start, Instant::now());
    });
    let base_bytes = std::fs::metadata(&base_path).expect("base exists").len();
    repeat(Duration::from_secs(3), 3, |i| {
        tracer.time("recover.load_base", None, i as u64, || {
            black_box(CheckpointDelta::load_json(&base_path).expect("base loads"))
        });
    });

    let mut checker = Checker::new(snapshots, inputs, top_k);
    let phases = [&plain, &socket_traced, &inproc, &heavy];
    let attempted: u64 = phases.iter().map(|p| p.samples.len() as u64).sum();
    let failed: u64 = phases.iter().map(|p| checker.failed(p) as u64).sum();

    let own = |name: &str| median(tracer.self_times_us(name));
    let socket_p50 = socket_traced.percentile(0.5);
    let inproc_p50 = inproc.percentile(0.5);
    let codec = own("net.codec");
    let metrics = BTreeMap::from([
        ("net.codec_us", codec),
        ("net.frame_bytes", median(frame_bytes)),
        ("net.wire_us", socket_p50 - inproc_p50),
        ("net.shed_ratio", shed_ratio),
        ("server.inproc_p50_us", inproc_p50),
        ("server.wait_us", inproc_p50 - own("light.compute")),
        ("server.mean_batch", heavy_mean),
        ("server.batch_fill", heavy_mean / config.max_batch as f64),
        ("server.batches", heavy_batches as f64),
        ("tensor.from_rows_us", own("tensor.from_rows")),
        ("embed.batch_us", own("embed.batch")),
        ("embed.row_us", own("embed.row")),
        ("engine.pack_us", own("engine.pack")),
        ("engine.score_us", own("engine.score")),
        ("engine.candidate_fraction", candidate_fraction),
        ("server.verdict_us", own("server.verdict")),
        ("hdc_zsc.encode_class_us", own("hdc_zsc.encode_class")),
        ("publish.repack_us", own("publish.repack")),
        ("stream.fold_us", own("stream.fold")),
        ("wal.append_us", own("wal.append")),
        ("wal.record_bytes", log_bytes as f64 / appended.len() as f64),
        ("compact.us", median(tracer.durations_us("compact"))),
        ("compact.base_bytes", base_bytes as f64),
        ("checkpoint.capture_us", own("checkpoint.capture")),
        ("checkpoint.save_us", own("checkpoint.save")),
        ("recover.load_base_s", own("recover.load_base") / 1e6),
        ("recover.replay_s", own("recover.replay") / 1e6),
        ("recover.records", replayed as f64),
        (
            "loadgen.late_us",
            median(tracer.start_offsets_us("net.client_query")),
        ),
        ("trace.overhead_us", socket_p50 - plain.percentile(0.5)),
        ("unattributed_us", socket_p50 - codec - inproc_p50),
    ]);
    eprintln!(
        "servebench: {} traced: light batch {light_batch}, heavy batch {heavy_batch} \
         ({heavy_batches} batches), socket p50 {socket_p50:.1} us (n={}), in-process p50 \
         {inproc_p50:.1} us (n={}), untraced socket p50 {:.1} us (n={})",
        workload.name,
        socket_traced.samples.len(),
        inproc.samples.len(),
        plain.percentile(0.5),
        plain.samples.len(),
    );
    Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}

/// Where the run keeps WAL files, bases and spans: inside the checkout.
pub fn state_dir() -> PathBuf {
    PathBuf::from(".bench_state")
}
