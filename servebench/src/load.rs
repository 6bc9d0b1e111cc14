//! The open-loop load generator and the correctness check of its answers.
//!
//! Each connection sends on a fixed schedule: request `i` is due at
//! `offset + i * interval`, whether or not earlier answers came back. A
//! blocking connection that falls behind sends its next request as soon as
//! it can, and every request is timed from when it was *due*, so a stall is
//! charged to every request it delayed. How late each send was is kept too.
//!
//! A closed-loop phase instead sends each query when the last one came
//! back, so no queue can build behind a slow stretch of the host.

use crate::inputs::Inputs;
use crate::trace::Tracer;
use serve::net::{ClientConfig, NetClient};
use serve::{ModelSnapshot, QueryServer, Verdict};
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Where queries go.
#[derive(Debug, Clone, Copy)]
pub enum Target<'a> {
    /// Over a fresh `NetClient` connection per load thread.
    Socket(SocketAddr),
    /// Straight into `QueryServer::query_with_verdict`.
    InProcess(&'a QueryServer),
}

/// A served answer: which row, which snapshot, and a digest of the labels,
/// similarity bits and verdict. Keeping a digest instead of the labels keeps
/// the generator's own memory small and independent of how many requests a
/// run sends.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    /// Query-pool row that was sent.
    pub row: usize,
    /// Snapshot version that served it.
    pub version: u64,
    /// [`digest`] of the top-k and verdict.
    pub digest: u64,
}

/// Hashes a top-k (labels and exact similarity bits) with its verdict.
pub fn digest(top: &[(String, f32)], verdict: Option<Verdict>) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    for (label, sim) in top {
        label.hash(&mut hasher);
        sim.to_bits().hash(&mut hasher);
    }
    verdict.hash(&mut hasher);
    hasher.finish()
}

/// One request of a phase.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Due time from the schedule's start, µs.
    pub due_us: f64,
    /// Completion minus due time, µs.
    pub latency_us: f64,
    /// Send time minus due time, µs.
    pub late_us: f64,
    /// The answer, or why there was none.
    pub answer: Result<Answer, String>,
}

/// Everything one fixed-rate phase recorded.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Wall time from the schedule's start to the last completion, s.
    pub elapsed_s: f64,
    /// Every request, in no particular order.
    pub samples: Vec<Sample>,
}

impl Phase {
    /// Latencies of answered requests, ascending.
    pub fn latencies(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.answer.is_ok())
            .map(|s| s.latency_us)
            .collect();
        out.sort_by(f64::total_cmp);
        out
    }

    /// Nearest-rank percentile of answered latencies (0 when none).
    pub fn percentile(&self, p: f64) -> f64 {
        let lats = self.latencies();
        if lats.is_empty() {
            0.0
        } else {
            metrics::nearest_rank(&lats, p)
        }
    }

    /// Requests that errored or never came back.
    pub fn failures(&self) -> usize {
        self.samples.iter().filter(|s| s.answer.is_err()).count()
    }

    /// Answered requests per second of wall time.
    pub fn goodput(&self) -> f64 {
        let answered = self.samples.len() - self.failures();
        answered as f64 / self.elapsed_s.max(1e-9)
    }

    /// The largest send lateness of the phase's last tenth: how far the
    /// generator was behind when the schedule ended.
    pub fn final_late_us(&self) -> f64 {
        let end = self.samples.iter().map(|s| s.due_us).fold(0.0, f64::max);
        self.samples
            .iter()
            .filter(|s| s.due_us >= 0.9 * end)
            .map(|s| s.late_us)
            .fold(0.0, f64::max)
    }
}

/// How a phase ends.
#[derive(Debug, Clone, Copy)]
pub enum Until<'a> {
    /// After this much schedule.
    Elapsed(Duration),
    /// When the flag is raised.
    Flag(&'a AtomicBool),
}

/// Runs one open-loop phase: `connections` load threads share `rate`
/// requests per second, staggered evenly. With a tracer, each request
/// records a `loadgen.request` span from due to done around a
/// `net.client_query` or `server.query` child from send to done.
pub fn open_loop(
    target: Target<'_>,
    inputs: &Inputs,
    phase_id: u64,
    rate: f64,
    connections: usize,
    until: Until<'_>,
    tracer: Option<&Tracer>,
) -> Phase {
    let interval = Duration::from_secs_f64(connections as f64 / rate);
    let barrier = Barrier::new(connections);
    let results: Vec<(Vec<Sample>, Instant, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = match target {
                        Target::Socket(addr) => Some(
                            NetClient::connect(addr, ClientConfig::default())
                                .expect("load generator connects"),
                        ),
                        Target::InProcess(_) => None,
                    };
                    barrier.wait();
                    let start = Instant::now();
                    let offset = interval.mul_f64(c as f64 / connections as f64);
                    let mut samples = Vec::new();
                    for i in 0u64.. {
                        let due = start + offset + interval.mul_f64(i as f64);
                        let done = match until {
                            Until::Elapsed(d) => due >= start + d,
                            Until::Flag(flag) => flag.load(Ordering::Acquire),
                        };
                        if done {
                            break;
                        }
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let row = inputs.pick(phase_id, c as u64, i);
                        let request = (phase_id << 40) | ((c as u64) << 32) | i;
                        let root = tracer.map(Tracer::id);
                        let sent = Instant::now();
                        let served = match (&mut client, target) {
                            (Some(client), _) => client
                                .query_with_verdict(&inputs.queries[row], None)
                                .map_err(|e| e.to_string()),
                            (None, Target::InProcess(server)) => server
                                .query_with_verdict(&inputs.queries[row])
                                .map_err(|e| e.to_string()),
                            (None, Target::Socket(_)) => unreachable!("socket threads connect"),
                        };
                        let finished = Instant::now();
                        if let (Some(tracer), Some(root)) = (tracer, root) {
                            let child = match target {
                                Target::Socket(_) => "net.client_query",
                                Target::InProcess(_) => "server.query",
                            };
                            tracer.record(tracer.id(), child, Some(root), request, sent, finished);
                            tracer.record(root, "loadgen.request", None, request, due, finished);
                        }
                        samples.push(Sample {
                            due_us: due.duration_since(start).as_secs_f64() * 1e6,
                            latency_us: finished.saturating_duration_since(due).as_secs_f64() * 1e6,
                            late_us: sent.saturating_duration_since(due).as_secs_f64() * 1e6,
                            answer: served.map(|(version, top, verdict)| Answer {
                                row,
                                version,
                                digest: digest(&top, verdict),
                            }),
                        });
                    }
                    (samples, start, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    let start = results.iter().map(|r| r.1).min().expect("one connection");
    let end = results.iter().map(|r| r.2).max().expect("one connection");
    Phase {
        elapsed_s: end.duration_since(start).as_secs_f64(),
        samples: results.into_iter().flat_map(|r| r.0).collect(),
    }
}

/// Runs one closed-loop phase on the calling thread over one connection:
/// send a query, wait for its answer, send the next, until `duration` is
/// spent. Each request is due when it is sent. With one query in flight, a
/// slow stretch of the host slows only the queries inside it, and every
/// batch the dispatcher forms holds one row.
pub fn closed_loop(addr: SocketAddr, inputs: &Inputs, phase_id: u64, duration: Duration) -> Phase {
    let mut client =
        NetClient::connect(addr, ClientConfig::default()).expect("load generator connects");
    let start = Instant::now();
    let mut samples = Vec::new();
    for i in 0u64.. {
        let sent = Instant::now();
        if sent >= start + duration {
            break;
        }
        let row = inputs.pick(phase_id, 0, i);
        let served = client
            .query_with_verdict(&inputs.queries[row], None)
            .map_err(|e| e.to_string());
        samples.push(Sample {
            due_us: sent.duration_since(start).as_secs_f64() * 1e6,
            latency_us: sent.elapsed().as_secs_f64() * 1e6,
            late_us: 0.0,
            answer: served.map(|(version, top, verdict)| Answer {
                row,
                version,
                digest: digest(&top, verdict),
            }),
        });
    }
    Phase {
        elapsed_s: start.elapsed().as_secs_f64(),
        samples,
    }
}

/// Checks served answers against `ModelSnapshot::solo_topk` on the snapshot
/// version that served each, caching the reference per (row, version).
#[derive(Debug)]
pub struct Checker<'a> {
    snapshots: &'a BTreeMap<u64, Arc<ModelSnapshot>>,
    inputs: &'a Inputs,
    top_k: usize,
    expected: HashMap<(usize, u64), u64>,
}

impl<'a> Checker<'a> {
    /// A checker over the acknowledged snapshots.
    pub fn new(
        snapshots: &'a BTreeMap<u64, Arc<ModelSnapshot>>,
        inputs: &'a Inputs,
        top_k: usize,
    ) -> Self {
        Self {
            snapshots,
            inputs,
            top_k,
            expected: HashMap::new(),
        }
    }

    /// Whether `answer` is bit-identical, verdict included, to solo scoring
    /// on the version that served it.
    pub fn matches(&mut self, answer: &Answer) -> bool {
        let Some(snapshot) = self.snapshots.get(&answer.version) else {
            return false;
        };
        let (inputs, top_k) = (self.inputs, self.top_k);
        let expected = self
            .expected
            .entry((answer.row, answer.version))
            .or_insert_with(|| {
                let solo = snapshot.solo_topk(&inputs.queries[answer.row], top_k);
                digest(&solo, snapshot.verdict(&solo))
            });
        *expected == answer.digest
    }

    /// Samples of `phase` that failed or came back wrong.
    pub fn failed(&mut self, phase: &Phase) -> usize {
        phase
            .samples
            .iter()
            .filter(|s| !s.answer.as_ref().is_ok_and(|a| self.matches(a)))
            .count()
    }
}
