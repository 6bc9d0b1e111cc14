//! The TCP front-end: an accept loop plus one handler thread per
//! connection, speaking the [`wire`] protocol over
//! [`frame`](super::frame) framing, with bounded admission in front of the
//! [`QueryServer`] dispatcher.
//!
//! # Admission control
//!
//! Queries (and only queries — mutations and stats are control-plane
//! traffic, already serialized by the [`QueryServer`]'s control mutex) pass
//! through a bounded admission counter before they may enter the
//! dispatcher's coalescing queue. When
//! [`NetConfig::admission_capacity`] queries are already in flight, the
//! request is **load-shed immediately** with a typed
//! [`overloaded`](super::wire::code::OVERLOADED) rejection instead of
//! queuing behind everyone else: under saturation the server keeps
//! answering what it admitted at full speed and tells the rest to back
//! off, rather than letting latency grow without bound.
//!
//! # Drain
//!
//! [`NetServer::shutdown`] (also run by `Drop`) marks the front-end
//! draining and then joins every thread: requests already being served are
//! answered, requests arriving after the mark are rejected with a typed
//! [`draining`](super::wire::code::DRAINING) error and the connection is
//! closed. Handler threads blocked waiting for a quiet client notice the
//! drain within one [`NetConfig::idle_tick`]. Shutting down the front-end
//! does **not** stop the wrapped [`QueryServer`] — the owner may serve it
//! in-process afterwards or hand it to a new front-end; stop it separately
//! via [`QueryServer::stop`] / `Drop`.

use super::frame::{read_frame, write_frame, FrameError, ReadOutcome};
use super::wire::{self, Request, Response, WireScore, WireStats, PROTOCOL_VERSION};
use super::NetError;
use crate::server::{QueryServer, ServeError, Verdict};
use dataset::AttributeSchema;
use hdc_zsc::ModelFile;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tensor::Matrix;

/// Tuning knobs of a [`NetServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Most connections served concurrently; further connects are refused
    /// with a best-effort `overloaded` error frame and closed.
    pub max_connections: usize,
    /// Most queries allowed past admission (i.e. inside the dispatcher
    /// queue or being scored) at once; the rest are load-shed with a typed
    /// `overloaded` rejection. Must be at least 1.
    pub admission_capacity: usize,
    /// Requests one connection may issue before it is closed with a
    /// `quota_exhausted` error; `0` means unlimited.
    pub connection_quota: u64,
    /// Socket read timeout. Doubles as the drain-responsiveness tick: a
    /// handler waiting for a quiet client re-checks the drain flag this
    /// often.
    pub idle_tick: Duration,
    /// How long a peer may take to finish a frame it started (and to
    /// complete the handshake) before the connection is dropped — the
    /// guard against slow-trickle senders pinning a connection slot.
    pub mid_frame_budget: Duration,
    /// Socket write timeout; a peer that stops reading cannot block a
    /// handler longer than this.
    pub write_timeout: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            max_connections: 64,
            admission_capacity: 256,
            connection_quota: 0,
            idle_tick: Duration::from_millis(100),
            mid_frame_budget: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
        }
    }
}

/// Counters describing the front-end's traffic so far; a point-in-time
/// copy from [`NetServer::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct NetStats {
    /// Connections accepted.
    pub connections: u64,
    /// Connections refused at the [`NetConfig::max_connections`] cap.
    pub refused_connections: u64,
    /// Frames read off sockets after each connection's handshake.
    pub requests: u64,
    /// Queries admitted past the admission counter.
    pub admitted: u64,
    /// Queries load-shed with `overloaded`.
    pub overloaded: u64,
    /// Requests rejected with `quota_exhausted`.
    pub quota_rejections: u64,
    /// Requests rejected with `draining`.
    pub draining_rejections: u64,
}

/// Monotonic counters shared by every handler thread.
#[derive(Debug, Default)]
struct Counters {
    connections: AtomicU64,
    refused_connections: AtomicU64,
    requests: AtomicU64,
    admitted: AtomicU64,
    overloaded: AtomicU64,
    quota_rejections: AtomicU64,
    draining_rejections: AtomicU64,
}

/// State shared between the accept loop, the handlers, and the
/// [`NetServer`] handle.
struct NetShared {
    server: Arc<QueryServer>,
    /// The serving schema, pinned at bind time: model files swapped in
    /// over the wire are decoded against it.
    schema: AttributeSchema,
    config: NetConfig,
    draining: AtomicBool,
    /// Queries currently past admission; the bounded-queue counter.
    inflight: AtomicUsize,
    open_connections: AtomicUsize,
    counters: Counters,
    /// Handler threads still running (or finished and awaiting reap); the
    /// accept loop pushes, `shutdown` joins.
    handlers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// How often the accept loop polls its non-blocking listener (and the
/// drain flag) when no connection is pending.
const ACCEPT_TICK: Duration = Duration::from_millis(10);

/// A running TCP front-end around a shared [`QueryServer`]; see the module
/// docs. Dropping the handle drains and joins every thread
/// ([`NetServer::shutdown`]).
pub struct NetServer {
    shared: Arc<NetShared>,
    local_addr: SocketAddr,
    accept: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("local_addr", &self.local_addr)
            .field("config", &self.shared.config)
            .field("draining", &self.shared.draining.load(Ordering::Acquire))
            .finish_non_exhaustive()
    }
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting connections against `server`.
    ///
    /// `schema` is pinned for the front-end's lifetime: model files
    /// arriving in `swap_model` requests are decoded against it, mirroring
    /// what
    /// [`QueryServer::start_durable`] pins for the WAL.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when the listener cannot be bound, and
    /// [`NetError::Protocol`] for an invalid `config`
    /// (`admission_capacity` or `max_connections` of 0).
    pub fn bind(
        addr: impl ToSocketAddrs,
        server: Arc<QueryServer>,
        schema: &AttributeSchema,
        config: NetConfig,
    ) -> Result<Self, NetError> {
        if config.admission_capacity == 0 {
            return Err(NetError::Protocol(
                "admission_capacity must be at least 1".to_string(),
            ));
        }
        if config.max_connections == 0 {
            return Err(NetError::Protocol(
                "max_connections must be at least 1".to_string(),
            ));
        }
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(NetShared {
            server,
            schema: schema.clone(),
            config,
            draining: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            open_connections: AtomicUsize::new(0),
            counters: Counters::default(),
            handlers: Mutex::new(Vec::new()),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, &listener))
        };
        Ok(Self {
            shared,
            local_addr,
            accept: Mutex::new(Some(accept)),
        })
    }

    /// The address the front-end is listening on — the way to learn the
    /// port after binding `"127.0.0.1:0"`.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Point-in-time copy of the front-end's traffic counters.
    pub fn stats(&self) -> NetStats {
        let c = &self.shared.counters;
        NetStats {
            connections: c.connections.load(Ordering::Acquire),
            refused_connections: c.refused_connections.load(Ordering::Acquire),
            requests: c.requests.load(Ordering::Acquire),
            admitted: c.admitted.load(Ordering::Acquire),
            overloaded: c.overloaded.load(Ordering::Acquire),
            quota_rejections: c.quota_rejections.load(Ordering::Acquire),
            draining_rejections: c.draining_rejections.load(Ordering::Acquire),
        }
    }

    /// Drains and stops the front-end: marks it draining, then joins the
    /// accept loop and every handler thread. Requests already being served
    /// are answered; later ones get a typed `draining` rejection before
    /// their connection closes. Idempotent; `Drop` runs it too.
    ///
    /// The wrapped [`QueryServer`] keeps running — stop it separately.
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::Release);
        let accept = self.accept.lock().expect("accept mutex poisoned").take();
        if let Some(handle) = accept {
            let _ = handle.join();
        }
        let handlers = std::mem::take(
            &mut *self
                .shared
                .handlers
                .lock()
                .expect("handlers mutex poisoned"),
        );
        for handle in handlers {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accepts connections until drain, spawning one handler thread each and
/// reaping finished handler handles as it goes.
fn accept_loop(shared: &Arc<NetShared>, listener: &TcpListener) {
    while !shared.draining.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.counters.connections.fetch_add(1, Ordering::AcqRel);
                if shared.open_connections.load(Ordering::Acquire) >= shared.config.max_connections
                {
                    shared
                        .counters
                        .refused_connections
                        .fetch_add(1, Ordering::AcqRel);
                    refuse_connection(shared, stream);
                    continue;
                }
                shared.open_connections.fetch_add(1, Ordering::AcqRel);
                let handle = {
                    let shared = Arc::clone(shared);
                    std::thread::spawn(move || {
                        handle_connection(&shared, stream);
                        shared.open_connections.fetch_sub(1, Ordering::AcqRel);
                    })
                };
                let mut handlers = shared.handlers.lock().expect("handlers mutex poisoned");
                // Reap finished handlers so a long-lived server does not
                // accumulate one dead handle per past connection.
                let mut i = 0;
                while i < handlers.len() {
                    if handlers[i].is_finished() {
                        let _ = handlers.swap_remove(i).join();
                    } else {
                        i += 1;
                    }
                }
                handlers.push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_TICK);
            }
            Err(_) => std::thread::sleep(ACCEPT_TICK),
        }
    }
}

/// Best-effort `overloaded` error frame to a connection refused at the
/// connection cap; the peer may already be gone, which is fine.
fn refuse_connection(shared: &NetShared, mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let response = Response::Error {
        code: wire::code::OVERLOADED.to_string(),
        message: format!(
            "connection limit of {} reached",
            shared.config.max_connections
        ),
    };
    let _ = write_frame(&mut stream, &response.encode());
}

/// Sends one response frame; `false` means the peer is unreachable and the
/// connection should be abandoned.
fn send(stream: &mut TcpStream, response: &Response) -> bool {
    write_frame(stream, &response.encode()).is_ok()
}

/// Runs one connection: handshake, then the request loop until the peer
/// closes, errors, exhausts its quota, or the front-end drains.
fn handle_connection(shared: &NetShared, mut stream: TcpStream) {
    if stream
        .set_read_timeout(Some(shared.config.idle_tick))
        .is_err()
        || stream
            .set_write_timeout(Some(shared.config.write_timeout))
            .is_err()
    {
        return;
    }
    let _ = stream.set_nodelay(true);
    if !handshake(shared, &mut stream) {
        return;
    }
    let mut used: u64 = 0;
    loop {
        let payload = match read_frame(&mut stream, shared.config.mid_frame_budget) {
            Ok(ReadOutcome::Frame(payload)) => payload,
            Ok(ReadOutcome::Idle) => {
                if shared.draining.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
            Ok(ReadOutcome::Closed) => return,
            Err(FrameError::Corrupt(reason)) => {
                let _ = send(
                    &mut stream,
                    &Response::Error {
                        code: wire::code::BAD_REQUEST.to_string(),
                        message: format!("unreadable frame: {reason}"),
                    },
                );
                return;
            }
            Err(FrameError::TooLarge(len)) => {
                let _ = send(
                    &mut stream,
                    &Response::Error {
                        code: wire::code::BAD_REQUEST.to_string(),
                        message: format!("frame of {len} bytes exceeds the cap"),
                    },
                );
                return;
            }
            Err(FrameError::Timeout | FrameError::Io(_)) => return,
        };
        shared.counters.requests.fetch_add(1, Ordering::AcqRel);
        let quota = shared.config.connection_quota;
        if quota != 0 && used >= quota {
            shared
                .counters
                .quota_rejections
                .fetch_add(1, Ordering::AcqRel);
            let _ = send(
                &mut stream,
                &Response::from_serve_error(&ServeError::QuotaExhausted { limit: quota }),
            );
            return;
        }
        used += 1;
        let request = match Request::decode_frame(payload) {
            Ok(request) => request,
            Err(reason) => {
                if !send(
                    &mut stream,
                    &Response::Error {
                        code: wire::code::BAD_REQUEST.to_string(),
                        message: reason,
                    },
                ) {
                    return;
                }
                continue;
            }
        };
        if shared.draining.load(Ordering::Acquire) {
            shared
                .counters
                .draining_rejections
                .fetch_add(1, Ordering::AcqRel);
            let _ = send(
                &mut stream,
                &Response::from_serve_error(&ServeError::Draining),
            );
            return;
        }
        let response = respond(shared, request);
        if !send(&mut stream, &response) {
            return;
        }
    }
}

/// Reads and answers the handshake frame. Returns `false` when the
/// connection must close (bad hello, version mismatch, timeout).
fn handshake(shared: &NetShared, stream: &mut TcpStream) -> bool {
    let deadline = Instant::now() + shared.config.mid_frame_budget;
    let payload = loop {
        match read_frame(stream, shared.config.mid_frame_budget) {
            Ok(ReadOutcome::Frame(payload)) => break payload,
            Ok(ReadOutcome::Idle) => {
                if shared.draining.load(Ordering::Acquire) || Instant::now() >= deadline {
                    return false;
                }
            }
            Ok(ReadOutcome::Closed) | Err(_) => return false,
        }
    };
    let protocol = match Request::decode(&payload) {
        Ok(Request::Hello { protocol }) => protocol,
        Ok(_) => {
            let _ = send(
                stream,
                &Response::Error {
                    code: wire::code::BAD_REQUEST.to_string(),
                    message: "the first frame on a connection must be `hello`".to_string(),
                },
            );
            return false;
        }
        Err(reason) => {
            let _ = send(
                stream,
                &Response::Error {
                    code: wire::code::BAD_REQUEST.to_string(),
                    message: reason,
                },
            );
            return false;
        }
    };
    if protocol != PROTOCOL_VERSION {
        let _ = send(
            stream,
            &Response::Error {
                code: wire::code::UNSUPPORTED_PROTOCOL.to_string(),
                message: format!(
                    "client speaks protocol {protocol}, this server speaks {PROTOCOL_VERSION}"
                ),
            },
        );
        return false;
    }
    let snapshot = shared.server.snapshot();
    send(
        stream,
        &Response::Welcome {
            protocol: PROTOCOL_VERSION,
            feature_dim: shared.server.feature_dim() as u64,
            attribute_dim: shared.server.attribute_dim() as u64,
            snapshot_version: snapshot.version(),
            classes: snapshot.memory().len() as u64,
        },
    )
}

/// Releases one admission slot on drop, so early returns and panics in the
/// query path cannot leak capacity.
struct AdmissionPermit<'a>(&'a AtomicUsize);

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Tries to take an admission slot without ever exceeding `capacity`.
fn try_admit(shared: &NetShared) -> Option<AdmissionPermit<'_>> {
    let capacity = shared.config.admission_capacity;
    shared
        .inflight
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |inflight| {
            (inflight < capacity).then_some(inflight + 1)
        })
        .ok()
        .map(|_| AdmissionPermit(&shared.inflight))
}

/// Serves one decoded post-handshake request.
fn respond(shared: &NetShared, request: Request) -> Response {
    match request {
        Request::Hello { .. } => Response::Error {
            code: wire::code::BAD_REQUEST.to_string(),
            message: "connection is already past its handshake".to_string(),
        },
        Request::Query { features, k } => {
            let Some(permit) = try_admit(shared) else {
                shared.counters.overloaded.fetch_add(1, Ordering::AcqRel);
                return Response::from_serve_error(&ServeError::Overloaded {
                    capacity: shared.config.admission_capacity,
                });
            };
            shared.counters.admitted.fetch_add(1, Ordering::AcqRel);
            let result = shared.server.query_with_verdict(&features);
            drop(permit);
            match result {
                Ok((version, mut results, mut verdict)) => {
                    // `k` narrows within the server's configured top-k; a
                    // prefix of the full response is still bit-identical
                    // to the (truncated) solo reference — and the verdict
                    // only depends on the top-1, which truncation keeps
                    // unless `k = 0` empties the response, which is
                    // `unknown` under a threshold (`ModelSnapshot::verdict`).
                    if let Some(k) = k {
                        results.truncate(usize::try_from(k).unwrap_or(usize::MAX));
                        if results.is_empty() {
                            verdict = verdict.map(|_| Verdict::Unknown);
                        }
                    }
                    Response::TopK {
                        version,
                        results: results
                            .into_iter()
                            .map(|(label, sim)| WireScore {
                                label,
                                sim_bits: sim.to_bits(),
                            })
                            .collect(),
                        verdict,
                    }
                }
                Err(e) => Response::from_serve_error(&e),
            }
        }
        Request::RegisterClass { label, attributes } => {
            mutation_response(shared.server.register_class(label, &attributes))
        }
        Request::UpdateClass { label, attributes } => {
            mutation_response(shared.server.update_class(&label, &attributes))
        }
        Request::RemoveClass { label } => mutation_response(shared.server.remove_class(&label)),
        Request::SetThreshold { threshold_bits } => mutation_response(match threshold_bits {
            // Decoded from raw bits, so the server judges queries by the
            // exact f32 the client calibrated (non-finite bits are rejected
            // by `set_threshold` with a typed `invalid_config`).
            Some(bits) => shared.server.set_threshold(f32::from_bits(bits)),
            None => shared.server.clear_threshold(),
        }),
        Request::SwapModel {
            model_file,
            model,
            labels,
            attributes,
        } => swap_response(shared, &model_file, &model, labels, &attributes),
        Request::Observe { label, features } => {
            // An observe below the publication boundary folds counters
            // without publishing: answer with the version still serving so
            // the client always learns where the stream stands.
            match shared.server.observe(&label, &features) {
                Ok(Some(published)) => Response::Mutated {
                    version: published.version(),
                    classes: published.memory().len() as u64,
                },
                Ok(None) => {
                    let snapshot = shared.server.snapshot();
                    Response::Mutated {
                        version: snapshot.version(),
                        classes: snapshot.memory().len() as u64,
                    }
                }
                Err(e) => Response::from_serve_error(&e),
            }
        }
        Request::Flush => mutation_response(shared.server.flush()),
        Request::Stats => {
            let serve = shared.server.stats();
            let stream = shared.server.stream_stats();
            let durability = shared.server.durability_stats();
            let snapshot = shared.server.snapshot();
            let net = &shared.counters;
            Response::Stats(WireStats {
                queries: serve.queries,
                batches: serve.batches,
                max_batch_observed: serve.max_batch_observed as u64,
                swaps: serve.swaps,
                snapshot_version: snapshot.version(),
                classes: snapshot.memory().len() as u64,
                draining: shared.draining.load(Ordering::Acquire),
                net_connections: net.connections.load(Ordering::Acquire),
                net_refused_connections: net.refused_connections.load(Ordering::Acquire),
                net_requests: net.requests.load(Ordering::Acquire),
                net_admitted: net.admitted.load(Ordering::Acquire),
                net_overloaded: net.overloaded.load(Ordering::Acquire),
                net_quota_rejections: net.quota_rejections.load(Ordering::Acquire),
                net_draining_rejections: net.draining_rejections.load(Ordering::Acquire),
                observes: stream.observes,
                pending_classes: stream.pending_classes,
                since_publish: stream.since_publish,
                drift_alarms: stream.drift_alarms,
                wal_bytes: durability.map_or(0, |d| d.wal_bytes),
                records_since_compaction: durability.map_or(0, |d| d.records_since_compaction),
            })
        }
    }
}

/// Maps a mutation result onto `mutated` / a typed error.
fn mutation_response(result: Result<Arc<crate::ModelSnapshot>, ServeError>) -> Response {
    match result {
        Ok(snapshot) => Response::Mutated {
            version: snapshot.version(),
            classes: snapshot.memory().len() as u64,
        },
        Err(e) => Response::from_serve_error(&e),
    }
}

/// Decodes the model file against the pinned schema, then applies a
/// `swap_model` request.
fn swap_response(
    shared: &NetShared,
    model_file: &str,
    model: &[u8],
    labels: Vec<String>,
    attributes: &[Vec<f32>],
) -> Response {
    let model = match ModelFile::decode(model_file, model, &shared.schema) {
        Ok(model) => model,
        Err(e) => return Response::from_serve_error(&ServeError::Checkpoint(e)),
    };
    // `Matrix::from_rows` asserts rectangularity; validate first so a
    // ragged request is a typed rejection, not a handler panic.
    let width = attributes.first().map_or(0, Vec::len);
    if attributes.is_empty() || attributes.iter().any(|row| row.len() != width) {
        return Response::from_serve_error(&ServeError::InvalidConfig(
            "swap_model needs a non-empty, rectangular attribute matrix".to_string(),
        ));
    }
    let matrix = Matrix::from_rows(attributes);
    mutation_response(shared.server.swap_model(model, labels, &matrix))
}
