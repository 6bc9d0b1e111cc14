//! A small blocking client for the [`NetServer`](super::NetServer)'s wire
//! protocol — one connection, one request in flight at a time.
//!
//! This is the reference implementation of the client side of
//! `docs/wire-protocol.md`: the end-to-end benchmark (`servebench`) drives
//! it, and the network test suites use it to pin server behaviour. Typed
//! rejections come back as [`NetError::Rejected`] carrying the wire code,
//! so a caller can distinguish *load-shed, retry later*
//! ([`code::OVERLOADED`](super::wire::code::OVERLOADED)) from *give up*
//! without string-matching messages.

use super::frame::{read_frame, write_frame, FrameError, ReadOutcome};
use super::wire::{Request, Response, WireStats, PROTOCOL_VERSION};
use super::NetError;
use crate::server::{ScoredLabel, Verdict};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Timeouts of a [`NetClient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// How long one request may wait for its response frame.
    pub response_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(5),
            response_timeout: Duration::from_secs(30),
        }
    }
}

/// What the server's `welcome` frame declared about itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Welcome {
    /// The protocol version both sides now speak.
    pub protocol: u32,
    /// Width of feature rows [`NetClient::query`] must send.
    pub feature_dim: u64,
    /// Width of attribute rows the mutation calls must send.
    pub attribute_dim: u64,
    /// Snapshot version serving at handshake time.
    pub snapshot_version: u64,
    /// Classes registered at handshake time.
    pub classes: u64,
}

/// One blocking connection to a [`NetServer`](super::NetServer);
/// handshaken on construction.
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    config: ClientConfig,
    welcome: Welcome,
}

/// The client-side read tick: short enough that `response_timeout` is
/// honoured promptly, long enough not to spin.
const READ_TICK: Duration = Duration::from_millis(50);

impl NetClient {
    /// Connects to `addr` and performs the protocol handshake.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] / [`NetError::Timeout`] for transport failures,
    /// [`NetError::Rejected`] when the server refuses the connection or
    /// the protocol version, and [`NetError::Protocol`] for a reply that
    /// is not part of the protocol.
    pub fn connect(addr: impl ToSocketAddrs, config: ClientConfig) -> Result<Self, NetError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| NetError::Protocol("address resolved to nothing".to_string()))?;
        let stream = TcpStream::connect_timeout(&addr, config.connect_timeout)?;
        stream.set_read_timeout(Some(READ_TICK))?;
        stream.set_write_timeout(Some(config.response_timeout))?;
        let _ = stream.set_nodelay(true);
        let mut client = Self {
            stream,
            config,
            welcome: Welcome {
                protocol: PROTOCOL_VERSION,
                feature_dim: 0,
                attribute_dim: 0,
                snapshot_version: 0,
                classes: 0,
            },
        };
        let response = client.call(&Request::Hello {
            protocol: PROTOCOL_VERSION,
        })?;
        match response {
            Response::Welcome {
                protocol,
                feature_dim,
                attribute_dim,
                snapshot_version,
                classes,
            } => {
                client.welcome = Welcome {
                    protocol,
                    feature_dim,
                    attribute_dim,
                    snapshot_version,
                    classes,
                };
                Ok(client)
            }
            other => Err(unexpected(&other, "welcome")),
        }
    }

    /// What the server declared about itself during the handshake.
    pub fn welcome(&self) -> Welcome {
        self.welcome
    }

    /// Scores one feature row, returning the serving snapshot version and
    /// the top-k labels with their similarities reconstructed bit-exactly
    /// from the wire (`f32::from_bits`).
    ///
    /// `k` narrows the response within the server's configured top-k;
    /// `None` returns the server's full top-k.
    ///
    /// # Errors
    ///
    /// [`NetError::Rejected`] for typed rejections (including
    /// `overloaded` load-sheds — retry those after backing off), plus the
    /// transport failures of [`NetClient::connect`].
    pub fn query(
        &mut self,
        features: &[f32],
        k: Option<u64>,
    ) -> Result<(u64, Vec<ScoredLabel>), NetError> {
        self.query_with_verdict(features, k)
            .map(|(version, results, _)| (version, results))
    }

    /// Like [`NetClient::query`], additionally returning the serving
    /// snapshot's open-set [`Verdict`] — `None` when that snapshot carried
    /// no rejection threshold (see [`NetClient::set_threshold`]).
    ///
    /// # Errors
    ///
    /// See [`NetClient::query`].
    pub fn query_with_verdict(
        &mut self,
        features: &[f32],
        k: Option<u64>,
    ) -> Result<(u64, Vec<ScoredLabel>, Option<Verdict>), NetError> {
        let response = self.call(&Request::Query {
            features: features.to_vec(),
            k,
        })?;
        match response {
            Response::TopK {
                version,
                results,
                verdict,
            } => Ok((
                version,
                results
                    .into_iter()
                    .map(|score| (score.label, f32::from_bits(score.sim_bits)))
                    .collect(),
                verdict,
            )),
            other => Err(unexpected(&other, "topk")),
        }
    }

    /// Sets (`Some`) or clears (`None`) the server's open-set rejection
    /// threshold; returns the snapshot version the change published. The
    /// threshold crosses the wire as raw `f32` bits, so the server judges
    /// queries by exactly the value the caller calibrated.
    ///
    /// # Errors
    ///
    /// See [`NetClient::query`]; a non-finite threshold comes back as a
    /// [`NetError::Rejected`] with code `invalid_config`.
    pub fn set_threshold(&mut self, threshold: Option<f32>) -> Result<u64, NetError> {
        self.mutate(&Request::SetThreshold {
            threshold_bits: threshold.map(f32::to_bits),
        })
    }

    /// Registers a new class; returns the snapshot version it published.
    ///
    /// # Errors
    ///
    /// See [`NetClient::query`]; duplicate labels come back as a
    /// [`NetError::Rejected`] with code `duplicate_label`.
    pub fn register_class(
        &mut self,
        label: impl Into<String>,
        attributes: &[f32],
    ) -> Result<u64, NetError> {
        self.mutate(&Request::RegisterClass {
            label: label.into(),
            attributes: attributes.to_vec(),
        })
    }

    /// Re-points an existing class; returns the snapshot version it
    /// published.
    ///
    /// # Errors
    ///
    /// See [`NetClient::query`].
    pub fn update_class(&mut self, label: &str, attributes: &[f32]) -> Result<u64, NetError> {
        self.mutate(&Request::UpdateClass {
            label: label.to_string(),
            attributes: attributes.to_vec(),
        })
    }

    /// Unregisters a class; returns the snapshot version it published.
    ///
    /// # Errors
    ///
    /// See [`NetClient::query`].
    pub fn remove_class(&mut self, label: &str) -> Result<u64, NetError> {
        self.mutate(&Request::RemoveClass {
            label: label.to_string(),
        })
    }

    /// Replaces the whole serving state from a checkpoint JSON document
    /// plus its class set; returns the snapshot version it published.
    ///
    /// # Errors
    ///
    /// See [`NetClient::query`]; invalid checkpoints come back with code
    /// `checkpoint`.
    pub fn swap_model(
        &mut self,
        checkpoint_json: impl Into<String>,
        labels: Vec<String>,
        attributes: Vec<Vec<f32>>,
    ) -> Result<u64, NetError> {
        self.mutate(&Request::SwapModel {
            checkpoint_json: checkpoint_json.into(),
            labels,
            attributes,
        })
    }

    /// Folds one streamed labeled example into `label`'s exact per-class
    /// counters on the server — the continual-learning verb. Returns the
    /// snapshot version now serving: it advances only when this observe
    /// landed a publication boundary ([`ServerConfig`](crate::ServerConfig)
    /// `publish_every`), and repeats the current version otherwise.
    ///
    /// # Errors
    ///
    /// See [`NetClient::query`]; unregistered labels come back as a
    /// [`NetError::Rejected`] with code `unknown_class`.
    pub fn observe(&mut self, label: &str, features: &[f32]) -> Result<u64, NetError> {
        self.mutate(&Request::Observe {
            label: label.to_string(),
            features: features.to_vec(),
        })
    }

    /// Publishes every pending streamed-class update immediately; returns
    /// the snapshot version now serving (unchanged when nothing was
    /// pending).
    ///
    /// # Errors
    ///
    /// See [`NetClient::query`].
    pub fn flush(&mut self) -> Result<u64, NetError> {
        self.mutate(&Request::Flush)
    }

    /// Fetches the server's combined serve + network counters.
    ///
    /// # Errors
    ///
    /// See [`NetClient::query`].
    pub fn stats(&mut self) -> Result<WireStats, NetError> {
        match self.call(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected(&other, "stats")),
        }
    }

    /// Sends a mutation request and unwraps the `mutated` response.
    fn mutate(&mut self, request: &Request) -> Result<u64, NetError> {
        match self.call(request)? {
            Response::Mutated { version, .. } => Ok(version),
            other => Err(unexpected(&other, "mutated")),
        }
    }

    /// One request/response exchange; typed `error` responses become
    /// [`NetError::Rejected`].
    fn call(&mut self, request: &Request) -> Result<Response, NetError> {
        write_frame(&mut self.stream, &request.encode()).map_err(FrameError::Io)?;
        let deadline = Instant::now() + self.config.response_timeout;
        let payload = loop {
            match read_frame(&mut self.stream, self.config.response_timeout)? {
                ReadOutcome::Frame(payload) => break payload,
                ReadOutcome::Idle => {
                    if Instant::now() >= deadline {
                        return Err(NetError::Timeout);
                    }
                }
                ReadOutcome::Closed => {
                    return Err(NetError::Protocol(
                        "server closed the connection before responding".to_string(),
                    ));
                }
            }
        };
        match Response::decode(&payload).map_err(NetError::Protocol)? {
            Response::Error { code, message } => Err(NetError::Rejected { code, message }),
            response => Ok(response),
        }
    }
}

/// The server answered with a frame that is valid protocol but not the
/// response this request expects.
fn unexpected(got: &Response, wanted: &str) -> NetError {
    NetError::Protocol(format!("expected a `{wanted}` response, got {got:?}"))
}
