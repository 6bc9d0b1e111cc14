//! Network serving front-end: a TCP wire protocol around the
//! [`QueryServer`](crate::QueryServer), with admission control.
//!
//! The in-process serving stack ends at
//! [`QueryServer::query`](crate::QueryServer::query); this module puts a
//! socket in front of it:
//!
//! - [`frame`] — length-prefixed, CRC-checked message framing (the WAL's
//!   record-frame shape lifted onto a socket);
//! - [`wire`] — the versioned handshake, every request/response type, and
//!   the typed error codes;
//! - [`NetServer`] — accept loop + thread-per-connection handlers, bounded
//!   admission with typed `overloaded` load-shedding, per-connection
//!   request quotas, socket timeouts, and graceful drain;
//! - [`NetClient`] — a small blocking client, used by the end-to-end
//!   benchmark (`servebench`) and the test suites.
//!
//! The contract that matters carries over the socket unchanged: every
//! served query is **bit-identical** to
//! [`ModelSnapshot::solo_topk`](crate::ModelSnapshot::solo_topk) against
//! the snapshot version named in the response — similarities travel as raw
//! `f32` bit patterns, so nothing is lost to float formatting. The
//! normative protocol specification lives in `docs/wire-protocol.md`; the
//! operator's view (tuning admission, reading rejections) in
//! `docs/operations.md`.

pub mod client;
pub mod frame;
pub mod server;
pub mod wire;

pub use client::{ClientConfig, NetClient, Welcome};
pub use server::{NetConfig, NetServer, NetStats};
pub use wire::{WireScore, WireStats, PROTOCOL_VERSION};

/// Why a network operation failed, on either side of the socket.
#[derive(Debug)]
#[must_use = "a network error says why the exchange failed and should be handled"]
#[non_exhaustive]
pub enum NetError {
    /// The underlying socket failed.
    Io(std::io::Error),
    /// A frame could not be read or written (corrupt, oversized, or the
    /// peer stalled mid-frame).
    Frame(frame::FrameError),
    /// The peer sent bytes that are valid frames but not valid protocol.
    Protocol(String),
    /// The server answered with a typed `error` response; `code` is one
    /// of the [`wire::code`] constants (e.g.
    /// [`wire::code::OVERLOADED`] — back off and retry — or
    /// [`wire::code::DRAINING`]).
    Rejected {
        /// Machine-readable rejection code.
        code: String,
        /// Human-readable detail from the server.
        message: String,
    },
    /// The response did not arrive within the client's response timeout.
    Timeout,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket I/O failed: {e}"),
            NetError::Frame(e) => write!(f, "framing failed: {e}"),
            NetError::Protocol(reason) => write!(f, "protocol violation: {reason}"),
            NetError::Rejected { code, message } => {
                write!(f, "server rejected [{code}]: {message}")
            }
            NetError::Timeout => write!(f, "timed out waiting for the response"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<frame::FrameError> for NetError {
    fn from(e: frame::FrameError) -> Self {
        NetError::Frame(e)
    }
}

impl NetError {
    /// `true` when the failure is a typed rejection carrying `code` —
    /// `err.is_rejection(wire::code::OVERLOADED)` is how a load generator
    /// counts load-sheds.
    pub fn is_rejection(&self, code: &str) -> bool {
        matches!(self, NetError::Rejected { code: c, .. } if c == code)
    }
}
