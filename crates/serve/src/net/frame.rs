//! Length-prefixed, checksummed message framing shared by the network
//! server and client — the WAL's record-frame shape lifted onto a socket.
//!
//! Every message travels as one frame:
//!
//! ```text
//! │ len u32 LE │ crc32 u32 LE │ payload (len bytes) │
//! ```
//!
//! The CRC is the same IEEE CRC-32 guarding WAL records
//! ([`crate::wal::crc32`]), computed over the payload bytes. Payloads are
//! UTF-8 JSON documents, except the binary `query` request, as described in
//! `docs/wire-protocol.md`; this layer never looks inside them. A frame whose
//! declared length exceeds [`MAX_FRAME_LEN`] or whose checksum does not
//! match is a protocol violation, not a transport hiccup — the peer is
//! expected to close the connection.
//!
//! # Timeouts and the idle tick
//!
//! [`read_frame`] is built for sockets with a short read timeout: a timeout
//! that fires **before any byte of a frame arrived** is reported as
//! [`ReadOutcome::Idle`] — the caller's chance to check for drain and call
//! again. Once the first byte of a frame has been consumed the reader
//! commits: it retries short reads until the frame completes or the
//! caller's `mid_frame_budget` elapses, at which point the slow sender gets
//! [`FrameError::Timeout`] (the guard against a peer trickling one byte per
//! tick to hold a connection slot forever).

use crate::wal::crc32;
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

/// Frame-header length, on the wire and in the WAL: payload length +
/// payload CRC.
pub const FRAME_HEADER_LEN: usize = 4 + 4;

/// Sanity cap on a single frame payload (64 MiB), on the wire and in the
/// WAL. A length prefix past this is treated as a protocol violation (or,
/// in the WAL, as corruption) rather than attempted as an allocation.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Why a frame could not be read or written.
#[derive(Debug)]
#[must_use = "a frame error says why the connection is unusable and should be handled"]
#[non_exhaustive]
pub enum FrameError {
    /// The underlying socket read or write failed.
    Io(io::Error),
    /// The peer sent bytes that are not a valid frame (bad checksum, or the
    /// connection closed mid-frame).
    Corrupt(String),
    /// The peer declared a frame longer than [`MAX_FRAME_LEN`].
    TooLarge(u32),
    /// The peer started a frame but did not finish it within the reader's
    /// mid-frame budget.
    Timeout,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O failed: {e}"),
            FrameError::Corrupt(reason) => write!(f, "corrupt frame: {reason}"),
            FrameError::TooLarge(len) => write!(
                f,
                "frame declares {len} payload bytes, the cap is {MAX_FRAME_LEN}"
            ),
            FrameError::Timeout => write!(f, "peer did not finish its frame in time"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// What one [`read_frame`] call produced.
#[derive(Debug)]
#[must_use = "an Idle/Closed outcome changes what the caller must do next"]
pub enum ReadOutcome {
    /// A complete, checksum-verified frame payload.
    Frame(Vec<u8>),
    /// The peer closed the connection cleanly, on a frame boundary.
    Closed,
    /// The socket's read timeout fired before any byte of a new frame
    /// arrived — nothing was consumed; check for drain and call again.
    Idle,
}

/// Encodes `payload` as one frame — the encoder behind [`write_frame`].
///
/// # Panics
///
/// Debug-asserts `payload.len() <= MAX_FRAME_LEN`; every caller builds
/// payloads far below the cap.
pub(crate) fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    encode_frame_into(payload, &mut frame);
    frame
}

/// [`encode_frame`], appending the frame to `out`: the one frame writer,
/// which the WAL's record appends also call.
pub(crate) fn encode_frame_into(payload: &[u8], out: &mut Vec<u8>) {
    debug_assert!(payload.len() <= MAX_FRAME_LEN as usize);
    out.extend_from_slice(
        &u32::try_from(payload.len())
            .expect("payload under cap")
            .to_le_bytes(),
    );
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Encodes `payload` as one frame and writes it (flushed) to `w`.
///
/// # Errors
///
/// Any [`io::Error`] from the underlying writer.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&encode_frame(payload))?;
    w.flush()
}

/// Reads one frame from `r`, verifying its checksum.
///
/// Designed for sockets carrying a short read timeout (see the module
/// docs): a timeout on a frame boundary is [`ReadOutcome::Idle`], a clean
/// EOF on a frame boundary is [`ReadOutcome::Closed`], and once a frame has
/// started the reader keeps retrying timeouts until `mid_frame_budget` has
/// elapsed since the frame's first byte.
///
/// # Errors
///
/// [`FrameError::Corrupt`] for a checksum mismatch or an EOF mid-frame,
/// [`FrameError::TooLarge`] for an oversized length prefix,
/// [`FrameError::Timeout`] when the budget runs out mid-frame, and
/// [`FrameError::Io`] for every other socket failure.
pub fn read_frame(
    r: &mut impl Read,
    mid_frame_budget: Duration,
) -> Result<ReadOutcome, FrameError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    let mut deadline = None;
    match fill(r, &mut header, &mut deadline, mid_frame_budget)? {
        Fill::Done => {}
        Fill::IdleBoundary => return Ok(ReadOutcome::Idle),
        Fill::ClosedBoundary => return Ok(ReadOutcome::Closed),
    }
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
    if len > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    match fill(r, &mut payload, &mut deadline, mid_frame_budget)? {
        Fill::Done => {}
        // A timeout or EOF *inside* the payload can never be a boundary:
        // `deadline` is already set, so `fill` reports them as errors.
        Fill::IdleBoundary | Fill::ClosedBoundary => {
            unreachable!("mid-frame fill cannot report a boundary outcome")
        }
    }
    if crc32(&payload) != crc {
        return Err(FrameError::Corrupt(format!(
            "payload of {len} bytes fails its checksum"
        )));
    }
    Ok(ReadOutcome::Frame(payload))
}

/// How a [`fill`] call ended.
enum Fill {
    /// The buffer was filled completely.
    Done,
    /// Timeout before the first byte of the frame — only possible while
    /// `deadline` is unset.
    IdleBoundary,
    /// Clean EOF before the first byte of the frame — only possible while
    /// `deadline` is unset.
    ClosedBoundary,
}

/// Reads until `buf` is full. `deadline` is `None` until the frame's first
/// byte arrives, at which point it is set to `now + budget` and shared with
/// the caller's subsequent fills — the budget covers the *whole* frame.
fn fill(
    r: &mut impl Read,
    buf: &mut [u8],
    deadline: &mut Option<Instant>,
    budget: Duration,
) -> Result<Fill, FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 && deadline.is_none() {
                    return Ok(Fill::ClosedBoundary);
                }
                return Err(FrameError::Corrupt(
                    "connection closed mid-frame".to_string(),
                ));
            }
            Ok(n) => {
                if deadline.is_none() {
                    *deadline = Some(Instant::now() + budget);
                }
                filled += n;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => match *deadline {
                None => return Ok(Fill::IdleBoundary),
                Some(d) if Instant::now() >= d => return Err(FrameError::Timeout),
                Some(_) => {}
            },
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(Fill::Done)
}

/// Both `WouldBlock` and `TimedOut` mean "the socket read timeout fired" —
/// which of the two a platform reports varies.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const BUDGET: Duration = Duration::from_millis(200);

    fn encode(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, payload).expect("vec write");
        out
    }

    #[test]
    fn round_trips_a_payload() {
        let bytes = encode(b"{\"type\":\"hello\",\"protocol\":1}");
        assert_eq!(bytes.len(), FRAME_HEADER_LEN + 29);
        let mut cursor = Cursor::new(bytes);
        match read_frame(&mut cursor, BUDGET).expect("reads") {
            ReadOutcome::Frame(payload) => {
                assert_eq!(payload, b"{\"type\":\"hello\",\"protocol\":1}");
            }
            other => panic!("expected a frame, got {other:?}"),
        }
        // The cursor is exactly on the next frame boundary.
        match read_frame(&mut cursor, BUDGET).expect("boundary EOF") {
            ReadOutcome::Closed => {}
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    /// Pins the byte-level frame example in `docs/wire-protocol.md`: the
    /// 29-byte protocol-3 hello payload frames to these exact 37 bytes.
    #[test]
    fn documented_hello_frame_is_byte_exact() {
        let bytes = encode(b"{\"type\":\"hello\",\"protocol\":3}");
        assert_eq!(&bytes[..4], &[0x1d, 0x00, 0x00, 0x00], "len 29 LE");
        assert_eq!(
            &bytes[4..8],
            &0x91e5_a076_u32.to_le_bytes(),
            "IEEE CRC-32 of the payload"
        );
        assert_eq!(&bytes[8..], b"{\"type\":\"hello\",\"protocol\":3}");
    }

    #[test]
    fn corrupt_checksum_is_detected() {
        let mut bytes = encode(b"payload");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        match read_frame(&mut Cursor::new(bytes), BUDGET) {
            Err(FrameError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frame_is_corrupt_not_closed() {
        let bytes = encode(b"payload");
        for cut in 1..bytes.len() {
            match read_frame(&mut Cursor::new(&bytes[..cut]), BUDGET) {
                Err(FrameError::Corrupt(_)) => {}
                other => panic!("cut at {cut}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut bytes = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 4]);
        match read_frame(&mut Cursor::new(bytes), BUDGET) {
            Err(FrameError::TooLarge(len)) => assert_eq!(len, MAX_FRAME_LEN + 1),
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    /// A reader that times out (simulating a socket read timeout) before
    /// any byte: Idle. After the first byte: retried until the budget runs
    /// out, then Timeout.
    #[test]
    fn idle_and_mid_frame_timeouts_are_distinguished() {
        struct Stalled {
            sent: Vec<u8>,
            pos: usize,
        }
        impl Read for Stalled {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.pos < self.sent.len() {
                    buf[0] = self.sent[self.pos];
                    self.pos += 1;
                    Ok(1)
                } else {
                    Err(io::Error::new(io::ErrorKind::WouldBlock, "timeout"))
                }
            }
        }
        let mut idle = Stalled {
            sent: Vec::new(),
            pos: 0,
        };
        match read_frame(&mut idle, Duration::from_millis(10)).expect("idle") {
            ReadOutcome::Idle => {}
            other => panic!("expected Idle, got {other:?}"),
        }
        let mut slowloris = Stalled {
            sent: encode(b"payload")[..3].to_vec(),
            pos: 0,
        };
        match read_frame(&mut slowloris, Duration::from_millis(10)) {
            Err(FrameError::Timeout) => {}
            other => panic!("expected Timeout, got {other:?}"),
        }
    }
}
