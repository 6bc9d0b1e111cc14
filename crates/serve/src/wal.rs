//! Write-ahead log of serve-time class mutations — the durability half of
//! the serving layer's crash-safety contract.
//!
//! Every mutation accepted by a durable
//! [`QueryServer`](crate::QueryServer) is appended here **before** its
//! effect is published — one record per [`WalOp`] kind: register, update,
//! remove, swap, set (or clear) threshold, observe, and flush. The log plus
//! the latest [`CheckpointDelta`](hdc_zsc::CheckpointDelta) compaction
//! base always reconstruct the exact pre-crash serving state: recovery
//! loads the base and folds the live path's own state transition over the
//! WAL suffix (`seq >= next_record_seq`), so it serves bit-identical
//! results.
//!
//! # On-disk format
//!
//! ```text
//! ┌────────────────────────── file header (20 bytes) ─────────────────────────┐
//! │ magic "ZSCWAL1\n" (8) │ format u32 LE (=1) │ first_seq u64 LE             │
//! ├──────────────────────────── record frames ────────────────────────────────┤
//! │ len u32 LE │ crc32 u32 LE │ payload (len bytes of compact JSON)           │
//! │ len u32 LE │ crc32 u32 LE │ payload                                       │
//! │ …                                                                         │
//! └───────────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! The CRC is the IEEE CRC-32 (reflected, polynomial `0xEDB88320`) of the
//! payload bytes. Payloads are compact JSON objects carrying an explicit
//! monotonically-increasing `seq`, so replay can detect reordering and the
//! compaction base can name exactly where its suffix starts. Register and
//! update records store the **packed prototype words** (not the raw
//! attributes), making replay independent of the model and bit-identical by
//! construction; swap records embed a full model checkpoint plus the
//! post-swap memory.
//!
//! # Torn tails
//!
//! A crash mid-append leaves a truncated or corrupt **final** frame. That is
//! expected and harmless: [`replay`] detects it by length or checksum,
//! reports it as [`WalReplay::torn_tail`], and ignores it — the record was
//! never acknowledged, so dropping it is correct. Corruption *before* the
//! final frame is a hard [`WalError::Corrupt`]: it means data an earlier
//! append acknowledged is gone, which recovery must not paper over.
//!
//! # I/O errors
//!
//! Every append is written and then fsynced before it is acknowledged. The
//! writer keeps the offset just past the last acknowledged frame: every
//! byte up to it is fsynced and acknowledged, and nothing past it is.
//!
//! A record whose payload exceeds the frame cap is refused before anything
//! is written, with [`WalError::RecordTooLarge`]; the log stays live.
//!
//! A failed write or fsync truncates the file back to that offset (best
//! effort) and stops the log, and so does any failed rotation: every later
//! append, rotation and compaction gets [`WalError::Failed`] and touches no
//! file, until the directory is recovered. A failed fsync is never retried:
//! the kernel may have dropped the pages it could not write (Rebello et
//! al., "Can Applications Recover from fsync Failures?", ATC 2020). After a
//! failed fsync and a power cut, whether the unacknowledged record is in
//! the log is unknown.

use crate::net::frame::{encode_frame, FRAME_HEADER_LEN, MAX_FRAME_LEN};
use engine::ShardedClassMemory;
use hdc_zsc::checkpoint::atomic_write;
use serde::{Serialize, Value};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Magic bytes opening every WAL file.
const WAL_MAGIC: &[u8; 8] = b"ZSCWAL1\n";

/// Version of the on-disk WAL layout written by this build.
const WAL_FORMAT_VERSION: u32 = 1;

/// File-header length: magic + format version + first sequence number.
const HEADER_LEN: u64 = 8 + 4 + 8;

/// File name of the log inside a WAL directory.
const WAL_FILE_NAME: &str = "wal.log";

/// File name of the checkpoint-delta compaction base inside a WAL
/// directory.
const BASE_FILE_NAME: &str = "base.json";

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

/// 256-entry table for the reflected IEEE polynomial `0xEDB88320`.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC-32 (reflected, polynomial `0xEDB88320`) of `bytes` — the
/// checksum guarding every record frame.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a WAL could not be written, read, or replayed.
///
/// Marked `#[non_exhaustive]`: future layouts may add failure modes, so
/// downstream matches must keep a wildcard arm.
#[derive(Debug)]
#[must_use = "a WAL error describes why durability is compromised and should be handled"]
#[non_exhaustive]
pub enum WalError {
    /// Reading or writing the log file failed.
    Io(std::io::Error),
    /// The log is damaged before its final record — acknowledged data is
    /// missing, which recovery must not silently accept.
    Corrupt {
        /// Byte offset of the damaged frame.
        offset: u64,
        /// What was wrong with it.
        reason: String,
    },
    /// The file is not a WAL, or declares a layout this build cannot read.
    UnsupportedFormat {
        /// What the file declares (0 when the magic itself is wrong).
        found: u32,
        /// The version this build writes and reads.
        supported: u32,
    },
    /// An earlier write, fsync or rotation failed, so the log takes no more
    /// records; recover the directory to resume.
    Failed,
    /// The record's payload is longer than a frame may be, so no replay
    /// could read it back. Nothing was written and the log stays live.
    RecordTooLarge {
        /// Payload length of the refused record.
        bytes: usize,
        /// The largest payload a frame carries.
        max: usize,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "WAL I/O failed: {e}"),
            WalError::Corrupt { offset, reason } => {
                write!(f, "WAL corrupt at byte {offset}: {reason}")
            }
            WalError::UnsupportedFormat { found, supported } => write!(
                f,
                "unsupported WAL format {found} (this build reads {supported})"
            ),
            WalError::Failed => write!(
                f,
                "WAL stopped after an earlier I/O error; recover the directory to resume"
            ),
            WalError::RecordTooLarge { bytes, max } => write!(
                f,
                "WAL record of {bytes} bytes exceeds the {max}-byte frame cap; nothing was logged"
            ),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// One logged class mutation.
///
/// Register and update carry the packed prototype words the serving model
/// produced at mutation time, so replay needs no model at all and is
/// bit-identical by construction. Swap carries everything the post-swap
/// server state depends on: the new model (as a checkpoint JSON document,
/// loaded through the fully-validating
/// [`Checkpoint`](hdc_zsc::Checkpoint) path) and the rebuilt memory.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// A brand-new class was registered.
    Register {
        /// Class label.
        label: String,
        /// Packed ±1 prototype words.
        words: Vec<u64>,
    },
    /// An existing class was re-pointed at a new prototype.
    Update {
        /// Class label.
        label: String,
        /// Packed ±1 prototype words.
        words: Vec<u64>,
    },
    /// A class was removed.
    Remove {
        /// Class label.
        label: String,
    },
    /// The whole model (and with it the class memory) was hot-swapped.
    Swap {
        /// The new model as a checkpoint JSON document.
        checkpoint_json: String,
        /// The post-swap class memory.
        memory: ShardedClassMemory,
    },
    /// The open-set rejection threshold was set (or cleared) mid-traffic.
    SetThreshold {
        /// `f32::to_bits` of the new threshold; `None` clears it. Carried
        /// as raw bits so replay reproduces the exact strict-less verdict
        /// boundary the pre-crash server enforced.
        bits: Option<u32>,
    },
    /// One streamed labeled example was folded into a class's prototype
    /// accumulator (continual learning). Carries the example's packed ±1
    /// sign words **as encoded by the serving model at observe time**, so
    /// replay re-folds the exact counters with no model dependence — the
    /// same model-independence contract register/update records follow.
    Observe {
        /// Class label the example carries.
        label: String,
        /// The example's packed ±1 sign words.
        words: Vec<u64>,
    },
    /// Pending accumulated observes were explicitly published
    /// (`QueryServer::flush`). Logged so replay reproduces the exact
    /// publication boundaries — and therefore the exact snapshot-version
    /// sequence — of the pre-crash server; automatic `publish_every`
    /// boundaries are re-derived from the server configuration instead and
    /// need no record.
    Flush,
}

/// Lowercase hex, 16 digits per word — a compact, exact `u64` encoding.
fn words_to_hex(words: &[u64]) -> String {
    let mut out = String::with_capacity(words.len() * 16);
    for word in words {
        out.push_str(&format!("{word:016x}"));
    }
    out
}

fn words_from_hex(hex: &str) -> Result<Vec<u64>, String> {
    if !hex.len().is_multiple_of(16) {
        return Err(format!(
            "hex word row of length {} not a multiple of 16",
            hex.len()
        ));
    }
    hex.as_bytes()
        .chunks_exact(16)
        .map(|chunk| {
            let digits = std::str::from_utf8(chunk).map_err(|_| "non-ASCII hex".to_string())?;
            u64::from_str_radix(digits, 16).map_err(|e| format!("bad hex word `{digits}`: {e}"))
        })
        .collect()
}

impl WalOp {
    /// Renders the record payload (including its sequence number) as a
    /// JSON value.
    fn to_value(&self, seq: u64) -> Value {
        let mut entries: Vec<(String, Value)> = vec![("seq".to_string(), seq.to_value())];
        match self {
            WalOp::Register { label, words } => {
                entries.push(("op".to_string(), "register".to_string().to_value()));
                entries.push(("label".to_string(), label.to_value()));
                entries.push(("row".to_string(), words_to_hex(words).to_value()));
            }
            WalOp::Update { label, words } => {
                entries.push(("op".to_string(), "update".to_string().to_value()));
                entries.push(("label".to_string(), label.to_value()));
                entries.push(("row".to_string(), words_to_hex(words).to_value()));
            }
            WalOp::Remove { label } => {
                entries.push(("op".to_string(), "remove".to_string().to_value()));
                entries.push(("label".to_string(), label.to_value()));
            }
            WalOp::Swap {
                checkpoint_json,
                memory,
            } => {
                entries.push(("op".to_string(), "swap".to_string().to_value()));
                entries.push(("checkpoint".to_string(), checkpoint_json.to_value()));
                entries.push(("memory".to_string(), memory.to_value()));
            }
            WalOp::SetThreshold { bits } => {
                entries.push(("op".to_string(), "set_threshold".to_string().to_value()));
                entries.push(("threshold_bits".to_string(), bits.to_value()));
            }
            WalOp::Observe { label, words } => {
                entries.push(("op".to_string(), "observe".to_string().to_value()));
                entries.push(("label".to_string(), label.to_value()));
                entries.push(("row".to_string(), words_to_hex(words).to_value()));
            }
            WalOp::Flush => {
                entries.push(("op".to_string(), "flush".to_string().to_value()));
            }
        }
        Value::Object(entries)
    }

    /// Parses a record payload back into `(seq, op)`.
    fn from_value(value: &Value) -> Result<(u64, Self), String> {
        let get = |name: &str| {
            value
                .get(name)
                .ok_or_else(|| format!("record missing `{name}`"))
        };
        let seq: u64 = serde_json::from_value(get("seq")?).map_err(|e| e.to_string())?;
        let op: String = serde_json::from_value(get("op")?).map_err(|e| e.to_string())?;
        let label = || -> Result<String, String> {
            serde_json::from_value(get("label")?).map_err(|e| e.to_string())
        };
        let row = || -> Result<Vec<u64>, String> {
            let hex: String = serde_json::from_value(get("row")?).map_err(|e| e.to_string())?;
            words_from_hex(&hex)
        };
        let op = match op.as_str() {
            "register" => WalOp::Register {
                label: label()?,
                words: row()?,
            },
            "update" => WalOp::Update {
                label: label()?,
                words: row()?,
            },
            "remove" => WalOp::Remove { label: label()? },
            "swap" => WalOp::Swap {
                checkpoint_json: serde_json::from_value(get("checkpoint")?)
                    .map_err(|e| e.to_string())?,
                memory: serde_json::from_value(get("memory")?).map_err(|e| e.to_string())?,
            },
            "set_threshold" => WalOp::SetThreshold {
                bits: serde_json::from_value(get("threshold_bits")?).map_err(|e| e.to_string())?,
            },
            "observe" => WalOp::Observe {
                label: label()?,
                words: row()?,
            },
            "flush" => WalOp::Flush,
            other => return Err(format!("unknown op `{other}`")),
        };
        Ok((seq, op))
    }
}

// ---------------------------------------------------------------------------
// Sync policy
// ---------------------------------------------------------------------------

/// When appended records are fsynced: always, before the record is
/// acknowledged. The one variant stays only because callers name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync after every record: an acknowledged mutation survives an
    /// immediate power cut.
    Always,
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// One record recovered from a log.
#[derive(Debug, Clone, PartialEq)]
pub struct WalEntry {
    /// The record's sequence number.
    pub seq: u64,
    /// The mutation it logs.
    pub op: WalOp,
    /// Byte offset just past this record's frame — the truncation point
    /// that keeps every record up to and including this one.
    pub end_offset: u64,
}

/// Everything [`replay`] recovered from a log file.
#[derive(Debug)]
#[must_use = "a replay carries the recovered records and the torn-tail verdict"]
pub struct WalReplay {
    /// Sequence number of the first record this file holds (from the
    /// header; records before it live in the compaction base).
    pub first_seq: u64,
    /// The valid records, in sequence order.
    pub entries: Vec<WalEntry>,
    /// Why the final frame was discarded, when a torn tail was detected
    /// (`None` for a clean log).
    pub torn_tail: Option<String>,
    /// Byte offset just past the last valid record — where appending
    /// resumes after the torn tail (if any) is truncated away.
    pub end_offset: u64,
}

impl WalReplay {
    /// The sequence number the next appended record will carry.
    pub fn next_seq(&self) -> u64 {
        self.entries.last().map_or(self.first_seq, |e| e.seq + 1)
    }
}

/// Reads and verifies every record of the log at `path`.
///
/// A truncated or checksum-corrupt **final** frame is reported as a torn
/// tail and ignored (see the module docs for why that is the correct
/// contract); damage before the final frame is a hard
/// [`WalError::Corrupt`], as is a sequence-number discontinuity.
///
/// # Errors
///
/// [`WalError::Io`] on read failures, [`WalError::UnsupportedFormat`] for
/// non-WAL files, [`WalError::Corrupt`] for mid-log damage.
pub fn replay(path: impl AsRef<Path>) -> Result<WalReplay, WalError> {
    let bytes = std::fs::read(path.as_ref())?;
    if bytes.len() < 8 || &bytes[..8] != WAL_MAGIC {
        return Err(WalError::UnsupportedFormat {
            found: 0,
            supported: WAL_FORMAT_VERSION,
        });
    }
    if bytes.len() < HEADER_LEN as usize {
        return Err(WalError::Corrupt {
            offset: 8,
            reason: "file ends inside the header".to_string(),
        });
    }
    let format = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if format != WAL_FORMAT_VERSION {
        return Err(WalError::UnsupportedFormat {
            found: format,
            supported: WAL_FORMAT_VERSION,
        });
    }
    let first_seq = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));

    let mut entries = Vec::new();
    let mut torn_tail = None;
    let mut offset = HEADER_LEN as usize;
    let mut expected_seq = first_seq;
    while offset < bytes.len() {
        let remaining = bytes.len() - offset;
        // A frame that does not fit in the remaining bytes can only be the
        // torn final append — everything before it already verified.
        if remaining < FRAME_HEADER_LEN {
            torn_tail = Some(format!(
                "{remaining} trailing bytes are shorter than a frame header"
            ));
            break;
        }
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().expect("4 bytes"));
        if len > MAX_FRAME_LEN {
            return Err(WalError::Corrupt {
                offset: offset as u64,
                reason: format!("frame declares an absurd payload of {len} bytes"),
            });
        }
        let body_start = offset + FRAME_HEADER_LEN;
        let body_end = body_start + len as usize;
        if body_end > bytes.len() {
            torn_tail = Some(format!(
                "final frame declares {len} payload bytes but only {} remain",
                bytes.len() - body_start
            ));
            break;
        }
        let payload = &bytes[body_start..body_end];
        if crc32(payload) != crc {
            if body_end == bytes.len() {
                torn_tail = Some("final frame fails its checksum".to_string());
                break;
            }
            return Err(WalError::Corrupt {
                offset: offset as u64,
                reason: "frame fails its checksum before the end of the log".to_string(),
            });
        }
        let text = std::str::from_utf8(payload).map_err(|_| WalError::Corrupt {
            offset: offset as u64,
            reason: "payload is not UTF-8 despite a valid checksum".to_string(),
        })?;
        let value = serde_json::parse_value(text).map_err(|e| WalError::Corrupt {
            offset: offset as u64,
            reason: format!("payload is not valid JSON: {e}"),
        })?;
        let (seq, op) = WalOp::from_value(&value).map_err(|reason| WalError::Corrupt {
            offset: offset as u64,
            reason,
        })?;
        if seq != expected_seq {
            return Err(WalError::Corrupt {
                offset: offset as u64,
                reason: format!("record carries seq {seq}, expected {expected_seq}"),
            });
        }
        expected_seq += 1;
        entries.push(WalEntry {
            seq,
            op,
            end_offset: body_end as u64,
        });
        offset = body_end;
    }
    let end_offset = entries.last().map_or(HEADER_LEN, |e| e.end_offset);
    Ok(WalReplay {
        first_seq,
        entries,
        torn_tail,
        end_offset,
    })
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// An append-only writer over one WAL file; see the module docs for the
/// format and the I/O-error contract.
#[derive(Debug)]
pub struct WriteAheadLog {
    file: File,
    path: PathBuf,
    next_seq: u64,
    /// Byte offset just past the last acknowledged frame.
    end: u64,
    /// Set by the first failed write, fsync or rotation.
    failed: bool,
}

impl WriteAheadLog {
    /// Creates a fresh log at `path` (replacing any existing file), with
    /// records numbered from `0`.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] if the file cannot be written or reopened.
    pub fn create(path: impl AsRef<Path>, _sync: SyncPolicy) -> Result<Self, WalError> {
        Self::create_with_first_seq(path.as_ref().to_path_buf(), 0)
    }

    /// Writes a header-only log whose first record will carry `first_seq`
    /// through [`atomic_write`], then reopens it for appending: the handle
    /// must refer to the file the next recovery reads.
    fn create_with_first_seq(path: PathBuf, first_seq: u64) -> Result<Self, WalError> {
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(WAL_MAGIC);
        header.extend_from_slice(&WAL_FORMAT_VERSION.to_le_bytes());
        header.extend_from_slice(&first_seq.to_le_bytes());
        atomic_write(&path, &header)?;
        #[cfg(test)]
        fault::inject(fault::Fault::Reopen, None)?;
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok(Self {
            file,
            path,
            next_seq: first_seq,
            end: HEADER_LEN,
            failed: false,
        })
    }

    /// Opens an existing log for appending, replaying and verifying it
    /// first. A detected torn tail is truncated away (the damaged final
    /// frame was never acknowledged) so appending resumes from the last
    /// valid record.
    ///
    /// Returns the writer positioned at the end together with the replay.
    ///
    /// # Errors
    ///
    /// Everything [`replay`] reports, plus [`WalError::Io`].
    pub fn open(path: impl AsRef<Path>, _sync: SyncPolicy) -> Result<(Self, WalReplay), WalError> {
        let path = path.as_ref().to_path_buf();
        let recovered = replay(&path)?;
        let file = OpenOptions::new().append(true).open(&path)?;
        file.set_len(recovered.end_offset)?;
        file.sync_all()?;
        Ok((
            Self {
                file,
                path,
                next_seq: recovered.next_seq(),
                end: recovered.end_offset,
                failed: false,
            },
            recovered,
        ))
    }

    /// The sequence number the next appended record will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Byte offset just past the last acknowledged frame: the log's size.
    pub(crate) fn end(&self) -> u64 {
        self.end
    }

    /// `Err(`[`WalError::Failed`]`)` once the log has stopped.
    pub(crate) fn ensure_live(&self) -> Result<(), WalError> {
        if self.failed {
            return Err(WalError::Failed);
        }
        Ok(())
    }

    /// Appends one record, writing and then fsyncing it. Returns the
    /// sequence number the record was written under.
    ///
    /// # Errors
    ///
    /// [`WalError::Failed`] once the log has stopped.
    /// [`WalError::RecordTooLarge`] if the payload exceeds
    /// [`MAX_FRAME_LEN`]: nothing is written, the caller must not publish
    /// the mutation, and the log stays live. [`WalError::Io`] if the write
    /// or the fsync fails: the record is then not logged, the caller must
    /// not publish the mutation, and the log stops.
    pub fn append(&mut self, op: &WalOp) -> Result<u64, WalError> {
        self.ensure_live()?;
        let seq = self.next_seq;
        let payload =
            serde_json::to_string(&op.to_value(seq)).expect("record serialization is infallible");
        if payload.len() > MAX_FRAME_LEN as usize {
            return Err(WalError::RecordTooLarge {
                bytes: payload.len(),
                max: MAX_FRAME_LEN as usize,
            });
        }
        let frame = encode_frame(payload.as_bytes());
        if let Err(e) = self.write_and_sync(&frame) {
            // Best effort: if this fails too, the unacknowledged frame may
            // be replayed, as after a power cut.
            let _ = self.file.set_len(self.end);
            self.failed = true;
            return Err(e.into());
        }
        self.end += frame.len() as u64;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Writes `frame` at the end of the log, then fsyncs the file.
    fn write_and_sync(&mut self, frame: &[u8]) -> std::io::Result<()> {
        #[cfg(test)]
        fault::inject(fault::Fault::ShortWrite, Some((&mut self.file, frame)))?;
        self.file.write_all(frame)?;
        #[cfg(test)]
        fault::inject(fault::Fault::Fsync, None)?;
        self.file.sync_all()
    }

    /// Replaces the log with a fresh one starting at the current
    /// `next_seq` — called right after a compaction base is written, so
    /// records the base already folds in stop being replayed. A crash
    /// mid-rotation leaves the old log, whose records the fresh base simply
    /// skips.
    ///
    /// # Errors
    ///
    /// [`WalError::Failed`] once the log has stopped. [`WalError::Io`] if
    /// the replacement cannot be written or reopened; the log then stops,
    /// since `path` may already name the fresh file.
    pub fn rotate(&mut self) -> Result<(), WalError> {
        self.ensure_live()?;
        *self = Self::create_with_first_seq(self.path.clone(), self.next_seq)
            .inspect_err(|_| self.failed = true)?;
        Ok(())
    }
}

/// The log path inside a WAL directory.
pub fn wal_path(dir: impl AsRef<Path>) -> PathBuf {
    dir.as_ref().join(WAL_FILE_NAME)
}

/// The compaction-base path inside a WAL directory.
pub fn base_path(dir: impl AsRef<Path>) -> PathBuf {
    dir.as_ref().join(BASE_FILE_NAME)
}

/// Fault injection into the log's own I/O: one write, fsync or reopen on
/// the arming thread fails.
#[cfg(test)]
pub(crate) mod fault {
    use std::cell::Cell;
    use std::fs::File;
    use std::io::Write;

    /// The log operation that fails.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Fault {
        /// An append writes half its frame, then fails.
        ShortWrite,
        /// An append's fsync fails after its frame is written.
        Fsync,
        /// Reopening the log after its atomic replace fails.
        Reopen,
    }

    thread_local! {
        static ARMED: Cell<Option<(Fault, u32)>> = const { Cell::new(None) };
    }

    /// Makes operation `n` (counted from 0) of kind `fault` on this thread
    /// fail.
    pub(crate) fn arm(fault: Fault, n: u32) {
        ARMED.with(|armed| armed.set(Some((fault, n))));
    }

    /// Counts one `op` on this thread and fails it when it is the armed
    /// one. A failing short write first writes half of `write`'s bytes.
    pub(super) fn inject(op: Fault, write: Option<(&mut File, &[u8])>) -> std::io::Result<()> {
        let fires = ARMED.with(|armed| match armed.get() {
            Some((fault, n)) if fault == op => {
                armed.set(n.checked_sub(1).map(|n| (fault, n)));
                n == 0
            }
            _ => false,
        });
        if !fires {
            return Ok(());
        }
        if let Some((file, bytes)) = write {
            file.write_all(&bytes[..bytes.len() / 2])?;
        }
        Err(std::io::Error::other(format!("injected {op:?} failure")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_wal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("zsc-wal-unit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir.join(name)
    }

    fn sample_ops() -> Vec<WalOp> {
        vec![
            WalOp::Register {
                label: "alpha".to_string(),
                words: vec![0x0123_4567_89ab_cdef, u64::MAX],
            },
            WalOp::Update {
                label: "alpha".to_string(),
                words: vec![0, 1],
            },
            WalOp::Remove {
                label: "alpha".to_string(),
            },
        ]
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn append_replay_round_trip() {
        let path = temp_wal("round_trip.log");
        let mut wal = WriteAheadLog::create(&path, SyncPolicy::Always).expect("create");
        for (i, op) in sample_ops().iter().enumerate() {
            assert_eq!(wal.append(op).expect("append"), i as u64);
        }
        assert_eq!(wal.next_seq(), 3);
        drop(wal);
        let recovered = replay(&path).expect("replay");
        assert_eq!(recovered.first_seq, 0);
        assert!(recovered.torn_tail.is_none());
        assert_eq!(recovered.next_seq(), 3);
        let ops: Vec<WalOp> = recovered.entries.iter().map(|e| e.op.clone()).collect();
        assert_eq!(ops, sample_ops());
        // Reopen for append: picks up the sequence.
        let (wal, rec) = WriteAheadLog::open(&path, SyncPolicy::Always).expect("open");
        assert_eq!(wal.next_seq(), 3);
        assert_eq!(rec.entries.len(), 3);
        std::fs::remove_file(&path).ok();
    }

    /// Threshold records carry raw `f32` bits, so set/clear sequences
    /// replay the exact verdict boundary — including negative-zero and
    /// subnormal thresholds a decimal rendering could perturb.
    #[test]
    fn set_threshold_records_round_trip_bit_exactly() {
        let path = temp_wal("threshold.log");
        let ops = vec![
            WalOp::SetThreshold {
                bits: Some(0.314f32.to_bits()),
            },
            WalOp::SetThreshold {
                bits: Some((-0.0f32).to_bits()),
            },
            WalOp::SetThreshold { bits: None },
        ];
        let mut wal = WriteAheadLog::create(&path, SyncPolicy::Always).expect("create");
        for op in &ops {
            wal.append(op).expect("append");
        }
        drop(wal);
        let recovered = replay(&path).expect("replay");
        assert!(recovered.torn_tail.is_none());
        let replayed: Vec<WalOp> = recovered.entries.iter().map(|e| e.op.clone()).collect();
        assert_eq!(replayed, ops);
        std::fs::remove_file(&path).ok();
    }

    /// Streamed-observe records carry the example's packed words exactly,
    /// and flush records mark publication boundaries with no payload — both
    /// replay verbatim so continual-learning recovery is counter-exact.
    #[test]
    fn observe_and_flush_records_round_trip() {
        let path = temp_wal("observe.log");
        let ops = vec![
            WalOp::Observe {
                label: "alpha".to_string(),
                words: vec![0xdead_beef_0bad_f00d, 0, u64::MAX],
            },
            WalOp::Observe {
                label: "beta".to_string(),
                words: vec![1, 2],
            },
            WalOp::Flush,
            WalOp::Observe {
                label: "alpha".to_string(),
                words: vec![42],
            },
            WalOp::Flush,
        ];
        let mut wal = WriteAheadLog::create(&path, SyncPolicy::Always).expect("create");
        for op in &ops {
            wal.append(op).expect("append");
        }
        drop(wal);
        let recovered = replay(&path).expect("replay");
        assert!(recovered.torn_tail.is_none());
        let replayed: Vec<WalOp> = recovered.entries.iter().map(|e| e.op.clone()).collect();
        assert_eq!(replayed, ops);
        std::fs::remove_file(&path).ok();
    }

    /// The tentpole's pinned contract: truncating the log at **every** byte
    /// offset of the final record must yield a clean torn-tail replay of
    /// exactly the earlier records — never an error, never a phantom
    /// record.
    #[test]
    fn truncation_at_every_byte_offset_of_the_last_record_is_a_clean_torn_tail() {
        let path = temp_wal("torn.log");
        let mut wal = WriteAheadLog::create(&path, SyncPolicy::Always).expect("create");
        for op in sample_ops() {
            wal.append(&op).expect("append");
        }
        drop(wal);
        let full = std::fs::read(&path).expect("read log");
        let clean = replay(&path).expect("replay");
        assert_eq!(clean.entries.len(), 3);
        let last_start = clean.entries[1].end_offset as usize;
        let last_end = clean.entries[2].end_offset as usize;
        assert_eq!(last_end, full.len());
        for cut in last_start..last_end {
            let truncated = temp_wal(&format!("torn_cut_{cut}.log"));
            std::fs::write(&truncated, &full[..cut]).expect("write truncated log");
            let recovered = replay(&truncated)
                .unwrap_or_else(|e| panic!("cut at byte {cut} must replay cleanly, got {e}"));
            assert_eq!(recovered.entries.len(), 2, "cut at byte {cut}");
            assert_eq!(
                recovered.torn_tail.is_some(),
                cut != last_start,
                "cut at byte {cut}: a cut exactly at the previous frame's end is a clean log"
            );
            assert_eq!(
                recovered.end_offset as usize, last_start,
                "cut at byte {cut}"
            );
            // Opening for append truncates the tail and resumes at seq 2.
            let (wal, _) = WriteAheadLog::open(&truncated, SyncPolicy::Always).expect("open");
            assert_eq!(wal.next_seq(), 2);
            drop(wal);
            assert_eq!(
                std::fs::metadata(&truncated).expect("metadata").len() as usize,
                last_start
            );
            std::fs::remove_file(&truncated).ok();
        }
        std::fs::remove_file(&path).ok();
    }

    /// A bit flip in the final frame is a torn tail; the same flip in an
    /// earlier frame is hard corruption.
    #[test]
    fn checksum_distinguishes_torn_tail_from_mid_log_corruption() {
        let path = temp_wal("flip.log");
        let mut wal = WriteAheadLog::create(&path, SyncPolicy::Always).expect("create");
        for op in sample_ops() {
            wal.append(&op).expect("append");
        }
        drop(wal);
        let full = std::fs::read(&path).expect("read log");
        let clean = replay(&path).expect("replay");
        let flip_at = |offset: usize| {
            let mut bytes = full.clone();
            bytes[offset] ^= 0x40;
            let flipped = temp_wal("flipped.log");
            std::fs::write(&flipped, &bytes).expect("write flipped log");
            flipped
        };
        // Flip inside the last record's payload.
        let last_payload = clean.entries[1].end_offset as usize + FRAME_HEADER_LEN + 2;
        let tail = replay(flip_at(last_payload)).expect("tail flip replays");
        assert_eq!(tail.entries.len(), 2);
        assert!(tail.torn_tail.is_some());
        // Flip inside the first record's payload.
        let first_payload = HEADER_LEN as usize + FRAME_HEADER_LEN + 2;
        match replay(flip_at(first_payload)) {
            Err(WalError::Corrupt { offset, .. }) => {
                assert_eq!(offset, HEADER_LEN, "damage is located at the first frame")
            }
            other => panic!("mid-log flip must be hard corruption, got {other:?}"),
        }
        std::fs::remove_file(temp_wal("flipped.log")).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_wal_files_and_future_formats_are_rejected() {
        let path = temp_wal("not_a_wal.log");
        std::fs::write(&path, b"definitely not a wal").expect("write");
        assert!(matches!(
            replay(&path),
            Err(WalError::UnsupportedFormat { found: 0, .. })
        ));
        let mut bytes = Vec::new();
        bytes.extend_from_slice(WAL_MAGIC);
        bytes.extend_from_slice(&7u32.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        std::fs::write(&path, &bytes).expect("write");
        assert!(matches!(
            replay(&path),
            Err(WalError::UnsupportedFormat { found: 7, .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rotation_renumbers_from_next_seq() {
        let path = temp_wal("rotate.log");
        let mut wal = WriteAheadLog::create(&path, SyncPolicy::Always).expect("create");
        for op in sample_ops() {
            wal.append(&op).expect("append");
        }
        wal.rotate().expect("rotate");
        assert_eq!(wal.next_seq(), 3);
        let op = WalOp::Remove {
            label: "beta".to_string(),
        };
        assert_eq!(wal.append(&op).expect("append"), 3);
        drop(wal);
        let recovered = replay(&path).expect("replay");
        assert_eq!(recovered.first_seq, 3);
        assert_eq!(recovered.entries.len(), 1);
        assert_eq!(recovered.entries[0].seq, 3);
        std::fs::remove_file(&path).ok();
    }

    /// A record over the frame cap is refused before a byte is written:
    /// the log stays live and replays exactly the records around it.
    #[test]
    fn over_cap_records_are_refused_and_the_log_stays_live() {
        let path = temp_wal("over_cap.log");
        let mut wal = WriteAheadLog::create(&path, SyncPolicy::Always).expect("create");
        let small = |label: &str| WalOp::Remove {
            label: label.to_string(),
        };
        assert_eq!(wal.append(&small("before")).expect("append"), 0);
        let len = std::fs::metadata(&path).expect("metadata").len();
        let huge = WalOp::Register {
            label: "x".repeat(MAX_FRAME_LEN as usize),
            words: vec![1],
        };
        match wal.append(&huge) {
            Err(WalError::RecordTooLarge { bytes, max }) => {
                assert!(bytes > max);
                assert_eq!(max, MAX_FRAME_LEN as usize);
            }
            other => panic!("expected RecordTooLarge, got {other:?}"),
        }
        assert_eq!(std::fs::metadata(&path).expect("metadata").len(), len);
        assert_eq!(wal.append(&small("after")).expect("append"), 1);
        drop(wal);
        let replayed: Vec<WalOp> = replay(&path)
            .expect("replay")
            .entries
            .into_iter()
            .map(|e| e.op)
            .collect();
        assert_eq!(replayed, vec![small("before"), small("after")]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sequence_discontinuities_are_hard_corruption() {
        let a = temp_wal("seq_a.log");
        let mut wal = WriteAheadLog::create_with_first_seq(a.clone(), 5).expect("create");
        wal.append(&WalOp::Remove {
            label: "x".to_string(),
        })
        .expect("append");
        drop(wal);
        // Rewrite the header to claim the file starts at seq 0: the record
        // inside carries seq 5, a discontinuity.
        let mut bytes = std::fs::read(&a).expect("read");
        bytes[12..20].copy_from_slice(&0u64.to_le_bytes());
        std::fs::write(&a, &bytes).expect("write");
        assert!(matches!(replay(&a), Err(WalError::Corrupt { .. })));
        std::fs::remove_file(&a).ok();
    }
}
