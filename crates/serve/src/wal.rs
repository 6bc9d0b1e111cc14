//! Write-ahead log of serve-time class mutations — the durability half of
//! the serving layer's crash-safety contract.
//!
//! Every mutation accepted by a durable
//! [`QueryServer`](crate::QueryServer) is appended here **before** its
//! effect is published — one record per [`WalOp`] kind: register, update,
//! remove, swap, set (or clear) threshold, observe, and flush. The log
//! opens with its compaction base, a [`ServeBase`] record, and it and the
//! binary model files it names ([`ModelFile`], `model-<fingerprint>.bin`)
//! always reconstruct the exact pre-crash serving state: recovery loads the
//! base and its model file, and folds the live path's own state transition
//! over the records after it, so it serves bit-identical results.
//!
//! # Directory layout
//!
//! ```text
//! <dir>/
//! ├── wal.log                the base record, then the records after it
//! └── model-<16 hex>.bin     one binary model file per model the log names
//! ```
//!
//! A model file is written once, through the atomic replace, before the
//! record that names it: at start and on every swap. Compaction writes a
//! new log, the header and a fresh base, to `wal.log.tmp`, fsyncs it and
//! renames it over `wal.log`, then deletes every model file but the one the
//! new base names. The rename is the commit: before it, the old log is
//! whole and live.
//!
//! # On-disk format
//!
//! ```text
//! ┌────────────────────────── file header (20 bytes) ─────────────────────────┐
//! │ magic "ZSCWAL1\n" (8) │ format u32 LE (=1) │ first_seq u64 LE             │
//! ├──────────────────────────── record frames ────────────────────────────────┤
//! │ len u32 LE │ crc32 u32 LE │ payload: the base {"op":"base","base":{…}}    │
//! │ len u32 LE │ crc32 u32 LE │ payload: a record {"seq":first_seq,"op":…}    │
//! │ …                                                                         │
//! └───────────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! The CRC is the IEEE CRC-32 (reflected, polynomial `0xEDB88320`) of the
//! compact-JSON payload. The base is the first frame, or absent
//! ([`WriteAheadLog::create`]; no server recovers from such a log), and has
//! no `seq`: its position says what it is, and `first_seq` numbers the
//! first record it does not fold in. Every later record carries a
//! consecutive `seq`, so replay detects reordering. Register and update
//! records store the **packed prototype words** (not the raw attributes),
//! making replay independent of the model and bit-identical by
//! construction; swap records name the new model's file plus the
//! post-swap memory, so their length does not depend on the model's size.
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
//! effort) and stops the log, and so does a failed rename or reopen of a
//! new log: every later append and compaction gets [`WalError::Failed`]
//! and touches no file, until the directory is recovered. A new log that
//! fails before its rename leaves the old one live. A failed fsync is
//! never retried: the kernel may have dropped the pages it could not write
//! (Rebello et al., "Can Applications Recover from fsync Failures?", ATC
//! 2020). After a failed fsync and a power cut, whether the unacknowledged
//! record is in the log is unknown.

use crate::net::frame::{encode_frame_into, FRAME_HEADER_LEN, MAX_FRAME_LEN};
use engine::ShardedClassMemory;
pub use hdc_zsc::checkpoint::crc32;
use hdc_zsc::checkpoint::{model_file_fingerprint, rename_temp, write_temp};
use hdc_zsc::{CheckpointError, ModelFile, ServeBase};
use serde::{json, DeError, Deserialize, Serialize, Value};
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
    /// An earlier write, fsync, or new log's rename or reopen failed, so
    /// the log takes no more records; recover the directory to resume.
    Failed,
    /// The log opens with no base record, so no server recovers from it:
    /// [`WriteAheadLog::create`] or an earlier build (beside a `base.json`)
    /// wrote it.
    MissingBase,
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
            WalError::MissingBase => write!(f, "WAL does not open with a base record"),
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
/// server state depends on: the name of the new model's binary file,
/// written beside the log before the record, and the rebuilt memory.
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
        /// File name of the new model, `model-<fingerprint>.bin`, in the
        /// log's directory ([`ModelFile`]). Replay loads it through the
        /// checksum- and fingerprint-checking decoder.
        model_file: String,
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
    /// sequence — of the pre-crash server; automatic boundaries are
    /// re-derived from the `publish_every` cadence the log's base records
    /// and need no record.
    Flush,
}

/// The words of a packed row written by [`HexRow`], decoded straight from
/// the string's text.
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

/// A packed row as one JSON string of lowercase hex, 16 digits per word —
/// a compact, exact `u64` encoding — written straight into the output.
struct HexRow<'a>(&'a [u64]);

impl Serialize for HexRow<'_> {
    fn to_value(&self) -> Value {
        serde_json::to_value_via_text(self)
    }

    fn write_json(&self, out: &mut String) {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        out.push('"');
        for word in self.0 {
            for shift in (0..64).step_by(4).rev() {
                out.push(char::from(DIGITS[((word >> shift) & 0xF) as usize]));
            }
        }
        out.push('"');
    }
}

impl WalOp {
    /// Writes the record payload, its sequence number first, as compact
    /// JSON.
    fn write_json(&self, seq: u64, out: &mut String) {
        let op = match self {
            WalOp::Register { .. } => "register",
            WalOp::Update { .. } => "update",
            WalOp::Remove { .. } => "remove",
            WalOp::Swap { .. } => "swap",
            WalOp::SetThreshold { .. } => "set_threshold",
            WalOp::Observe { .. } => "observe",
            WalOp::Flush => "flush",
        };
        let mut record = json::Object::new(out);
        record.field("seq", &seq).field("op", op);
        match self {
            WalOp::Register { label, words }
            | WalOp::Update { label, words }
            | WalOp::Observe { label, words } => {
                record.field("label", label).field("row", &HexRow(words));
            }
            WalOp::Remove { label } => {
                record.field("label", label);
            }
            WalOp::Swap { model_file, memory } => {
                record
                    .field("model_file", model_file)
                    .field("memory", memory);
            }
            WalOp::SetThreshold { bits } => {
                record.field("threshold_bits", bits);
            }
            WalOp::Flush => {}
        }
        record.end();
    }

    /// `(seq, op)` from the fields of a record that is not a base: each is
    /// kept in place until `op` says which ones the record has, then
    /// decoded straight from the text.
    fn from_fields(fields: RecordFields<'_>) -> Result<(u64, Self), String> {
        let [seq, op, label, row, model_file, memory, threshold_bits, _base] = fields;
        fn field<T: Deserialize>(slot: Option<json::Reader<'_>>, name: &str) -> Result<T, String> {
            let mut r = slot.ok_or_else(|| format!("record missing `{name}`"))?;
            T::read_json(&mut r).map_err(|e| e.in_field(name).to_string())
        }
        let label = || field::<String>(label.clone(), "label");
        let row = || {
            let mut r = row.clone().ok_or("record missing `row`")?;
            words_from_hex(&r.str().map_err(|e| e.in_field("row").to_string())?)
        };
        let op = match field::<String>(op, "op")?.as_str() {
            "register" => WalOp::Register {
                label: label()?,
                words: row()?,
            },
            "update" => WalOp::Update {
                label: label()?,
                words: row()?,
            },
            "remove" => WalOp::Remove { label: label()? },
            "swap" => {
                let model_file: String = field(model_file, "model_file")?;
                if model_file_fingerprint(&model_file).is_none() {
                    return Err(format!("swap names `{model_file}`, not a model file"));
                }
                WalOp::Swap {
                    model_file,
                    memory: field(memory, "memory")?,
                }
            }
            "set_threshold" => WalOp::SetThreshold {
                bits: field(threshold_bits, "threshold_bits")?,
            },
            "observe" => WalOp::Observe {
                label: label()?,
                words: row()?,
            },
            "flush" => WalOp::Flush,
            other => return Err(format!("unknown op `{other}`")),
        };
        Ok((field(seq, "seq")?, op))
    }
}

/// Where [`RECORD_KEYS`] puts `op` and `base`.
const OP: usize = 1;
const BASE: usize = 7;

/// The keys of a log frame: a record's, then the base record's `base`.
const RECORD_KEYS: [&str; 8] = [
    "seq",
    "op",
    "label",
    "row",
    "model_file",
    "memory",
    "threshold_bits",
    "base",
];

/// A frame's fields in [`RECORD_KEYS`] order, each a reader at its value.
type RecordFields<'a> = [Option<json::Reader<'a>>; 8];

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
    /// Sequence number of the first record after the base (from the
    /// header; records before it are folded into the base).
    pub first_seq: u64,
    /// The base the log opens with; `None` for [`WriteAheadLog::create`]'s.
    pub base: Option<ServeBase>,
    /// The valid records after the base, in sequence order.
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
/// [`WalError::Corrupt`], as is a sequence-number discontinuity or a base
/// record anywhere but first.
///
/// # Errors
///
/// [`WalError::Io`] on read failures, [`WalError::UnsupportedFormat`] for
/// non-WAL files, [`WalError::Corrupt`] for mid-log damage.
pub fn replay(path: impl AsRef<Path>) -> Result<WalReplay, WalError> {
    read(path.as_ref()).map(|(replay, _)| replay)
}

/// [`replay`], plus the offset where the records after the base start.
fn read(path: &Path) -> Result<(WalReplay, u64), WalError> {
    let bytes = std::fs::read(path)?;
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

    let mut base = None;
    let mut entries = Vec::new();
    let mut torn_tail = None;
    let mut offset = HEADER_LEN as usize;
    let mut records_start = HEADER_LEN;
    let mut expected_seq = first_seq;
    while offset < bytes.len() {
        let corrupt = |reason: String| WalError::Corrupt {
            offset: offset as u64,
            reason,
        };
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
            return Err(corrupt(format!(
                "frame declares an absurd payload of {len} bytes"
            )));
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
            let reason = "frame fails its checksum before the end of the log";
            return Err(corrupt(reason.to_string()));
        }
        let text = std::str::from_utf8(payload)
            .map_err(|_| corrupt("payload is not UTF-8 despite a valid checksum".to_string()))?;
        match read_payload(text, offset == HEADER_LEN as usize).map_err(corrupt)? {
            Payload::Base(parsed) => {
                base = Some(parsed);
                records_start = body_end as u64;
            }
            Payload::Record(seq, op) => {
                if seq != expected_seq {
                    return Err(corrupt(format!(
                        "record carries seq {seq}, expected {expected_seq}"
                    )));
                }
                expected_seq += 1;
                entries.push(WalEntry {
                    seq,
                    op,
                    end_offset: body_end as u64,
                });
            }
        }
        offset = body_end;
    }
    let end_offset = entries.last().map_or(records_start, |e| e.end_offset);
    let replay = WalReplay {
        first_seq,
        base,
        entries,
        torn_tail,
        end_offset,
    };
    Ok((replay, records_start))
}

/// The `op` of the base record, and the key of its base.
const BASE_OP: &str = "base";

/// A frame's payload, read.
enum Payload {
    /// The log's base record.
    Base(ServeBase),
    /// A record after the base: its `seq` and mutation.
    Record(u64, WalOp),
}

/// Reads a frame's payload straight from its text, with no value tree.
/// The log's first frame (`first`) is the base when its `op` is
/// [`BASE_OP`]: its base is read as it comes when `op` came before it (as
/// the writer puts it), else kept in place and read after the payload.
/// A record's fields are kept in place until its `op` says which ones it
/// has.
fn read_payload(text: &str, first: bool) -> Result<Payload, String> {
    let is_base = |fields: &RecordFields<'_>| {
        first
            && fields[OP]
                .clone()
                .is_some_and(|mut r| r.str().is_ok_and(|op| op == BASE_OP))
    };
    let mut r = json::Reader::new(text);
    let mut fields: RecordFields<'_> = Default::default();
    let mut base = None;
    let mut read = || -> Result<(), json::Error> {
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            match RECORD_KEYS.iter().position(|k| *k == key) {
                Some(BASE) if is_base(&fields) => {
                    r.field_with(&mut fields[BASE], BASE_OP, |r| {
                        let at = r.clone();
                        let read = ServeBase::read_json(r);
                        base = Some(read.map_err(|e| DeError::new(e.to_string()))?);
                        Ok(at)
                    })?
                }
                Some(i) => r.field_with(&mut fields[i], RECORD_KEYS[i], json::Reader::defer)?,
                None => r.skip()?,
            }
        }
        Ok(())
    };
    read().map_err(|e| format!("payload: {e}"))?;
    r.finish().map_err(|e| format!("payload: {e}"))?;
    if !is_base(&fields) {
        return WalOp::from_fields(fields).map(|(seq, op)| Payload::Record(seq, op));
    }
    let base = match (base, fields[BASE].clone()) {
        (Some(base), _) => base,
        (None, Some(mut r)) => ServeBase::read_json(&mut r).map_err(|e| format!("base: {e}"))?,
        (None, None) => return Err("base record missing `base`".to_string()),
    };
    Ok(Payload::Base(base))
}

/// Appends the frame of one record payload to `out`;
/// [`WalError::RecordTooLarge`] over the cap, with nothing appended.
fn frame_record(payload: &str, out: &mut Vec<u8>) -> Result<(), WalError> {
    if payload.len() > MAX_FRAME_LEN as usize {
        return Err(WalError::RecordTooLarge {
            bytes: payload.len(),
            max: MAX_FRAME_LEN as usize,
        });
    }
    encode_frame_into(payload.as_bytes(), out);
    Ok(())
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
    /// Byte offset where the records after the base start.
    start: u64,
    /// Set by the first failed write, fsync, or new log's rename or reopen.
    failed: bool,
}

impl WriteAheadLog {
    /// Creates a fresh log at `path` (replacing any existing file), with
    /// records numbered from `0` and no base.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] if the file cannot be written or reopened.
    pub fn create(path: impl AsRef<Path>, _sync: SyncPolicy) -> Result<Self, WalError> {
        Self::headed(path.as_ref().to_path_buf(), None::<&ServeBase>)
    }

    /// [`WriteAheadLog::create`], but the log opens with `base` when given.
    pub(crate) fn headed<S: Serialize>(
        path: PathBuf,
        base: Option<&ServeBase<S>>,
    ) -> Result<Self, WalError> {
        let len = Self::stage(&path, 0, base)?;
        Self::commit(path, 0, len)
    }

    /// Writes a log of records from `first_seq`, opened by `base` when
    /// given, to the temp file beside `path`; returns its length. The base
    /// is written as JSON text and framed once, with no value tree.
    fn stage<S: Serialize>(
        path: &Path,
        first_seq: u64,
        base: Option<&ServeBase<S>>,
    ) -> Result<u64, WalError> {
        let payload = base.map(|base| {
            let mut payload = String::new();
            let mut record = json::Object::new(&mut payload);
            record.field("op", BASE_OP).field("base", base);
            record.end();
            payload
        });
        let payload_len = payload.as_ref().map_or(0, String::len);
        let mut bytes = Vec::with_capacity(HEADER_LEN as usize + FRAME_HEADER_LEN + payload_len);
        bytes.extend_from_slice(WAL_MAGIC);
        bytes.extend_from_slice(&WAL_FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&first_seq.to_le_bytes());
        if let Some(payload) = payload {
            frame_record(&payload, &mut bytes)?;
        }
        #[cfg(test)]
        fault::inject_file(path, &bytes)?;
        write_temp(path, &bytes)?;
        Ok(bytes.len() as u64)
    }

    /// Renames the staged `len`-byte log over `path` — the commit — and
    /// reopens it, so the handle is the file the next recovery reads.
    fn commit(path: PathBuf, first_seq: u64, len: u64) -> Result<Self, WalError> {
        rename_temp(&path)?;
        #[cfg(test)]
        fault::inject(fault::Fault::Reopen, None)?;
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok(Self {
            file,
            path,
            next_seq: first_seq,
            end: len,
            start: len,
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
        let (recovered, records_start) = read(&path)?;
        let file = OpenOptions::new().append(true).open(&path)?;
        file.set_len(recovered.end_offset)?;
        file.sync_all()?;
        Ok((
            Self {
                file,
                path,
                next_seq: recovered.next_seq(),
                end: recovered.end_offset,
                start: records_start,
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

    /// Size of the base record's frame in bytes; 0 for a log without one.
    pub(crate) fn base_bytes(&self) -> u64 {
        self.start - HEADER_LEN
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
        let mut payload = String::new();
        op.write_json(seq, &mut payload);
        let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        frame_record(&payload, &mut frame)?;
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

    /// Replaces the log with a fresh one without a base, whose records
    /// start at the current `next_seq`. The new log is written and
    /// fsynced beside the old one and renamed over it; the rename is the
    /// commit.
    ///
    /// # Errors
    ///
    /// [`WalError::Failed`] once the log has stopped. [`WalError::Io`] when
    /// the new log cannot be written or fsynced: the old log is then whole
    /// and live, and the call can be retried. [`WalError::Io`] when the
    /// rename or the reopen fails: the log then stops, since `path` may
    /// already name the new file.
    pub fn rotate(&mut self) -> Result<(), WalError> {
        self.compact(None::<&ServeBase>)
    }

    /// [`WriteAheadLog::rotate`], but the new log opens with `base` when
    /// given, which must fold in every record logged so far. A base over
    /// the frame cap is [`WalError::RecordTooLarge`], with nothing written.
    pub(crate) fn compact<S: Serialize>(
        &mut self,
        base: Option<&ServeBase<S>>,
    ) -> Result<(), WalError> {
        self.ensure_live()?;
        let len = Self::stage(&self.path, self.next_seq, base)?;
        *self = Self::commit(self.path.clone(), self.next_seq, len)
            .inspect_err(|_| self.failed = true)?;
        Ok(())
    }
}

/// The log path inside a WAL directory.
pub fn wal_path(dir: impl AsRef<Path>) -> PathBuf {
    dir.as_ref().join(WAL_FILE_NAME)
}

/// Writes `file` into the WAL directory `dir` ([`ModelFile::save`]).
pub(crate) fn save_model(dir: &Path, file: &ModelFile) -> Result<(), CheckpointError> {
    #[cfg(test)]
    fault::inject_file(&dir.join(file.name()), file.bytes())?;
    file.save(dir)
}

/// Deletes every model file in `dir` but `keep`, and the temp files of
/// interrupted model writes. Best effort: a file that cannot be listed or
/// removed is left for the next sweep.
pub(crate) fn remove_models_except(dir: &Path, keep: &str) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(Result::ok) {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let model = name.strip_suffix(".tmp").unwrap_or(&name);
        if name != keep && model_file_fingerprint(model).is_some() {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// Fault injection into the durable directory's I/O: one append, model-file
/// or new-log write, fsync, or new-log reopen on the arming thread fails.
#[cfg(test)]
pub(crate) mod fault {
    use std::cell::Cell;
    use std::fs::File;
    use std::io::Write;
    use std::path::Path;

    /// The operation that fails.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Fault {
        /// An append writes half its frame, or a model-file or new-log
        /// write half its bytes, then fails.
        ShortWrite,
        /// An append's, a model file's or a new log's fsync fails after
        /// its bytes are written.
        Fsync,
        /// Reopening a new log after its rename fails.
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

    /// Counts one `op` on this thread; true when it is the armed one.
    fn fires(op: Fault) -> bool {
        ARMED.with(|armed| match armed.get() {
            Some((fault, n)) if fault == op => {
                armed.set(n.checked_sub(1).map(|n| (fault, n)));
                n == 0
            }
            _ => false,
        })
    }

    fn injected(op: Fault) -> std::io::Error {
        std::io::Error::other(format!("injected {op:?} failure"))
    }

    /// Counts one `op` on this thread and fails it when it is the armed
    /// one. A failing short write first writes half of `write`'s bytes.
    pub(super) fn inject(op: Fault, write: Option<(&mut File, &[u8])>) -> std::io::Result<()> {
        if !fires(op) {
            return Ok(());
        }
        if let Some((file, bytes)) = write {
            file.write_all(&bytes[..bytes.len() / 2])?;
        }
        Err(injected(op))
    }

    /// Counts one short write and then one fsync of an atomic write of
    /// `contents` to `path`, and fails the armed one as the atomic replace
    /// would fail there: the temp file holds half of `contents` (short
    /// write) or all of it (fsync), and nothing is renamed over `path`.
    pub(super) fn inject_file(path: &Path, contents: &[u8]) -> std::io::Result<()> {
        for (op, written) in [
            (Fault::ShortWrite, contents.len() / 2),
            (Fault::Fsync, contents.len()),
        ] {
            if fires(op) {
                let mut tmp = path.as_os_str().to_os_string();
                tmp.push(".tmp");
                std::fs::write(tmp, &contents[..written])?;
                return Err(injected(op));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record payload read back as `read` reads a frame after the base.
    fn read_record(text: &str) -> Result<(u64, WalOp), String> {
        match read_payload(text, false)? {
            Payload::Record(seq, op) => Ok((seq, op)),
            Payload::Base(_) => unreachable!("only a first frame is a base"),
        }
    }

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

    /// Every record kind's payload is the layout fixed before records were
    /// streamed, reads back as the op it logs, and is the text of its own
    /// parsed value tree; sequence numbers from 2^53 on are quoted.
    #[test]
    fn record_payloads_keep_their_layout() {
        let mut memory = ShardedClassMemory::new(64, 2);
        memory.add_class_packed("m", &[9]);
        let label = "q\"b\\\u{1}é".to_string();
        let cases = [
            (
                WalOp::Register {
                    label: label.clone(),
                    words: vec![0x0123_4567_89ab_cdef, u64::MAX],
                },
                r#""op":"register","label":"q\"b\\\u0001é","row":"0123456789abcdefffffffffffffffff"}"#,
            ),
            (
                WalOp::Update {
                    label: label.clone(),
                    words: vec![1 << 53],
                },
                r#""op":"update","label":"q\"b\\\u0001é","row":"0020000000000000"}"#,
            ),
            (
                WalOp::Remove {
                    label: label.clone(),
                },
                r#""op":"remove","label":"q\"b\\\u0001é"}"#,
            ),
            (
                WalOp::Swap {
                    model_file: format!("model-{:016x}.bin", 7),
                    memory,
                },
                r#""op":"swap","model_file":"model-0000000000000007.bin","memory":{"dim":64,"shards":[{"dim":64,"words_per_row":1,"labels":["m"],"words":[9]},{"dim":64,"words_per_row":1,"labels":[],"words":[]}]}}"#,
            ),
            (
                WalOp::SetThreshold { bits: None },
                r#""op":"set_threshold","threshold_bits":null}"#,
            ),
            (
                WalOp::SetThreshold {
                    bits: Some((-0.0f32).to_bits()),
                },
                r#""op":"set_threshold","threshold_bits":2147483648}"#,
            ),
            (
                WalOp::Observe {
                    label,
                    words: vec![u64::MAX - 1],
                },
                r#""op":"observe","label":"q\"b\\\u0001é","row":"fffffffffffffffe"}"#,
            ),
            (WalOp::Flush, r#""op":"flush"}"#),
        ];
        let two_53 = 1u64 << 53;
        for seq in [0, two_53 - 1, two_53, u64::MAX] {
            let head = if seq < two_53 {
                format!(r#"{{"seq":{seq},"#)
            } else {
                format!(r#"{{"seq":"{seq}","#)
            };
            for (op, tail) in &cases {
                let mut payload = String::new();
                op.write_json(seq, &mut payload);
                assert_eq!(payload, format!("{head}{tail}"));
                let value = serde_json::parse_value(&payload).expect("payload parses");
                assert_eq!(serde_json::to_string(&value).expect("renders"), payload);
                assert_eq!(read_record(&payload), Ok((seq, op.clone())));
            }
        }
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

    /// A base record is read only as a log's first frame, records after it
    /// number from the header's `first_seq`, and the same frame anywhere
    /// else is hard corruption.
    #[test]
    fn a_base_record_opens_a_log_and_nowhere_else() {
        let mut memory = ShardedClassMemory::new(64, 2);
        memory.add_class_packed("alpha", &[7]);
        let base = ServeBase {
            snapshot_version: 4,
            publish_every: 3,
            model_file: format!("model-{:016x}.bin", 1),
            index: hdc_zsc::BaseIndex::Sharded(memory),
            threshold: None,
            stream: None,
        };
        let path = temp_wal("based.log");
        let len = WriteAheadLog::stage(&path, 9, Some(&base)).expect("stage");
        let mut wal = WriteAheadLog::commit(path.clone(), 9, len).expect("commit");
        assert_eq!(wal.append(&sample_ops()[2]).expect("append"), 9);
        drop(wal);
        let (wal, replayed) = WriteAheadLog::open(&path, SyncPolicy::Always).expect("open");
        assert_eq!(replayed.base.as_ref(), Some(&base));
        assert_eq!(replayed.entries.len(), 1);
        assert_eq!(wal.base_bytes(), len - HEADER_LEN);
        drop(wal);
        // The base's frame after the record: a base that is not first.
        let bytes = std::fs::read(&path).expect("read");
        let base_frame = &bytes[HEADER_LEN as usize..len as usize];
        let mut moved = bytes[..HEADER_LEN as usize].to_vec();
        moved.extend_from_slice(&bytes[len as usize..]);
        moved.extend_from_slice(base_frame);
        moved.extend_from_slice(base_frame);
        std::fs::write(&path, &moved).expect("write");
        assert!(matches!(replay(&path), Err(WalError::Corrupt { .. })));
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
        let len = WriteAheadLog::stage(&a, 5, None::<&ServeBase>).expect("stage");
        let mut wal = WriteAheadLog::commit(a.clone(), 5, len).expect("create");
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
