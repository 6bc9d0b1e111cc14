//! The request/response vocabulary carried inside [`frame`](super::frame)
//! payloads, plus the handshake version and the typed error codes.
//!
//! Every payload is a compact JSON object with a `"type"` discriminator,
//! except two binary requests behind a one-byte tag ([`Request::encode`]
//! documents both layouts): a `query`, whose feature row travels as raw
//! little-endian `f32` bytes so the hot path pays no decimal float
//! formatting or parsing, and a `swap_model`, which carries the new model
//! as the bytes of its binary model file.
//! The normative byte-level specification lives in `docs/wire-protocol.md`;
//! this module is its executable form — the `encode`/`decode` pairs here
//! are what both the server and the bundled client actually speak, and the
//! round-trip tests at the bottom pin the two to each other.
//!
//! Similarities travel as **raw `f32` bit patterns** (`sim_bits`, a `u32`):
//! the serving contract is bit-identity with
//! [`ModelSnapshot::solo_topk`](crate::ModelSnapshot::solo_topk), and
//! shipping the bits directly makes that contract checkable over the wire
//! without trusting any decimal float formatting.

use crate::server::{ServeError, Verdict};
use serde::json::{self, Reader};
use serde::{Deserialize, Serialize};

/// The handshake version this build speaks. A client whose `hello` names a
/// different version is rejected with an `unsupported_protocol` error
/// naming this value; `docs/wire-protocol.md` states the compatibility
/// rule for bumping it.
pub const PROTOCOL_VERSION: u32 = 3;

/// First byte of a binary `query` payload. A JSON payload always starts
/// with `{` (`0x7B`), so one byte tells the binary ones apart.
const QUERY_TAG: u8 = 0x01;

/// Bytes of a binary `query` payload before its feature row: the tag, the
/// `has_k` flag and the little-endian `u64` `k`.
const QUERY_HEADER_LEN: usize = 1 + 1 + 8;

/// First byte of a binary `swap_model` payload.
const SWAP_TAG: u8 = 0x02;

/// Bytes of a binary `swap_model` payload before its JSON part: the tag
/// and the little-endian `u32` length of the JSON part.
const SWAP_HEADER_LEN: usize = 1 + 4;

/// Typed error codes a [`Response::Error`] can carry; one string per
/// rejection the protocol distinguishes. Kept as constants so the server,
/// the client, and the tests name them consistently.
pub mod code {
    /// The admission queue was full; back off and retry.
    pub const OVERLOADED: &str = "overloaded";
    /// The server is draining for shutdown; the connection closes next.
    pub const DRAINING: &str = "draining";
    /// The connection used up its request quota; the connection closes next.
    pub const QUOTA_EXHAUSTED: &str = "quota_exhausted";
    /// A feature row had the wrong width.
    pub const FEATURE_WIDTH: &str = "feature_width";
    /// A class-attribute row had the wrong width.
    pub const ATTRIBUTE_WIDTH: &str = "attribute_width";
    /// The named class is not registered.
    pub const UNKNOWN_CLASS: &str = "unknown_class";
    /// The label is already registered (use `update_class`).
    pub const DUPLICATE_LABEL: &str = "duplicate_label";
    /// A mutation or swap was structurally invalid.
    pub const INVALID_CONFIG: &str = "invalid_config";
    /// A swapped-in model file failed to decode against the serving
    /// schema.
    pub const CHECKPOINT: &str = "checkpoint";
    /// The durable server could not log the mutation.
    pub const WAL: &str = "wal";
    /// The server stopped mid-request.
    pub const STOPPED: &str = "stopped";
    /// The client's `hello` named a protocol version this build does not
    /// speak; the message carries the supported version.
    pub const UNSUPPORTED_PROTOCOL: &str = "unsupported_protocol";
    /// The frame payload was not a well-formed request (bad JSON, unknown
    /// `type`, missing fields, a malformed or non-finite binary query, or a
    /// request sent before `hello`).
    pub const BAD_REQUEST: &str = "bad_request";
}

/// Maps a [`ServeError`] onto its wire code. Deliberately total with no
/// wildcard: adding a `ServeError` variant fails compilation here until
/// the protocol learns its name (and `docs/wire-protocol.md` documents
/// it).
pub fn error_code(error: &ServeError) -> &'static str {
    match error {
        ServeError::Stopped => code::STOPPED,
        ServeError::FeatureWidth { .. } => code::FEATURE_WIDTH,
        ServeError::AttributeWidth { .. } => code::ATTRIBUTE_WIDTH,
        ServeError::UnknownClass(_) => code::UNKNOWN_CLASS,
        ServeError::DuplicateLabel(_) => code::DUPLICATE_LABEL,
        ServeError::Draining => code::DRAINING,
        ServeError::Overloaded { .. } => code::OVERLOADED,
        ServeError::QuotaExhausted { .. } => code::QUOTA_EXHAUSTED,
        ServeError::InvalidConfig(_) => code::INVALID_CONFIG,
        ServeError::Checkpoint(_) => code::CHECKPOINT,
        ServeError::Wal(_) => code::WAL,
    }
}

/// One scored label as it travels: the class label plus the raw bit
/// pattern of its `f32` similarity.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WireScore {
    /// Class label.
    pub label: String,
    /// `f32::to_bits` of the similarity; decode with [`f32::from_bits`].
    pub sim_bits: u32,
}

/// The flattened statistics document the `stats` endpoint returns: the
/// [`ServerStats`](crate::ServerStats) counters, the network front-end's
/// own counters, and the serving snapshot's shape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WireStats {
    /// Queries the dispatcher answered (in-process and network).
    pub queries: u64,
    /// Engine dispatches.
    pub batches: u64,
    /// Largest coalesced batch observed.
    pub max_batch_observed: u64,
    /// Snapshot swaps published.
    pub swaps: u64,
    /// Version of the snapshot serving when the stats were taken.
    pub snapshot_version: u64,
    /// Classes registered in that snapshot.
    pub classes: u64,
    /// Whether the network front-end is draining for shutdown.
    pub draining: bool,
    /// Connections accepted so far.
    pub net_connections: u64,
    /// Connections refused because the connection cap was reached.
    pub net_refused_connections: u64,
    /// Requests read off sockets (admitted or not, every verb).
    pub net_requests: u64,
    /// Query requests admitted past the admission queue.
    pub net_admitted: u64,
    /// Query requests load-shed with `overloaded`.
    pub net_overloaded: u64,
    /// Requests rejected with `quota_exhausted`.
    pub net_quota_rejections: u64,
    /// Requests rejected with `draining`.
    pub net_draining_rejections: u64,
    /// Streamed observations folded into per-class counters (see
    /// [`StreamStats`](crate::StreamStats)).
    pub observes: u64,
    /// Classes with counter changes not yet re-signed into a published
    /// snapshot.
    pub pending_classes: u64,
    /// Observations folded since the last publication boundary.
    pub since_publish: u64,
    /// Page–Hinkley drift alarms raised so far.
    pub drift_alarms: u64,
    /// Live WAL file size in bytes; `0` on a non-durable server (see
    /// [`DurabilityStats`](crate::DurabilityStats)).
    pub wal_bytes: u64,
    /// WAL records appended since the last compaction; `0` on a
    /// non-durable server.
    pub records_since_compaction: u64,
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// The handshake opener — must be the first frame on a connection.
    Hello {
        /// The protocol version the client speaks.
        protocol: u32,
    },
    /// Score one feature row; answered with [`Response::TopK`]. A binary
    /// request: [`Request::encode`] documents its layout.
    Query {
        /// Backbone feature row.
        features: Vec<f32>,
        /// Result count override; `None` uses the server's configured
        /// top-k.
        k: Option<u64>,
    },
    /// Register a brand-new class; answered with [`Response::Mutated`].
    RegisterClass {
        /// Class label.
        label: String,
        /// Class-attribute row.
        attributes: Vec<f32>,
    },
    /// Re-point an existing class; answered with [`Response::Mutated`].
    UpdateClass {
        /// Class label.
        label: String,
        /// Class-attribute row.
        attributes: Vec<f32>,
    },
    /// Unregister a class; answered with [`Response::Mutated`].
    RemoveClass {
        /// Class label.
        label: String,
    },
    /// Replace the whole serving state; answered with
    /// [`Response::Mutated`]. The other binary request: [`Request::encode`]
    /// documents its layout.
    SwapModel {
        /// The new model's file name, `model-<fingerprint>.bin`
        /// ([`ModelFile::name`](hdc_zsc::ModelFile::name)).
        model_file: String,
        /// The bytes of that model file
        /// ([`ModelFile::bytes`](hdc_zsc::ModelFile::bytes)).
        model: Vec<u8>,
        /// One label per attribute row.
        labels: Vec<String>,
        /// Class-attribute rows of the new class set.
        attributes: Vec<Vec<f32>>,
    },
    /// Set or clear the open-set rejection threshold; answered with
    /// [`Response::Mutated`]. Additive in protocol 1: old clients simply
    /// never send it.
    SetThreshold {
        /// `f32::to_bits` of the new threshold — raw bits, like `sim_bits`,
        /// so the strict-less verdict boundary crosses the wire exactly.
        /// `None` clears the threshold.
        threshold_bits: Option<u32>,
    },
    /// Fold one streamed labeled example into the named class's exact
    /// counters; answered with [`Response::Mutated`] carrying the version
    /// now serving — which only advances when this observe landed a
    /// publication boundary. Additive in protocol 1: old clients simply
    /// never send it.
    Observe {
        /// Class label (must already be registered).
        label: String,
        /// Backbone feature row of the labeled example.
        features: Vec<f32>,
    },
    /// Publish every pending streamed-class update immediately; answered
    /// with [`Response::Mutated`]. Additive in protocol 1.
    Flush,
    /// Fetch counters; answered with [`Response::Stats`].
    Stats,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The handshake accept, carrying what the client needs to build valid
    /// requests.
    Welcome {
        /// The protocol version the server speaks (== the client's).
        protocol: u32,
        /// Width of feature rows [`Request::Query`] must carry.
        feature_dim: u64,
        /// Width of attribute rows the mutation verbs must carry.
        attribute_dim: u64,
        /// Version of the currently-serving snapshot.
        snapshot_version: u64,
        /// Classes registered in that snapshot.
        classes: u64,
    },
    /// A served query: the snapshot version that scored it plus its top-k.
    TopK {
        /// Snapshot version the query was scored against — compare with
        /// [`ModelSnapshot::solo_topk`](crate::ModelSnapshot::solo_topk)
        /// on that version to check the bit-identity contract.
        version: u64,
        /// Scored labels, most similar first.
        results: Vec<WireScore>,
        /// The serving snapshot's open-set verdict. Additive in protocol
        /// 1: the field is only present when that snapshot carries a
        /// rejection threshold, and decoders treat a missing (or `null`)
        /// field as `None`, so old clients and old servers interoperate
        /// unchanged.
        verdict: Option<Verdict>,
    },
    /// An accepted mutation: the snapshot version it published.
    Mutated {
        /// Version of the snapshot now serving.
        version: u64,
        /// Classes registered in it.
        classes: u64,
    },
    /// The counters document.
    Stats(WireStats),
    /// A typed rejection; `code` is one of the [`code`] constants.
    Error {
        /// Machine-readable rejection code.
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

/// A compact-JSON object payload whose fields `write` writes.
fn object_payload(write: impl FnOnce(&mut json::Object<'_>)) -> Vec<u8> {
    let mut out = String::new();
    let mut object = json::Object::new(&mut out);
    write(&mut object);
    object.end();
    out.into_bytes()
}

/// The keys of a JSON request, of every type.
const REQUEST_KEYS: [&str; 6] = [
    "type",
    "protocol",
    "label",
    "attributes",
    "threshold_bits",
    "features",
];

/// The keys of a JSON response other than `stats`, which reads itself.
const RESPONSE_KEYS: [&str; 11] = [
    "type",
    "protocol",
    "feature_dim",
    "attribute_dim",
    "snapshot_version",
    "classes",
    "version",
    "results",
    "verdict",
    "code",
    "message",
];

/// The keys of a binary `swap_model`'s JSON part.
const SWAP_KEYS: [&str; 3] = ["name", "labels", "attributes"];

/// A JSON message: a reader at the value of each of `keys` it holds, to
/// decode the ones its `type` needs. Keys may come in any order and other
/// keys are skipped, but none of `keys` may appear twice.
struct Fields<'a, const N: usize> {
    text: &'a str,
    keys: [&'static str; N],
    values: [Option<Reader<'a>>; N],
}

impl<'a, const N: usize> Fields<'a, N> {
    /// Reads the JSON object `payload` holds, checking its syntax.
    fn parse(payload: &'a [u8], keys: [&'static str; N]) -> Result<Self, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
        let malformed = |e: json::Error| format!("payload is not a JSON object: {e}");
        let mut r = Reader::new(text);
        let values = r.defer_fields(keys).map_err(malformed)?;
        r.finish().map_err(malformed)?;
        Ok(Self { text, keys, values })
    }

    /// Decodes the value of `key`, one of the parsed keys.
    fn read<T: Deserialize>(&self, key: &str) -> Result<T, String> {
        let mut r = self
            .value(key)
            .ok_or_else(|| format!("message missing `{key}`"))?;
        T::read_json(&mut r).map_err(|e| format!("field `{key}`: {e}"))
    }

    /// [`Fields::read`] of an additive field: a missing key or `null` is
    /// `None`.
    fn read_optional<T: Deserialize>(&self, key: &str) -> Result<Option<T>, String> {
        match self.value(key) {
            Some(_) => self.read(key),
            None => Ok(None),
        }
    }

    /// A reader at the value of `key`, if the message holds it.
    fn value(&self, key: &str) -> Option<Reader<'a>> {
        let i = self.keys.iter().position(|k| *k == key)?;
        self.values[i].clone()
    }
}

impl Request {
    /// Encodes the request as a frame payload.
    ///
    /// A [`Request::Query`] is binary — all integers little-endian:
    ///
    /// | offset | size | field |
    /// |---|---|---|
    /// | 0 | 1 | tag `0x01` |
    /// | 1 | 1 | `has_k`: `0` = the server's configured top-k, `1` = narrow to `k` |
    /// | 2 | 8 | `k` as a `u64`, `0` when `has_k = 0` |
    /// | 10 | 4·n | the row: `f32::to_bits` of each feature |
    ///
    /// A [`Request::SwapModel`] is binary too:
    ///
    /// | offset | size | field |
    /// |---|---|---|
    /// | 0 | 1 | tag `0x02` |
    /// | 1 | 4 | `n`, the length of the JSON part, as a `u32` |
    /// | 5 | n | compact JSON `{"name", "labels", "attributes"}` |
    /// | 5 + n | rest | the model file's bytes |
    ///
    /// Every other request is a compact-JSON object.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Query { features, k } => encode_query(features, *k),
            Request::SwapModel {
                model_file,
                model,
                labels,
                attributes,
            } => encode_swap(model_file, model, labels, attributes),
            Request::Hello { protocol } => object_payload(|o| {
                o.field("type", "hello").field("protocol", protocol);
            }),
            Request::RegisterClass { label, attributes } => object_payload(|o| {
                o.field("type", "register_class")
                    .field("label", label)
                    .field("attributes", attributes);
            }),
            Request::UpdateClass { label, attributes } => object_payload(|o| {
                o.field("type", "update_class")
                    .field("label", label)
                    .field("attributes", attributes);
            }),
            Request::RemoveClass { label } => object_payload(|o| {
                o.field("type", "remove_class").field("label", label);
            }),
            Request::SetThreshold { threshold_bits } => object_payload(|o| {
                o.field("type", "set_threshold")
                    .field("threshold_bits", threshold_bits);
            }),
            Request::Observe { label, features } => object_payload(|o| {
                o.field("type", "observe")
                    .field("label", label)
                    .field("features", features);
            }),
            Request::Flush => object_payload(|o| {
                o.field("type", "flush");
            }),
            Request::Stats => object_payload(|o| {
                o.field("type", "stats");
            }),
        }
    }

    /// Decodes a frame payload into a request: a binary query or swap when
    /// the first byte is its tag, a JSON request otherwise.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the payload is not a well-formed
    /// request — the server wraps it in a [`code::BAD_REQUEST`] response.
    /// A binary query is rejected when its length is not `10 + 4n`, its
    /// `has_k` byte is not 0 or 1, its `k` bytes are nonzero under
    /// `has_k = 0`, or a feature is NaN or infinite. A binary swap is
    /// rejected when its JSON part runs past the payload or is not the
    /// documented object; its model part is checked by the server against
    /// the serving schema. A JSON `query` or `swap_model` is rejected too:
    /// protocol 3 carries both only in binary.
    pub fn decode(payload: &[u8]) -> Result<Self, String> {
        match payload.first() {
            Some(&QUERY_TAG) => decode_query(payload),
            Some(&SWAP_TAG) => decode_swap(payload.to_vec()),
            _ => Self::decode_json(payload),
        }
    }

    /// [`Request::decode`] of an owned payload: a swap keeps its buffer.
    pub(crate) fn decode_frame(payload: Vec<u8>) -> Result<Self, String> {
        match payload.first() {
            Some(&SWAP_TAG) => decode_swap(payload),
            _ => Self::decode(&payload),
        }
    }

    /// Reads a JSON request: its `type` chooses which fields it needs.
    fn decode_json(payload: &[u8]) -> Result<Self, String> {
        let message = Fields::parse(payload, REQUEST_KEYS)?;
        let kind: String = message.read("type")?;
        match kind.as_str() {
            "hello" => Ok(Request::Hello {
                protocol: message.read("protocol")?,
            }),
            "query" | "swap_model" => Err(format!(
                "protocol {PROTOCOL_VERSION} carries `{kind}` as a binary payload, not JSON"
            )),
            "register_class" => Ok(Request::RegisterClass {
                label: message.read("label")?,
                attributes: message.read("attributes")?,
            }),
            "update_class" => Ok(Request::UpdateClass {
                label: message.read("label")?,
                attributes: message.read("attributes")?,
            }),
            "remove_class" => Ok(Request::RemoveClass {
                label: message.read("label")?,
            }),
            "set_threshold" => Ok(Request::SetThreshold {
                threshold_bits: message.read_optional("threshold_bits")?,
            }),
            "observe" => Ok(Request::Observe {
                label: message.read("label")?,
                features: message.read("features")?,
            }),
            "flush" => Ok(Request::Flush),
            "stats" => Ok(Request::Stats),
            other => Err(format!("unknown request type `{other}`")),
        }
    }
}

/// Writes the binary `query` payload [`Request::encode`] documents.
fn encode_query(features: &[f32], k: Option<u64>) -> Vec<u8> {
    let mut payload = Vec::with_capacity(QUERY_HEADER_LEN + 4 * features.len());
    payload.push(QUERY_TAG);
    payload.push(u8::from(k.is_some()));
    payload.extend_from_slice(&k.unwrap_or(0).to_le_bytes());
    for feature in features {
        payload.extend_from_slice(&feature.to_le_bytes());
    }
    payload
}

/// Reads a binary `query` payload, rejecting every malformed layout and
/// every non-finite feature (see [`Request::decode`]).
fn decode_query(payload: &[u8]) -> Result<Request, String> {
    let Some((header, row)) = payload.split_at_checked(QUERY_HEADER_LEN) else {
        return Err(format!(
            "binary query of {} bytes is shorter than its {QUERY_HEADER_LEN}-byte header",
            payload.len()
        ));
    };
    if !row.len().is_multiple_of(4) {
        return Err(format!(
            "binary query of {} bytes is not {QUERY_HEADER_LEN} + 4n",
            payload.len()
        ));
    }
    let k = u64::from_le_bytes(header[2..].try_into().expect("8 bytes"));
    let k = match (header[1], k) {
        (0, 0) => None,
        (0, _) => return Err("binary query has `k` bytes under has_k = 0".to_string()),
        (1, k) => Some(k),
        (flag, _) => return Err(format!("binary query has_k byte is {flag}, not 0 or 1")),
    };
    let features: Vec<f32> = row
        .chunks_exact(4)
        .map(|bytes| f32::from_le_bytes(bytes.try_into().expect("4 bytes")))
        .collect();
    if let Some(index) = features.iter().position(|f| !f.is_finite()) {
        return Err(format!(
            "binary query feature {index} is {}, not finite",
            features[index]
        ));
    }
    Ok(Request::Query { features, k })
}

/// Writes the binary `swap_model` payload [`Request::encode`] documents,
/// from borrowed parts: a client encodes a model file's bytes straight
/// into the payload, with no owned [`Request::SwapModel`] in between.
pub(crate) fn encode_swap(
    model_file: &str,
    model: &[u8],
    labels: &[String],
    attributes: &[Vec<f32>],
) -> Vec<u8> {
    let json = object_payload(|o| {
        o.field("name", model_file)
            .field("labels", labels)
            .field("attributes", attributes);
    });
    let json_len = u32::try_from(json.len()).expect("a swap's JSON part fits in 4 GiB");
    let mut payload = Vec::with_capacity(SWAP_HEADER_LEN + json.len() + model.len());
    payload.push(SWAP_TAG);
    payload.extend_from_slice(&json_len.to_le_bytes());
    payload.extend_from_slice(&json);
    payload.extend_from_slice(model);
    payload
}

/// Reads a binary `swap_model` payload: its JSON part must fit the payload
/// and carry the name, labels and attribute rows; the rest is the model
/// file, passed on unread in the payload's own buffer.
fn decode_swap(mut payload: Vec<u8>) -> Result<Request, String> {
    let Some((header, rest)) = payload.split_at_checked(SWAP_HEADER_LEN) else {
        return Err(format!(
            "binary swap_model of {} bytes is shorter than its {SWAP_HEADER_LEN}-byte header",
            payload.len()
        ));
    };
    let json_len = u32::from_le_bytes(header[1..].try_into().expect("4 bytes")) as usize;
    let Some(json) = rest.get(..json_len) else {
        return Err(format!(
            "binary swap_model declares a {json_len}-byte JSON part, {} bytes follow",
            rest.len()
        ));
    };
    let part = Fields::parse(json, SWAP_KEYS)?;
    let model_file = part.read("name")?;
    let labels = part.read("labels")?;
    let attributes = part.read("attributes")?;
    payload.drain(..SWAP_HEADER_LEN + json_len);
    Ok(Request::SwapModel {
        model_file,
        model: payload,
        labels,
        attributes,
    })
}

impl Response {
    /// Encodes the response as a compact-JSON frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Welcome {
                protocol,
                feature_dim,
                attribute_dim,
                snapshot_version,
                classes,
            } => object_payload(|o| {
                o.field("type", "welcome")
                    .field("protocol", protocol)
                    .field("feature_dim", feature_dim)
                    .field("attribute_dim", attribute_dim)
                    .field("snapshot_version", snapshot_version)
                    .field("classes", classes);
            }),
            Response::TopK {
                version,
                results,
                verdict,
            } => object_payload(|o| {
                o.field("type", "topk")
                    .field("version", version)
                    .field("results", results);
                // Additive: written only when a threshold judged the query,
                // so uncalibrated responses are byte-identical to protocol
                // 1 before verdicts existed.
                if let Some(verdict) = verdict {
                    o.field("verdict", &verdict.to_string());
                }
            }),
            Response::Mutated { version, classes } => object_payload(|o| {
                o.field("type", "mutated")
                    .field("version", version)
                    .field("classes", classes);
            }),
            Response::Stats(stats) => {
                // The counters' own object (never empty), with the type tag
                // put first.
                let mut out = String::new();
                stats.write_json(&mut out);
                out.insert_str(1, "\"type\":\"stats\",");
                out.into_bytes()
            }
            Response::Error { code, message } => object_payload(|o| {
                o.field("type", "error")
                    .field("code", code)
                    .field("message", message);
            }),
        }
    }

    /// Decodes a frame payload into a response.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the payload is not UTF-8 JSON or not a
    /// well-formed response.
    pub fn decode(payload: &[u8]) -> Result<Self, String> {
        let message = Fields::parse(payload, RESPONSE_KEYS)?;
        let kind: String = message.read("type")?;
        match kind.as_str() {
            "welcome" => Ok(Response::Welcome {
                protocol: message.read("protocol")?,
                feature_dim: message.read("feature_dim")?,
                attribute_dim: message.read("attribute_dim")?,
                snapshot_version: message.read("snapshot_version")?,
                classes: message.read("classes")?,
            }),
            "topk" => Ok(Response::TopK {
                version: message.read("version")?,
                results: message.read("results")?,
                verdict: match message.read_optional::<String>("verdict")?.as_deref() {
                    None => None,
                    Some("known") => Some(Verdict::Known),
                    Some("unknown") => Some(Verdict::Unknown),
                    Some(other) => return Err(format!("unknown verdict `{other}`")),
                },
            }),
            "mutated" => Ok(Response::Mutated {
                version: message.read("version")?,
                classes: message.read("classes")?,
            }),
            "stats" => Ok(Response::Stats(
                serde_json::from_str(message.text).map_err(|e| format!("stats response: {e}"))?,
            )),
            "error" => Ok(Response::Error {
                code: message.read("code")?,
                message: message.read("message")?,
            }),
            other => Err(format!("unknown response type `{other}`")),
        }
    }

    /// Builds the typed rejection for a [`ServeError`], preserving its
    /// display message alongside the machine code.
    pub fn from_serve_error(error: &ServeError) -> Self {
        Response::Error {
            code: error_code(error).to_string(),
            message: error.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(request: Request) {
        let decoded = Request::decode(&request.encode()).expect("request decodes");
        assert_eq!(decoded, request);
    }

    fn round_trip_response(response: Response) {
        let decoded = Response::decode(&response.encode()).expect("response decodes");
        assert_eq!(decoded, response);
    }

    #[test]
    fn every_request_round_trips() {
        round_trip_request(Request::Hello {
            protocol: PROTOCOL_VERSION,
        });
        round_trip_request(Request::Query {
            features: vec![0.5, -1.0, 0.0, -0.0, 3.25e-6],
            k: Some(3),
        });
        round_trip_request(Request::Query {
            features: vec![1.0; 8],
            k: None,
        });
        round_trip_request(Request::RegisterClass {
            label: "owl".to_string(),
            attributes: vec![0.25; 5],
        });
        round_trip_request(Request::UpdateClass {
            label: "owl".to_string(),
            attributes: vec![0.75; 5],
        });
        round_trip_request(Request::RemoveClass {
            label: "owl".to_string(),
        });
        round_trip_request(Request::SwapModel {
            model_file: "model-0123456789abcdef.bin".to_string(),
            model: b"ZSCMODL\n\x01\x00".to_vec(),
            labels: vec!["a".to_string(), "b".to_string()],
            attributes: vec![vec![1.0, 2.0], vec![3.0, 4.0]],
        });
        round_trip_request(Request::SetThreshold {
            threshold_bits: Some(0.314f32.to_bits()),
        });
        round_trip_request(Request::SetThreshold {
            threshold_bits: None,
        });
        round_trip_request(Request::Observe {
            label: "owl".to_string(),
            features: vec![0.5, -0.0, 1.5e-9],
        });
        round_trip_request(Request::Flush);
        round_trip_request(Request::Stats);
    }

    #[test]
    fn every_response_round_trips() {
        round_trip_response(Response::Welcome {
            protocol: PROTOCOL_VERSION,
            feature_dim: 24,
            attribute_dim: 312,
            snapshot_version: 7,
            classes: 9,
        });
        round_trip_response(Response::TopK {
            version: 3,
            results: vec![
                WireScore {
                    label: "owl".to_string(),
                    sim_bits: 0.875f32.to_bits(),
                },
                WireScore {
                    label: "wren".to_string(),
                    sim_bits: (-0.25f32).to_bits(),
                },
            ],
            verdict: None,
        });
        for verdict in [Verdict::Known, Verdict::Unknown] {
            round_trip_response(Response::TopK {
                version: 9,
                results: vec![WireScore {
                    label: "owl".to_string(),
                    sim_bits: 0.5f32.to_bits(),
                }],
                verdict: Some(verdict),
            });
        }
        round_trip_response(Response::Mutated {
            version: 4,
            classes: 10,
        });
        round_trip_response(Response::Stats(WireStats {
            queries: 100,
            batches: 12,
            max_batch_observed: 32,
            swaps: 2,
            snapshot_version: 2,
            classes: 11,
            draining: true,
            net_connections: 9,
            net_refused_connections: 1,
            net_requests: 120,
            net_admitted: 100,
            net_overloaded: 15,
            net_quota_rejections: 3,
            net_draining_rejections: 2,
            observes: 42,
            pending_classes: 2,
            since_publish: 1,
            drift_alarms: 3,
            wal_bytes: 4096,
            records_since_compaction: 7,
        }));
        round_trip_response(Response::Error {
            code: code::OVERLOADED.to_string(),
            message: "admission queue full".to_string(),
        });
    }

    /// Query features round-trip bit-exactly — negative zero, subnormals
    /// and the extremes of the finite range included — and so does every
    /// `k`: the wire must not perturb what the engine scores.
    #[test]
    fn features_round_trip_bit_exactly() {
        let features = vec![
            0.1f32,
            -0.0,
            f32::MIN_POSITIVE,
            1.0e-30,
            -123.456,
            f32::from_bits(1),
            -f32::from_bits(0x007f_ffff),
            f32::MAX,
            f32::MIN,
        ];
        for k in [None, Some(0), Some(3), Some(u64::MAX)] {
            let encoded = Request::Query {
                features: features.clone(),
                k,
            }
            .encode();
            assert_eq!(encoded.len(), QUERY_HEADER_LEN + 4 * features.len());
            let Request::Query {
                features: back,
                k: back_k,
            } = Request::decode(&encoded).expect("query decodes")
            else {
                panic!("decoded to a different request type");
            };
            assert_eq!(back_k, k);
            assert_eq!(back.len(), features.len());
            for (a, b) in features.iter().zip(&back) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        assert!(Request::decode(b"").is_err());
        assert!(Request::decode(b"\xff\xfe").is_err());
        assert!(Request::decode(b"[1,2,3]").is_err());
        assert!(Request::decode(b"{\"type\":\"warp\"}").is_err());
        assert!(Request::decode(b"{\"type\":\"query\"}").is_err());
        // Protocol 3 takes queries and swaps only in binary.
        assert!(Request::decode(b"{\"type\":\"query\",\"features\":[0.5,-1.0],\"k\":2}").is_err());
        assert!(Request::decode(
            b"{\"type\":\"swap_model\",\"checkpoint\":\"{}\",\"labels\":[],\"attributes\":[]}"
        )
        .is_err());
        assert!(Response::decode(b"{\"type\":\"topk\",\"version\":1}").is_err());
        assert!(Response::decode(
            b"{\"type\":\"topk\",\"version\":1,\"results\":[],\"verdict\":\"maybe\"}"
        )
        .is_err());

        let valid = Request::Query {
            features: vec![0.5, -1.0],
            k: Some(2),
        }
        .encode();
        // A length that is not 10 + 4n: a short header, a torn feature.
        assert!(Request::decode(&valid[..QUERY_HEADER_LEN - 1]).is_err());
        assert!(Request::decode(&valid[..valid.len() - 1]).is_err());
        let mut padded = valid.clone();
        padded.push(0);
        assert!(Request::decode(&padded).is_err());
        // A `has_k` other than 0/1.
        let mut flag = valid.clone();
        flag[1] = 2;
        assert!(Request::decode(&flag).is_err());
        // Nonzero `k` bytes under `has_k = 0`, in the low and the high byte.
        for byte in [2, QUERY_HEADER_LEN - 1] {
            let mut stray = valid.clone();
            stray[1] = 0;
            stray[2..QUERY_HEADER_LEN].fill(0);
            stray[byte] = 1;
            assert!(Request::decode(&stray).is_err(), "stray k byte {byte}");
        }
        // Any non-finite feature, in either position.
        for bad in [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for position in 0..2 {
                let mut row = vec![0.5f32, -1.0];
                row[position] = bad;
                let encoded = Request::Query {
                    features: row,
                    k: None,
                }
                .encode();
                assert!(
                    Request::decode(&encoded).is_err(),
                    "{bad} at feature {position}"
                );
            }
        }
        // A binary swap whose header or JSON part does not fit its
        // payload, or whose JSON part lacks its name; the model part is
        // passed on unread, so an empty one decodes.
        let swap = Request::SwapModel {
            model_file: "model-0123456789abcdef.bin".to_string(),
            model: Vec::new(),
            labels: vec!["owl".to_string()],
            attributes: vec![vec![0.5]],
        }
        .encode();
        assert!(Request::decode(&swap).is_ok());
        assert!((1..swap.len()).all(|cut| Request::decode(&swap[..cut]).is_err()));
        let unnamed = br#"{"labels":["owl"],"attributes":[[0.5]]}"#;
        let mut payload = vec![SWAP_TAG, unnamed.len() as u8, 0, 0, 0];
        payload.extend_from_slice(unnamed);
        assert!(Request::decode(&payload).is_err());
        payload[1] += 1;
        assert!(
            Request::decode(&payload).is_err(),
            "a JSON part past the end"
        );
        // A header-only query is well-formed; the server's width check
        // answers it with `feature_width`.
        assert_eq!(
            Request::decode(&valid[..QUERY_HEADER_LEN]).expect("empty row decodes"),
            Request::Query {
                features: vec![],
                k: Some(2),
            }
        );
    }

    /// A JSON message says one thing per key: a repeated key is refused,
    /// in a request, a response, a swap's JSON part and the stats document,
    /// whichever copy comes first.
    #[test]
    fn json_messages_refuse_repeated_keys() {
        for request in [
            r#"{"type":"remove_class","label":"owl","label":"wren"}"#,
            r#"{"type":"remove_class","type":"flush","label":"owl"}"#,
            r#"{"type":"set_threshold","threshold_bits":null,"threshold_bits":1}"#,
        ] {
            let err = Request::decode(request.as_bytes()).expect_err(request);
            assert!(err.contains("duplicate key"), "{request}: {err}");
        }
        for response in [
            r#"{"type":"mutated","version":1,"classes":2,"version":3}"#,
            r#"{"type":"topk","version":1,"results":[{"label":"a","sim_bits":0,"label":"b"}]}"#,
            r#"{"type":"topk","version":1,"results":[],"verdict":null,"verdict":"known"}"#,
            r#"{"type":"stats","queries":1,"queries":2}"#,
        ] {
            let err = Response::decode(response.as_bytes()).expect_err(response);
            assert!(err.contains("duplicate key"), "{response}: {err}");
        }
        let json = br#"{"name":"model-0123456789abcdef.bin","labels":[],"labels":["owl"],"attributes":[]}"#;
        let mut swap = vec![SWAP_TAG];
        swap.extend_from_slice(&(json.len() as u32).to_le_bytes());
        swap.extend_from_slice(json);
        let err = Request::decode(&swap).expect_err("repeated swap key");
        assert!(err.contains("duplicate key"), "{err}");
    }

    /// The `type` may come after the fields it selects, among unknown keys
    /// of every JSON kind, which are skipped.
    #[test]
    fn json_messages_take_keys_in_any_order() {
        let unknown =
            r#""n":null,"t":true,"f":false,"x":-1.5e3,"s":"}\"","a":[1,{"y":[]}],"o":{"z":{}}"#;
        let request = format!(r#"{{{unknown},"label":"owl","type":"remove_class"}}"#);
        assert_eq!(
            Request::decode(request.as_bytes()).expect("request decodes"),
            Request::RemoveClass {
                label: "owl".to_string()
            }
        );
        let response = format!(
            r#"{{"results":[{{"sim_bits":7,"extra":[],"label":"owl"}}],{unknown},"version":2,"type":"topk"}}"#
        );
        assert_eq!(
            Response::decode(response.as_bytes()).expect("response decodes"),
            Response::TopK {
                version: 2,
                results: vec![WireScore {
                    label: "owl".to_string(),
                    sim_bits: 7,
                }],
                verdict: None,
            }
        );
        let stats = WireStats {
            queries: 5,
            classes: 3,
            draining: true,
            records_since_compaction: 9,
            ..WireStats::default()
        };
        let counters = serde_json::to_string(&stats).expect("stats render");
        let response = format!(
            r#"{},{unknown},"type":"stats"}}"#,
            counters.strip_suffix('}').expect("an object")
        );
        assert_eq!(
            Response::decode(response.as_bytes()).expect("stats response decodes"),
            Response::Stats(stats)
        );
    }

    /// Pins the byte-level binary query example in
    /// `docs/wire-protocol.md`: `[0.5, -1.0]` with `k = 2` frames to these
    /// exact 26 bytes. The hello payload of that document (its framing is
    /// pinned in `net/frame.rs`) is what this build's client sends.
    #[test]
    fn documented_query_frame_is_byte_exact() {
        assert_eq!(
            Request::Hello {
                protocol: PROTOCOL_VERSION
            }
            .encode(),
            b"{\"type\":\"hello\",\"protocol\":3}"
        );
        let mut query = Vec::new();
        crate::net::frame::write_frame(
            &mut query,
            &Request::Query {
                features: vec![0.5, -1.0],
                k: Some(2),
            }
            .encode(),
        )
        .expect("vec write");
        assert_eq!(
            query,
            [
                0x12, 0x00, 0x00, 0x00, // len 18 LE
                0x8d, 0x8e, 0x63, 0xcb, // CRC-32 0xcb638e8d LE
                0x01, // tag
                0x01, // has_k
                0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // k = 2
                0x00, 0x00, 0x00, 0x3f, // 0.5
                0x00, 0x00, 0x80, 0xbf, // -1.0
            ]
        );
    }

    /// Pins the byte-level `swap_model` example in
    /// `docs/wire-protocol.md`: tag, the JSON part's length, the JSON part,
    /// then the model file's bytes as they are (here only the magic a
    /// model file opens with).
    /// A swap frame the server owns becomes its model part in place: the
    /// decoded model is the frame's own buffer, not a copy of its tail.
    #[test]
    fn a_decoded_swap_frame_keeps_its_buffer() {
        let request = Request::SwapModel {
            model_file: "model-0123456789abcdef.bin".to_string(),
            model: vec![7; 4096],
            labels: vec!["owl".to_string()],
            attributes: vec![vec![0.5, 1.0]],
        };
        let frame = request.encode();
        let buffer = frame.as_ptr();
        let decoded = Request::decode_frame(frame).expect("swap decodes");
        let Request::SwapModel { ref model, .. } = decoded else {
            panic!("expected a swap, got {decoded:?}");
        };
        assert_eq!(model.as_ptr(), buffer);
        assert_eq!(decoded, request);
    }

    #[test]
    fn documented_swap_payload_is_byte_exact() {
        let json =
            br#"{"name":"model-0123456789abcdef.bin","labels":["owl"],"attributes":[[0.5,1]]}"#;
        let request = Request::SwapModel {
            model_file: "model-0123456789abcdef.bin".to_string(),
            model: b"ZSCMODL\n".to_vec(),
            labels: vec!["owl".to_string()],
            attributes: vec![vec![0.5, 1.0]],
        };
        let mut expected = vec![0x02, 0x4d, 0x00, 0x00, 0x00];
        expected.extend_from_slice(json);
        expected.extend_from_slice(&[0x5a, 0x53, 0x43, 0x4d, 0x4f, 0x44, 0x4c, 0x0a]);
        assert_eq!(json.len(), 0x4d);
        assert_eq!(request.encode(), expected);
    }

    /// The `verdict` field is additive: a verdict-free response carries no
    /// key at all (byte-identical to the pre-verdict protocol), and
    /// decoders accept both a missing key and an explicit `null` as
    /// "no verdict".
    #[test]
    fn verdict_field_is_additive() {
        let encoded = Response::TopK {
            version: 1,
            results: vec![],
            verdict: None,
        }
        .encode();
        let text = String::from_utf8(encoded).expect("compact JSON is UTF-8");
        assert!(!text.contains("verdict"), "no key when no verdict: {text}");
        for legacy in [
            "{\"type\":\"topk\",\"version\":1,\"results\":[]}",
            "{\"type\":\"topk\",\"version\":1,\"results\":[],\"verdict\":null}",
        ] {
            match Response::decode(legacy.as_bytes()).expect("legacy topk decodes") {
                Response::TopK { verdict, .. } => assert_eq!(verdict, None, "{legacy}"),
                other => panic!("expected topk, got {other:?}"),
            }
        }
    }

    #[test]
    fn serve_errors_map_onto_stable_codes() {
        assert_eq!(
            error_code(&ServeError::Overloaded { capacity: 4 }),
            code::OVERLOADED
        );
        assert_eq!(
            error_code(&ServeError::QuotaExhausted { limit: 10 }),
            code::QUOTA_EXHAUSTED
        );
        assert_eq!(error_code(&ServeError::Draining), code::DRAINING);
        assert_eq!(
            error_code(&ServeError::DuplicateLabel("x".to_string())),
            code::DUPLICATE_LABEL
        );
        assert_eq!(
            error_code(&ServeError::FeatureWidth {
                expected: 2,
                found: 3
            }),
            code::FEATURE_WIDTH
        );
    }
}
