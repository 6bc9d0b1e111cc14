//! Decoder fuzzing: arbitrary bytes fed to the wire decoders and to the
//! frame reader come back as a value or a typed error, never a panic.
//!
//! The inputs are biased towards the parsers' interesting branches: besides
//! uniform bytes, some start with the binary query tag and a plausible
//! header, some are JSON-ish text, some carry a length prefix that fits
//! the buffer, so checksum and mid-frame paths run too, and some start with
//! the binary swap tag and a plausible JSON length. A swap's model part is
//! checked the way the server checks it, by the model-file decoder, which
//! must refuse a hostile one with a typed error.

use dataset::AttributeSchema;
use hdc_zsc::{CheckpointError, ModelConfig, ModelFile, ZscModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serve::net::frame::{self, FrameError, ReadOutcome};
use serve::net::wire::{Request, Response};
use std::io::Cursor;
use std::sync::OnceLock;
use std::time::Duration;

/// First byte of a binary `query` payload (`docs/wire-protocol.md` §3).
const QUERY_TAG: u8 = 0x01;

/// Bytes before a binary query's feature row.
const QUERY_HEADER_LEN: usize = 10;

/// First byte of a binary `swap_model` payload (`docs/wire-protocol.md` §3).
const SWAP_TAG: u8 = 0x02;

/// Bytes before a binary swap's JSON part: the tag and its `u32` length.
const SWAP_HEADER_LEN: usize = 5;

/// A small intact model file, and the schema it decodes against.
fn intact_model() -> &'static (ModelFile, AttributeSchema) {
    static MODEL: OnceLock<(ModelFile, AttributeSchema)> = OnceLock::new();
    MODEL.get_or_init(|| {
        let schema = AttributeSchema::synthetic(3, 2);
        let model = ZscModel::new(&ModelConfig::tiny().with_embedding_dim(70), &schema, 5);
        (ModelFile::encode(&model, &schema), schema)
    })
}

const BUDGET: Duration = Duration::from_millis(100);

/// `len` bytes drawn from `seed`, shaped by `shape`:
/// 0 — uniform; 1 — a binary query header (tag, a `has_k` of 0–2, `k`
/// zeroed half the time) over random row bytes, on a 4-byte boundary half
/// the time; 2 — JSON-ish text; 3 — a little-endian length prefix no larger
/// than the bytes that follow, so frames often parse to the checksum; 4 —
/// the swap tag and a JSON length no larger than the bytes that follow.
fn fuzz_bytes(seed: u64, len: usize, shape: u8) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut bytes = vec![0u8; len];
    rng.fill_bytes(&mut bytes);
    match shape {
        1 => {
            if rng.gen_bool(0.5) && len >= QUERY_HEADER_LEN {
                bytes.truncate(QUERY_HEADER_LEN + (len - QUERY_HEADER_LEN) / 4 * 4);
            }
            if let Some(first) = bytes.first_mut() {
                *first = QUERY_TAG;
            }
            if let Some(has_k) = bytes.get_mut(1) {
                *has_k = rng.gen_range(0u8..3);
            }
            if rng.gen_bool(0.5) {
                let end = bytes.len().min(QUERY_HEADER_LEN);
                if end > 2 {
                    bytes[2..end].fill(0);
                }
            }
        }
        2 => {
            const ALPHABET: &[u8] = b"{}[]\":,.-+eE0123456789 truefalsnl\\type";
            for byte in &mut bytes {
                *byte = ALPHABET[rng.gen_range(0..ALPHABET.len())];
            }
        }
        3 if len >= frame::FRAME_HEADER_LEN => {
            let room = len - frame::FRAME_HEADER_LEN;
            let declared = u32::try_from(rng.gen_range(0..=room)).expect("under 2 KiB");
            bytes[..4].copy_from_slice(&declared.to_le_bytes());
        }
        4 if len >= SWAP_HEADER_LEN => {
            let room = len - SWAP_HEADER_LEN;
            let declared = u32::try_from(rng.gen_range(0..=room)).expect("under 2 KiB");
            bytes[0] = SWAP_TAG;
            bytes[1..SWAP_HEADER_LEN].copy_from_slice(&declared.to_le_bytes());
        }
        _ => {}
    }
    bytes
}

/// A binary query over `n` finite features drawn from `seed`.
fn valid_query(seed: u64, n: usize, k: Option<u64>) -> Request {
    let mut rng = StdRng::seed_from_u64(seed);
    Request::Query {
        features: (0..n).map(|_| rng.gen_range(-1.0e6f32..1.0e6)).collect(),
        k,
    }
}

proptest! {
    /// Arbitrary payloads decode to a request/response or a typed error.
    /// A payload that does decode as a binary query or swap is canonical:
    /// re-encoding it gives back the exact bytes.
    #[test]
    fn decoders_never_panic(
        seed in any::<u64>(),
        len in 0usize..=2048,
        shape in 0u8..5,
    ) {
        let bytes = fuzz_bytes(seed, len, shape);
        let request = Request::decode(&bytes);
        if let Ok(query @ Request::Query { .. }) = &request {
            prop_assert_eq!(query.encode(), bytes);
        }
        if let Ok(swap @ Request::SwapModel { .. }) = &request {
            prop_assert_eq!(swap.encode(), bytes);
        }
        if matches!(bytes.first(), Some(&QUERY_TAG | &SWAP_TAG)) {
            prop_assert!(Response::decode(&bytes).is_err(), "a query is not a response");
        } else {
            let _ = Response::decode(&bytes);
        }
    }

    /// Arbitrary bytes read as frames until the reader reports a clean
    /// close or a typed error; an in-memory reader never idles, and every
    /// frame it yields carries a payload that fits the input.
    #[test]
    fn frame_reader_never_panics(
        seed in any::<u64>(),
        len in 0usize..=2048,
        shape in 0u8..4,
    ) {
        let bytes = fuzz_bytes(seed, len, shape);
        let mut cursor = Cursor::new(&bytes);
        loop {
            match frame::read_frame(&mut cursor, BUDGET) {
                Ok(ReadOutcome::Frame(payload)) => {
                    prop_assert!(payload.len() + frame::FRAME_HEADER_LEN <= bytes.len());
                    let _ = Request::decode(&payload);
                }
                Ok(ReadOutcome::Closed) => break,
                Ok(ReadOutcome::Idle) => panic!("an in-memory reader cannot idle"),
                Err(FrameError::Corrupt(_) | FrameError::TooLarge(_)) => break,
                Err(other) => panic!("unexpected frame error: {other}"),
            }
        }
    }

    /// A binary query payload with at most one broken constraint decodes
    /// exactly when nothing was broken, and then back to the same bytes.
    #[test]
    fn binary_query_decoder_accepts_exactly_the_valid_layout(
        seed in any::<u64>(),
        n in 1usize..64,
        has_k in any::<bool>(),
        breakage in 0u8..5,
        noise in any::<u64>(),
    ) {
        let mut payload = valid_query(seed, n, has_k.then_some(noise % 8)).encode();
        match breakage {
            0 => {}
            1 => payload[1] = u8::try_from(2 + noise % 254).expect("under 256"),
            2 => {
                payload[1] = 0;
                payload[2..QUERY_HEADER_LEN].copy_from_slice(&(noise | 1).to_le_bytes());
            }
            3 => {
                // Exponent all ones: ±infinity for a zero mantissa, else NaN.
                let bits = 0x7f80_0000 | (noise as u32 & 0x807f_ffff);
                let at = QUERY_HEADER_LEN + 4 * (noise as usize % n);
                payload[at..at + 4].copy_from_slice(&bits.to_le_bytes());
            }
            _ => payload.extend(std::iter::repeat_n(0, 1 + noise as usize % 3)),
        }
        let decoded = Request::decode(&payload);
        if breakage == 0 {
            prop_assert_eq!(decoded.expect("valid layout decodes").encode(), payload);
        } else {
            prop_assert!(decoded.is_err(), "breakage {breakage} decoded");
        }
    }

    /// Every strict prefix of a valid binary query frame is rejected by the
    /// frame reader. Every strict prefix of its payload is a decode error,
    /// except one ending on a feature boundary: that decodes to exactly the
    /// shorter row, which the server's width check answers with
    /// `feature_width`.
    #[test]
    fn strict_prefixes_of_a_binary_query_are_rejected(
        seed in any::<u64>(),
        n in 1usize..64,
        k in 0u64..8,
        has_k in any::<bool>(),
    ) {
        let query = valid_query(seed, n, has_k.then_some(k));
        let payload = query.encode();
        let mut framed = Vec::new();
        frame::write_frame(&mut framed, &payload).expect("vec write");
        for cut in 1..framed.len() {
            let result = frame::read_frame(&mut Cursor::new(&framed[..cut]), BUDGET);
            prop_assert!(
                matches!(result, Err(FrameError::Corrupt(_))),
                "frame prefix of {cut} bytes: {result:?}"
            );
        }

        let Request::Query { features, k } = &query else {
            unreachable!("built a query");
        };
        for cut in 0..payload.len() {
            let decoded = Request::decode(&payload[..cut]);
            let boundary = cut >= QUERY_HEADER_LEN && (cut - QUERY_HEADER_LEN).is_multiple_of(4);
            if boundary {
                let width = (cut - QUERY_HEADER_LEN) / 4;
                prop_assert_eq!(
                    decoded,
                    Ok(Request::Query { features: features[..width].to_vec(), k: *k })
                );
            } else {
                prop_assert!(decoded.is_err(), "payload prefix of {cut} bytes decoded");
            }
        }
    }

    /// A swap whose JSON part is well formed around a hostile model part —
    /// by `kind`: 0, the intact file truncated; 1, extended past its end;
    /// 2, with one byte flipped; 3, under a name that is not its own —
    /// decodes on the wire, and the model-file decoder the server runs
    /// refuses the model part with a typed error, never a panic.
    #[test]
    fn hostile_swap_model_parts_are_typed_errors(seed in any::<u64>(), kind in 0u8..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (file, schema) = intact_model();
        let (mut name, mut model) = (file.name().to_string(), file.bytes().to_vec());
        match kind {
            0 => model.truncate(rng.gen_range(0..model.len())),
            1 => model.extend((0..rng.gen_range(1..16)).map(|_| rng.gen_range(0u8..=255))),
            2 => model[rng.gen_range(0..file.bytes().len())] ^= rng.gen_range(1u8..=255),
            _ => {
                let names = ["", "model.bin", "../model-0.bin", "model-0123456789abcdef.bin"];
                name = names[rng.gen_range(0..names.len())].to_string();
            }
        }
        let swap = Request::SwapModel {
            model_file: name,
            model,
            labels: vec!["owl".to_string()],
            attributes: vec![vec![0.5; schema.num_attributes()]],
        };
        let Ok(Request::SwapModel { model_file, model, .. }) = Request::decode(&swap.encode())
        else {
            panic!("the swap does not decode");
        };
        let result = ModelFile::decode(&model_file, &model, schema);
        prop_assert!(
            matches!(
                result,
                Err(CheckpointError::Malformed(_)
                    | CheckpointError::UnsupportedVersion { .. }
                    | CheckpointError::ChecksumMismatch { .. }
                    | CheckpointError::FingerprintMismatch { .. })
            ),
            "{:?}",
            result.map(|_| ())
        );
    }
}
