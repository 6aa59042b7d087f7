//! The `vitald` wire protocol (DESIGN.md §13).
//!
//! Every frame is a 4-byte big-endian payload length followed by the
//! payload. The payload's first byte selects the encoding:
//!
//! * `0x01` / `0x02` — a **binary** request / response envelope: the
//!   opcode byte followed by the compact tagged encoding of the envelope
//!   (see [`codec`](crate::codec)). This is the default format; it is
//!   roughly 2–3× smaller than JSON and parses without text scanning.
//! * `b'{'` — a **JSON** envelope: the payload is the envelope rendered
//!   as UTF-8 JSON (what `vitalctl --connect` speaks); the server answers
//!   each request in the format it arrived in.
//!
//! Each request frame carries a [`RequestEnvelope`] (client-chosen
//! correlation id plus the [`ControlRequest`]); the service answers with
//! a [`ResponseEnvelope`] echoing the id. Responses on one connection
//! arrive in request order, even when the server pipelines many requests
//! from that connection concurrently.
//!
//! Robustness: a frame announcing more than the configured maximum is
//! refused *before* any allocation, a partial frame (EOF or a slow peer
//! mid-frame) is a typed error or a "need more bytes" state — never a
//! panic — and garbage payloads surface as [`ServiceError::Protocol`].
//! The server reads requests as `IncomingRequest`s, so a well-framed
//! envelope whose request it cannot parse (an unknown tag, a missing
//! field) is answered at its id instead of costing the peer its
//! connection.

use std::io::{Read, Write};

use serde::{DeError, Deserialize, Serialize, Value};
use vital_runtime::{ControlRequest, ControlResponse};

use crate::codec::{decode_value, encode_value};
use crate::error::ServiceError;

/// Hard ceiling on one frame's payload, on the server and in
/// [`RemoteClient`](crate::RemoteClient) — a checkpoint capsule with a
/// populated DRAM image is the largest legitimate payload. Bigger
/// announcements are refused before allocation.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Opcode of a binary request envelope.
const OP_REQUEST: u8 = 0x01;
/// Opcode of a binary response envelope.
const OP_RESPONSE: u8 = 0x02;
/// First byte of every JSON envelope (`{"id":...`).
const JSON_SENTINEL: u8 = b'{';

/// How one peer encodes its frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireFormat {
    /// Compact tagged binary (length + opcode + payload); the default.
    #[default]
    Binary,
    /// Length-prefixed JSON text.
    Json,
}

/// One request on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestEnvelope {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The operation.
    pub req: ControlRequest,
}

/// One response on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseEnvelope {
    /// The correlation id of the request this answers.
    pub id: u64,
    /// The typed answer.
    pub resp: ControlResponse,
}

/// A request envelope as the server reads it: the id decodes on its own,
/// so a request that does not parse can still be answered — with a typed
/// [`ServiceError::Protocol`] — at the id its sender is waiting on.
pub(crate) struct IncomingRequest {
    pub id: u64,
    pub req: Result<ControlRequest, ServiceError>,
}

impl Deserialize for IncomingRequest {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(IncomingRequest {
            id: Deserialize::from_value(v.field("id")?)?,
            req: ControlRequest::from_value(v.field("req")?)
                .map_err(|e| ServiceError::Protocol(format!("bad request: {e}"))),
        })
    }
}

/// An envelope kind that can travel the wire: ties a decodable type to
/// its binary opcode so request and response frames cannot be confused.
/// Sending one ([`encode_frame`]) also takes [`Serialize`].
pub trait Envelope: Deserialize {
    /// The opcode identifying this envelope kind on the binary wire.
    const OPCODE: u8;
}

impl Envelope for RequestEnvelope {
    const OPCODE: u8 = OP_REQUEST;
}

impl Envelope for ResponseEnvelope {
    const OPCODE: u8 = OP_RESPONSE;
}

impl Envelope for IncomingRequest {
    const OPCODE: u8 = OP_REQUEST;
}

/// Serializes one envelope into a complete frame (length prefix
/// included), appended to `out`.
pub fn encode_frame<T: Envelope + Serialize>(
    env: &T,
    format: WireFormat,
    max_frame_bytes: usize,
    out: &mut Vec<u8>,
) -> Result<(), ServiceError> {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]); // length back-patched below
    match format {
        WireFormat::Binary => {
            out.push(T::OPCODE);
            encode_value(&env.to_value(), out);
        }
        WireFormat::Json => {
            let text =
                serde_json::to_string(env).map_err(|e| ServiceError::Protocol(e.to_string()))?;
            out.extend_from_slice(text.as_bytes());
        }
    }
    let payload_len = out.len() - start - 4;
    if payload_len > max_frame_bytes {
        out.truncate(start);
        return Err(ServiceError::Protocol(format!(
            "frame of {payload_len} bytes exceeds the {max_frame_bytes} byte limit"
        )));
    }
    out[start..start + 4].copy_from_slice(&(payload_len as u32).to_be_bytes());
    Ok(())
}

/// Writes one framed envelope to a blocking writer.
pub(crate) fn write_frame<W: Write, T: Envelope + Serialize>(
    w: &mut W,
    env: &T,
    format: WireFormat,
) -> Result<(), ServiceError> {
    let mut buf = Vec::new();
    encode_frame(env, format, MAX_FRAME_BYTES, &mut buf)?;
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// Decodes one complete payload (length prefix already stripped) into an
/// envelope, returning the format it arrived in.
fn decode_payload<T: Envelope>(payload: &[u8]) -> Result<(T, WireFormat), ServiceError> {
    match payload.first() {
        None => Err(ServiceError::Protocol("empty frame".to_string())),
        Some(&JSON_SENTINEL) => {
            let text = std::str::from_utf8(payload)
                .map_err(|e| ServiceError::Protocol(format!("frame is not UTF-8: {e}")))?;
            let env =
                serde_json::from_str(text).map_err(|e| ServiceError::Protocol(e.to_string()))?;
            Ok((env, WireFormat::Json))
        }
        Some(&op) if op == T::OPCODE => {
            let value = decode_value(&payload[1..])?;
            let env = T::from_value(&value)
                .map_err(|e| ServiceError::Protocol(format!("bad envelope: {e}")))?;
            Ok((env, WireFormat::Binary))
        }
        Some(&op) => Err(ServiceError::Protocol(format!(
            "unexpected opcode {op:#04x} (expected {:#04x} or JSON)",
            T::OPCODE
        ))),
    }
}

/// Reads one framed envelope from a blocking reader, returning the format
/// the peer used. [`ServiceError::Disconnected`] on a clean EOF at a
/// frame boundary; an EOF mid-frame is a typed [`ServiceError::Protocol`].
pub fn read_frame<R: Read, T: Envelope>(
    r: &mut R,
    max_frame_bytes: usize,
) -> Result<(T, WireFormat), ServiceError> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > max_frame_bytes {
        return Err(ServiceError::Protocol(format!(
            "peer announced a {len} byte frame (limit {max_frame_bytes})"
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| {
        // EOF in the middle of a frame is peer misbehaviour, not a clean
        // disconnect.
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ServiceError::Protocol(format!(
                "connection closed mid-frame ({len} bytes expected)"
            ))
        } else {
            ServiceError::from(e)
        }
    })?;
    decode_payload(&payload)
}

/// An incremental frame decoder for non-blocking transports: bytes are
/// fed in as they arrive ([`FrameDecoder::extend`]) and complete
/// envelopes are taken out ([`FrameDecoder::next_frame`]) — a partial
/// frame simply waits for more bytes instead of blocking a thread.
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by decoded frames (compacted
    /// whenever the buffer drains).
    consumed: usize,
    max_frame_bytes: usize,
}

impl FrameDecoder {
    /// A decoder enforcing `max_frame_bytes` per frame.
    pub fn new(max_frame_bytes: usize) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            consumed: 0,
            max_frame_bytes,
        }
    }

    /// Feeds raw bytes read from the transport.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact lazily: only when the pending region is empty, so
        // feeding is O(bytes) amortized.
        if self.consumed == self.buf.len() {
            self.buf.clear();
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Takes the next complete envelope, if one is fully buffered.
    ///
    /// * `Ok(Some(_))` — one envelope and the format it used.
    /// * `Ok(None)` — no complete frame yet; feed more bytes.
    /// * `Err(_)` — the stream is poisoned (oversized announcement or a
    ///   malformed payload); the connection should be dropped.
    pub fn next_frame<T: Envelope>(&mut self) -> Result<Option<(T, WireFormat)>, ServiceError> {
        self.next_payload()?.map(decode_payload).transpose()
    }

    /// Takes the next fully buffered payload off the stream (framing
    /// only), consuming it whether or not it then decodes.
    fn next_payload(&mut self) -> Result<Option<&[u8]>, ServiceError> {
        let pending = &self.buf[self.consumed..];
        if pending.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes(pending[..4].try_into().expect("4 bytes checked")) as usize;
        if len > self.max_frame_bytes {
            return Err(ServiceError::Protocol(format!(
                "peer announced a {len} byte frame (limit {})",
                self.max_frame_bytes
            )));
        }
        if pending.len() < 4 + len {
            return Ok(None);
        }
        let start = self.consumed + 4;
        self.consumed = start + len;
        Ok(Some(&self.buf[start..start + len]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(id: u64) -> RequestEnvelope {
        RequestEnvelope {
            id,
            req: ControlRequest::deploy("lenet-S"),
        }
    }

    #[test]
    fn binary_frames_round_trip() {
        let env = request(42);
        let mut buf = Vec::new();
        write_frame(&mut buf, &env, WireFormat::Binary).unwrap();
        assert_eq!(
            u32::from_be_bytes(buf[..4].try_into().unwrap()) as usize,
            buf.len() - 4
        );
        let (back, format): (RequestEnvelope, _) =
            read_frame(&mut buf.as_slice(), MAX_FRAME_BYTES).unwrap();
        assert_eq!(back, env);
        assert_eq!(format, WireFormat::Binary);
    }

    #[test]
    fn json_frames_round_trip_for_legacy_peers() {
        let env = request(7);
        let mut buf = Vec::new();
        write_frame(&mut buf, &env, WireFormat::Json).unwrap();
        assert_eq!(buf[4], b'{', "JSON frames start with a brace");
        let (back, format): (RequestEnvelope, _) =
            read_frame(&mut buf.as_slice(), MAX_FRAME_BYTES).unwrap();
        assert_eq!(back, env);
        assert_eq!(format, WireFormat::Json);
    }

    #[test]
    fn checkpoint_surface_round_trips_in_both_wire_formats() {
        use vital_runtime::MigratePolicy;
        let reqs = [
            ControlRequest::Checkpoint { tenant: 3 },
            ControlRequest::Restore { tenant: 3 },
            ControlRequest::Migrate {
                tenant: 3,
                policy: MigratePolicy::Portable,
            },
            ControlRequest::Migrate {
                tenant: 3,
                policy: MigratePolicy::Auto,
            },
        ];
        for (i, req) in reqs.into_iter().enumerate() {
            let env = RequestEnvelope {
                id: i as u64,
                req: req.clone(),
            };
            for format in [WireFormat::Binary, WireFormat::Json] {
                let mut buf = Vec::new();
                write_frame(&mut buf, &env, format).unwrap();
                let (back, got): (RequestEnvelope, _) =
                    read_frame(&mut buf.as_slice(), MAX_FRAME_BYTES).unwrap();
                assert_eq!(back.req, req);
                assert_eq!(got, format);
            }
        }
    }

    #[test]
    fn binary_is_smaller_than_json() {
        let env = request(1);
        let (mut bin, mut json) = (Vec::new(), Vec::new());
        write_frame(&mut bin, &env, WireFormat::Binary).unwrap();
        write_frame(&mut json, &env, WireFormat::Json).unwrap();
        // Field names still travel as strings, so the envelope shrinks
        // rather than collapses — the win compounds on numeric payloads.
        assert!(
            bin.len() < json.len(),
            "binary {} bytes vs json {} bytes",
            bin.len(),
            json.len()
        );
    }

    #[test]
    fn eof_at_frame_boundary_reads_as_disconnected() {
        let empty: &[u8] = &[];
        let err = read_frame::<_, RequestEnvelope>(&mut &*empty, MAX_FRAME_BYTES).unwrap_err();
        assert_eq!(err, ServiceError::Disconnected);
    }

    #[test]
    fn eof_mid_frame_is_a_protocol_error_not_a_panic() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &request(9), WireFormat::Binary).unwrap();
        for cut in 4..buf.len() {
            let err =
                read_frame::<_, RequestEnvelope>(&mut &buf[..cut], MAX_FRAME_BYTES).unwrap_err();
            assert!(
                matches!(err, ServiceError::Protocol(_)),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn oversized_announcements_are_refused_before_allocation() {
        let huge = u32::MAX.to_be_bytes();
        let err = read_frame::<_, RequestEnvelope>(&mut &huge[..], MAX_FRAME_BYTES).unwrap_err();
        assert!(matches!(err, ServiceError::Protocol(_)));
        // The configured ceiling is enforced, not just the compile-time one.
        let mut small = Vec::new();
        write_frame(&mut small, &request(3), WireFormat::Binary).unwrap();
        let err = read_frame::<_, RequestEnvelope>(&mut small.as_slice(), 8).unwrap_err();
        assert!(matches!(err, ServiceError::Protocol(_)));
    }

    #[test]
    fn mismatched_opcode_is_rejected() {
        // A response envelope where a request is expected.
        let resp = ResponseEnvelope {
            id: 1,
            resp: ControlResponse::Undeployed { tenant: 1 },
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &resp, WireFormat::Binary).unwrap();
        let err =
            read_frame::<_, RequestEnvelope>(&mut buf.as_slice(), MAX_FRAME_BYTES).unwrap_err();
        assert!(matches!(err, ServiceError::Protocol(_)));
    }

    #[test]
    fn incremental_decoder_handles_byte_at_a_time_arrival() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &request(1), WireFormat::Binary).unwrap();
        write_frame(&mut wire, &request(2), WireFormat::Json).unwrap();
        let mut decoder = FrameDecoder::new(MAX_FRAME_BYTES);
        let mut decoded = Vec::new();
        for &b in &wire {
            decoder.extend(&[b]);
            while let Some((env, _)) = decoder.next_frame::<RequestEnvelope>().unwrap() {
                decoded.push(env.id);
            }
        }
        assert_eq!(decoded, vec![1, 2]);
        assert_eq!(decoder.consumed, decoder.buf.len(), "every byte consumed");
    }

    #[test]
    fn incremental_decoder_poisons_on_garbage() {
        let mut decoder = FrameDecoder::new(MAX_FRAME_BYTES);
        // Valid length, garbage payload.
        decoder.extend(&5u32.to_be_bytes());
        decoder.extend(&[0xfe, 1, 2, 3, 4]);
        assert!(decoder.next_frame::<RequestEnvelope>().is_err());
    }

    #[test]
    fn incremental_decoder_rejects_oversized_before_buffering_payload() {
        let mut decoder = FrameDecoder::new(1024);
        decoder.extend(&(1u32 << 30).to_be_bytes());
        assert!(decoder.next_frame::<RequestEnvelope>().is_err());
    }
}
