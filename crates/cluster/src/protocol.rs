//! The coordinator ↔ worker wire protocol: length-prefixed binary
//! frames with a versioned handshake.
//!
//! Every frame is `[u32 LE length][u8 message type][payload]`, where
//! `length` counts the type byte plus the payload. The first frame on a
//! connection must be [`Message::Hello`] carrying [`PROTOCOL_VERSION`];
//! a worker that speaks a different version answers with a typed
//! [`Message::Error`] (code [`WireErrorCode::VersionMismatch`]) instead
//! of garbling — version skew during a rolling upgrade must fail
//! loudly, not corrupt an estimate.
//!
//! All integers are little-endian; `f64` travels as its IEEE-754 bit
//! pattern ([`f64::to_bits`]), so the sampling fraction a coordinator
//! sends is bit-identical on the worker — a prerequisite for the
//! cluster's byte-identity contract with single-node estimation.
//!
//! The payload grammar per message type:
//!
//! | type | message | payload |
//! |---|---|---|
//! | `0x01` | `Hello` | `magic u32` (`DVEC`), `version u16` |
//! | `0x02` | `HelloAck` | `version u16`, `segments u32`, `rows u64` |
//! | `0x03` | `SpectrumReq` | `fraction f64`, `seed u64` |
//! | `0x04` | `SpectrumResp` | `count u32`, then per partial: `n u64`, `entry_count u32`, `(i u64, f u64)*` |
//! | `0x05` | `Ping` | — |
//! | `0x06` | `Pong` | — |
//! | `0x7F` | `Error` | `code u16`, `len u32`, UTF-8 message |

use std::io::{Read, Write};

/// The protocol version this build speaks. Bump on any wire change;
/// the handshake rejects mismatches from either side.
pub const PROTOCOL_VERSION: u16 = 1;

/// Handshake magic (`DVEC` LE): catches a peer that is not speaking
/// this protocol at all (e.g. an HTTP client probing the port) before
/// any version logic runs.
pub const MAGIC: u32 = u32::from_le_bytes(*b"DVEC");

/// Largest frame either side will read (64 MiB). A partial spectrum
/// entry is 16 bytes, so this bounds one response at ~4M distinct
/// frequencies — far past any real sample — while refusing a
/// length-prefix of e.g. `0xFFFF_FFFF` before allocating for it.
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

/// Largest reservation a length prefix may trigger before the frame's
/// bytes arrive.
const FRAME_PREALLOC_BYTES: usize = 64 << 10;

/// Typed error codes carried by [`Message::Error`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireErrorCode {
    /// The peer speaks a different [`PROTOCOL_VERSION`]. Not retryable:
    /// the same binary will answer the same way forever.
    VersionMismatch,
    /// The request was malformed or arrived out of handshake order.
    /// Not retryable.
    BadRequest,
    /// The worker failed internally (e.g. a segment failed to sample).
    /// Retryable: transient by assumption.
    Internal,
}

impl WireErrorCode {
    /// Stable on-wire representation.
    pub fn as_u16(self) -> u16 {
        match self {
            WireErrorCode::VersionMismatch => 1,
            WireErrorCode::BadRequest => 2,
            WireErrorCode::Internal => 3,
        }
    }

    fn from_u16(v: u16) -> Option<Self> {
        match v {
            1 => Some(WireErrorCode::VersionMismatch),
            2 => Some(WireErrorCode::BadRequest),
            3 => Some(WireErrorCode::Internal),
            _ => None,
        }
    }

    /// Whether a coordinator should retry after receiving this error.
    pub fn retryable(self) -> bool {
        matches!(self, WireErrorCode::Internal)
    }

    /// Stable label for telemetry and error envelopes.
    pub fn label(self) -> &'static str {
        match self {
            WireErrorCode::VersionMismatch => "version_mismatch",
            WireErrorCode::BadRequest => "bad_request",
            WireErrorCode::Internal => "internal",
        }
    }
}

/// One segment's sampled frequency spectrum as it travels the wire:
/// the segment's table size plus sparse `(i, f_i)` entries. The sample
/// size `r` is implied (`Σ i·f_i`), and the design is implied too —
/// workers always sample each segment without replacement, so a partial
/// carries `wor(n)` semantics by contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialSpectrum {
    /// Rows in the segment the sample was drawn from.
    pub n: u64,
    /// Sparse `(i, f_i)` spectrum entries, ascending in `i`.
    pub entries: Vec<(u64, u64)>,
}

/// Every message either side can send.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client opener: magic + the protocol version it speaks.
    Hello {
        /// The sender's [`PROTOCOL_VERSION`].
        version: u16,
    },
    /// Worker's handshake answer: its version plus what it owns.
    HelloAck {
        /// The worker's [`PROTOCOL_VERSION`].
        version: u16,
        /// Segments this worker owns.
        segments: u32,
        /// Total rows across those segments.
        rows: u64,
    },
    /// Ask the worker to sample every segment it owns.
    SpectrumReq {
        /// Sampling fraction in `(0, 1]`, applied per segment.
        fraction: f64,
        /// Base RNG seed; workers derive per-segment streams from it.
        seed: u64,
    },
    /// One partial spectrum per non-empty segment.
    SpectrumResp {
        /// Per-segment sampled spectra.
        partials: Vec<PartialSpectrum>,
    },
    /// Liveness probe.
    Ping,
    /// Liveness answer.
    Pong,
    /// Typed failure; terminates the exchange it answers.
    Error {
        /// What went wrong, coarsely.
        code: WireErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Message {
    fn type_byte(&self) -> u8 {
        match self {
            Message::Hello { .. } => 0x01,
            Message::HelloAck { .. } => 0x02,
            Message::SpectrumReq { .. } => 0x03,
            Message::SpectrumResp { .. } => 0x04,
            Message::Ping => 0x05,
            Message::Pong => 0x06,
            Message::Error { .. } => 0x7F,
        }
    }
}

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying socket failed (includes timeouts and EOF).
    Io(std::io::Error),
    /// The length prefix exceeded [`MAX_FRAME_BYTES`].
    FrameTooLarge {
        /// The declared frame length.
        declared: u32,
    },
    /// The `Hello` magic was wrong — the peer is not speaking this
    /// protocol at all.
    BadMagic,
    /// An unknown message-type byte.
    UnknownType(u8),
    /// The payload did not decode (truncated, trailing bytes, bad
    /// enum value, invalid UTF-8).
    Malformed(&'static str),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "i/o: {e}"),
            ProtoError::FrameTooLarge { declared } => {
                write!(
                    f,
                    "frame of {declared} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
                )
            }
            ProtoError::BadMagic => write!(f, "bad handshake magic (peer is not a dve worker?)"),
            ProtoError::UnknownType(t) => write!(f, "unknown message type 0x{t:02x}"),
            ProtoError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// Serializes `msg` into one frame.
pub fn encode(msg: &Message) -> Vec<u8> {
    let mut payload = Vec::new();
    match msg {
        Message::Hello { version } => {
            payload.extend_from_slice(&MAGIC.to_le_bytes());
            payload.extend_from_slice(&version.to_le_bytes());
        }
        Message::HelloAck {
            version,
            segments,
            rows,
        } => {
            payload.extend_from_slice(&version.to_le_bytes());
            payload.extend_from_slice(&segments.to_le_bytes());
            payload.extend_from_slice(&rows.to_le_bytes());
        }
        Message::SpectrumReq { fraction, seed } => {
            payload.extend_from_slice(&fraction.to_bits().to_le_bytes());
            payload.extend_from_slice(&seed.to_le_bytes());
        }
        Message::SpectrumResp { partials } => {
            payload.extend_from_slice(&(partials.len() as u32).to_le_bytes());
            for p in partials {
                payload.extend_from_slice(&p.n.to_le_bytes());
                payload.extend_from_slice(&(p.entries.len() as u32).to_le_bytes());
                for &(i, f) in &p.entries {
                    payload.extend_from_slice(&i.to_le_bytes());
                    payload.extend_from_slice(&f.to_le_bytes());
                }
            }
        }
        Message::Ping | Message::Pong => {}
        Message::Error { code, message } => {
            payload.extend_from_slice(&code.as_u16().to_le_bytes());
            payload.extend_from_slice(&(message.len() as u32).to_le_bytes());
            payload.extend_from_slice(message.as_bytes());
        }
    }
    let mut frame = Vec::with_capacity(5 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32 + 1).to_le_bytes());
    frame.push(msg.type_byte());
    frame.extend_from_slice(&payload);
    frame
}

/// Writes one message as a single frame.
pub fn write_message(w: &mut impl Write, msg: &Message) -> Result<(), ProtoError> {
    w.write_all(&encode(msg))?;
    w.flush()?;
    Ok(())
}

/// Cursor over a frame payload with typed, bounds-checked takes.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], ProtoError> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.buf.len())
            .ok_or(ProtoError::Malformed("truncated payload"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn done(&self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::Malformed("trailing bytes"))
        }
    }
}

/// Reads one frame and decodes it.
pub fn read_message(r: &mut impl Read) -> Result<Message, ProtoError> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_BYTES {
        return Err(ProtoError::FrameTooLarge { declared: len });
    }
    if len == 0 {
        return Err(ProtoError::Malformed("zero-length frame"));
    }
    // The buffer grows with the bytes that actually arrive, so a corrupt
    // length prefix fails as a short read instead of reserving up to
    // `MAX_FRAME_BYTES` up front.
    let mut frame = Vec::with_capacity((len as usize).min(FRAME_PREALLOC_BYTES));
    r.take(u64::from(len)).read_to_end(&mut frame)?;
    if frame.len() != len as usize {
        return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into());
    }
    let (type_byte, payload) = (frame[0], &frame[1..]);
    let mut rd = Reader {
        buf: payload,
        pos: 0,
    };
    let msg = match type_byte {
        0x01 => {
            let magic = rd.u32()?;
            if magic != MAGIC {
                return Err(ProtoError::BadMagic);
            }
            Message::Hello { version: rd.u16()? }
        }
        0x02 => Message::HelloAck {
            version: rd.u16()?,
            segments: rd.u32()?,
            rows: rd.u64()?,
        },
        0x03 => Message::SpectrumReq {
            fraction: f64::from_bits(rd.u64()?),
            seed: rd.u64()?,
        },
        0x04 => {
            let count = rd.u32()?;
            let mut partials = Vec::with_capacity(count.min(1024) as usize);
            for _ in 0..count {
                let n = rd.u64()?;
                let entry_count = rd.u32()?;
                let mut entries = Vec::with_capacity(entry_count.min(4096) as usize);
                for _ in 0..entry_count {
                    let i = rd.u64()?;
                    let f = rd.u64()?;
                    entries.push((i, f));
                }
                partials.push(PartialSpectrum { n, entries });
            }
            Message::SpectrumResp { partials }
        }
        0x05 => Message::Ping,
        0x06 => Message::Pong,
        0x7F => {
            let code = WireErrorCode::from_u16(rd.u16()?)
                .ok_or(ProtoError::Malformed("unknown error code"))?;
            let len = rd.u32()? as usize;
            let bytes = rd.take(len)?;
            let message = std::str::from_utf8(bytes)
                .map_err(|_| ProtoError::Malformed("error message not UTF-8"))?
                .to_string();
            Message::Error { code, message }
        }
        other => return Err(ProtoError::UnknownType(other)),
    };
    rd.done()?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let bytes = encode(&msg);
        let back = read_message(&mut &bytes[..]).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn every_message_roundtrips() {
        roundtrip(Message::Hello {
            version: PROTOCOL_VERSION,
        });
        roundtrip(Message::HelloAck {
            version: 1,
            segments: 3,
            rows: 1_000_000,
        });
        roundtrip(Message::SpectrumReq {
            fraction: 0.125,
            seed: 42,
        });
        roundtrip(Message::SpectrumResp {
            partials: vec![
                PartialSpectrum {
                    n: 500,
                    entries: vec![(1, 40), (3, 2)],
                },
                PartialSpectrum {
                    n: 7,
                    entries: vec![],
                },
            ],
        });
        roundtrip(Message::SpectrumResp { partials: vec![] });
        roundtrip(Message::Ping);
        roundtrip(Message::Pong);
        for code in [
            WireErrorCode::VersionMismatch,
            WireErrorCode::BadRequest,
            WireErrorCode::Internal,
        ] {
            roundtrip(Message::Error {
                code,
                message: "nope".to_string(),
            });
        }
    }

    #[test]
    fn fraction_travels_bit_exact() {
        // 0.1 has no finite binary expansion; the bits must survive.
        let bytes = encode(&Message::SpectrumReq {
            fraction: 0.1,
            seed: 7,
        });
        match read_message(&mut &bytes[..]).unwrap() {
            Message::SpectrumReq { fraction, .. } => {
                assert_eq!(fraction.to_bits(), 0.1f64.to_bits());
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn oversized_frames_are_refused_before_allocation() {
        let mut bytes = (MAX_FRAME_BYTES + 1).to_le_bytes().to_vec();
        bytes.push(0x05);
        assert!(matches!(
            read_message(&mut &bytes[..]),
            Err(ProtoError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn zero_length_and_unknown_type_are_malformed() {
        let bytes = 0u32.to_le_bytes().to_vec();
        assert!(matches!(
            read_message(&mut &bytes[..]),
            Err(ProtoError::Malformed(_))
        ));
        let mut bytes = 1u32.to_le_bytes().to_vec();
        bytes.push(0x44);
        assert!(matches!(
            read_message(&mut &bytes[..]),
            Err(ProtoError::UnknownType(0x44))
        ));
    }

    #[test]
    fn bad_magic_is_its_own_error() {
        let mut frame = encode(&Message::Hello {
            version: PROTOCOL_VERSION,
        });
        // Corrupt the magic (bytes 5..9 of the frame).
        frame[5] ^= 0xFF;
        assert!(matches!(
            read_message(&mut &frame[..]),
            Err(ProtoError::BadMagic)
        ));
    }

    #[test]
    fn truncated_and_padded_payloads_are_rejected() {
        let frame = encode(&Message::HelloAck {
            version: 1,
            segments: 2,
            rows: 3,
        });
        // Declare one byte fewer than HelloAck needs.
        let mut short = frame.clone();
        short[0] -= 1;
        short.pop();
        assert!(matches!(
            read_message(&mut &short[..]),
            Err(ProtoError::Malformed(_))
        ));
        // Declare one extra byte: trailing bytes must be refused too.
        let mut long = frame;
        long[0] += 1;
        long.push(0);
        assert!(matches!(
            read_message(&mut &long[..]),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn error_codes_classify_retryability() {
        assert!(!WireErrorCode::VersionMismatch.retryable());
        assert!(!WireErrorCode::BadRequest.retryable());
        assert!(WireErrorCode::Internal.retryable());
        assert_eq!(WireErrorCode::VersionMismatch.label(), "version_mismatch");
        assert!(WireErrorCode::from_u16(9).is_none());
    }

    #[test]
    fn errors_display() {
        assert!(!ProtoError::BadMagic.to_string().is_empty());
        assert!(ProtoError::FrameTooLarge { declared: 1 }
            .to_string()
            .contains("cap"));
        assert!(ProtoError::UnknownType(7).to_string().contains("0x07"));
    }
}
