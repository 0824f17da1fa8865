//! The length-prefixed binary wire protocol, shared by server and client.
//!
//! Every frame in either direction is
//!
//! ```text
//! [u32 LE length][body: length bytes]
//! ```
//!
//! A **request** body is `[u8 opcode][payload]`; a **response** body is
//! `[u8 status][payload]` with status `0` = OK and `1` = error (payload
//! `[u8 code][UTF-8 message]`). All integers are little-endian; `f64`
//! values travel as their IEEE-754 bit patterns in `u64`.
//!
//! | opcode | request payload | OK response payload |
//! |---|---|---|
//! | `0x01` DRAW | — | `u64` global index |
//! | `0x02` DRAW_BATCH | `u32` count | `u32` count, then `count × u64` indices |
//! | `0x03` UPDATE | `u64` index, `f64` weight | — |
//! | `0x04` UPDATE_BATCH | `u32` count, then `count × (u64, f64)` | — |
//! | `0x05` SCALE | `f64` factor | — |
//! | `0x06` PUBLISH | — | `u32` shards, then `shards × u64` versions |
//! | `0x07` TOTALS | — | `u32` shards, then `shards × f64` totals |
//! | `0x08` METRICS | — | UTF-8 JSON metrics document |

use std::io::{self, Read, Write};

use lrb_core::SelectionError;

use crate::error::ServiceError;

/// Largest accepted frame body (requests and responses), a hard cap on
/// per-connection allocation. 4 MiB fits the largest legal batch with room
/// for the metrics document.
pub const MAX_FRAME: usize = 4 << 20;

/// Largest accepted `DRAW_BATCH` / `UPDATE_BATCH` count.
pub const MAX_BATCH: u32 = 1 << 16;

/// Request opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpCode {
    /// One draw from the connection's server-side RNG stream; consecutive
    /// pipelined `DRAW`s coalesce into one batch.
    Draw = 0x01,
    /// `count` draws in one response.
    DrawBatch = 0x02,
    /// One weight override.
    Update = 0x03,
    /// Many weight overrides, all-or-nothing.
    UpdateBatch = 0x04,
    /// One multiplicative scale over every category.
    Scale = 0x05,
    /// Publish every shard's pending batch.
    Publish = 0x06,
    /// Read the per-shard totals.
    Totals = 0x07,
    /// Read the merged metrics document (JSON).
    Metrics = 0x08,
}

impl OpCode {
    /// Decode a wire opcode.
    pub fn from_u8(byte: u8) -> Option<Self> {
        Some(match byte {
            0x01 => OpCode::Draw,
            0x02 => OpCode::DrawBatch,
            0x03 => OpCode::Update,
            0x04 => OpCode::UpdateBatch,
            0x05 => OpCode::Scale,
            0x06 => OpCode::Publish,
            0x07 => OpCode::Totals,
            0x08 => OpCode::Metrics,
            _ => return None,
        })
    }
}

/// Wire error codes carried in an error response's first payload byte.
pub mod codes {
    /// [`SelectionError::EmptyFitness`](lrb_core::SelectionError::EmptyFitness).
    pub const EMPTY_FITNESS: u8 = 1;
    /// [`SelectionError::AllZeroFitness`](lrb_core::SelectionError::AllZeroFitness).
    pub const ALL_ZERO_FITNESS: u8 = 2;
    /// [`SelectionError::InvalidFitness`](lrb_core::SelectionError::InvalidFitness).
    pub const INVALID_FITNESS: u8 = 3;
    /// [`SelectionError::NotEnoughCandidates`](lrb_core::SelectionError::NotEnoughCandidates).
    pub const NOT_ENOUGH_CANDIDATES: u8 = 4;
    /// [`SelectionError::IndexOutOfRange`](lrb_core::SelectionError::IndexOutOfRange).
    pub const INDEX_OUT_OF_RANGE: u8 = 5;
    /// [`SelectionError::InvalidScale`](lrb_core::SelectionError::InvalidScale).
    pub const INVALID_SCALE: u8 = 6;
    /// [`SelectionError::UnknownBackend`](lrb_core::SelectionError::UnknownBackend).
    pub const UNKNOWN_BACKEND: u8 = 7;
    /// [`SelectionError::Durability`](lrb_core::SelectionError::Durability).
    pub const DURABILITY: u8 = 8;
    /// The request frame violated the protocol (bad opcode, bad length,
    /// oversized batch).
    pub const PROTOCOL: u8 = 20;
}

/// The wire error code for a selection failure.
pub fn error_code(error: &SelectionError) -> u8 {
    match error {
        SelectionError::EmptyFitness => codes::EMPTY_FITNESS,
        SelectionError::AllZeroFitness => codes::ALL_ZERO_FITNESS,
        SelectionError::InvalidFitness { .. } => codes::INVALID_FITNESS,
        SelectionError::NotEnoughCandidates { .. } => codes::NOT_ENOUGH_CANDIDATES,
        SelectionError::IndexOutOfRange { .. } => codes::INDEX_OUT_OF_RANGE,
        SelectionError::InvalidScale { .. } => codes::INVALID_SCALE,
        SelectionError::UnknownBackend { .. } => codes::UNKNOWN_BACKEND,
        SelectionError::Durability { .. } => codes::DURABILITY,
    }
}

/// One decoded request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The raw opcode byte (may be unknown — the dispatcher answers with a
    /// protocol error instead of dropping the connection).
    pub opcode: u8,
    /// The opaque payload bytes after the opcode.
    pub payload: Vec<u8>,
}

/// Read one `[u32 LE length][body]` frame body.
fn read_body(reader: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len_bytes = [0u8; 4];
    reader.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} outside 1..={MAX_FRAME}"),
        ));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok(body)
}

/// Read one request frame (server side) from a blocking reader.
///
/// Not timeout-safe: on `WouldBlock`/`TimedOut` any partially consumed
/// bytes are lost, desynchronizing the stream. Connections that poll with
/// a read timeout must use [`FrameReader`] instead.
pub fn read_frame(reader: &mut impl Read) -> io::Result<Frame> {
    let mut body = read_body(reader)?;
    let opcode = body[0];
    body.remove(0);
    Ok(Frame {
        opcode,
        payload: body,
    })
}

/// Incremental request-frame reader that is safe under read timeouts.
///
/// A frame can arrive split across TCP segments, so a timed-out
/// `read_exact` may fail *after* consuming part of the length prefix or
/// body — those bytes would be lost and the stream desynchronized. This
/// reader accumulates partial progress across [`poll`](Self::poll) calls:
/// a `WouldBlock`/`TimedOut` mid-frame parks the state and resumes on the
/// next call, never discarding consumed bytes.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// Accumulator for the 4-byte length prefix.
    len_bytes: [u8; 4],
    /// How many of the 4 prefix bytes have arrived.
    len_got: usize,
    /// Body accumulator, sized once the prefix is complete.
    body: Vec<u8>,
    /// How many body bytes have arrived.
    body_got: usize,
}

impl FrameReader {
    /// A reader with no partial frame buffered.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a partially received frame is buffered (a timeout now is a
    /// stalled peer, not an idle connection).
    pub fn mid_frame(&self) -> bool {
        self.len_got > 0
    }

    /// Advance the frame in progress. Returns `Ok(Some(frame))` once a
    /// whole frame has arrived, `Ok(None)` if the reader timed out
    /// (`WouldBlock`/`TimedOut`) with progress preserved for the next
    /// call, and `Err` on EOF, framing violation, or transport error.
    pub fn poll(&mut self, reader: &mut impl Read) -> io::Result<Option<Frame>> {
        loop {
            if self.len_got < 4 {
                match reader.read(&mut self.len_bytes[self.len_got..]) {
                    Ok(0) => {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            if self.len_got == 0 {
                                "connection closed between frames"
                            } else {
                                "connection closed inside a length prefix"
                            },
                        ))
                    }
                    Ok(n) => {
                        self.len_got += n;
                        if self.len_got == 4 {
                            let len = u32::from_le_bytes(self.len_bytes) as usize;
                            if len == 0 || len > MAX_FRAME {
                                return Err(io::Error::new(
                                    io::ErrorKind::InvalidData,
                                    format!("frame length {len} outside 1..={MAX_FRAME}"),
                                ));
                            }
                            self.body = vec![0u8; len];
                            self.body_got = 0;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) =>
                    {
                        return Ok(None)
                    }
                    Err(e) => return Err(e),
                }
            } else if self.body_got < self.body.len() {
                match reader.read(&mut self.body[self.body_got..]) {
                    Ok(0) => {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "connection closed inside a frame body",
                        ))
                    }
                    Ok(n) => self.body_got += n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) =>
                    {
                        return Ok(None)
                    }
                    Err(e) => return Err(e),
                }
            } else {
                let mut body = std::mem::take(&mut self.body);
                self.len_got = 0;
                self.body_got = 0;
                let opcode = body[0];
                body.remove(0);
                return Ok(Some(Frame {
                    opcode,
                    payload: body,
                }));
            }
        }
    }
}

/// Append one `[len][lead][payload]` frame to `out`. The append-to-buffer
/// form is what both the reactor's outbound write buffer and the client's
/// pipelined send buffer build on: many frames coalesce into one buffer and
/// leave in as few `write` syscalls as the socket accepts (a `writev`-style
/// gathering write without the extra iovec bookkeeping).
fn append_framed(out: &mut Vec<u8>, lead: &[u8], payload: &[u8]) {
    let len = lead.len() + payload.len();
    debug_assert!(len <= MAX_FRAME);
    out.reserve(4 + len);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.extend_from_slice(lead);
    out.extend_from_slice(payload);
}

/// Append one encoded request frame to a send buffer (client side).
pub fn encode_request(out: &mut Vec<u8>, opcode: OpCode, payload: &[u8]) {
    append_framed(out, &[opcode as u8], payload);
}

/// Append one encoded OK response (status `0`) to a response buffer.
pub fn encode_ok(out: &mut Vec<u8>, payload: &[u8]) {
    append_framed(out, &[0u8], payload);
}

/// Append one encoded error response (status `1`, payload
/// `[code][UTF-8 message]`) to a response buffer.
pub fn encode_err(out: &mut Vec<u8>, code: u8, message: &str) {
    append_framed(out, &[1u8, code], message.as_bytes());
}

/// Assemble and write one frame with a single `write_all`. This keeps small
/// frames to one syscall, but is **not** a delivery-atomicity guarantee —
/// TCP may still segment a large frame, so readers polling with a timeout
/// must tolerate partial arrival (see [`FrameReader`]).
fn write_framed(writer: &mut impl Write, lead: &[u8], payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::new();
    append_framed(&mut frame, lead, payload);
    writer.write_all(&frame)?;
    writer.flush()
}

/// Write one request frame (client side).
pub fn write_frame(writer: &mut impl Write, opcode: OpCode, payload: &[u8]) -> io::Result<()> {
    write_framed(writer, &[opcode as u8], payload)
}

/// Write an OK response (status `0`).
pub fn write_ok(writer: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    write_framed(writer, &[0u8], payload)
}

/// Write an error response (status `1`, payload `[code][UTF-8 message]`).
pub fn write_err(writer: &mut impl Write, code: u8, message: &str) -> io::Result<()> {
    write_framed(writer, &[1u8, code], message.as_bytes())
}

/// Read one response frame (client side): `Ok(payload)` on status `0`,
/// [`ServiceError::Remote`] on status `1`.
pub fn read_response(reader: &mut impl Read) -> Result<Vec<u8>, ServiceError> {
    let mut body = read_body(reader)?;
    match body[0] {
        0 => {
            body.remove(0);
            Ok(body)
        }
        1 => {
            if body.len() < 2 {
                return Err(ServiceError::Protocol(
                    "error response without a code byte".into(),
                ));
            }
            let code = body[1];
            let message = String::from_utf8_lossy(&body[2..]).into_owned();
            Err(ServiceError::Remote { code, message })
        }
        status => Err(ServiceError::Protocol(format!(
            "unknown response status {status}"
        ))),
    }
}

/// Little-endian payload cursor used by both ends to decode fields.
#[derive(Debug)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    /// Start decoding `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ServiceError> {
        if self.at + n > self.bytes.len() {
            return Err(ServiceError::Protocol(format!(
                "payload truncated: wanted {n} bytes at offset {}, have {}",
                self.at,
                self.bytes.len()
            )));
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    /// Decode a `u32`.
    pub fn u32(&mut self) -> Result<u32, ServiceError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Decode a `u64`.
    pub fn u64(&mut self) -> Result<u64, ServiceError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Decode an `f64` (bit pattern).
    pub fn f64(&mut self) -> Result<f64, ServiceError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Require the payload to be fully consumed.
    pub fn done(&self) -> Result<(), ServiceError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(ServiceError::Protocol(format!(
                "{} trailing payload bytes",
                self.bytes.len() - self.at
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_through_a_byte_pipe() {
        let mut wire = Vec::new();
        write_frame(&mut wire, OpCode::Update, &7u64.to_le_bytes()).unwrap();
        let frame = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(frame.opcode, OpCode::Update as u8);
        assert_eq!(frame.payload, 7u64.to_le_bytes());
    }

    #[test]
    fn responses_roundtrip_ok_and_error() {
        let mut wire = Vec::new();
        write_ok(&mut wire, &[1, 2, 3]).unwrap();
        assert_eq!(read_response(&mut wire.as_slice()).unwrap(), vec![1, 2, 3]);

        let mut wire = Vec::new();
        write_err(&mut wire, codes::INDEX_OUT_OF_RANGE, "nope").unwrap();
        match read_response(&mut wire.as_slice()) {
            Err(ServiceError::Remote { code, message }) => {
                assert_eq!(code, codes::INDEX_OUT_OF_RANGE);
                assert_eq!(message, "nope");
            }
            other => panic!("expected a remote error, got {other:?}"),
        }
    }

    #[test]
    fn zero_and_oversized_lengths_are_rejected() {
        let wire = 0u32.to_le_bytes();
        assert!(read_frame(&mut wire.as_slice()).is_err());
        let wire = ((MAX_FRAME + 1) as u32).to_le_bytes();
        assert!(read_frame(&mut wire.as_slice()).is_err());
    }

    #[test]
    fn cursor_decodes_and_rejects_trailing_bytes() {
        let mut payload = Vec::new();
        payload.extend_from_slice(&3u32.to_le_bytes());
        payload.extend_from_slice(&9u64.to_le_bytes());
        payload.extend_from_slice(&2.5f64.to_bits().to_le_bytes());
        let mut cursor = Cursor::new(&payload);
        assert_eq!(cursor.u32().unwrap(), 3);
        assert_eq!(cursor.u64().unwrap(), 9);
        assert_eq!(cursor.f64().unwrap(), 2.5);
        cursor.done().unwrap();

        let mut cursor = Cursor::new(&payload);
        cursor.u32().unwrap();
        assert!(cursor.done().is_err());
        assert!(Cursor::new(&payload[..2]).u32().is_err());
    }

    /// Delivers one byte per `read`, interleaving a timeout error before
    /// every byte — the worst-case TCP segmentation for a polling reader.
    struct Trickle {
        data: Vec<u8>,
        at: usize,
        starve_next: bool,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.starve_next {
                self.starve_next = false;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "starved"));
            }
            self.starve_next = true;
            if self.at == self.data.len() {
                return Ok(0); // EOF
            }
            buf[0] = self.data[self.at];
            self.at += 1;
            Ok(1)
        }
    }

    #[test]
    fn frame_reader_survives_timeouts_mid_frame() {
        let mut wire = Vec::new();
        write_frame(&mut wire, OpCode::Update, &7u64.to_le_bytes()).unwrap();
        write_frame(&mut wire, OpCode::Scale, &2.5f64.to_bits().to_le_bytes()).unwrap();
        let total = wire.len();
        let mut trickle = Trickle {
            data: wire,
            at: 0,
            starve_next: true,
        };
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        let mut timeouts = 0usize;
        loop {
            match reader.poll(&mut trickle) {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => timeouts += 1,
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
                    assert!(!reader.mid_frame(), "EOF must land between frames");
                    break;
                }
            }
        }
        // Every byte was preceded by a timeout; none may be dropped.
        assert!(timeouts > total, "{timeouts} timeouts for {total} bytes");
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].opcode, OpCode::Update as u8);
        assert_eq!(frames[0].payload, 7u64.to_le_bytes());
        assert_eq!(frames[1].opcode, OpCode::Scale as u8);
        assert_eq!(frames[1].payload, 2.5f64.to_bits().to_le_bytes());
    }

    #[test]
    fn frame_reader_rejects_bad_lengths_and_reports_mid_frame() {
        let mut reader = FrameReader::new();
        assert!(!reader.mid_frame());
        // Two bytes of the prefix, then starvation: state must persist.
        let mut partial = Trickle {
            data: 9u32.to_le_bytes()[..2].to_vec(),
            at: 0,
            starve_next: false,
        };
        assert!(matches!(reader.poll(&mut partial), Ok(None)));
        assert!(reader.mid_frame());

        let mut reader = FrameReader::new();
        let wire = 0u32.to_le_bytes();
        assert!(reader.poll(&mut wire.as_slice()).is_err());
        let mut reader = FrameReader::new();
        let wire = ((MAX_FRAME + 1) as u32).to_le_bytes();
        assert!(reader.poll(&mut wire.as_slice()).is_err());
    }

    #[test]
    fn every_opcode_roundtrips_and_unknowns_are_none() {
        for byte in 1u8..=8 {
            assert_eq!(OpCode::from_u8(byte).unwrap() as u8, byte);
        }
        assert_eq!(OpCode::from_u8(0), None);
        assert_eq!(OpCode::from_u8(9), None);
    }
}
