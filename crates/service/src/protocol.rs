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

use std::io::{self, Read};

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
    /// One draw, keyed by the connection and the request's ordinal on it
    /// (see [`crate::server`]); consecutive pipelined `DRAW`s are drawn in
    /// one planner call, with the same answers as one at a time.
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

/// Bytes a [`FrameReader`] asks one `read` for, and the size its buffer
/// returns to after an oversized frame is consumed.
const READ_BUF: usize = 8 * 1024;

/// Read one `[u32 LE length][body]` frame body from a blocking reader.
fn read_body(reader: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len_bytes = [0u8; 4];
    reader.read_exact(&mut len_bytes)?;
    let len = checked_len(len_bytes)?;
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok(body)
}

/// The body length a length prefix announces, if it is in `1..=MAX_FRAME`.
fn checked_len(prefix: [u8; 4]) -> io::Result<usize> {
    let len = u32::from_le_bytes(prefix) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} outside 1..={MAX_FRAME}"),
        ));
    }
    Ok(len)
}

/// Buffered, resumable frame reader, used by both ends of the wire.
///
/// One [`fill`](Self::fill) is one `read` into the buffer. It may land a
/// whole pipelined burst, or part of one frame: a frame torn across
/// segments, or a read that timed out. Partial bytes stay buffered until
/// the rest arrives, so a timeout never desynchronizes the stream. Whole
/// frames decode as views into the buffer ([`run`](Self::run)); no frame
/// is copied or allocated.
///
/// Memory is bounded per connection. The buffer holds a few KiB. It grows
/// only to hold one whole frame larger than that, after the frame's length
/// prefix passed the [`MAX_FRAME`] check, and shrinks back once that frame
/// is consumed.
#[derive(Debug)]
pub(crate) struct FrameReader {
    /// Received bytes; `buf[start..end]` is not consumed yet.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameReader {
    /// An empty reader.
    pub(crate) fn new() -> Self {
        Self {
            buf: vec![0; READ_BUF],
            start: 0,
            end: 0,
        }
    }

    /// Whether no unconsumed byte is buffered.
    pub(crate) fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Drop every buffered byte (the stream they came from is gone).
    pub(crate) fn clear(&mut self) {
        self.start = 0;
        self.end = 0;
        self.resize(READ_BUF);
    }

    /// One `read` from `src` (retried on `Interrupted`) into the space
    /// behind the buffered bytes. Unconsumed bytes move to the front first,
    /// and the buffer is sized to hold the frame they start, or a few KiB.
    ///
    /// Call it only while no whole frame is buffered. End of stream is an
    /// `UnexpectedEof` error, a length prefix outside `1..=MAX_FRAME` is
    /// `InvalidData`, and `WouldBlock` / `TimedOut` pass through with the
    /// buffered bytes kept.
    pub(crate) fn fill(&mut self, src: &mut impl Read) -> io::Result<()> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        let frame = self.body_len(0)?.map_or(0, |len| 4 + len);
        self.resize(frame.max(READ_BUF));
        debug_assert!(
            self.end < self.buf.len(),
            "fill with a whole frame buffered"
        );
        loop {
            match src.read(&mut self.buf[self.end..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        if self.end == 0 {
                            "connection closed between frames"
                        } else {
                            "connection closed inside a frame"
                        },
                    ))
                }
                Ok(n) => {
                    self.end += n;
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Up to `max` whole frames at the front of the buffer, as one run
    /// (empty while none is complete). `Err` on a length prefix outside
    /// `1..=MAX_FRAME`.
    pub(crate) fn run(&self, max: usize) -> io::Result<Frames<'_>> {
        let mut at = 0;
        let mut count = 0;
        while count < max {
            match self.body_len(at)? {
                Some(len) if self.start + at + 4 + len <= self.end => {
                    at += 4 + len;
                    count += 1;
                }
                _ => break,
            }
        }
        Ok(Frames {
            bytes: &self.buf[self.start..self.start + at],
            count,
        })
    }

    /// Mark the first `bytes` buffered bytes consumed: the
    /// [`wire_len`](Frames::wire_len) of a run taken from the front.
    pub(crate) fn consume(&mut self, bytes: usize) {
        self.start += bytes;
        debug_assert!(self.start <= self.end);
        if self.start == self.end {
            self.clear();
        }
    }

    /// The body length the prefix `at` bytes into the unconsumed bytes
    /// announces, once those 4 bytes are buffered.
    fn body_len(&self, at: usize) -> io::Result<Option<usize>> {
        match self.buf[self.start + at..self.end].first_chunk::<4>() {
            Some(&prefix) => checked_len(prefix).map(Some),
            None => Ok(None),
        }
    }

    /// Resize the buffer to exactly `size` bytes (no-op when it already is).
    fn resize(&mut self, size: usize) {
        let len = self.buf.len();
        if size > len {
            self.buf.reserve_exact(size - len);
            self.buf.resize(size, 0);
        } else if size < len {
            self.buf.truncate(size);
            self.buf.shrink_to_fit();
        }
    }
}

/// A run of whole frames, as views into a [`FrameReader`]'s buffer. Each
/// item is one frame's body: a request's `[opcode][payload]` or a
/// response's `[status][payload]`, never empty.
#[derive(Debug, Clone)]
pub(crate) struct Frames<'a> {
    /// Whole `[len][body]` frames, lengths checked by the reader.
    bytes: &'a [u8],
    count: usize,
}

impl Frames<'_> {
    /// Bytes the remaining frames occupy on the wire, prefixes included.
    pub(crate) fn wire_len(&self) -> usize {
        self.bytes.len()
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let (prefix, rest) = self.bytes.split_first_chunk::<4>()?;
        let (body, rest) = rest.split_at(u32::from_le_bytes(*prefix) as usize);
        self.bytes = rest;
        self.count -= 1;
        Some(body)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.count, Some(self.count))
    }
}

impl ExactSizeIterator for Frames<'_> {}

/// Append one `[len][lead][payload]` frame to `out`. The append-to-buffer
/// form is what both the reactor's outbound write buffer and the client's
/// send buffer build on: many frames coalesce into one buffer and leave in
/// as few `write` syscalls as the socket accepts (a `writev`-style
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

/// Append one encoded OK response whose payload is a `u32` count followed
/// by that many `u64` words (`DRAW_BATCH` indices, `PUBLISH` versions,
/// `TOTALS` bit patterns), written straight into `out`.
pub(crate) fn encode_ok_list(out: &mut Vec<u8>, words: impl ExactSizeIterator<Item = u64>) {
    let count = words.len();
    let len = 1 + 4 + 8 * count;
    debug_assert!(len <= MAX_FRAME);
    out.reserve(4 + len);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.push(0);
    out.extend_from_slice(&(count as u32).to_le_bytes());
    for word in words {
        out.extend_from_slice(&word.to_le_bytes());
    }
}

/// Append one encoded error response (status `1`, payload
/// `[code][UTF-8 message]`) to a response buffer.
pub fn encode_err(out: &mut Vec<u8>, code: u8, message: &str) {
    append_framed(out, &[1u8, code], message.as_bytes());
}

/// Split a response body: `Ok(payload)` on status `0`,
/// [`ServiceError::Remote`] on status `1`.
pub(crate) fn parse_response(body: &[u8]) -> Result<&[u8], ServiceError> {
    match body {
        [0, payload @ ..] => Ok(payload),
        [1, code, message @ ..] => Err(ServiceError::Remote {
            code: *code,
            message: String::from_utf8_lossy(message).into_owned(),
        }),
        [1] => Err(ServiceError::Protocol(
            "error response without a code byte".into(),
        )),
        [status, ..] => Err(ServiceError::Protocol(format!(
            "unknown response status {status}"
        ))),
        [] => Err(ServiceError::Protocol("empty response body".into())),
    }
}

/// Read one response frame from a blocking stream: `Ok(payload)` on
/// status `0`, [`ServiceError::Remote`] on status `1`. Reads exactly one
/// frame and no byte past it, so raw streams can interleave it with their
/// own reads; [`crate::ServiceClient`] reads through its own buffer.
pub fn read_response(reader: &mut impl Read) -> Result<Vec<u8>, ServiceError> {
    let body = read_body(reader)?;
    parse_response(&body).map(<[u8]>::to_vec)
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

    /// Everything not decoded yet (a trailing document), consumed.
    pub fn rest(&mut self) -> &'a [u8] {
        let rest = &self.bytes[self.at..];
        self.at = self.bytes.len();
        rest
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

    /// Decode every whole frame `reader` holds, consuming them.
    fn take_all(reader: &mut FrameReader) -> Vec<Vec<u8>> {
        let run = reader.run(usize::MAX).unwrap();
        let bytes = run.wire_len();
        let bodies = run.map(<[u8]>::to_vec).collect();
        reader.consume(bytes);
        bodies
    }

    #[test]
    fn frames_roundtrip_through_a_byte_pipe() {
        let mut wire = Vec::new();
        encode_request(&mut wire, OpCode::Update, &7u64.to_le_bytes());
        encode_request(&mut wire, OpCode::Draw, &[]);
        let mut reader = FrameReader::new();
        reader.fill(&mut wire.as_slice()).unwrap();
        let bodies = take_all(&mut reader);
        assert_eq!(bodies.len(), 2);
        assert_eq!(bodies[0][0], OpCode::Update as u8);
        assert_eq!(bodies[0][1..], 7u64.to_le_bytes());
        assert_eq!(bodies[1], [OpCode::Draw as u8]);
        assert!(reader.is_empty());
    }

    #[test]
    fn responses_roundtrip_ok_and_error() {
        let mut wire = Vec::new();
        encode_ok(&mut wire, &[1, 2, 3]);
        encode_ok_list(&mut wire, [5u64, 9].into_iter());
        encode_err(&mut wire, codes::INDEX_OUT_OF_RANGE, "nope");

        // The blocking reader takes one frame per call...
        let mut stream = wire.as_slice();
        assert_eq!(read_response(&mut stream).unwrap(), vec![1, 2, 3]);
        let list = read_response(&mut stream).unwrap();
        let mut cursor = Cursor::new(&list);
        assert_eq!(cursor.u32().unwrap(), 2);
        assert_eq!((cursor.u64().unwrap(), cursor.u64().unwrap()), (5, 9));
        cursor.done().unwrap();
        match read_response(&mut stream) {
            Err(ServiceError::Remote { code, message }) => {
                assert_eq!(code, codes::INDEX_OUT_OF_RANGE);
                assert_eq!(message, "nope");
            }
            other => panic!("expected a remote error, got {other:?}"),
        }
        assert!(stream.is_empty());

        // ...and the buffered reader decodes the same three from one read.
        let mut reader = FrameReader::new();
        reader.fill(&mut wire.as_slice()).unwrap();
        let bodies = take_all(&mut reader);
        assert_eq!(parse_response(&bodies[0]).unwrap(), [1, 2, 3]);
        assert_eq!(parse_response(&bodies[1]).unwrap(), list.as_slice());
        assert!(matches!(
            parse_response(&bodies[2]),
            Err(ServiceError::Remote {
                code: codes::INDEX_OUT_OF_RANGE,
                ..
            })
        ));
        assert!(matches!(
            parse_response(&[1]),
            Err(ServiceError::Protocol(_))
        ));
        assert!(matches!(
            parse_response(&[7, 0]),
            Err(ServiceError::Protocol(_))
        ));
    }

    #[test]
    fn zero_and_oversized_lengths_are_rejected() {
        for len in [0, MAX_FRAME as u32 + 1] {
            let wire = len.to_le_bytes();
            assert!(read_response(&mut wire.as_slice()).is_err());

            let mut reader = FrameReader::new();
            reader.fill(&mut wire.as_slice()).unwrap();
            assert_eq!(
                reader.run(1).unwrap_err().kind(),
                io::ErrorKind::InvalidData
            );
            // The prefix is checked before the buffer grows for it.
            assert_eq!(
                reader.fill(&mut [0u8; 16].as_slice()).unwrap_err().kind(),
                io::ErrorKind::InvalidData
            );
            assert_eq!(reader.buf.len(), READ_BUF);
        }
    }

    #[test]
    fn an_oversized_frame_grows_the_buffer_to_fit_and_then_shrinks_it() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(3 * READ_BUF).collect();
        let mut wire = Vec::new();
        encode_ok(&mut wire, &payload);
        encode_ok(&mut wire, &[4]);
        let mut src = wire.as_slice();
        let mut reader = FrameReader::new();
        let mut bodies = Vec::new();
        let mut reads = 0;
        while bodies.len() < 2 {
            if reader.run(1).unwrap().len() == 0 {
                reader.fill(&mut src).unwrap();
                reads += 1;
                // Never larger than the frame in progress.
                assert!(reader.buf.len() <= (4 + 1 + payload.len()).max(READ_BUF));
            }
            bodies.extend(take_all(&mut reader));
        }
        assert_eq!(bodies[0][1..], payload[..]);
        assert_eq!(bodies[1], [0, 4]);
        assert_eq!(
            reads, 3,
            "8 KiB, then the rest of the big frame, then the small one"
        );
        assert_eq!(reader.buf.len(), READ_BUF, "the buffer shrinks back");
        assert!(reader.buf.capacity() < 2 * READ_BUF);
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
        encode_request(&mut wire, OpCode::Update, &7u64.to_le_bytes());
        encode_request(&mut wire, OpCode::Scale, &2.5f64.to_bits().to_le_bytes());
        let total = wire.len();
        let mut trickle = Trickle {
            data: wire,
            at: 0,
            starve_next: true,
        };
        let mut reader = FrameReader::new();
        let mut bodies = Vec::new();
        let mut timeouts = 0usize;
        loop {
            bodies.extend(take_all(&mut reader));
            match reader.fill(&mut trickle) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => timeouts += 1,
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
                    assert!(reader.is_empty(), "EOF must land between frames");
                    assert!(e.to_string().contains("between frames"), "{e}");
                    break;
                }
            }
        }
        // Every byte was preceded by a timeout; none may be dropped.
        assert!(timeouts > total, "{timeouts} timeouts for {total} bytes");
        assert_eq!(bodies.len(), 2);
        assert_eq!(bodies[0][0], OpCode::Update as u8);
        assert_eq!(bodies[0][1..], 7u64.to_le_bytes());
        assert_eq!(bodies[1][0], OpCode::Scale as u8);
        assert_eq!(bodies[1][1..], 2.5f64.to_bits().to_le_bytes());
    }

    #[test]
    fn frame_reader_rejects_bad_lengths_and_keeps_a_torn_prefix() {
        // Two bytes of the prefix, then starvation: they stay buffered and
        // the frame completes once the rest arrives.
        let mut wire = Vec::new();
        encode_request(&mut wire, OpCode::Scale, &2.5f64.to_bits().to_le_bytes());
        let mut reader = FrameReader::new();
        let mut partial = Trickle {
            data: wire[..2].to_vec(),
            at: 0,
            starve_next: false,
        };
        for _ in 0..2 {
            reader.fill(&mut partial).unwrap();
            assert_eq!(
                reader.fill(&mut partial).unwrap_err().kind(),
                io::ErrorKind::WouldBlock
            );
        }
        assert_eq!(reader.run(1).unwrap().len(), 0);
        assert!(!reader.is_empty(), "the torn prefix is kept");
        reader.fill(&mut &wire[2..]).unwrap();
        assert_eq!(take_all(&mut reader), vec![wire[4..].to_vec()]);

        // A bad prefix is rejected once its fourth byte arrives, torn or not.
        for len in [0, MAX_FRAME as u32 + 1] {
            let prefix = len.to_le_bytes();
            let mut reader = FrameReader::new();
            reader.fill(&mut &prefix[..2]).unwrap();
            assert_eq!(reader.run(1).unwrap().len(), 0);
            reader.fill(&mut &prefix[2..]).unwrap();
            assert_eq!(
                reader.run(1).unwrap_err().kind(),
                io::ErrorKind::InvalidData
            );
        }
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
