//! Per-connection state machine for the event-driven server: a resumable
//! [`FrameReader`] on the inbound side, an [`OutBuf`] write buffer with
//! partial-write handling on the outbound side, and the **per-pass frame
//! cap** between them.
//!
//! The reactor runs every request to completion on its own thread: one
//! readiness pass decodes at most [`ServerConfig::inflight_budget`] frames,
//! executes them and queues their responses before it moves on, so nothing
//! is in flight across loop iterations. Frames past the cap stay in the
//! kernel socket buffer; level-triggered epoll reports the connection again
//! on the next iteration, after every other ready connection had its turn.
//! A client that blasts requests therefore backs up in its own socket
//! buffer (and ultimately pushes back through TCP flow control), not in
//! server memory.
//!
//! Responses are correlated **by order**: frames execute strictly in the
//! order they arrived on the connection, so a pipelining client matches
//! the `n`th response to the `n`th request without any message ids on the
//! wire.
//!
//! Everything here is transport-generic (`S: Read + Write`), so the cap
//! and partial-write behaviour are unit-tested against in-memory streams —
//! no sockets required — and the same state machine drives TCP and UDS
//! connections identically.
//!
//! [`ServerConfig::inflight_budget`]: crate::server::ServerConfig

use std::io::{self, Read, Write};

use lrb_rng::{MersenneTwister64, SeedableSource};

use crate::protocol::{Frame, FrameReader};

/// Once this many already-written bytes accumulate at the front of the
/// outbound buffer, they are compacted away so a long-lived connection's
/// buffer does not grow monotonically.
const COMPACT_THRESHOLD: usize = 16 * 1024;

/// Outbound byte buffer with partial-write (`EWOULDBLOCK`) handling.
///
/// Responses for a connection append here (many frames coalesce into one
/// contiguous buffer, so a pipelined burst leaves in one `write` syscall
/// when the socket accepts it) and [`flush`](Self::flush) advances a write
/// cursor instead of draining, so a short write costs no memmove.
#[derive(Debug, Default)]
pub(crate) struct OutBuf {
    buf: Vec<u8>,
    /// Bytes before `pos` are already written to the socket.
    pos: usize,
}

impl OutBuf {
    /// Bytes still waiting to be written.
    pub(crate) fn len(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether anything is waiting to be written.
    pub(crate) fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// The buffer new responses encode into, behind whatever is still
    /// unwritten (a long already-written prefix is compacted away first).
    pub(crate) fn queue(&mut self) -> &mut Vec<u8> {
        if self.pos >= COMPACT_THRESHOLD {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        &mut self.buf
    }

    /// Write as much as the sink accepts. Returns `Ok(true)` when the
    /// buffer fully drained, `Ok(false)` on `WouldBlock` with the cursor
    /// parked mid-frame (the reactor arms `EPOLLOUT` and resumes later),
    /// and `Err` on a transport failure.
    pub(crate) fn flush(&mut self, sink: &mut impl Write) -> io::Result<bool> {
        while self.pos < self.buf.len() {
            match sink.write(&self.buf[self.pos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.pos += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.pos = 0;
        Ok(true)
    }
}

/// One multiplexed connection owned by a reactor thread, which does all
/// of its socket I/O and executes all of its requests — every `read`/
/// `write` on a given fd stays on one thread, so teardown cannot race one.
#[derive(Debug)]
pub(crate) struct Connection<S> {
    /// The nonblocking socket (TCP or UDS).
    pub(crate) sock: S,
    /// Resumable frame parser (survives frames split across segments).
    reader: FrameReader,
    /// Outbound responses, in request order.
    pub(crate) out: OutBuf,
    /// The connection's server-side RNG: every draw it requests comes
    /// from this stream.
    pub(crate) rng: MersenneTwister64,
    /// The epoll interest mask currently registered for this connection.
    pub(crate) interest: u32,
}

impl<S: Read + Write> Connection<S> {
    /// A fresh connection over `sock`, drawing from an RNG seeded with
    /// `rng_seed`.
    pub(crate) fn new(sock: S, rng_seed: u64) -> Self {
        Self {
            sock,
            reader: FrameReader::new(),
            out: OutBuf::default(),
            rng: MersenneTwister64::seed_from_u64(rng_seed),
            interest: 0,
        }
    }

    /// Whether unwritten response bytes are buffered (the reactor keeps
    /// `EPOLLOUT` armed while true).
    pub(crate) fn wants_write(&self) -> bool {
        !self.out.is_empty()
    }

    /// One readiness pass: replace `frames` with the frames decoded until
    /// the socket drains (`WouldBlock`) or `cap` frames are decoded.
    /// Returns `Ok(true)` when the pass stopped at the cap — whatever the
    /// socket still holds stays in the kernel, and level-triggered epoll
    /// reports it on a later pass — `Ok(false)` when the socket drained,
    /// and `Err` on EOF / framing violation / transport error (the caller
    /// closes the connection).
    pub(crate) fn read_frames(&mut self, cap: usize, frames: &mut Vec<Frame>) -> io::Result<bool> {
        frames.clear();
        while frames.len() < cap {
            match self.reader.poll(&mut self.sock)? {
                Some(frame) => frames.push(frame),
                None => return Ok(false),
            }
        }
        Ok(true)
    }

    /// Bytes buffered for write (the slow-consumer backlog).
    pub(crate) fn outbound_len(&self) -> usize {
        self.out.len()
    }

    /// Flush buffered responses; see [`OutBuf::flush`].
    pub(crate) fn flush(&mut self) -> io::Result<bool> {
        self.out.flush(&mut self.sock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{encode_request, OpCode};

    /// In-memory "socket": reads from `input` (then `WouldBlock`, like an
    /// idle nonblocking socket), writes into `written` accepting at most
    /// `write_cap` bytes per call with a `WouldBlock` interleaved after
    /// every accepted chunk — the worst-case slow peer.
    struct FakeSock {
        input: Vec<u8>,
        at: usize,
        written: Vec<u8>,
        write_cap: usize,
        starve_write: bool,
    }

    impl FakeSock {
        fn with_input(input: Vec<u8>) -> Self {
            Self {
                input,
                at: 0,
                written: Vec::new(),
                write_cap: usize::MAX,
                starve_write: false,
            }
        }
        fn unread(&self) -> usize {
            self.input.len() - self.at
        }
    }

    impl Read for FakeSock {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.at == self.input.len() {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "idle"));
            }
            let n = buf.len().min(self.input.len() - self.at);
            buf[..n].copy_from_slice(&self.input[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    impl Write for FakeSock {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.starve_write {
                self.starve_write = false;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
            }
            let n = buf.len().min(self.write_cap);
            self.written.extend_from_slice(&buf[..n]);
            if self.write_cap != usize::MAX {
                self.starve_write = true;
            }
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn draw_frames(n: usize) -> Vec<u8> {
        let mut wire = Vec::new();
        for _ in 0..n {
            encode_request(&mut wire, OpCode::Draw, &[]);
        }
        wire
    }

    #[test]
    fn read_pass_stops_at_the_cap_and_the_next_pass_takes_the_rest() {
        // Six frames arrive at once; with a cap of 4 one pass must decode
        // exactly 4 and leave the rest unread in the "kernel".
        let mut conn = Connection::new(FakeSock::with_input(draw_frames(6)), 7);
        let mut frames = Vec::new();
        assert!(
            conn.read_frames(4, &mut frames).unwrap(),
            "the pass must report stopping at the cap"
        );
        assert_eq!(frames.len(), 4);
        assert_eq!(
            conn.sock.unread(),
            draw_frames(2).len(),
            "the 5th and 6th frames must stay unread in the socket buffer"
        );

        // Level-triggered epoll reports the rest; the next pass decodes
        // both and finds the socket drained.
        assert!(!conn.read_frames(4, &mut frames).unwrap());
        assert_eq!(frames.len(), 2);
        assert_eq!(conn.sock.unread(), 0);
    }

    #[test]
    fn torn_frames_resume_across_reads() {
        // A frame split at every byte must decode once the bytes arrive.
        let wire = draw_frames(2);
        let mut conn = Connection::new(FakeSock::with_input(Vec::new()), 1);
        let mut frames = Vec::new();
        let mut decoded = 0;
        for &byte in &wire {
            conn.sock.input.push(byte);
            conn.read_frames(64, &mut frames).unwrap();
            decoded += frames.len();
        }
        assert_eq!(decoded, 2);
    }

    #[test]
    fn out_buf_survives_partial_writes_and_compaction() {
        let mut out = OutBuf::default();
        let payload: Vec<u8> = (0..=255u8).cycle().take(40_000).collect();
        out.queue().extend_from_slice(&payload);
        let mut sink = FakeSock::with_input(Vec::new());
        sink.write_cap = 3; // 3 bytes per write, WouldBlock in between
        let mut rounds = 0usize;
        while !out.flush(&mut sink).unwrap() {
            rounds += 1;
            assert!(rounds < 100_000, "flush never completed");
            if rounds == 5 {
                // Mid-flush append must not corrupt the stream.
                out.queue().extend_from_slice(&[0xAA, 0xBB]);
            }
        }
        assert!(out.is_empty());
        let mut expected = payload.clone();
        expected.extend_from_slice(&[0xAA, 0xBB]);
        assert_eq!(sink.written, expected);
    }

    #[test]
    fn slow_consumer_backlog_is_what_the_socket_refused() {
        let mut conn = Connection::new(FakeSock::with_input(Vec::new()), 3);
        // The peer accepts 100 bytes and then stalls: the backlog the cap
        // judges is what remains after flushing, not the response size.
        conn.sock.write_cap = 100;
        conn.out.queue().extend_from_slice(&[0u8; 4096]);
        assert_eq!(conn.outbound_len(), 4096);
        assert!(
            !conn.flush().unwrap(),
            "stalled peer must report WouldBlock"
        );
        assert_eq!(conn.outbound_len(), 4096 - 100);
        assert!(conn.outbound_len() > 1024, "backlog exceeds a 1 KiB cap");
    }

    #[test]
    fn write_zero_is_a_transport_error() {
        struct Dead;
        impl Write for Dead {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut out = OutBuf::default();
        out.queue().extend_from_slice(&[1, 2, 3]);
        assert_eq!(
            out.flush(&mut Dead).unwrap_err().kind(),
            io::ErrorKind::WriteZero
        );
    }
}
