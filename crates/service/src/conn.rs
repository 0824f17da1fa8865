//! Per-connection state machine for the event-driven server: a buffered
//! [`FrameReader`] on the inbound side, an [`OutBuf`] write buffer with
//! partial-write handling on the outbound side, and the **per-pass frame
//! cap** between them.
//!
//! The reactor runs every request to completion on its own thread. One
//! readiness pass makes at most one `read`, which may land a whole
//! pipelined burst in the connection's read buffer, and then executes up
//! to [`ServerConfig::inflight_budget`] of the buffered whole frames as one
//! run. Frames decode as views into the buffer; none is copied. A pass
//! reads only while no whole frame is buffered, and never again after the
//! one read: connections are registered level-triggered, so bytes that
//! arrive later are reported again.
//!
//! Frames past the cap wait in the read buffer. Epoll reports only bytes
//! still in the kernel, so the pass reports them ([`Pass::buffered`]) and
//! the reactor keeps the connection on its ready list until they are
//! served, after every other ready connection had its turn. The buffer is
//! bounded (a few KiB, or one whole frame larger than that), so a client
//! that blasts requests backs up in its own socket buffer (and ultimately
//! pushes back through TCP flow control), not in server memory.
//!
//! Responses are correlated **by order**: frames execute strictly in the
//! order they arrived on the connection, so a pipelining client matches
//! the `n`th response to the `n`th request without any message ids on the
//! wire. Each run also gets its first request ordinal, which with the
//! connection's master keys its draws (see [`crate::server`]).
//!
//! Everything here is transport-generic (`S: Read + Write`), so the cap,
//! the syscall count and partial-write behaviour are unit-tested against
//! in-memory streams — no sockets required — and the same state machine
//! drives TCP and UDS connections identically.
//!
//! [`ServerConfig::inflight_budget`]: crate::server::ServerConfig

use std::io::{self, Read, Write};

use crate::protocol::{FrameReader, Frames};

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

/// What one readiness pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Pass {
    /// Frames the pass executed as one run.
    pub(crate) frames: usize,
    /// Whether the pass stopped at the cap with bytes still in the read
    /// buffer. Epoll will not report them, so the reactor lists the
    /// connection for another pass.
    pub(crate) buffered: bool,
}

/// One multiplexed connection owned by a reactor thread, which does all
/// of its socket I/O and executes all of its requests — every `read`/
/// `write` on a given fd stays on one thread, so teardown cannot race one.
#[derive(Debug)]
pub(crate) struct Connection<S> {
    /// The nonblocking socket (TCP or UDS).
    pub(crate) sock: S,
    /// Inbound bytes, decoded into frames in place.
    reader: FrameReader,
    /// Outbound responses, in request order.
    out: OutBuf,
    /// The connection's draw master: request `r`'s draws come from
    /// Philox substream `r` of it.
    master: u64,
    /// Ordinal of the next request frame (the first is 0).
    ordinal: u64,
    /// The epoll interest mask currently registered for this connection.
    pub(crate) interest: u32,
    /// Whether the connection is on its reactor's ready list.
    pub(crate) listed: bool,
}

impl<S: Read + Write> Connection<S> {
    /// A fresh connection over `sock`, drawing under `master`.
    pub(crate) fn new(sock: S, master: u64) -> Self {
        Self {
            sock,
            reader: FrameReader::new(),
            out: OutBuf::default(),
            master,
            ordinal: 0,
            interest: 0,
            listed: false,
        }
    }

    /// Whether unwritten response bytes are buffered (the reactor keeps
    /// `EPOLLOUT` armed while true).
    pub(crate) fn wants_write(&self) -> bool {
        !self.out.is_empty()
    }

    /// One readiness pass. Unless a whole frame is already buffered, one
    /// `read` fills the read buffer (`WouldBlock` reads nothing). Then up
    /// to `cap` buffered whole frames go to `exec` as one run, together
    /// with the connection's master, the run's first request ordinal and
    /// the outbound buffer their responses encode into, and are consumed.
    /// `Err` on EOF, framing violation or transport error (the caller
    /// closes the connection).
    pub(crate) fn pass(
        &mut self,
        cap: usize,
        exec: impl FnOnce(Frames<'_>, u64, u64, &mut Vec<u8>),
    ) -> io::Result<Pass> {
        if self.reader.run(1)?.len() == 0 {
            match self.reader.fill(&mut self.sock) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
        }
        let run = self.reader.run(cap)?;
        let frames = run.len();
        let bytes = run.wire_len();
        if frames > 0 {
            exec(run, self.master, self.ordinal, self.out.queue());
            self.ordinal += frames as u64;
        }
        self.reader.consume(bytes);
        Ok(Pass {
            frames,
            buffered: frames == cap && !self.reader.is_empty(),
        })
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
    /// idle nonblocking socket) and counts its `read` calls, and writes
    /// into `written` accepting at most `write_cap` bytes per call with a
    /// `WouldBlock` interleaved after every accepted chunk — the
    /// worst-case slow peer.
    struct FakeSock {
        input: Vec<u8>,
        at: usize,
        reads: usize,
        written: Vec<u8>,
        write_cap: usize,
        starve_write: bool,
    }

    impl FakeSock {
        fn with_input(input: Vec<u8>) -> Self {
            Self {
                input,
                at: 0,
                reads: 0,
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
            self.reads += 1;
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

    /// One pass at `cap` that records the bodies of the frames it ran.
    fn pass(conn: &mut Connection<FakeSock>, cap: usize) -> (Pass, Vec<Vec<u8>>) {
        let mut bodies = Vec::new();
        let pass = conn
            .pass(cap, |frames, _, _, _| {
                bodies.extend(frames.map(<[u8]>::to_vec));
            })
            .unwrap();
        assert_eq!(pass.frames, bodies.len());
        (pass, bodies)
    }

    #[test]
    fn a_pipelined_burst_in_one_segment_costs_one_read() {
        // 32 DRAWs in one segment: one read lands them all, and the pass
        // does not read again to find the socket drained.
        let mut conn = Connection::new(FakeSock::with_input(draw_frames(32)), 5);
        let (done, bodies) = pass(&mut conn, 64);
        assert_eq!(
            done,
            Pass {
                frames: 32,
                buffered: false
            }
        );
        assert!(bodies.iter().all(|body| body == &[OpCode::Draw as u8]));
        assert_eq!(conn.sock.reads, 1, "one read for the whole burst");
    }

    #[test]
    fn read_pass_stops_at_the_cap_and_the_next_pass_takes_the_rest() {
        // Six frames arrive in one segment; with a cap of 4 one pass must
        // run exactly 4 and report the other 2 still buffered, since epoll
        // never reports bytes that already left the kernel.
        let mut conn = Connection::new(FakeSock::with_input(draw_frames(6)), 7);
        let (first, _) = pass(&mut conn, 4);
        assert_eq!(
            first,
            Pass {
                frames: 4,
                buffered: true
            },
            "the pass must stop at the cap and report the buffered rest"
        );
        assert_eq!(conn.sock.unread(), 0);
        assert_eq!(conn.sock.reads, 1);

        // The next pass runs the buffered 5th and 6th frames without
        // touching the socket.
        let (second, _) = pass(&mut conn, 4);
        assert_eq!(
            second,
            Pass {
                frames: 2,
                buffered: false
            }
        );
        assert_eq!(conn.sock.reads, 1, "buffered frames need no read");
    }

    #[test]
    fn torn_frames_resume_across_reads() {
        // A frame split at every byte must decode once the bytes arrive.
        let wire = draw_frames(2);
        let mut conn = Connection::new(FakeSock::with_input(Vec::new()), 1);
        let mut decoded = 0;
        for &byte in &wire {
            conn.sock.input.push(byte);
            decoded += pass(&mut conn, 64).0.frames;
        }
        assert_eq!(decoded, 2);
        assert_eq!(conn.sock.reads, wire.len());
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
