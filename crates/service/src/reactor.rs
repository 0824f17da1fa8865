//! The event-driven service front: N reactor threads multiplex every
//! connection over raw `epoll` and run every request to completion on the
//! thread that read it — server threads are **O(reactors)**, never
//! O(connections).
//!
//! ## Shape
//!
//! ```text
//!  accept thread ──round-robin──▶ reactor 0..R   (epoll_wait loop)
//!                                   │
//!                  readable socket: decode ≤ budget frames,
//!                  execute_run ──▶ ServiceCore (connection's own RNG),
//!                  encode into the connection's OutBuf, flush
//! ```
//!
//! Each reactor thread owns an epoll instance and the [`Connection`] state
//! of every socket registered with it. The loop is purely event-driven
//! (`epoll_wait` with no timeout): a readable socket feeds the resumable
//! `FrameReader`, and the frames one readiness pass decoded execute right
//! there, in arrival order, as one **run**; their responses encode straight
//! into the connection's outbound buffer, which is flushed before the loop
//! moves on. Nothing crosses a thread between read and write, and fd
//! lifetime is single-threaded, so teardown cannot race a write. The flip
//! side: a slow request (a `PUBLISH`, a `METRICS` scrape) holds every other
//! connection on its reactor for its duration. The eventfd wakes the
//! reactor for new registrations, shutdown and drain. The per-pass frame
//! cap, ordering and partial-write handling live in [`crate::conn`]; this
//! module is the readiness loop.
//!
//! ## Safety
//!
//! `std` exposes no epoll API and crates.io is unreachable, so the five
//! syscalls this module needs (`epoll_create1`, `epoll_ctl`, `epoll_wait`,
//! `eventfd`, `close`) are declared directly against libc, which `std`
//! already links. This is the crate's single audited `#[allow(unsafe_code)]`
//! island, confined to the [`sys`] submodule:
//!
//! * every fd is owned by exactly one wrapper ([`sys::Epoll`] or the
//!   eventfd's `File`) and closed exactly once on drop;
//! * `epoll_wait` writes at most `events.len()` entries and only entries
//!   `..n` are read back;
//! * `epoll_event` is declared `#[repr(C, packed)]` on x86-64 (the one
//!   architecture where the kernel packs it) and plain `#[repr(C)]`
//!   elsewhere, and its fields are only ever copied out, never
//!   referenced.

pub(crate) use imp::{run_reactor, ReactorContext, ReactorShared, Registration, Socket};

mod imp {
    use std::collections::HashMap;
    use std::fs::File;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Instant;

    use crate::conn::Connection;
    use crate::protocol::Frame;
    use crate::server::execute_run;
    use crate::sharded::ServiceCore;

    use super::sys;

    /// Token reserved for the reactor's own eventfd.
    const WAKE_TOKEN: u64 = u64::MAX;

    /// `epoll_wait` batch size per loop iteration.
    const MAX_EVENTS: usize = 256;

    /// While draining, `epoll_wait` polls at this cadence so the loop can
    /// observe the drain deadline even with no socket activity.
    const DRAIN_POLL_MS: i32 = 10;

    /// A nonblocking accepted socket, TCP or UDS.
    #[derive(Debug)]
    pub(crate) enum Socket {
        /// A TCP connection.
        Tcp(TcpStream),
        /// A Unix-domain connection.
        Unix(UnixStream),
    }

    impl Socket {
        fn raw_fd(&self) -> i32 {
            match self {
                Socket::Tcp(s) => s.as_raw_fd(),
                Socket::Unix(s) => s.as_raw_fd(),
            }
        }
    }

    impl Read for Socket {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self {
                Socket::Tcp(s) => s.read(buf),
                Socket::Unix(s) => s.read(buf),
            }
        }
    }

    impl Write for Socket {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            match self {
                Socket::Tcp(s) => s.write(buf),
                Socket::Unix(s) => s.write(buf),
            }
        }
        fn flush(&mut self) -> std::io::Result<()> {
            match self {
                Socket::Tcp(s) => s.flush(),
                Socket::Unix(s) => s.flush(),
            }
        }
    }

    /// A new connection handed from the accept thread to a reactor.
    pub(crate) struct Registration {
        /// The accepted socket, already nonblocking.
        pub(crate) socket: Socket,
        /// The connection's epoll token (process-unique, never reused).
        pub(crate) token: u64,
        /// Seed for the connection's server-side RNG stream.
        pub(crate) rng_seed: u64,
    }

    /// The shared face of one reactor thread: its epoll instance, its
    /// eventfd, and the registration queue the accept thread feeds it
    /// through.
    pub(crate) struct ReactorShared {
        epoll: sys::Epoll,
        /// Nonblocking eventfd; any writer rings it to wake `epoll_wait`.
        wake: File,
        registrations: Mutex<Vec<Registration>>,
        shutdown: AtomicBool,
        /// Graceful-drain mode: stop reading new requests, let buffered
        /// responses flush, then exit.
        draining: AtomicBool,
        /// Wall-clock bound on the drain; connections still busy past it
        /// are abandoned.
        drain_deadline: Mutex<Option<Instant>>,
    }

    impl ReactorShared {
        pub(crate) fn new() -> std::io::Result<Self> {
            Ok(Self {
                epoll: sys::Epoll::new()?,
                wake: sys::new_eventfd()?,
                registrations: Mutex::new(Vec::new()),
                shutdown: AtomicBool::new(false),
                draining: AtomicBool::new(false),
                drain_deadline: Mutex::new(None),
            })
        }

        /// Ring the reactor's eventfd (never blocks: the counter saturates).
        pub(crate) fn wake(&self) {
            let _ = (&self.wake).write(&1u64.to_ne_bytes());
        }

        /// Hand the reactor a new connection.
        pub(crate) fn register(&self, registration: Registration) {
            self.registrations
                .lock()
                .expect("registration queue poisoned")
                .push(registration);
            self.wake();
        }

        /// Ask the reactor thread to exit (it closes every connection).
        pub(crate) fn request_shutdown(&self) {
            self.shutdown.store(true, Ordering::Release);
            self.wake();
        }

        /// Ask the reactor to drain gracefully: stop reading requests,
        /// flush buffered responses, then exit — or abandon whatever is
        /// still unflushed at `deadline`.
        pub(crate) fn request_drain(&self, deadline: Instant) {
            *self.drain_deadline.lock().expect("drain deadline poisoned") = Some(deadline);
            self.draining.store(true, Ordering::Release);
            self.wake();
        }

        fn is_draining(&self) -> bool {
            self.draining.load(Ordering::Acquire)
        }

        fn deadline(&self) -> Option<Instant> {
            *self.drain_deadline.lock().expect("drain deadline poisoned")
        }
    }

    /// Everything one reactor thread needs.
    pub(crate) struct ReactorContext {
        /// This reactor's shared face.
        pub(crate) shared: Arc<ReactorShared>,
        /// The service core every request executes against.
        pub(crate) core: Arc<ServiceCore>,
        /// Frames decoded per connection per readiness pass.
        pub(crate) budget: usize,
        /// Slow-consumer cap on buffered outbound bytes per connection.
        pub(crate) max_outbound: usize,
    }

    /// What an I/O step decided about a connection's fate.
    enum Fate {
        Keep,
        Close,
    }

    /// Reactor thread body: the epoll readiness loop.
    pub(crate) fn run_reactor(ctx: ReactorContext) {
        let mut conns: HashMap<u64, Connection<Socket>> = HashMap::new();
        if ctx
            .shared
            .epoll
            .add(ctx.shared.wake.as_raw_fd(), sys::EPOLLIN, WAKE_TOKEN)
            .is_err()
        {
            return; // nothing can wake us; the server start aborts
        }
        let mut events = vec![sys::EpollEvent::zeroed(); MAX_EVENTS];
        // Scratch for the frames one readiness pass decodes, reused across
        // passes and connections.
        let mut frames = Vec::new();
        // Whether the one-shot entry into drain mode has run (read
        // interest dropped on every connection).
        let mut drain_started = false;
        loop {
            // Draining polls so the deadline is observed even when every
            // socket is quiet; normal operation blocks indefinitely.
            let timeout = if drain_started { DRAIN_POLL_MS } else { -1 };
            let Ok(n) = ctx.shared.epoll.wait_timeout(&mut events, timeout) else {
                break;
            };
            for event in &events[..n] {
                let (bits, token) = event.parts();
                if token == WAKE_TOKEN {
                    // Drain the eventfd counter; the queue is drained below.
                    let mut scratch = [0u8; 8];
                    let _ = (&ctx.shared.wake).read(&mut scratch);
                    continue;
                }
                let fate = handle_io(&ctx, &mut conns, token, bits, &mut frames);
                if matches!(fate, Fate::Close) {
                    close_conn(&ctx, &mut conns, token);
                }
            }
            if ctx.shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            // New connections arrive through the queue; drain it every
            // iteration (it is usually empty, and the eventfd guarantees a
            // wakeup whenever it is not).
            let registrations: Vec<Registration> = std::mem::take(
                &mut ctx
                    .shared
                    .registrations
                    .lock()
                    .expect("registration queue poisoned"),
            );
            for registration in registrations {
                install(&ctx, &mut conns, registration);
            }
            if ctx.shared.is_draining() {
                if !drain_started {
                    drain_started = true;
                    // Stop reading everywhere: update_interest excludes
                    // EPOLLIN while draining, so one reconcile pass drops
                    // read interest from every connection.
                    for (&token, conn) in conns.iter_mut() {
                        update_interest(&ctx, conn, token);
                    }
                }
                let busy = conns.values().filter(|conn| conn.wants_write()).count();
                let expired = ctx
                    .shared
                    .deadline()
                    .is_some_and(|deadline| Instant::now() >= deadline);
                if busy == 0 || expired {
                    ctx.core
                        .telemetry()
                        .record_drained(conns.len() as u64, busy as u64);
                    break;
                }
            }
        }
        // Teardown: every connection's socket closes when the map drops;
        // peers observe EOF.
        let telemetry = ctx.core.telemetry();
        for _ in conns.drain() {
            telemetry.record_disconnect();
        }
    }

    /// Register a freshly accepted connection with epoll.
    fn install(
        ctx: &ReactorContext,
        conns: &mut HashMap<u64, Connection<Socket>>,
        registration: Registration,
    ) {
        let mut conn = Connection::new(registration.socket, registration.rng_seed);
        let interest = sys::EPOLLIN | sys::EPOLLRDHUP;
        if ctx
            .shared
            .epoll
            .add(conn.sock.raw_fd(), interest, registration.token)
            .is_err()
        {
            return; // fd exhausted or dead socket; drop it
        }
        conn.interest = interest;
        ctx.core.telemetry().record_connect();
        conns.insert(registration.token, conn);
    }

    /// React to readiness bits on a connection: flush on writability;
    /// on readability run one pass — decode up to the budget, execute the
    /// run, queue and flush its responses, then apply the slow-consumer
    /// cap.
    fn handle_io(
        ctx: &ReactorContext,
        conns: &mut HashMap<u64, Connection<Socket>>,
        token: u64,
        bits: u32,
        frames: &mut Vec<Frame>,
    ) -> Fate {
        let Some(conn) = conns.get_mut(&token) else {
            return Fate::Keep; // closed earlier this iteration
        };
        if bits & (sys::EPOLLHUP | sys::EPOLLERR) != 0 {
            return Fate::Close;
        }
        if bits & sys::EPOLLOUT != 0 && conn.flush().is_err() {
            return Fate::Close;
        }
        // While draining, requests still sitting in the kernel buffer are
        // not accepted — the drain flushes what was answered, nothing
        // more. (A peer hangup still closes via EPOLLHUP/EPOLLERR above.)
        if bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0 && !ctx.shared.is_draining() {
            let telemetry = ctx.core.telemetry();
            match conn.read_frames(ctx.budget, frames) {
                Ok(capped) => {
                    if capped {
                        telemetry.record_read_deferral();
                    }
                }
                // EOF, framing violation or transport error: the protocol
                // has no half-close, so the pass's frames die with the
                // connection.
                Err(_) => return Fate::Close,
            }
            if !frames.is_empty() {
                telemetry.record_submit_depth(frames.len() as u64);
                execute_run(frames, &ctx.core, &mut conn.rng, conn.out.queue());
                if conn.flush().is_err() {
                    return Fate::Close;
                }
                // The slow-consumer cap judges the backlog the socket
                // refused to take, so a fast consumer may receive
                // responses of any size while a stalled one cannot pin
                // unbounded memory.
                if conn.outbound_len() > ctx.max_outbound {
                    telemetry.record_slow_consumer(token, conn.outbound_len() as u64);
                    return Fate::Close;
                }
            }
        }
        update_interest(ctx, conn, token);
        Fate::Keep
    }

    /// Reconcile the connection's epoll interest mask with its state:
    /// read interest unless a drain closed the read side for good, write
    /// interest while responses are buffered.
    fn update_interest(ctx: &ReactorContext, conn: &mut Connection<Socket>, token: u64) {
        let mut desired = sys::EPOLLRDHUP;
        if !ctx.shared.is_draining() {
            desired |= sys::EPOLLIN;
        }
        if conn.wants_write() {
            desired |= sys::EPOLLOUT;
        }
        if desired != conn.interest
            && ctx
                .shared
                .epoll
                .modify(conn.sock.raw_fd(), desired, token)
                .is_ok()
        {
            conn.interest = desired;
        }
    }

    /// Drop a connection: deregister, close the socket, count it.
    fn close_conn(ctx: &ReactorContext, conns: &mut HashMap<u64, Connection<Socket>>, token: u64) {
        if let Some(conn) = conns.remove(&token) {
            let _ = ctx.shared.epoll.delete(conn.sock.raw_fd());
            ctx.core.telemetry().record_disconnect();
        }
    }
}

/// Raw epoll/eventfd syscall surface — the audited unsafe island (see the
/// module docs for the safety argument).
#[allow(unsafe_code)]
pub(crate) mod sys {
    use std::fs::File;
    use std::io;
    use std::os::raw::{c_int, c_uint};
    use std::os::unix::io::{FromRawFd, RawFd};

    /// Readable (or a peer hangup with level-triggered reporting).
    pub(crate) const EPOLLIN: u32 = 0x001;
    /// Writable.
    pub(crate) const EPOLLOUT: u32 = 0x004;
    /// Error condition (always reported, never requested).
    pub(crate) const EPOLLERR: u32 = 0x008;
    /// Hangup (always reported, never requested).
    pub(crate) const EPOLLHUP: u32 = 0x010;
    /// Peer closed its write side.
    pub(crate) const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EFD_CLOEXEC: c_int = 0o2000000;
    const EFD_NONBLOCK: c_int = 0o4000;

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    /// `struct epoll_event`, matching the kernel ABI for the target
    /// architecture: the kernel packs it (12 bytes) only on x86-64;
    /// everywhere else `data` keeps natural 8-byte alignment (16 bytes).
    /// Fields are only ever copied out ([`parts`](Self::parts)) — a
    /// reference to a packed field would be UB, so none are taken.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub(crate) struct EpollEvent {
        events: u32,
        data: u64,
    }

    impl EpollEvent {
        /// An empty event slot for the `epoll_wait` output buffer.
        pub(crate) fn zeroed() -> Self {
            Self { events: 0, data: 0 }
        }

        /// Copy out `(events, token)`.
        pub(crate) fn parts(&self) -> (u32, u64) {
            let events = self.events;
            let data = self.data;
            (events, data)
        }
    }

    /// An owned epoll instance; the fd closes exactly once on drop.
    #[derive(Debug)]
    pub(crate) struct Epoll {
        fd: RawFd,
    }

    impl Epoll {
        /// `epoll_create1(EPOLL_CLOEXEC)`.
        pub(crate) fn new() -> io::Result<Self> {
            // SAFETY: no pointers; a failed call returns -1 with errno set.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Self { fd })
        }

        fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut event = EpollEvent {
                events,
                data: token,
            };
            // SAFETY: `event` outlives the call (the kernel copies it) and
            // DEL ignores the pointer on modern kernels but a valid one is
            // passed anyway.
            let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut event) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Register `fd` with interest `events` under `token`.
        pub(crate) fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, events, token)
        }

        /// Change `fd`'s interest mask.
        pub(crate) fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, events, token)
        }

        /// Deregister `fd`.
        pub(crate) fn delete(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Block until readiness, or for `timeout_ms` milliseconds
        /// (`-1` blocks forever, `0` polls); fills `events` and returns
        /// how many entries are valid. Returns `Ok(0)` on timeout. An
        /// `EINTR` retries with the full timeout — acceptable for the
        /// drain polling the timeout exists for.
        pub(crate) fn wait_timeout(
            &self,
            events: &mut [EpollEvent],
            timeout_ms: c_int,
        ) -> io::Result<usize> {
            loop {
                // SAFETY: the kernel writes at most `events.len()` entries
                // into the buffer, which is valid for that length; the
                // return value bounds how many the caller may read.
                let n = unsafe {
                    epoll_wait(
                        self.fd,
                        events.as_mut_ptr(),
                        events.len() as c_int,
                        timeout_ms,
                    )
                };
                if n >= 0 {
                    return Ok(n as usize);
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            }
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: `self.fd` is owned by this wrapper and closed once.
            unsafe {
                close(self.fd);
            }
        }
    }

    /// A nonblocking `eventfd` wrapped in a `File` (which owns and closes
    /// the fd); writes of `1u64` ring it, an 8-byte read drains it.
    pub(crate) fn new_eventfd() -> io::Result<File> {
        // SAFETY: no pointers; on success the fd is immediately and
        // uniquely owned by the returned `File`.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(unsafe { File::from_raw_fd(fd) })
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::io::{Read, Write};
        use std::os::unix::io::AsRawFd;
        use std::os::unix::net::UnixStream;

        #[test]
        fn epoll_reports_readability_and_eventfd_wakes() {
            let epoll = Epoll::new().unwrap();
            let (mut a, b) = UnixStream::pair().unwrap();
            b.set_nonblocking(true).unwrap();
            epoll.add(b.as_raw_fd(), EPOLLIN, 42).unwrap();
            let wake = new_eventfd().unwrap();
            epoll.add(wake.as_raw_fd(), EPOLLIN, 7).unwrap();

            a.write_all(b"ping").unwrap();
            (&wake).write_all(&1u64.to_ne_bytes()).unwrap();

            let mut events = vec![EpollEvent::zeroed(); 8];
            let mut seen = Vec::new();
            // Two waits at most: both may arrive in one batch.
            for _ in 0..2 {
                let n = epoll.wait_timeout(&mut events, -1).unwrap();
                for event in &events[..n] {
                    let (bits, token) = event.parts();
                    assert!(bits & EPOLLIN != 0);
                    seen.push(token);
                    if token == 7 {
                        let mut scratch = [0u8; 8];
                        (&wake).read_exact(&mut scratch).unwrap();
                        assert_eq!(u64::from_ne_bytes(scratch), 1);
                    }
                }
                if seen.len() == 2 {
                    break;
                }
            }
            seen.sort_unstable();
            assert_eq!(seen, vec![7, 42]);

            // Interest changes and deregistration round-trip.
            epoll.modify(b.as_raw_fd(), EPOLLIN | EPOLLOUT, 42).unwrap();
            epoll.delete(b.as_raw_fd()).unwrap();
        }
    }
}
