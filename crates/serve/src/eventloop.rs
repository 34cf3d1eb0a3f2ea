//! The nonblocking front end: sharded reactor threads over raw
//! `epoll(7)`, feeding complete requests to the worker pool.
//!
//! # Architecture
//!
//! * **Reactors own sockets.** Each reactor thread runs one [`Poller`]
//!   and a private connection table; all socket reads and writes happen
//!   on the reactor, so partial reads and partial writes are first-class
//!   states, not error paths. Reactor 0 additionally owns the (nonblocking)
//!   listener and round-robins accepted connections across all reactors.
//! * **Workers own request handling.** A connection's first complete
//!   request schedules a *session* job on the shared
//!   [`WorkerPool`](dse_util::WorkerPool): a loop over an `mpsc` channel
//!   that routes each request and mails the serialised response bytes
//!   back to the owning reactor. The session occupies its worker for the
//!   connection's whole keep-alive lifetime — exactly the concurrency
//!   contract of the old thread-per-connection design, so `workers` still
//!   bounds concurrently served connections and a full pool still sheds
//!   with `503`.
//! * **Parsing is incremental.** Reactors feed each connection's byte buffer
//!   through [`crate::http::try_parse`] as bytes arrive, so a slow-loris
//!   client costs a reactor a buffer, not a worker thread.
//!
//! Cross-thread signalling uses the classic self-pipe trick
//! ([`ReactorShared::wake`]): worker threads and `Server::shutdown` push
//! a message into the reactor's inbox and write one byte into its wake
//! pipe; the poller reports the pipe readable and the reactor drains the
//! inbox on its own thread. No file descriptor is ever touched from two
//! threads.
//!
//! Everything here is `std`-only: the epoll bindings are hand-rolled
//! `extern "C"` declarations against the libc that `std` already links.
//! The crate is Linux-only (the constants below are Linux's), so epoll is
//! always there; a failure to create or update an epoll set is an error,
//! never a silent fallback.

use crate::http::{head_complete, try_parse, write_response, Parsed, ReadError, Request, Response};
use crate::server::{route, State};
use dse_obs::flight;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Raw bindings for the handful of syscalls `std` does not expose.
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLOUT: u32 = 0x4;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;

    pub const F_GETFL: c_int = 3;
    pub const F_SETFL: c_int = 4;
    pub const O_NONBLOCK: c_int = 0o4000;

    /// `SIGUSR1` on Linux (every arch this workspace targets).
    pub const SIGUSR1: c_int = 10;

    /// `struct epoll_event`; packed on x86-64 only, matching the kernel ABI.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout_ms: c_int,
        ) -> c_int;
        pub fn pipe(fds: *mut c_int) -> c_int;
        pub fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
        pub fn signal(signum: c_int, handler: usize) -> usize;
    }
}

/// `SIGUSR1` handler: flips the flight recorder's dump flag (one atomic
/// store — async-signal-safe) and lets the reactor loops do the actual
/// dumping from safe code.
extern "C" fn sigusr1_flight_dump(_signum: std::os::raw::c_int) {
    dse_obs::flight::request_dump();
}

/// Installs the `SIGUSR1` → flight-dump handler (idempotent; called at
/// server startup). `kill -USR1 <pid>` then makes the next reactor wake
/// write the full flight-recorder contents to stderr.
pub(crate) fn install_flight_dump_signal() {
    unsafe {
        let handler: extern "C" fn(std::os::raw::c_int) = sigusr1_flight_dump;
        sys::signal(sys::SIGUSR1, handler as *const () as usize);
    }
}

/// Process-wide request-id source; ids start at 1 so 0 can mean "no
/// request" everywhere (flight events, the response header).
static NEXT_REQUEST_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// Readiness reported for one registered file descriptor.
#[derive(Debug, Clone, Copy)]
struct Event {
    token: u64,
    readable: bool,
    writable: bool,
    hup: bool,
}

/// Level-triggered readiness over one epoll set.
struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Creates the epoll set.
    ///
    /// # Errors
    ///
    /// `epoll_create1` failed (e.g. the fd limit was reached); the error
    /// names the call.
    fn new() -> io::Result<Self> {
        // SAFETY: takes no pointers; the returned fd is owned by `Self`.
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(os_error("epoll_create1"));
        }
        Ok(Self { epfd })
    }

    /// One `epoll_ctl` call; HUP and ERR are always reported by the
    /// kernel, so only read/write interest is asked for.
    fn ctl(
        &self,
        op: i32,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events: (if readable { sys::EPOLLIN } else { 0 })
                | (if writable { sys::EPOLLOUT } else { 0 }),
            data: token,
        };
        // SAFETY: `ev` is a live, correctly laid out `epoll_event` for the
        // call's duration; a bad `fd` is reported as an error, not UB.
        if unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) } != 0 {
            let name = match op {
                sys::EPOLL_CTL_ADD => "epoll_ctl(ADD)",
                sys::EPOLL_CTL_MOD => "epoll_ctl(MOD)",
                _ => "epoll_ctl(DEL)",
            };
            return Err(os_error(name));
        }
        Ok(())
    }

    fn add(&self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, readable, writable)
    }

    fn modify(&self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, readable, writable)
    }

    fn remove(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, false, false)
    }

    fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) {
        const CAP: usize = 64;
        out.clear();
        let mut evs = [sys::EpollEvent { events: 0, data: 0 }; CAP];
        // SAFETY: `evs` holds `CAP` writable events and the kernel writes
        // at most `maxevents = CAP`. A -1 return is EINTR (a signal such
        // as SIGUSR1 arrived) and makes an empty round: the other errors
        // need a bad `epfd` or buffer, which this type rules out.
        let n = unsafe { sys::epoll_wait(self.epfd, evs.as_mut_ptr(), CAP as i32, timeout_ms) };
        for ev in evs.iter().take(n.max(0) as usize) {
            let bits = ev.events;
            out.push(Event {
                token: ev.data,
                readable: bits & sys::EPOLLIN != 0,
                writable: bits & sys::EPOLLOUT != 0,
                hup: bits & (sys::EPOLLHUP | sys::EPOLLERR) != 0,
            });
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: `epfd` is owned by this poller and closed only here.
        unsafe { sys::close(self.epfd) };
    }
}

/// The last OS error, prefixed with the call that produced it.
fn os_error(call: &str) -> io::Error {
    let e = io::Error::last_os_error();
    io::Error::new(e.kind(), format!("{call}: {e}"))
}

/// Mail addressed to a reactor thread.
pub(crate) enum ReactorMsg {
    /// A freshly accepted connection to adopt (round-robin hand-off).
    Conn(TcpStream),
    /// Serialised response bytes for one connection, produced by a
    /// session worker. `close` tears the connection down after the flush.
    Respond {
        token: u64,
        bytes: Vec<u8>,
        close: bool,
    },
}

/// The thread-safe half of a reactor: an inbox plus a self-pipe.
///
/// Owns both pipe ends and closes them on drop; workers hold `Arc`
/// clones, so the fds outlive every possible writer.
pub(crate) struct ReactorShared {
    inbox: Mutex<Vec<ReactorMsg>>,
    wake_read: RawFd,
    wake_write: RawFd,
}

impl ReactorShared {
    pub(crate) fn new() -> io::Result<Arc<Self>> {
        let mut fds = [0 as std::os::raw::c_int; 2];
        if unsafe { sys::pipe(fds.as_mut_ptr()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        for fd in fds {
            unsafe {
                let fl = sys::fcntl(fd, sys::F_GETFL);
                sys::fcntl(fd, sys::F_SETFL, fl | sys::O_NONBLOCK);
            }
        }
        Ok(Arc::new(Self {
            inbox: Mutex::new(Vec::new()),
            wake_read: fds[0],
            wake_write: fds[1],
        }))
    }

    pub(crate) fn send(&self, msg: ReactorMsg) {
        self.inbox.lock().unwrap().push(msg);
        self.wake();
    }

    /// Writes one byte into the self-pipe. A full pipe (EAGAIN) already
    /// guarantees a pending wake, so the result is ignored.
    pub(crate) fn wake(&self) {
        let byte = 1u8;
        unsafe { sys::write(self.wake_write, (&byte as *const u8).cast(), 1) };
    }
}

impl Drop for ReactorShared {
    fn drop(&mut self) {
        unsafe {
            sys::close(self.wake_read);
            sys::close(self.wake_write);
        }
    }
}

const TOKEN_WAKE: u64 = u64::MAX;
const TOKEN_LISTENER: u64 = u64::MAX - 1;

#[derive(Debug, Clone, Copy, PartialEq)]
enum ConnState {
    /// Waiting for (more of) a request; poller interest: readable.
    Reading,
    /// A request is with a session worker; poller interest: none (HUP
    /// and ERR still arrive). Unread pipelined bytes stay in the kernel
    /// buffer — natural backpressure.
    Busy,
    /// A response did not fit in the socket buffer; poller interest:
    /// writable.
    Flushing,
}

struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    outpos: usize,
    state: ConnState,
    /// Request channel into this connection's session worker, created
    /// lazily on the first complete request. Dropping it (teardown) makes
    /// the session's `recv` fail and the worker move on. Each request
    /// travels with the id the reactor assigned it at dispatch.
    session: Option<mpsc::Sender<(u64, Request)>>,
    close_after_flush: bool,
    last_activity: Instant,
    peer_eof: bool,
}

/// One reactor thread: poller, connection table, and (for reactor 0) the
/// listener.
pub(crate) struct Reactor {
    idx: usize,
    state: Arc<State>,
    shared: Arc<ReactorShared>,
    peers: Vec<Arc<ReactorShared>>,
    next_rr: Arc<AtomicUsize>,
    listener: Option<TcpListener>,
    poller: Poller,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    read_timeout: Duration,
    write_timeout: Duration,
    draining: bool,
    drain_deadline: Option<Instant>,
}

impl Reactor {
    /// Creates the reactor's epoll set and registers its wake pipe (and,
    /// for reactor 0, the listener).
    ///
    /// # Errors
    ///
    /// An `epoll_create1` or `epoll_ctl` failure, naming the call.
    pub(crate) fn new(
        idx: usize,
        state: Arc<State>,
        shared: Arc<ReactorShared>,
        peers: Vec<Arc<ReactorShared>>,
        next_rr: Arc<AtomicUsize>,
        listener: Option<TcpListener>,
        read_timeout: Duration,
        write_timeout: Duration,
    ) -> io::Result<Self> {
        let poller = Poller::new()?;
        poller.add(shared.wake_read, TOKEN_WAKE, true, false)?;
        if let Some(l) = &listener {
            l.set_nonblocking(true)?;
            poller.add(l.as_raw_fd(), TOKEN_LISTENER, true, false)?;
        }
        Ok(Self {
            idx,
            state,
            shared,
            peers,
            next_rr,
            listener,
            poller,
            conns: HashMap::new(),
            next_token: 0,
            read_timeout,
            write_timeout,
            draining: false,
            drain_deadline: None,
        })
    }

    pub(crate) fn run(mut self) {
        let mut events = Vec::new();
        loop {
            if self.state.shutdown.load(Ordering::SeqCst) {
                self.begin_drain();
            }
            if self.draining {
                if self.conns.is_empty() {
                    return;
                }
                if self.drain_deadline.is_some_and(|dl| Instant::now() >= dl) {
                    let all: Vec<u64> = self.conns.keys().copied().collect();
                    for t in all {
                        self.teardown(t);
                    }
                    return;
                }
            }
            let timeout_ms = self.next_timeout_ms();
            self.poller.wait(&mut events, timeout_ms);
            // A pending SIGUSR1 dump request (the handler only flips an
            // atomic): whichever reactor wakes first writes the dump.
            if flight::take_dump_request() {
                eprintln!("--- flight recorder dump (SIGUSR1) ---");
                eprint!("{}", flight::to_jsonl(&flight::dump()));
                eprintln!("--- end flight recorder dump ---");
            }
            let round: Vec<Event> = events.drain(..).collect();
            self.drain_inbox();
            for ev in round {
                match ev.token {
                    TOKEN_WAKE => self.drain_wake_pipe(),
                    TOKEN_LISTENER => self.accept_ready(),
                    token => {
                        if ev.readable {
                            self.conn_readable(token);
                        }
                        if ev.writable {
                            self.flush(token);
                        }
                        if ev.hup && !ev.readable && !ev.writable {
                            match self.conns.get(&token).map(|c| c.state) {
                                Some(ConnState::Reading) => self.conn_readable(token),
                                Some(ConnState::Flushing) => self.flush(token),
                                Some(ConnState::Busy) => self.teardown(token),
                                None => {}
                            }
                        }
                    }
                }
            }
            self.check_timeouts();
        }
    }

    /// Poll timeout: the nearest read/write/drain deadline, capped at one
    /// second so a missed wake can never wedge the loop.
    fn next_timeout_ms(&self) -> i32 {
        let now = Instant::now();
        let mut timeout = Duration::from_millis(1000);
        for c in self.conns.values() {
            let deadline = match c.state {
                ConnState::Reading => Some(c.last_activity + self.read_timeout),
                ConnState::Flushing => Some(c.last_activity + self.write_timeout),
                ConnState::Busy => None,
            };
            if let Some(dl) = deadline {
                timeout = timeout.min(dl.saturating_duration_since(now));
            }
        }
        if let Some(dl) = self.drain_deadline {
            timeout = timeout.min(dl.saturating_duration_since(now));
        }
        timeout.as_millis() as i32
    }

    fn drain_wake_pipe(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            let n = unsafe { sys::read(self.shared.wake_read, buf.as_mut_ptr().cast(), buf.len()) };
            if n < buf.len() as isize {
                return;
            }
        }
    }

    fn drain_inbox(&mut self) {
        let msgs: Vec<ReactorMsg> = std::mem::take(&mut *self.shared.inbox.lock().unwrap());
        for msg in msgs {
            match msg {
                ReactorMsg::Conn(stream) => self.adopt(stream),
                ReactorMsg::Respond {
                    token,
                    bytes,
                    close,
                } => self.respond(token, bytes, close),
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.state.shutdown.load(Ordering::SeqCst) {
                        continue;
                    }
                    // Responses must not sit in the kernel waiting for a
                    // Nagle ACK.
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_nonblocking(true);
                    let target = self.next_rr.fetch_add(1, Ordering::Relaxed) % self.peers.len();
                    if target == self.idx {
                        self.adopt(stream);
                    } else {
                        self.peers[target].send(ReactorMsg::Conn(stream));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn adopt(&mut self, stream: TcpStream) {
        if self.draining {
            return;
        }
        let _ = stream.set_nonblocking(true);
        let token = ((self.idx as u64) << 48) | self.next_token;
        self.next_token += 1;
        if let Err(e) = self.poller.add(stream.as_raw_fd(), token, true, false) {
            // Never table a socket nobody watches: dropping `stream`
            // closes it now instead of at its read timeout.
            flight::event("reactor.watch_failed", format!("reactor={} {e}", self.idx));
            return;
        }
        self.conns.insert(
            token,
            Conn {
                stream,
                inbuf: Vec::new(),
                outbuf: Vec::new(),
                outpos: 0,
                state: ConnState::Reading,
                session: None,
                close_after_flush: false,
                last_activity: Instant::now(),
                peer_eof: false,
            },
        );
        // Bytes may already be waiting; level-triggered polling would
        // catch them next round, but reading now saves a syscall loop.
        self.conn_readable(token);
    }

    fn conn_readable(&mut self, token: u64) {
        let mut failed = false;
        {
            let Some(c) = self.conns.get_mut(&token) else {
                return;
            };
            if c.state != ConnState::Reading {
                return;
            }
            let mut chunk = [0u8; 16 * 1024];
            loop {
                match c.stream.read(&mut chunk) {
                    Ok(0) => {
                        c.peer_eof = true;
                        break;
                    }
                    Ok(n) => {
                        c.inbuf.extend_from_slice(&chunk[..n]);
                        c.last_activity = Instant::now();
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
        }
        if failed {
            self.teardown(token);
            return;
        }
        self.advance(token);
    }

    /// Tries to cut one complete request out of the connection's buffer
    /// and hand it to its session; maps parse errors to the same status
    /// codes the blocking front end produced.
    fn advance(&mut self, token: u64) {
        enum Act {
            None,
            Dispatch(Request),
            Reject(Response),
            Teardown,
        }
        let act = {
            let Some(c) = self.conns.get_mut(&token) else {
                return;
            };
            if c.state != ConnState::Reading {
                Act::None
            } else {
                match try_parse(&c.inbuf, self.state.max_body) {
                    Ok(Parsed::Complete { req, consumed }) => {
                        c.inbuf.drain(..consumed);
                        Act::Dispatch(req)
                    }
                    Ok(Parsed::Partial) => {
                        if !c.peer_eof {
                            Act::None
                        } else if c.inbuf.is_empty() {
                            Act::Teardown
                        } else {
                            let what = if head_complete(&c.inbuf) {
                                "body"
                            } else {
                                "head"
                            };
                            Act::Reject(Response::error(400, &format!("truncated request {what}")))
                        }
                    }
                    Err(ReadError::BadRequest(m)) => Act::Reject(Response::error(400, &m)),
                    Err(ReadError::BodyTooLarge(n)) => Act::Reject(Response::error(
                        413,
                        &format!("body of {n} bytes exceeds the cap"),
                    )),
                    Err(ReadError::HeadTooLarge) => {
                        Act::Reject(Response::error(431, "request head too large"))
                    }
                }
            }
        };
        match act {
            Act::None => {}
            Act::Dispatch(req) => self.dispatch(token, req),
            Act::Reject(mut resp) => {
                resp.close = true;
                self.state.telemetry.record("malformed", resp.status, 0);
                flight::event("reactor.malformed", format!("status={}", resp.status));
                self.queue_response(token, resp);
            }
            Act::Teardown => self.teardown(token),
        }
    }

    /// Routes one complete request to the connection's session worker,
    /// creating the session on first use. A full pool sheds with `503` —
    /// the same contract the old acceptor enforced.
    ///
    /// Every request gets a process-unique id here — the root of its
    /// trace. The id rides the session channel to the worker, comes back
    /// in the `x-archdse-request-id` header, and tags every flight event
    /// the request's handling records along the way.
    fn dispatch(&mut self, token: u64, req: Request) {
        let Some(needs_session) = self.conns.get(&token).map(|c| c.session.is_none()) else {
            return;
        };
        let req_id = NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed);
        flight::event_for(
            req_id,
            "reactor.dispatch",
            format!("reactor={} {} {}", self.idx, req.method, req.path),
        );
        if needs_session {
            let (tx, rx) = mpsc::channel::<(u64, Request)>();
            let state = self.state.clone();
            let shared = self.shared.clone();
            let job: dse_util::pool::Job = Box::new(move || session_loop(state, rx, shared, token));
            if self.state.pool.try_execute(job).is_err() {
                self.state.telemetry.record("shed", 503, 0);
                flight::event_for(
                    req_id,
                    "reactor.shed",
                    format!("{} {}", req.method, req.path),
                );
                self.queue_response(
                    token,
                    Response {
                        close: true,
                        request_id: req_id,
                        ..Response::error(503, "server overloaded, retry later")
                    },
                );
                return;
            }
            if let Some(c) = self.conns.get_mut(&token) {
                c.session = Some(tx);
            }
        }
        let fd = {
            let Some(c) = self.conns.get_mut(&token) else {
                return;
            };
            if let Some(tx) = &c.session {
                let _ = tx.send((req_id, req));
            }
            c.state = ConnState::Busy;
            c.stream.as_raw_fd()
        };
        self.watch(token, fd, false, false);
    }

    fn respond(&mut self, token: u64, bytes: Vec<u8>, close: bool) {
        {
            let Some(c) = self.conns.get_mut(&token) else {
                return;
            };
            c.outbuf.extend_from_slice(&bytes);
            // A drain that began after the session serialised its
            // response still forces the connection closed.
            if close || self.draining {
                c.close_after_flush = true;
            }
            c.last_activity = Instant::now();
        }
        self.flush(token);
    }

    fn queue_response(&mut self, token: u64, resp: Response) {
        let mut bytes = Vec::new();
        let _ = write_response(&mut bytes, &resp);
        self.respond(token, bytes, resp.close);
    }

    /// Writes as much buffered output as the socket accepts; transitions
    /// to `Flushing` on a partial write, back to `Reading` (and straight
    /// into the pipelining carry) once drained.
    fn flush(&mut self, token: u64) {
        enum Out {
            Teardown,
            Pending,
            Done { close: bool },
        }
        let out = {
            let Some(c) = self.conns.get_mut(&token) else {
                return;
            };
            loop {
                if c.outpos >= c.outbuf.len() {
                    break Out::Done {
                        close: c.close_after_flush,
                    };
                }
                match c.stream.write(&c.outbuf[c.outpos..]) {
                    Ok(0) => break Out::Teardown,
                    Ok(n) => {
                        c.outpos += n;
                        c.last_activity = Instant::now();
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break Out::Pending,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break Out::Teardown,
                }
            }
        };
        match out {
            Out::Teardown => self.teardown(token),
            Out::Pending => {
                let Some(c) = self.conns.get_mut(&token) else {
                    return;
                };
                c.state = ConnState::Flushing;
                let fd = c.stream.as_raw_fd();
                self.watch(token, fd, false, true);
            }
            Out::Done { close: true } => self.teardown(token),
            Out::Done { close: false } => {
                let fd = {
                    let Some(c) = self.conns.get_mut(&token) else {
                        return;
                    };
                    if c.outbuf.is_empty() {
                        // Nothing was queued (spurious writable); leave
                        // the state machine alone.
                        if c.state != ConnState::Flushing {
                            return;
                        }
                    }
                    c.outbuf.clear();
                    c.outpos = 0;
                    c.state = ConnState::Reading;
                    c.last_activity = Instant::now();
                    c.stream.as_raw_fd()
                };
                if self.watch(token, fd, true, false) {
                    // The carry may already hold the next pipelined request.
                    self.advance(token);
                }
            }
        }
    }

    fn check_timeouts(&mut self) {
        let now = Instant::now();
        let mut timed_out_reading = Vec::new();
        let mut timed_out_flushing = Vec::new();
        for (&t, c) in &self.conns {
            match c.state {
                ConnState::Reading
                    if now.saturating_duration_since(c.last_activity) >= self.read_timeout =>
                {
                    timed_out_reading.push(t)
                }
                ConnState::Flushing
                    if now.saturating_duration_since(c.last_activity) >= self.write_timeout =>
                {
                    timed_out_flushing.push(t)
                }
                _ => {}
            }
        }
        for t in timed_out_flushing {
            self.teardown(t);
        }
        for t in timed_out_reading {
            if self.draining {
                self.teardown(t);
            } else {
                self.queue_response(
                    t,
                    Response {
                        close: true,
                        ..Response::error(408, "timed out waiting for a request")
                    },
                );
            }
        }
    }

    fn begin_drain(&mut self) {
        if self.draining {
            return;
        }
        self.draining = true;
        self.drain_deadline = Some(Instant::now() + self.read_timeout);
        if let Some(l) = self.listener.take() {
            self.unwatch(l.as_raw_fd());
        }
        // Idle connections close now; busy ones finish their in-flight
        // request (with `Connection: close` forced) under the deadline.
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.state == ConnState::Reading)
            .map(|(&t, _)| t)
            .collect();
        for t in idle {
            self.teardown(t);
        }
    }

    /// Switches a connection's poller interest; a failed `epoll_ctl`
    /// tears the connection down (recording why) and returns `false`.
    fn watch(&mut self, token: u64, fd: RawFd, readable: bool, writable: bool) -> bool {
        match self.poller.modify(fd, token, readable, writable) {
            Ok(()) => true,
            Err(e) => {
                flight::event("reactor.watch_failed", format!("reactor={} {e}", self.idx));
                self.teardown(token);
                false
            }
        }
    }

    /// Drops `fd` from the poller. Closing it would drop it too, so a
    /// failure is only recorded.
    fn unwatch(&mut self, fd: RawFd) {
        if let Err(e) = self.poller.remove(fd) {
            flight::event(
                "reactor.unwatch_failed",
                format!("reactor={} {e}", self.idx),
            );
        }
    }

    fn teardown(&mut self, token: u64) {
        if let Some(c) = self.conns.remove(&token) {
            self.unwatch(c.stream.as_raw_fd());
            // Dropping `c` closes the socket and drops the session
            // Sender, releasing the worker at its next `recv`.
        }
    }
}

/// The per-connection worker loop: receive a request, route it, mail the
/// serialised response back to the reactor. Pins its worker for the
/// connection's lifetime, preserving the old design's `workers`-bounded
/// concurrency (and the 503-shedding the tests pin down).
/// Above this, a completed request is worth an `ARCHDSE_LOG=info` line:
/// generous against the ~µs cache-hit path, small against a stuck one.
const SLOW_REQUEST_US: u64 = 100_000;

fn session_loop(
    state: Arc<State>,
    rx: mpsc::Receiver<(u64, Request)>,
    reactor: Arc<ReactorShared>,
    token: u64,
) {
    while let Ok((req_id, req)) = rx.recv() {
        let started = Instant::now();
        // Adopt the request id for this worker thread: every flight
        // event the handler records (cache, registry, explore, ingest)
        // is tagged with it until the scope drops.
        let scope = flight::scope(req_id);
        flight::event("worker.start", format!("{} {}", req.method, req.path));
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| route(&state, &req)));
        let panicked = outcome.is_err();
        let (label, mut resp) = outcome.unwrap_or_else(|_| {
            (
                "panic",
                Response {
                    close: true,
                    ..Response::error(500, "internal server error")
                },
            )
        });
        let elapsed_us = started.elapsed().as_micros() as u64;
        flight::event(
            "worker.done",
            format!("route={label} status={} us={elapsed_us}", resp.status),
        );
        drop(scope);
        if panicked || resp.status >= 500 {
            // Automatic targeted dump: the failing request's event chain
            // to stderr, while the ring still holds it.
            let why = if panicked { "panic" } else { "5xx" };
            eprintln!("--- flight recorder dump (request {req_id}, {why}) ---");
            eprint!("{}", flight::to_jsonl(&flight::dump_for(req_id)));
            eprintln!("--- end flight recorder dump ---");
        }
        if elapsed_us >= SLOW_REQUEST_US {
            dse_obs::log!(
                info,
                "slow request {req_id}: route={label} status={} us={elapsed_us}",
                resp.status
            );
        }
        state.telemetry.record(label, resp.status, elapsed_us);
        resp.request_id = req_id;
        if !req.keep_alive || state.shutdown.load(Ordering::SeqCst) {
            resp.close = true;
        }
        let mut bytes = Vec::new();
        let _ = write_response(&mut bytes, &resp);
        let close = resp.close;
        reactor.send(ReactorMsg::Respond {
            token,
            bytes,
            close,
        });
        if close {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registering_an_invalid_fd_is_an_error() {
        let poller = Poller::new().unwrap();
        let err = poller.add(-1, 7, true, false).unwrap_err();
        assert!(err.to_string().contains("epoll_ctl(ADD)"), "{err}");
        assert!(poller.modify(-1, 7, true, false).is_err());
        assert!(poller.remove(-1).is_err());
    }
}
