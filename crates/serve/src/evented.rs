//! The evented listener: N event-loop shards, each owning a
//! `SO_REUSEPORT` acceptor, an epoll [`Poller`](crate::reactor::Poller),
//! and a slab of nonblocking connection state machines.
//!
//! Each connection moves through a small cycle driven entirely by
//! readiness: **read** (append to a growing buffer) → **parse**
//! (incremental [`try_parse`]; partial heads/bodies just wait for more
//! bytes) → **dispatch** ([`Handler::step`], where the role it serves —
//! replica or cluster router — makes every routing and admission
//! decision) → **write** (buffered, flushed as `EPOLLOUT` allows).
//! A request the handler queues for an off-loop thread (a ranked answer, a
//! reload, a forward) parks the connection as `pending`; the answer comes
//! back through the shard's [`CompletionQueue`], whose eventfd wakes the
//! loop without the thread ever touching a socket.
//!
//! Timeouts have no per-socket kernel deadlines here (sockets are
//! nonblocking), so a periodic sweep enforces them: idle keep-alive
//! connections close at the read timeout, stalled writers at the write
//! timeout, and a pending request whose deadline passes is answered 504
//! *by the shard* — the thread's late outcome is then discarded by
//! request-id mismatch, so a stuck pool thread still yields a timely 504
//! (the chaos suite pins this).

#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::batch::{Completion, CompletionQueue, Done, Reply};
use crate::http::{try_parse, write_response, Parsed, ReadError, Request, Response};
use crate::listener::{
    deadline_exceeded, record_latency, Front, Handler, ShardStats, Step, MAX_ACCEPT_ERRORS,
};
use crate::reactor::{Events, Interest, Poller};
use crate::ServeError;

/// Listen backlog for every shard acceptor: connection storms park in the
/// kernel while the loops drain them in bursts.
const BACKLOG: i32 = 4096;

/// Max sockets accepted per readiness event, so one storm cannot starve
/// the connections already being served.
const ACCEPT_BATCH: usize = 256;

/// epoll wait timeout: the loop's heartbeat for the timeout sweep and the
/// shutdown-flag check even when no events arrive.
const WAIT_TIMEOUT: Duration = Duration::from_millis(10);

/// How often the timeout sweep walks the slab.
const SWEEP_INTERVAL: Duration = Duration::from_millis(50);

/// Read chunk size per `read` call.
const READ_CHUNK: usize = 16 * 1024;

/// Cap on auto-selected shard count (`--event-loops 0`).
const MAX_AUTO_SHARDS: usize = 4;

/// Hard cap on configured shard count.
const MAX_SHARDS: usize = 64;

const LISTENER_TOKEN: u64 = u64::MAX;
const WAKER_TOKEN: u64 = u64::MAX - 1;

/// Everything a shard thread needs, bound before the server starts so
/// bind errors surface from [`crate::Server::bind`] or
/// [`crate::Cluster::start`], not mid-serve.
pub(crate) struct ShardSeed {
    pub(crate) id: usize,
    pub(crate) addr: SocketAddr,
    pub(crate) listener: TcpListener,
    pub(crate) stats: Arc<ShardStats>,
    pub(crate) completions: Arc<CompletionQueue>,
}

/// Binds `event_loops` reuseport acceptors on `addr` (zero picks from
/// the CPU count). The first bind resolves `:0` to a concrete port; the
/// rest share it.
pub(crate) fn bind_shards(addr: &str, event_loops: usize) -> Result<Vec<ShardSeed>, ServeError> {
    let requested: SocketAddr = addr
        .to_socket_addrs()
        .map_err(|e| ServeError::Io(format!("resolve {addr}: {e}")))?
        .next()
        .ok_or_else(|| ServeError::Io(format!("resolve {addr}: no addresses")))?;
    let n = if event_loops == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(MAX_AUTO_SHARDS)
    } else {
        event_loops.min(MAX_SHARDS)
    };
    let seed = |id: usize, listener: TcpListener| -> Result<ShardSeed, ServeError> {
        listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::Io(format!("nonblocking listener: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::Io(format!("local_addr: {e}")))?;
        Ok(ShardSeed {
            id,
            addr,
            listener,
            stats: Arc::new(ShardStats::default()),
            completions: Arc::new(
                CompletionQueue::new()
                    .map_err(|e| ServeError::Io(format!("completion queue: {e}")))?,
            ),
        })
    };
    let first = crate::reactor::bind_reuseport(requested, BACKLOG)
        .map_err(|e| ServeError::Io(format!("bind {requested}: {e}")))?;
    let mut seeds = vec![seed(0, first)?];
    let addr = seeds[0].addr;
    for id in 1..n {
        let listener = crate::reactor::bind_reuseport(addr, BACKLOG)
            .map_err(|e| ServeError::Io(format!("bind shard {id} on {addr}: {e}")))?;
        seeds.push(seed(id, listener)?);
    }
    Ok(seeds)
}

/// Runs one thread per shard and joins them all. A shard that fails
/// flips the shutdown flag and wakes its siblings so the whole server
/// winds down instead of limping on a subset of acceptors.
pub(crate) fn run_shards<H: Handler>(
    seeds: Vec<ShardSeed>,
    inner: &Arc<H>,
) -> Result<(), ServeError> {
    let mut threads = Vec::with_capacity(seeds.len());
    for seed in seeds {
        let inner = Arc::clone(inner);
        let name = format!("serve-shard-{}", seed.id);
        threads.push(
            std::thread::Builder::new()
                .name(name)
                .spawn(move || {
                    let result = Shard::new(seed, inner.front()).and_then(|mut s| s.run(&inner));
                    if result.is_err() {
                        crate::listener::initiate_shutdown(inner.front());
                    }
                    result
                })
                .expect("spawn shard thread"),
        );
    }
    let mut result = Ok(());
    for thread in threads {
        match thread.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                if result.is_ok() {
                    result = Err(e);
                }
            }
            Err(_) => {
                if result.is_ok() {
                    result = Err(ServeError::Io("shard thread panicked".into()));
                }
            }
        }
    }
    result
}

/// A request whose answer is owed by an off-loop thread.
struct PendingReply {
    /// Request id this connection is waiting on; a completion with any
    /// other id (a post-timeout straggler) is discarded.
    req: u64,
    started: Instant,
    deadline: Option<Instant>,
    cache_key: Vec<u8>,
    keep_alive: bool,
}

/// One nonblocking connection's entire state.
struct Conn {
    stream: TcpStream,
    token: u64,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    /// Prefix of `write_buf` already handed to the kernel.
    written: usize,
    pending: Option<PendingReply>,
    /// Monotonically increasing per-connection request id.
    next_req: u64,
    last_activity: Instant,
    /// When the currently-incomplete request head started arriving.
    /// `last_activity` refreshes on every byte, so a slowloris client
    /// trickling one header byte per timeout window never goes idle;
    /// this anchor only clears when a full request parses.
    head_since: Option<Instant>,
    /// When the current unflushed response started waiting (write-stall
    /// timeout anchor); `None` while the write buffer is empty.
    write_since: Option<Instant>,
    close_after_write: bool,
    /// Peer sent EOF; serve what is buffered, then close.
    peer_closed: bool,
    /// Whether the poller registration currently includes `EPOLLOUT`.
    want_write: bool,
}

/// Generation-checked connection slab. Tokens are `(gen << 32) | index`,
/// so a completion addressed to a connection that has since closed (and
/// whose slot was reused) misses on the generation and is dropped.
struct Slab {
    slots: Vec<Option<Conn>>,
    gens: Vec<u32>,
    free: Vec<usize>,
    live: usize,
}

impl Slab {
    fn new() -> Self {
        Self {
            slots: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Reserves a slot and returns `(index, token)`.
    fn claim(&mut self) -> (usize, u64) {
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.gens.push(1);
            self.slots.len() - 1
        });
        let token = ((self.gens[idx] as u64) << 32) | idx as u64;
        (idx, token)
    }

    fn put(&mut self, idx: usize, conn: Conn) {
        debug_assert!(self.slots[idx].is_none());
        self.slots[idx] = Some(conn);
        self.live += 1;
    }

    /// Frees a slot and bumps its generation so the old token dies.
    fn remove(&mut self, idx: usize) -> Option<Conn> {
        let conn = self.slots[idx].take()?;
        self.live -= 1;
        // Keep generations in 31 bits and nonzero, so conn tokens can
        // never collide with the listener/waker sentinels.
        self.gens[idx] = self.gens[idx].wrapping_add(1) & 0x7FFF_FFFF;
        if self.gens[idx] == 0 {
            self.gens[idx] = 1;
        }
        self.free.push(idx);
        Some(conn)
    }

    fn index_of(&self, token: u64) -> Option<usize> {
        let idx = (token & 0xFFFF_FFFF) as usize;
        let gen = (token >> 32) as u32;
        (idx < self.slots.len() && self.slots[idx].is_some() && self.gens[idx] == gen)
            .then_some(idx)
    }

    fn get_mut(&mut self, idx: usize) -> Option<&mut Conn> {
        self.slots.get_mut(idx).and_then(|s| s.as_mut())
    }
}

struct Shard {
    id: usize,
    poller: Poller,
    listener: TcpListener,
    stats: Arc<ShardStats>,
    completions: Arc<CompletionQueue>,
    conns: Slab,
    events: Events,
    /// Scratch for draining the completion queue without per-tick allocs.
    scratch: Vec<Completion>,
    accept_errors: u32,
    last_sweep: Instant,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
}

/// True when the `serve.conn.read` failpoint fires: drop the connection
/// as if the socket read failed.
fn chaos_read_hit() -> bool {
    #[allow(clippy::redundant_closure_call)]
    (|| {
        airchitect_chaos::fail_point!("serve.conn.read", |_e: std::io::Error| true);
        false
    })()
}

/// True when the `serve.conn.write` failpoint fires: drop the connection
/// instead of writing the response.
fn chaos_write_hit() -> bool {
    #[allow(clippy::redundant_closure_call)]
    (|| {
        airchitect_chaos::fail_point!("serve.conn.write", |_e: std::io::Error| true);
        false
    })()
}

impl Shard {
    fn new(seed: ShardSeed, front: &Front) -> Result<Self, ServeError> {
        let io_err = |what: &str, e: std::io::Error| ServeError::Io(format!("{what}: {e}"));
        let poller = Poller::new().map_err(|e| io_err("epoll_create", e))?;
        poller
            .add(seed.listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)
            .map_err(|e| io_err("register listener", e))?;
        poller
            .add(seed.completions.waker_fd(), WAKER_TOKEN, Interest::READ)
            .map_err(|e| io_err("register waker", e))?;
        Ok(Self {
            id: seed.id,
            poller,
            listener: seed.listener,
            stats: seed.stats,
            completions: seed.completions,
            conns: Slab::new(),
            events: Events::with_capacity(512),
            scratch: Vec::new(),
            accept_errors: 0,
            last_sweep: Instant::now(),
            read_timeout: front.read_timeout,
            write_timeout: front.write_timeout,
        })
    }

    fn run<H: Handler>(&mut self, inner: &Arc<H>) -> Result<(), ServeError> {
        loop {
            self.poller
                .wait(&mut self.events, Some(WAIT_TIMEOUT))
                .map_err(|e| ServeError::Io(format!("shard {}: epoll_wait: {e}", self.id)))?;
            // Events hold copies, not borrows, so handlers can mutate the
            // slab freely.
            let batch: Vec<_> = self.events.iter().collect();
            for ev in batch {
                match ev.token {
                    LISTENER_TOKEN => self.accept_burst(inner)?,
                    WAKER_TOKEN => {
                        self.stats.wakeups.fetch_add(1, Ordering::Relaxed);
                        // Drained (with the entries) below.
                    }
                    token => self.conn_event(token, ev.readable, ev.writable, ev.failed, inner),
                }
            }
            self.drain_completions(inner);
            let now = Instant::now();
            if now.duration_since(self.last_sweep) >= SWEEP_INTERVAL {
                self.last_sweep = now;
                self.sweep(now, inner);
            }
            if inner.front().shutdown.load(Ordering::Acquire) && self.conns.live == 0 {
                // Drain complete. Connections owed a response closed when
                // it flushed; idle keep-alive connections got one
                // read-timeout window to submit a last request (answered
                // 503 draining), then the sweep closed them.
                return Ok(());
            }
        }
    }

    /// Accepts up to [`ACCEPT_BATCH`] sockets. Transient errors back off
    /// briefly and rely on level-triggered epoll to re-report readiness;
    /// a persistent streak (> [`MAX_ACCEPT_ERRORS`]) is fatal for the
    /// shard.
    fn accept_burst<H: Handler>(&mut self, inner: &Arc<H>) -> Result<(), ServeError> {
        let front = inner.front();
        for _ in 0..ACCEPT_BATCH {
            #[allow(clippy::redundant_closure_call)]
            let attempt = (|| {
                airchitect_chaos::fail_point!("serve.listener.accept", Err);
                self.listener.accept()
            })();
            match attempt {
                Ok((stream, _)) => {
                    self.accept_errors = 0;
                    if front.shutdown.load(Ordering::Acquire) {
                        // Draining: the socket closes without a response.
                        drop(stream);
                        continue;
                    }
                    self.stats.accepted.fetch_add(1, Ordering::Relaxed);
                    if front.nodelay {
                        let _ = stream.set_nodelay(true);
                    }
                    self.register(stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => {
                    if front.shutdown.load(Ordering::Acquire) {
                        return Ok(());
                    }
                    self.accept_errors += 1;
                    if self.accept_errors > MAX_ACCEPT_ERRORS {
                        return Err(ServeError::Io(format!("shard {}: accept: {e}", self.id)));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    fn register(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let (idx, token) = self.conns.claim();
        if self.poller.add(stream.as_raw_fd(), token, Interest::READ).is_err() {
            // Slot stays on the free list; the claim only bumped nothing.
            self.conns.free.push(idx);
            return;
        }
        self.conns.put(
            idx,
            Conn {
                stream,
                token,
                read_buf: Vec::new(),
                write_buf: Vec::new(),
                written: 0,
                pending: None,
                next_req: 1,
                last_activity: Instant::now(),
                head_since: None,
                write_since: None,
                close_after_write: false,
                peer_closed: false,
                want_write: false,
            },
        );
        self.stats.open.fetch_add(1, Ordering::Relaxed);
    }

    fn close(&mut self, idx: usize) {
        if let Some(conn) = self.conns.remove(idx) {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            self.stats.open.fetch_sub(1, Ordering::Relaxed);
        }
    }

    fn conn_event<H: Handler>(
        &mut self,
        token: u64,
        readable: bool,
        writable: bool,
        failed: bool,
        inner: &Arc<H>,
    ) {
        let Some(idx) = self.conns.index_of(token) else {
            return; // stale token: the connection closed this tick
        };
        if failed && !readable {
            self.close(idx);
            return;
        }
        if writable {
            self.flush(idx);
            let ready = self
                .conns
                .get_mut(idx)
                .is_some_and(|c| c.write_buf.is_empty());
            if ready {
                // The response is out; a pipelined request may be waiting.
                self.process_buffer(idx, inner);
            }
        }
        if readable && self.conns.get_mut(idx).is_some() {
            if chaos_read_hit() {
                self.close(idx);
                return;
            }
            match self.fill_read_buf(idx) {
                Ok(()) => self.process_buffer(idx, inner),
                Err(()) => self.close(idx),
            }
        }
    }

    /// Reads until `WouldBlock` or EOF. `Err(())` means a socket error —
    /// close without ceremony.
    fn fill_read_buf(&mut self, idx: usize) -> Result<(), ()> {
        let Some(conn) = self.conns.get_mut(idx) else {
            return Err(());
        };
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.peer_closed = true;
                    return Ok(());
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&chunk[..n]);
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            }
        }
    }

    /// Parses and dispatches as many buffered requests as possible.
    /// Strictly serial per connection: nothing parses while a response is
    /// pending or unflushed, so pipelined requests are answered in order.
    fn process_buffer<H: Handler>(&mut self, idx: usize, inner: &Arc<H>) {
        loop {
            let parse = {
                let Some(conn) = self.conns.get_mut(idx) else {
                    return;
                };
                if conn.pending.is_some() || !conn.write_buf.is_empty() {
                    return;
                }
                if conn.read_buf.is_empty() {
                    if conn.peer_closed {
                        self.close(idx);
                    }
                    return;
                }
                try_parse(&conn.read_buf)
            };
            match parse {
                Ok(Parsed::Complete { request, consumed }) => {
                    if let Some(conn) = self.conns.get_mut(idx) {
                        conn.read_buf.drain(..consumed);
                        conn.head_since = None;
                    }
                    self.dispatch(idx, &request, inner);
                }
                Ok(Parsed::Partial) => {
                    let Some(conn) = self.conns.get_mut(idx) else {
                        return;
                    };
                    if conn.head_since.is_none() {
                        conn.head_since = Some(Instant::now());
                    }
                    if conn.peer_closed {
                        // EOF mid-request: the head or body never ended.
                        let resp = Response::error(400, "bad_request", "truncated request");
                        self.respond(idx, &resp, false);
                    }
                    return;
                }
                Err(ReadError::Bad { status, reason }) => {
                    let resp = Response::error(status, "bad_request", &reason);
                    if let Some(conn) = self.conns.get_mut(idx) {
                        conn.read_buf.clear();
                    }
                    self.respond(idx, &resp, false);
                    return;
                }
            }
        }
    }

    /// Routes one parsed request. Immediate responses are serialized into
    /// the write buffer; queued ones park the connection as pending.
    fn dispatch<H: Handler>(&mut self, idx: usize, request: &Request, inner: &Arc<H>) {
        let (token, req_id) = {
            let Some(conn) = self.conns.get_mut(idx) else {
                return;
            };
            let req_id = conn.next_req;
            conn.next_req += 1;
            (conn.token, req_id)
        };
        let reply = &mut || Reply {
            queue: Arc::clone(&self.completions),
            conn: token,
            req: req_id,
        };
        match H::step(inner, request, reply) {
            Step::Respond(resp) => {
                let draining = inner.front().shutdown.load(Ordering::Acquire);
                self.respond(idx, &resp, request.keep_alive && !draining);
            }
            Step::Queued {
                started,
                deadline,
                cache_key,
            } => {
                if let Some(conn) = self.conns.get_mut(idx) {
                    conn.pending = Some(PendingReply {
                        req: req_id,
                        started,
                        deadline,
                        cache_key,
                        keep_alive: request.keep_alive,
                    });
                }
            }
        }
    }

    /// Serializes a response into the connection's write buffer and
    /// flushes as much as the socket will take now.
    fn respond(&mut self, idx: usize, resp: &Response, keep_alive: bool) {
        if chaos_write_hit() {
            self.close(idx);
            return;
        }
        let Some(conn) = self.conns.get_mut(idx) else {
            return;
        };
        write_response(&mut conn.write_buf, resp, keep_alive)
            .expect("serializing into a Vec cannot fail");
        if !keep_alive {
            conn.close_after_write = true;
        }
        if conn.write_since.is_none() {
            conn.write_since = Some(Instant::now());
        }
        self.flush(idx);
    }

    /// Writes buffered bytes until `WouldBlock` or empty, keeping the
    /// poller's `EPOLLOUT` interest in sync with whether bytes remain.
    fn flush(&mut self, idx: usize) {
        enum After {
            Nothing,
            Close,
            Rearm(std::os::fd::RawFd, u64, Interest),
        }
        let after = {
            let Some(conn) = self.conns.get_mut(idx) else {
                return;
            };
            let mut failed = false;
            while conn.written < conn.write_buf.len() {
                match conn.stream.write(&conn.write_buf[conn.written..]) {
                    Ok(0) => {
                        failed = true;
                        break;
                    }
                    Ok(n) => conn.written += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
            if failed {
                After::Close
            } else if conn.written == conn.write_buf.len() {
                conn.write_buf.clear();
                conn.written = 0;
                conn.write_since = None;
                if conn.close_after_write {
                    After::Close
                } else if conn.want_write {
                    conn.want_write = false;
                    After::Rearm(conn.stream.as_raw_fd(), conn.token, Interest::READ)
                } else {
                    After::Nothing
                }
            } else if !conn.want_write {
                conn.want_write = true;
                After::Rearm(conn.stream.as_raw_fd(), conn.token, Interest::READ_WRITE)
            } else {
                After::Nothing
            }
        };
        match after {
            After::Nothing => {}
            After::Close => self.close(idx),
            After::Rearm(fd, token, interest) => {
                let _ = self.poller.modify(fd, token, interest);
            }
        }
    }

    /// Delivers queued answers to their connections. The eventfd is
    /// drained *before* the entries: a producer that pushes after the
    /// eventfd drain either lands in this entry drain or re-arms the
    /// eventfd for the next tick — either way nothing is lost.
    fn drain_completions<H: Handler>(&mut self, inner: &Arc<H>) {
        self.completions.drain_wakes();
        let mut batch = std::mem::take(&mut self.scratch);
        self.completions.drain_into(&mut batch);
        for (token, req, done) in batch.drain(..) {
            let Some(idx) = self.conns.index_of(token) else {
                continue; // connection closed while the job was in flight
            };
            let pending = {
                let Some(conn) = self.conns.get_mut(idx) else {
                    continue;
                };
                if conn.pending.as_ref().is_none_or(|p| p.req != req) {
                    continue; // straggler: this request already got a 504
                }
                conn.pending.take().expect("checked above")
            };
            let resp = match done {
                Done::Outcome(outcome) => inner.frame(outcome, pending.started, pending.cache_key),
                Done::Response(resp) => resp,
            };
            let keep_alive = pending.keep_alive && !inner.front().shutdown.load(Ordering::Acquire);
            self.respond(idx, &resp, keep_alive);
            if self.conns.index_of(token).is_some() {
                self.process_buffer(idx, inner);
            }
        }
        self.scratch = batch;
    }

    /// Enforces read/write timeouts and pending deadlines.
    fn sweep<H: Handler>(&mut self, now: Instant, inner: &Arc<H>) {
        let draining = inner.front().shutdown.load(Ordering::Acquire);
        for idx in 0..self.conns.slots.len() {
            enum Action {
                Nothing,
                Close,
                Deadline,
                Reap408,
            }
            let action = {
                let Some(conn) = self.conns.slots[idx].as_mut() else {
                    continue;
                };
                if conn
                    .pending
                    .as_ref()
                    .is_some_and(|p| p.deadline.is_some_and(|d| now >= d))
                {
                    Action::Deadline
                } else if conn.write_since.is_some_and(|since| {
                    self.write_timeout
                        .is_some_and(|t| now.duration_since(since) >= t)
                }) {
                    // The peer is not reading its response.
                    Action::Close
                } else if conn.pending.is_none()
                    && conn.write_buf.is_empty()
                    && conn.head_since.is_some_and(|since| {
                        self.read_timeout
                            .is_some_and(|t| now.duration_since(since) >= t)
                    })
                {
                    // Slowloris: header bytes trickling in keep
                    // `last_activity` fresh, but the request head has
                    // been incomplete for a whole timeout window.
                    Action::Reap408
                } else if conn.pending.is_none()
                    && conn.write_buf.is_empty()
                    && self
                        .read_timeout
                        .is_some_and(|t| now.duration_since(conn.last_activity) >= t)
                {
                    // Idle keep-alive connection past the read timeout.
                    Action::Close
                } else {
                    Action::Nothing
                }
            };
            match action {
                Action::Nothing => {}
                Action::Close => self.close(idx),
                Action::Reap408 => {
                    airchitect_telemetry::metrics::SERVE_SLOWLORIS_REAPED.inc();
                    let resp =
                        Response::error(408, "request_timeout", "request header read timed out");
                    self.respond(idx, &resp, false);
                }
                Action::Deadline => {
                    // Answer the 504 now; the worker's eventual outcome is
                    // discarded by the request-id check.
                    let pending = self
                        .conns
                        .get_mut(idx)
                        .and_then(|c| c.pending.take())
                        .expect("deadline action implies pending");
                    let resp = record_latency(pending.started, deadline_exceeded());
                    self.respond(idx, &resp, pending.keep_alive && !draining);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_tokens_die_on_slot_reuse() {
        let mut slab = Slab::new();
        let (idx, token) = slab.claim();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let make = |stream: TcpStream, token: u64| Conn {
            stream,
            token,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            written: 0,
            pending: None,
            next_req: 1,
            last_activity: Instant::now(),
            head_since: None,
            write_since: None,
            close_after_write: false,
            peer_closed: false,
            want_write: false,
        };
        slab.put(idx, make(stream, token));
        assert_eq!(slab.index_of(token), Some(idx));
        assert!(slab.remove(idx).is_some());
        assert_eq!(slab.index_of(token), None, "removed token must not resolve");

        // Reuse the slot: the old token still must not resolve.
        let (idx2, token2) = slab.claim();
        assert_eq!(idx2, idx);
        assert_ne!(token2, token);
        let stream2 = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        slab.put(idx2, make(stream2, token2));
        assert_eq!(slab.index_of(token), None);
        assert_eq!(slab.index_of(token2), Some(idx2));
    }
}
