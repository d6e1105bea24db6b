//! The open-loop load generator and its calibration responder.
//!
//! One thread drives every connection through `ppoll` with nanosecond
//! timeouts. Requests follow a seeded Poisson schedule, alternate between
//! the connections, and are pipelined: a slow answer never delays the next
//! send. Latency runs from when a request was *due*, so a stall also counts
//! against every request scheduled behind it, and the generator reports how
//! late it itself sent. Latencies go into fixed-size per-window
//! histograms, so the generator's memory does not grow with the run (only
//! the 8-byte answer hash kept per request for the correctness check does).

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::stats::{LogHist, Windows};
use crate::sys::{self, PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};
use crate::verify::response_hash;
use crate::workload::RequestStream;

/// How long after a phase ends its stragglers may still answer.
const DRAIN_NS: u64 = 1_000_000_000;
/// In-flight requests per connection beyond which new sends fail at once
/// (only an overloaded bisection probe gets here).
const MAX_INFLIGHT: usize = 65_536;
/// A response head longer than this is malformed.
const MAX_HEAD: usize = 8 * 1024;
/// Longest single `ppoll` sleep. On a virtual machine a vCPU idle for
/// longer drops into a halt whose wake-up takes up to milliseconds (p99 of
/// 0.3 ms after 1 ms sleeps, 7 µs after 100 µs ones, measured on a 2-core
/// Firecracker guest), which would make the generator late at low rates.
const MAX_SLEEP_NS: u64 = 50_000;
/// Generator lateness p99 above which a phase is not a valid measurement.
pub const MAX_VALID_LATE_US: f64 = 200.0;

/// One complete response at the front of a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// HTTP status code.
    pub status: u16,
    /// Offset of the body.
    pub body_start: usize,
    /// Bytes of the whole response (head and body).
    pub len: usize,
}

/// Frames one HTTP/1.1 response from the front of `buf`: `Ok(None)` until
/// it is complete. Every response of the server carries `Content-Length`.
pub fn parse_response(buf: &[u8]) -> Result<Option<Frame>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return if buf.len() > MAX_HEAD {
            Err("response head too long".into())
        } else {
            Ok(None)
        };
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 head")?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line in `{head}`"))?;
    let mut content_length = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(
                    value
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| format!("bad Content-Length `{value}`"))?,
                );
            }
        }
    }
    let body_len = content_length.ok_or("response without Content-Length")?;
    let body_start = head_end + 4;
    let len = body_start + body_len;
    Ok((buf.len() >= len).then_some(Frame {
        status,
        body_start,
        len,
    }))
}

/// One phase of fixed offered load.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSpec {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Length in seconds.
    pub secs: f64,
    /// Equal windows the latency percentiles are taken over.
    pub windows: usize,
    /// Seed of the arrival schedule.
    pub schedule_seed: u64,
}

/// What one phase measured.
#[derive(Debug, Clone)]
pub struct PhaseStats {
    /// The phase that ran.
    pub spec: PhaseSpec,
    /// Requests sent.
    pub sent: u64,
    /// Requests answered 200.
    pub ok: u64,
    /// Requests answered otherwise, never answered, or never sent.
    pub failed: u64,
    /// Answers (of any status) received before the phase ended.
    pub completed_in_phase: u64,
    /// Latency from due time, per window.
    pub windows: Windows,
    /// How late each send was.
    pub lateness: LogHist,
    /// Largest resident set sampled at window boundaries, MiB.
    pub peak_rss_mb: f64,
}

/// Nanoseconds to µs. A failed request is infinitely late; it is reported
/// as the drain limit, the longest any answer is waited for.
fn us(ns: Option<f64>) -> f64 {
    ns.map_or(f64::NAN, |v| v.min(DRAIN_NS as f64) / 1_000.0)
}

impl PhaseStats {
    /// Median across windows of the window p50, µs.
    pub fn p50_us(&self) -> f64 {
        us(self.windows.windowed_quantile_ns(0.50))
    }

    /// Median across windows of the window p99, µs.
    pub fn p99_us(&self) -> f64 {
        us(self.windows.windowed_quantile_ns(0.99))
    }

    /// Whole-phase p99.9, µs.
    pub fn p999_us(&self) -> f64 {
        us(self.windows.merged().quantile_ns(0.999))
    }

    /// Generator lateness p99, µs.
    pub fn late_p99_us(&self) -> f64 {
        us(self.lateness.quantile_ns(0.99))
    }

    /// Answers received during the phase per second.
    pub fn achieved_rps(&self) -> f64 {
        self.completed_in_phase as f64 / self.spec.secs
    }

    /// Failed share of the requests scheduled.
    pub fn fail_ratio(&self) -> f64 {
        let total = self.ok + self.failed;
        if total == 0 {
            0.0
        } else {
            self.failed as f64 / total as f64
        }
    }

    /// Whether the generator kept to its schedule closely enough for the
    /// latencies to describe the server.
    pub fn valid(&self) -> bool {
        self.late_p99_us() <= MAX_VALID_LATE_US
    }
}

/// A client-side span: one request from due time to its answer.
#[derive(Debug, Clone, Copy)]
pub struct ClientSpan {
    /// Stream index of the request.
    pub id: u64,
    /// When it was due, ns since the generator started.
    pub due_ns: u64,
    /// When its answer (or failure) arrived.
    pub end_ns: u64,
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    inflight: VecDeque<(u64, u64)>,
}

impl Conn {
    fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Self {
            stream,
            out: Vec::with_capacity(64 * 1024),
            out_pos: 0,
            inbuf: Vec::with_capacity(64 * 1024),
            inflight: VecDeque::new(),
        })
    }

    /// Writes what the socket takes; `Err` when the connection is dead.
    fn flush(&mut self) -> Result<(), ()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Err(()),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Ok(())
    }

    /// Reads what has arrived; `Err` on EOF or a socket error.
    fn fill(&mut self) -> Result<(), ()> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(()),
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Err(()),
            }
        }
    }
}

/// Opens keep-alive connection number `i` of the generator.
pub type Opener = Box<dyn FnMut(usize) -> io::Result<TcpStream>>;

/// An [`Opener`] that simply connects to `addr`.
pub fn plain(addr: SocketAddr) -> Opener {
    Box::new(move |_| TcpStream::connect(addr))
}

/// The open-loop generator over a fixed set of keep-alive connections.
pub struct Generator {
    open: Opener,
    conns: Vec<Conn>,
    stream: RequestStream,
    base: Instant,
    outcomes: Vec<u64>,
    spans: Option<(Vec<ClientSpan>, usize)>,
}

fn exp_gap_ns(rng: &mut StdRng, rate: f64) -> u64 {
    let u: f64 = rng.random();
    (-(1.0 - u).ln() / rate * 1e9) as u64
}

impl Generator {
    /// Opens `connections` connections with `open` (which also replaces a
    /// connection that died); requests come from `stream`. With
    /// `span_cap > 0`, the first `span_cap` answered requests are also kept
    /// as client-side spans.
    pub fn connect(
        mut open: Opener,
        connections: usize,
        stream: RequestStream,
        span_cap: usize,
    ) -> io::Result<Self> {
        // Best effort: without it timeouts fire up to 50 µs late, which
        // shows up as generator lateness.
        let _ = sys::set_timer_slack_ns(1);
        let conns = (0..connections.max(1))
            .map(|i| Conn::new(open(i)?))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Self {
            open,
            conns,
            stream,
            base: Instant::now(),
            outcomes: Vec::new(),
            spans: (span_cap > 0).then(|| (Vec::with_capacity(span_cap), span_cap)),
        })
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// The instant the generator's timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.base
    }

    /// Per stream index, the hash of the answer body when it was a 200,
    /// else 0.
    pub fn outcomes(&self) -> &[u64] {
        &self.outcomes
    }

    /// The client-side spans kept so far.
    pub fn spans(&self) -> &[ClientSpan] {
        self.spans.as_ref().map_or(&[], |(s, _)| s.as_slice())
    }

    /// Reserves room for `n` more answer hashes up front, so the run's
    /// memory does not grow while it is measured.
    pub fn reserve(&mut self, n: usize) {
        self.outcomes.reserve(n);
    }

    fn span(&mut self, id: u64, due_ns: u64, end_ns: u64) {
        if let Some((spans, cap)) = self.spans.as_mut() {
            if spans.len() < *cap {
                spans.push(ClientSpan { id, due_ns, end_ns });
            }
        }
    }

    /// Fails everything in flight on connection `c` and replaces it.
    fn reset(&mut self, c: usize, stats: &mut PhaseStats) -> io::Result<()> {
        let now = self.now_ns();
        // Closed first, so the opener sees only the connections in use.
        let _ = self.conns[c].stream.shutdown(std::net::Shutdown::Both);
        let fresh = Conn::new((self.open)(c)?)?;
        let dead = std::mem::replace(&mut self.conns[c], fresh);
        for (id, due) in dead.inflight {
            stats.failed += 1;
            stats.windows.record_infinite(due);
            self.span(id, due, now);
        }
        Ok(())
    }

    /// Parses every complete response buffered on connection `c`.
    fn absorb(&mut self, c: usize, end_ns: u64, stats: &mut PhaseStats) -> io::Result<()> {
        let now = self.now_ns();
        let mut consumed = 0;
        loop {
            let conn = &self.conns[c];
            let frame = match parse_response(&conn.inbuf[consumed..]) {
                Ok(Some(f)) => f,
                Ok(None) => break,
                Err(_) => return self.reset(c, stats),
            };
            let body = &conn.inbuf[consumed + frame.body_start..consumed + frame.len];
            let hash = (frame.status == 200).then(|| response_hash(body));
            consumed += frame.len;
            let Some((id, due)) = self.conns[c].inflight.pop_front() else {
                // An answer nobody asked for: the framing is lost.
                return self.reset(c, stats);
            };
            if now <= end_ns {
                stats.completed_in_phase += 1;
            }
            match hash {
                Some(h) => {
                    stats.ok += 1;
                    stats.windows.record(due, now.saturating_sub(due));
                    self.outcomes[id as usize] = h;
                }
                None => {
                    stats.failed += 1;
                    stats.windows.record_infinite(due);
                }
            }
            self.span(id, due, now);
        }
        self.conns[c].inbuf.drain(..consumed);
        Ok(())
    }

    fn send(&mut self, due_ns: u64, now_ns: u64, stats: &mut PhaseStats) {
        let id = self.stream.position();
        let request = self.stream.next().expect("request streams are endless");
        self.outcomes.push(0);
        stats.lateness.record(now_ns.saturating_sub(due_ns));
        let n = self.conns.len();
        let conn = &mut self.conns[id as usize % n];
        if conn.inflight.len() >= MAX_INFLIGHT {
            stats.failed += 1;
            stats.windows.record_infinite(due_ns);
            return;
        }
        request.write_http(&mut conn.out);
        conn.inflight.push_back((id, due_ns));
        stats.sent += 1;
    }

    /// Runs one phase and waits for its stragglers.
    pub fn run_phase(&mut self, spec: PhaseSpec) -> io::Result<PhaseStats> {
        let mut sched = StdRng::seed_from_u64(spec.schedule_seed);
        let start = self.now_ns();
        let len_ns = (spec.secs * 1e9) as u64;
        let end = start + len_ns;
        let windows = spec.windows.max(1);
        let width = len_ns / windows as u64;
        let mut stats = PhaseStats {
            spec,
            sent: 0,
            ok: 0,
            failed: 0,
            completed_in_phase: 0,
            windows: Windows::new(start, width, windows),
            lateness: LogHist::new(),
            peak_rss_mb: 0.0,
        };
        let mut next_due = start + exp_gap_ns(&mut sched, spec.rate);
        let mut next_rss = start;
        let mut fds: Vec<PollFd> = Vec::with_capacity(self.conns.len());
        loop {
            let now = self.now_ns();
            while next_due <= now && next_due < end {
                self.send(next_due, now, &mut stats);
                next_due += exp_gap_ns(&mut sched, spec.rate);
            }
            for c in 0..self.conns.len() {
                if self.conns[c].flush().is_err() {
                    self.reset(c, &mut stats)?;
                }
            }
            if now >= next_rss && now < end {
                if let Some(rss) = sys::rss_mb() {
                    stats.peak_rss_mb = stats.peak_rss_mb.max(rss);
                }
                next_rss = now + width.max(1);
            }
            let inflight: usize = self.conns.iter().map(|c| c.inflight.len()).sum();
            if now >= end && inflight == 0 {
                break;
            }
            if now >= end + DRAIN_NS {
                for c in 0..self.conns.len() {
                    if !self.conns[c].inflight.is_empty() {
                        self.reset(c, &mut stats)?;
                    }
                }
                break;
            }
            let wake = if next_due < end {
                next_due
            } else {
                end + DRAIN_NS
            };
            fds.clear();
            fds.extend(self.conns.iter().map(|c| PollFd {
                fd: c.stream.as_raw_fd(),
                events: POLLIN | if c.out.is_empty() { 0 } else { POLLOUT },
                revents: 0,
            }));
            let sleep = wake.saturating_sub(self.now_ns()).min(MAX_SLEEP_NS);
            if sys::poll(&mut fds, sleep)? == 0 {
                continue;
            }
            for (c, fd) in fds.iter().enumerate() {
                let revents = fd.revents;
                if revents & POLLOUT != 0 && self.conns[c].flush().is_err() {
                    self.reset(c, &mut stats)?;
                    continue;
                }
                if revents & (POLLIN | POLLHUP | POLLERR) != 0 {
                    let alive = self.conns[c].fill();
                    self.absorb(c, end, &mut stats)?;
                    if alive.is_err() {
                        self.reset(c, &mut stats)?;
                    }
                }
            }
        }
        Ok(stats)
    }
}

/// A stand-in server that answers every request with a canned 200 at once:
/// driving it with the generator measures the latency floor that the
/// client, the kernel and loopback add without any of the program.
pub struct Responder {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: JoinHandle<()>,
}

const CANNED: &[u8] =
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\n{}";

fn respond_loop(mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let mut buf = Vec::with_capacity(64 * 1024);
    let mut chunk = [0u8; 16 * 1024];
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return,
            Ok(n) => n,
        };
        buf.extend_from_slice(&chunk[..n]);
        let mut out = Vec::new();
        let mut consumed = 0;
        while let Ok(airchitect_serve::http::Parsed::Complete { consumed: c, .. }) =
            airchitect_serve::http::try_parse(&buf[consumed..])
        {
            consumed += c;
            out.extend_from_slice(CANNED);
        }
        buf.drain(..consumed);
        if stream.write_all(&out).is_err() {
            return;
        }
    }
}

impl Responder {
    /// Binds an ephemeral loopback port and starts answering.
    pub fn start() -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let acceptor = std::thread::Builder::new()
            .name("bench-responder".into())
            .spawn(move || {
                let mut handlers = Vec::new();
                for stream in listener.incoming() {
                    if flag.load(Ordering::Acquire) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        handlers.push(std::thread::spawn(move || respond_loop(stream)));
                    }
                }
                for h in handlers {
                    let _ = h.join();
                }
            })?;
        Ok(Self {
            addr,
            stop,
            acceptor,
        })
    }

    /// Where it listens.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins every handler; the clients must have
    /// closed their connections first.
    pub fn stop(self) {
        self.stop.store(true, Ordering::Release);
        // Unblocks the accept loop.
        let _ = TcpStream::connect(self.addr);
        let _ = self.acceptor.join();
    }
}
