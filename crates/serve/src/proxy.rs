//! The cluster router: accepts client connections, consistent-hashes
//! recommendation requests across healthy replicas, and absorbs replica
//! failure so clients never see it.
//!
//! Per request the router walks the ring's failover order:
//!
//! 1. **Selection** — the canonical cache key from
//!    [`router::parse_recommend`] is hashed onto the [`Ring`]; malformed
//!    bodies are answered `400` locally and never consume fleet capacity.
//! 2. **Admission** — a replica over its in-flight cap or with an open
//!    outbound breaker is skipped (counted as a failover).
//! 3. **Hedging** — on the primary attempt, if no response arrives within
//!    the hedge delay (fixed `--hedge-ms`, or derived from the rolling
//!    p99 backend latency), a duplicate is fired at the next replica and
//!    the first answer wins. Recommends are idempotent, so a duplicated
//!    request is wasted work at worst.
//! 4. **Failover** — a transport error or 5xx moves to the next distinct
//!    replica; a delivered non-5xx answer is returned as-is with an
//!    `X-Replica` header naming the replica that produced it.
//!
//! `/healthz` and `/metrics` are answered by the router itself with
//! fleet-level aggregation; `/v1/shutdown` drains the router, then the
//! supervisor drains the children.
//!
//! `/v1/reload` depends on the deployment: without a registry it
//! broadcasts to every live replica (legacy fan-out); with `--model-dir`
//! it runs a **rolling rollout** — one replica at a time is told to
//! canary the registry's newest candidate version, the router polls that
//! replica's `/healthz` until the canary verdict lands, and only when
//! *every* replica has promoted does the router promote the version in
//! the registry (rewriting the shared `current.airm` that replicas boot
//! from). Any failure — a stage rejection, a canary rollback, a verdict
//! timeout, a replica dying mid-evaluation — quarantines the version and
//! rolls the whole fleet back onto the incumbent, so the fleet never
//! settles split across two versions.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use airchitect::model::CaseStudy;
use airchitect_telemetry::json::{self, Value};
use airchitect_telemetry::metrics;

use crate::breaker::Admit;
use crate::client::RetryClient;
use crate::http::{self, read_request, write_response, ReadError, Request, Response};
use crate::listener::MAX_ACCEPT_ERRORS;
use crate::registry::{Registry, RegistryError, DEFAULT_RETAIN};
use crate::router::{self, Route};
use crate::supervisor::{fleet_status, ClusterConfig, Fleet, ReplicaSlot, Supervisor};
use crate::{ServeConfig, ServeError};

/// Hard cap on a proxied response (head + body) the router will buffer.
const MAX_PROXIED_BYTES: usize = http::MAX_BODY_BYTES + 64 * 1024;

/// Latency samples kept for the rolling p99.
const LATENCY_WINDOW: usize = 512;
/// Samples required before auto-hedging switches on.
const LATENCY_WARMUP: usize = 64;

// ---------------------------------------------------------------------
// Backend response parsing (resumable, for hedging)
// ---------------------------------------------------------------------

/// A backend replica's parsed response, ready for passthrough.
#[derive(Debug, Clone)]
struct RawResponse {
    status: u16,
    content_type: String,
    retry_after: Option<u64>,
    warning: Option<String>,
    body: String,
}

/// One step of a bounded-wait read: either a complete response or "still
/// pending, buffer retained" (the hedging trigger).
enum ReadStep {
    Ready(RawResponse),
    Pending,
}

/// A router→replica connection with a resumable response parser: a read
/// that times out keeps its partial bytes, so the caller can fire a hedge
/// and keep waiting on the same connection from another thread.
struct BackendConn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl BackendConn {
    fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Self {
            stream,
            buf: Vec::new(),
        })
    }

    fn send(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        deadline_ms: Option<u64>,
    ) -> std::io::Result<()> {
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: airchitect-router\r\nConnection: keep-alive\r\nContent-Length: {}\r\n",
            body.len()
        );
        if let Some(ms) = deadline_ms {
            head.push_str(&format!("X-Deadline-Ms: {ms}\r\n"));
        }
        head.push_str("\r\n");
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body.as_bytes())?;
        self.stream.flush()
    }

    /// Reads toward one complete response for up to `wait`. `Pending`
    /// keeps the partial buffer; call again (possibly from another
    /// thread) to continue the same response.
    fn read_step(&mut self, wait: Duration) -> std::io::Result<ReadStep> {
        let deadline = Instant::now() + wait;
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(resp) = try_parse_response(&mut self.buf)? {
                return Ok(ReadStep::Ready(resp));
            }
            if self.buf.len() > MAX_PROXIED_BYTES {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "replica response too large",
                ));
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Ok(ReadStep::Pending);
            }
            self.stream
                .set_read_timeout(Some(remaining.max(Duration::from_millis(1))))?;
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "replica closed mid-response",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(ReadStep::Pending)
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Tries to parse one complete response from `buf`, draining the
/// consumed bytes on success (keep-alive reuse sees a clean buffer).
fn try_parse_response(buf: &mut Vec<u8>) -> std::io::Result<Option<RawResponse>> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("bad replica status line"))?;
    let mut content_length: Option<usize> = None;
    let mut content_type = String::from("application/json");
    let mut retry_after = None;
    let mut warning = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = Some(value.parse().map_err(|_| bad("bad Content-Length"))?);
        } else if name.eq_ignore_ascii_case("content-type") {
            content_type = value.to_string();
        } else if name.eq_ignore_ascii_case("retry-after") {
            retry_after = value.parse().ok();
        } else if name.eq_ignore_ascii_case("warning") {
            warning = Some(value.to_string());
        }
    }
    let content_length = content_length.ok_or_else(|| bad("replica sent no Content-Length"))?;
    let total = head_end + 4 + content_length;
    if buf.len() < total {
        return Ok(None);
    }
    let body = String::from_utf8(buf[head_end + 4..total].to_vec())
        .map_err(|_| bad("non-UTF-8 replica body"))?;
    buf.drain(..total);
    Ok(Some(RawResponse {
        status,
        content_type,
        retry_after,
        warning,
        body,
    }))
}

// ---------------------------------------------------------------------
// Rolling latency estimate for the hedge delay
// ---------------------------------------------------------------------

struct LatencyState {
    samples: Vec<u64>,
    next: usize,
    count: u64,
    cached_p99_us: u64,
}

/// Rolling window of backend latencies; p99 is recomputed lazily (every
/// [`LATENCY_WARMUP`] inserts) so the hot path is one lock + one store.
struct LatencyEstimator {
    state: Mutex<LatencyState>,
}

impl LatencyEstimator {
    fn new() -> Self {
        Self {
            state: Mutex::new(LatencyState {
                samples: Vec::with_capacity(LATENCY_WINDOW),
                next: 0,
                count: 0,
                cached_p99_us: 0,
            }),
        }
    }

    fn record(&self, us: u64) {
        let mut s = self.state.lock().expect("latency lock poisoned");
        if s.samples.len() < LATENCY_WINDOW {
            s.samples.push(us);
        } else {
            let at = s.next;
            s.samples[at] = us;
        }
        s.next = (s.next + 1) % LATENCY_WINDOW;
        s.count += 1;
        if s.count.is_multiple_of(LATENCY_WARMUP as u64) {
            let mut sorted = s.samples.clone();
            sorted.sort_unstable();
            let idx = (sorted.len().saturating_sub(1)) * 99 / 100;
            s.cached_p99_us = sorted[idx];
        }
    }

    /// The rolling p99 in microseconds, once warmed up.
    fn p99_us(&self) -> Option<u64> {
        let s = self.state.lock().expect("latency lock poisoned");
        (s.count >= LATENCY_WARMUP as u64).then_some(s.cached_p99_us)
    }
}

/// The hedge delay: fixed when configured, otherwise the rolling p99
/// clamped to [1ms, 250ms] (no hedging until the estimator warms up, so
/// a cold router never duplicates blindly).
fn hedge_delay(cfg: &ClusterConfig, latency: &LatencyEstimator) -> Option<Duration> {
    if cfg.hedge_ms > 0 {
        return Some(Duration::from_millis(cfg.hedge_ms));
    }
    latency
        .p99_us()
        .map(|p99| Duration::from_micros(p99.clamp(1_000, 250_000)))
}

// ---------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------

struct ProxyInner {
    fleet: Arc<Fleet>,
    cfg: ClusterConfig,
    latency: LatencyEstimator,
    shutdown: AtomicBool,
    /// The shared model registry (`--model-dir` deployments only).
    registry: Option<Mutex<Registry>>,
    /// Serializes rollouts: a second `/v1/reload` while one is in flight
    /// answers `409` instead of interleaving canaries.
    rollout_lock: Mutex<()>,
    /// The last version a rolling rollout promoted — the fleet-wide
    /// `/v1/rollback` target.
    last_promoted: Mutex<Option<u64>>,
}

/// The bound cluster router. [`Router::run`] owns the accept loop; it
/// returns after `POST /v1/shutdown`.
pub struct Router {
    listener: TcpListener,
    addr: SocketAddr,
    inner: Arc<ProxyInner>,
}

impl Router {
    /// Binds the router socket in front of `fleet`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] when the bind fails.
    pub fn bind(cfg: &ClusterConfig, fleet: Arc<Fleet>) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| ServeError::Io(format!("bind {}: {e}", cfg.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::Io(format!("local_addr: {e}")))?;
        let registry = match &cfg.model_dir {
            Some(dir) => Some(Mutex::new(
                Registry::open(dir, DEFAULT_RETAIN)
                    .map_err(|e| ServeError::Config(format!("--model-dir: {e}")))?,
            )),
            None => None,
        };
        Ok(Self {
            listener,
            addr,
            inner: Arc::new(ProxyInner {
                fleet,
                cfg: cfg.clone(),
                latency: LatencyEstimator::new(),
                shutdown: AtomicBool::new(false),
                registry,
                rollout_lock: Mutex::new(()),
                last_promoted: Mutex::new(None),
            }),
        })
    }

    /// The bound router address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves until `POST /v1/shutdown`, then joins every connection.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] only for accept-loop failures.
    pub fn run(self) -> Result<(), ServeError> {
        let mut connections: Vec<JoinHandle<()>> = Vec::new();
        let mut accept_errors = 0u32;
        loop {
            // The closure gives the failpoint's injected error an early
            // return target without leaving the loop.
            #[allow(clippy::redundant_closure_call)]
            let attempt = (|| {
                airchitect_chaos::fail_point!("cluster.proxy.accept", Err);
                self.listener.accept()
            })();
            if self.inner.shutdown.load(Ordering::Acquire) {
                break; // the wake-up connection, or a failure while draining
            }
            let stream = match attempt {
                Ok((stream, _)) => {
                    accept_errors = 0;
                    stream
                }
                // Transient failures back off and retry (pending
                // connections stay in the kernel backlog); a persistent
                // streak errors out.
                Err(e) => {
                    accept_errors += 1;
                    if accept_errors > MAX_ACCEPT_ERRORS {
                        return Err(ServeError::Io(format!("accept: {e}")));
                    }
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            };
            let inner = Arc::clone(&self.inner);
            connections.retain(|h| !h.is_finished());
            connections.push(
                std::thread::Builder::new()
                    .name("router-conn".into())
                    .spawn(move || handle_proxy_connection(stream, &inner))
                    .expect("spawn router connection thread"),
            );
        }
        for handle in connections {
            let _ = handle.join();
        }
        Ok(())
    }
}

fn initiate_shutdown(inner: &ProxyInner, addr: SocketAddr) {
    inner.shutdown.store(true, Ordering::Release);
    let _ = TcpStream::connect(addr);
}

fn handle_proxy_connection(stream: TcpStream, inner: &ProxyInner) {
    let secs_opt = |secs: u64| (secs > 0).then(|| Duration::from_secs(secs));
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(secs_opt(inner.cfg.read_timeout_secs));
    let _ = stream.set_write_timeout(secs_opt(inner.cfg.write_timeout_secs));
    let local = match stream.local_addr() {
        Ok(a) => a,
        Err(_) => return,
    };
    let mut writer = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = std::io::BufReader::new(stream);
    // Pooled keep-alive connections to the replicas, scoped per client
    // connection (thread) so they need no locking.
    let mut pool: HashMap<u32, BackendConn> = HashMap::new();
    loop {
        let request = match read_request(&mut reader) {
            Ok(r) => r,
            Err(ReadError::Closed | ReadError::TimedOut | ReadError::Io(_)) => return,
            Err(ReadError::Bad { status, reason }) => {
                let resp = Response::error(status, "bad_request", &reason);
                let _ = write_response(&mut writer, &resp, false);
                return;
            }
        };
        let (response, wants_shutdown) = dispatch(&request, inner, &mut pool);
        let draining = wants_shutdown || inner.shutdown.load(Ordering::Acquire);
        let keep_alive = request.keep_alive && !draining;
        // Drop the client connection as if the write failed (chaos only).
        airchitect_chaos::fail_point!("cluster.proxy.write", |_e: std::io::Error| ());
        if write_response(&mut writer, &response, keep_alive).is_err() {
            return;
        }
        if wants_shutdown {
            initiate_shutdown(inner, local);
        }
        if !keep_alive {
            return;
        }
    }
}

fn dispatch(
    request: &Request,
    inner: &ProxyInner,
    pool: &mut HashMap<u32, BackendConn>,
) -> (Response, bool) {
    let route = match router::route(&request.method, &request.path) {
        Ok(r) => r,
        Err(resp) => return (resp, false),
    };
    match route {
        Route::Healthz => (render_fleet_healthz(&inner.fleet), false),
        Route::Metrics => (render_cluster_metrics(&inner.fleet), false),
        Route::Shutdown => (
            Response::json(200, "{\"shutting_down\":true}\n".into()),
            true,
        ),
        Route::Reload => (rolling_reload(request, inner), false),
        Route::Rollback => (fleet_rollback(inner), false),
        Route::Recommend(case) => {
            if inner.shutdown.load(Ordering::Acquire) {
                let mut resp = Response::error(503, "draining", "router is shutting down");
                resp.retry_after = Some(1);
                return (resp, false);
            }
            (forward_recommend(case, request, inner, pool), false)
        }
    }
}

// ---------------------------------------------------------------------
// Fleet endpoints
// ---------------------------------------------------------------------

/// Renders the router's aggregated `/healthz`.
fn render_fleet_healthz(fleet: &Fleet) -> Response {
    let views = fleet.views();
    let healthy = fleet.healthy();
    let mut body = String::from("{\"status\":\"");
    body.push_str(fleet_status(views.len(), healthy));
    body.push_str("\",\"role\":\"router\",\"healthy\":");
    body.push_str(&healthy.to_string());
    body.push_str(",\"total\":");
    body.push_str(&views.len().to_string());
    body.push_str(",\"replicas\":[");
    for (i, v) in views.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str("{\"id\":");
        body.push_str(&v.id.to_string());
        body.push_str(",\"state\":");
        json::write_escaped(&mut body, v.phase);
        body.push_str(",\"pid\":");
        match v.pid {
            Some(pid) => body.push_str(&pid.to_string()),
            None => body.push_str("null"),
        }
        body.push_str(",\"addr\":");
        match v.addr {
            Some(addr) => json::write_escaped(&mut body, &addr.to_string()),
            None => body.push_str("null"),
        }
        body.push_str(",\"restarts\":");
        body.push_str(&v.restarts_total.to_string());
        body.push_str(",\"breaker\":");
        json::write_escaped(&mut body, v.breaker);
        body.push('}');
    }
    body.push_str("]}\n");
    Response::json(200, body)
}

/// The registry snapshot plus per-replica gauge lines
/// (`cluster.replica.N.healthy` and friends).
fn render_cluster_metrics(fleet: &Fleet) -> Response {
    let mut resp = router::render_metrics();
    for v in fleet.views() {
        let id = v.id;
        resp.body.push_str(&format!(
            "cluster.replica.{id}.healthy {}\n",
            u8::from(v.phase == "healthy")
        ));
        resp.body
            .push_str(&format!("cluster.replica.{id}.restarts_total {}\n", v.restarts_total));
        resp.body
            .push_str(&format!("cluster.replica.{id}.hedges_fired {}\n", v.hedges_fired));
        resp.body.push_str(&format!(
            "cluster.replica.{id}.failovers_total {}\n",
            v.failovers_total
        ));
        resp.body
            .push_str(&format!("cluster.replica.{id}.inflight {}\n", v.inflight));
    }
    resp
}

/// `POST /v1/reload` fanned out to every replica with a known address.
/// Partial failure is a `502` naming the stragglers — the fleet must not
/// silently serve two model generations forever.
fn broadcast_reload(inner: &ProxyInner) -> Response {
    let mut results: Vec<(u32, u16)> = Vec::new();
    for v in inner.fleet.views() {
        let Some(addr) = v.addr else {
            results.push((v.id, 0));
            continue;
        };
        let mut client = RetryClient::new(
            addr,
            Duration::from_millis(inner.cfg.backend_timeout_ms.max(1)),
            2,
            Duration::from_millis(50),
        );
        let status = client.post("/v1/reload", "").map_or(0, |r| r.status);
        results.push((v.id, status));
    }
    let all_ok = !results.is_empty() && results.iter().all(|&(_, s)| s == 200);
    let mut body = String::from("{\"reloaded\":");
    body.push_str(if all_ok { "true" } else { "false" });
    body.push_str(",\"replicas\":[");
    for (i, (id, status)) in results.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!("{{\"id\":{id},\"status\":{status}}}"));
    }
    body.push_str("]}\n");
    Response::json(if all_ok { 200 } else { 502 }, body)
}

// ---------------------------------------------------------------------
// Rolling rollout (registry deployments)
// ---------------------------------------------------------------------

/// A control-plane client for one replica (reload/rollback/healthz).
fn control_client(inner: &ProxyInner, addr: SocketAddr) -> RetryClient {
    RetryClient::new(
        addr,
        Duration::from_millis(inner.cfg.backend_timeout_ms.max(1)),
        2,
        Duration::from_millis(50),
    )
}

/// Extracts `rollout.state` and `rollout.last` from a replica `/healthz`
/// body. Returns `None` when the body has no rollout object (old replica
/// or parse failure).
fn parse_rollout_state(body: &str) -> Option<(String, String)> {
    let Ok(Value::Obj(members)) = json::parse(body) else {
        return None;
    };
    let rollout = members.iter().find(|(k, _)| k == "rollout")?;
    let Value::Obj(fields) = &rollout.1 else {
        return None;
    };
    let get = |key: &str| {
        fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_str())
            .map(str::to_string)
    };
    Some((get("state")?, get("last")?))
}

/// Polls one replica until its canary evaluation settles. `Ok` carries
/// the verdict (`promoted` / `rolled_back` / `none` — the last meaning
/// the replica restarted and lost the candidate). `Err` is a timeout.
fn wait_verdict(inner: &ProxyInner, addr: SocketAddr) -> Result<String, ()> {
    let deadline = Instant::now() + Duration::from_millis(inner.cfg.rollout_timeout_ms.max(1));
    let mut client = control_client(inner, addr);
    while Instant::now() < deadline {
        if let Ok(resp) = client.get("/healthz") {
            if let Some((state, last)) = parse_rollout_state(&resp.body) {
                if state == "idle" {
                    return Ok(last);
                }
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    Err(())
}

/// Rolls the whole fleet back onto the incumbent: quarantine the failed
/// version, tell every replica to drop any canary, then force an
/// immediate reload so replicas that already promoted in memory re-read
/// the (still-incumbent) `current.airm`.
fn roll_fleet_back(inner: &ProxyInner, version: u64, detail: &str) -> Response {
    metrics::CLUSTER_ROLLOUT_ROLLBACKS.inc();
    if let Some(reg) = &inner.registry {
        let mut reg = reg.lock().expect("registry poisoned");
        let _ = reg.quarantine(version);
    }
    for v in inner.fleet.views() {
        let Some(addr) = v.addr else { continue };
        let mut client = control_client(inner, addr);
        let _ = client.post("/v1/rollback", "");
        let _ = client.post("/v1/reload", "{\"immediate\":true}");
    }
    metrics::CLUSTER_ROLLOUT_REPLICAS_DONE.set(0.0);
    let mut body = String::from(
        "{\"reloaded\":false,\"rollout\":{\"rolled_back\":true,\"version\":",
    );
    body.push_str(&version.to_string());
    body.push_str(",\"detail\":");
    json::write_escaped(&mut body, detail);
    body.push_str("}}\n");
    Response::json(409, body)
}

/// `POST /v1/reload` on a registry deployment: a rolling, drain-aware,
/// canary-verified rollout — one replica at a time, fleet-wide rollback
/// on the first failure, registry promotion only after unanimity.
///
/// The optional body `{"path": "..."}` registers the named artifact as a
/// new version first (the curl-driven deploy path); otherwise the newest
/// unpromoted registry version is rolled out.
fn rolling_reload(request: &Request, inner: &ProxyInner) -> Response {
    let Some(registry) = &inner.registry else {
        // Legacy fan-out for registry-less clusters.
        return broadcast_reload(inner);
    };
    let Ok(_rollout) = inner.rollout_lock.try_lock() else {
        return Response::error(
            409,
            "rollout_in_progress",
            "a rolling rollout is already running",
        );
    };
    // Optional body: register a fresh artifact as the candidate version.
    let explicit_path = match parse_router_reload_body(&request.body) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    let (version, artifact) = {
        let mut reg = registry.lock().expect("registry poisoned");
        // Pick up versions `train --model-dir` registered out-of-process.
        if let Err(e) = reg.refresh() {
            return Response::error(500, "registry_error", &e.to_string());
        }
        let version = if let Some(path) = explicit_path {
            let bytes = match std::fs::read(&path) {
                Ok(b) => b,
                Err(e) => {
                    return Response::error(
                        400,
                        "bad_artifact",
                        &format!("{}: {e}", path.display()),
                    )
                }
            };
            match reg.add_version(&bytes) {
                Ok(v) => v,
                Err(e @ RegistryError::Quarantined { .. }) => {
                    return Response::error(409, "quarantined", &e.to_string())
                }
                Err(e) => return Response::error(500, "registry_error", &e.to_string()),
            }
        } else {
            match reg.latest_candidate() {
                Some(entry) => entry.version,
                None => {
                    return Response::error(
                        409,
                        "no_candidate",
                        "registry has no unquarantined version newer than active",
                    )
                }
            }
        };
        (version, reg.version_path(version))
    };
    metrics::CLUSTER_ROLLOUT_STARTED.inc();
    metrics::CLUSTER_ROLLOUT_REPLICAS_DONE.set(0.0);
    let mut reload_body = String::from("{\"path\":");
    json::write_escaped(&mut reload_body, &artifact.display().to_string());
    reload_body.push_str(&format!(",\"version\":{version}}}"));

    let replicas: Vec<(u32, SocketAddr)> = inner
        .fleet
        .views()
        .iter()
        .filter_map(|v| v.addr.map(|a| (v.id, a)))
        .collect();
    if replicas.is_empty() {
        return Response::error(503, "no_replicas", "no replica has a known address");
    }
    let mut done = 0usize;
    for &(id, addr) in &replicas {
        let mut client = control_client(inner, addr);
        match client.post("/v1/reload", &reload_body) {
            Ok(resp) if resp.status == 200 => {}
            Ok(resp) => {
                return roll_fleet_back(
                    inner,
                    version,
                    &format!("replica {id} rejected the candidate ({})", resp.status),
                )
            }
            Err(e) => {
                return roll_fleet_back(
                    inner,
                    version,
                    &format!("replica {id} unreachable for reload: {e}"),
                )
            }
        }
        match wait_verdict(inner, addr) {
            Ok(last) if last == "promoted" => {
                // Re-probe before advancing: the replica must still be
                // answering healthily on the new model.
                match client.get("/healthz") {
                    Ok(h) if h.status == 200 => {}
                    _ => {
                        return roll_fleet_back(
                            inner,
                            version,
                            &format!("replica {id} unhealthy after promote"),
                        )
                    }
                }
                metrics::CLUSTER_ROLLOUT_REPLICA_RELOADS.inc();
                done += 1;
                metrics::CLUSTER_ROLLOUT_REPLICAS_DONE.set(done as f64);
            }
            Ok(last) => {
                return roll_fleet_back(
                    inner,
                    version,
                    &format!("replica {id} canary verdict: {last}"),
                )
            }
            Err(()) => {
                return roll_fleet_back(
                    inner,
                    version,
                    &format!("replica {id} canary verdict timed out"),
                )
            }
        }
    }
    // Unanimous: promote on disk (current.airm + MANIFEST move together;
    // any replica restarting from here boots the new version).
    {
        let mut reg = registry.lock().expect("registry poisoned");
        if let Err(e) = reg.promote(version) {
            return roll_fleet_back(inner, version, &format!("registry promote failed: {e}"));
        }
    }
    *inner.last_promoted.lock().expect("last_promoted poisoned") = Some(version);
    metrics::CLUSTER_ROLLOUT_PROMOTED.inc();
    let mut body = String::from("{\"reloaded\":true,\"rollout\":{\"rolled_back\":false,\"version\":");
    body.push_str(&version.to_string());
    body.push_str(",\"replicas\":");
    body.push_str(&done.to_string());
    body.push_str("}}\n");
    Response::json(200, body)
}

/// Fleet-wide `POST /v1/rollback`: quarantines the last rollout-promoted
/// version (restoring `current.airm` to its predecessor) and forces every
/// replica back onto it. Idempotent — with nothing promoted it reports
/// `false`.
fn fleet_rollback(inner: &ProxyInner) -> Response {
    let Some(registry) = &inner.registry else {
        return Response::error(
            409,
            "no_registry",
            "rollback requires a registry (--model-dir) deployment",
        );
    };
    let Ok(_rollout) = inner.rollout_lock.try_lock() else {
        return Response::error(
            409,
            "rollout_in_progress",
            "a rolling rollout is already running",
        );
    };
    let reverted = inner
        .last_promoted
        .lock()
        .expect("last_promoted poisoned")
        .take();
    let Some(version) = reverted else {
        return Response::json(
            200,
            "{\"rolled_back\":false,\"detail\":\"nothing_to_roll_back\"}\n".into(),
        );
    };
    {
        let mut reg = registry.lock().expect("registry poisoned");
        if let Err(e) = reg.quarantine(version) {
            return Response::error(500, "registry_error", &e.to_string());
        }
    }
    metrics::CLUSTER_ROLLOUT_ROLLBACKS.inc();
    let mut failures = 0usize;
    for v in inner.fleet.views() {
        let Some(addr) = v.addr else { continue };
        let mut client = control_client(inner, addr);
        let ok = client
            .post("/v1/reload", "{\"immediate\":true}")
            .map(|r| r.status == 200)
            .unwrap_or(false);
        if !ok {
            failures += 1;
        }
    }
    let mut body = String::from("{\"rolled_back\":true,\"version\":");
    body.push_str(&version.to_string());
    body.push_str(",\"replica_failures\":");
    body.push_str(&failures.to_string());
    body.push_str("}\n");
    Response::json(if failures == 0 { 200 } else { 502 }, body)
}

/// Parses the router's `/v1/reload` body: optional `{"path": "..."}`.
fn parse_router_reload_body(body: &[u8]) -> Result<Option<std::path::PathBuf>, Response> {
    if body.iter().all(u8::is_ascii_whitespace) {
        return Ok(None);
    }
    let bad = |code: &str, msg: &str| Response::error(400, code, msg);
    let text = std::str::from_utf8(body)
        .map_err(|_| bad("bad_encoding", "request body is not UTF-8"))?;
    let members = match json::parse(text) {
        Ok(Value::Obj(members)) => members,
        Ok(_) => return Err(bad("bad_request", "request body must be a JSON object")),
        Err(e) => return Err(bad("bad_json", &format!("malformed JSON: {e}"))),
    };
    let mut path = None;
    for (key, value) in &members {
        match key.as_str() {
            "path" => {
                let s = value
                    .as_str()
                    .ok_or_else(|| bad("bad_field", "`path` must be a string"))?;
                path = Some(std::path::PathBuf::from(s));
            }
            other => {
                return Err(bad(
                    "unknown_field",
                    &format!("unknown field `{other}` (allowed: path)"),
                ))
            }
        }
    }
    Ok(path)
}

// ---------------------------------------------------------------------
// Recommend forwarding: failover + hedging
// ---------------------------------------------------------------------

/// Everything a forwarding thread needs to (re)issue the request.
#[derive(Clone)]
struct ForwardReq {
    path: String,
    body: String,
    deadline_ms: Option<u64>,
}

fn forward_recommend(
    case: CaseStudy,
    request: &Request,
    inner: &ProxyInner,
    pool: &mut HashMap<u32, BackendConn>,
) -> Response {
    metrics::CLUSTER_PROXY_REQUESTS.inc();
    // Validate locally: bad requests are answered here and never spend a
    // replica's time; the canonical cache key doubles as the ring key,
    // giving each replica's response cache a stable shard of the space.
    let parsed = match router::parse_recommend(case, &request.body) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    let candidates = inner.fleet.ordered(&parsed.cache_key, inner.fleet.total());
    if candidates.is_empty() {
        let mut resp = Response::error(
            503,
            "no_healthy_replicas",
            "no replica is currently admitted to the ring",
        );
        resp.retry_after = Some(1);
        return resp;
    }
    let req = ForwardReq {
        path: request.path.clone(),
        body: String::from_utf8_lossy(&request.body).into_owned(),
        deadline_ms: request.deadline_ms,
    };
    let budget = Duration::from_millis(inner.cfg.backend_timeout_ms.max(1));
    let started = Instant::now();
    let mut last_response: Option<Response> = None;

    for (i, &id) in candidates.iter().enumerate() {
        if i > 0 {
            metrics::CLUSTER_FAILOVERS.inc();
        }
        let Some(slot) = inner.fleet.slot(id) else { continue };
        // In-flight cap first (no breaker state is consumed by a skip)...
        if slot.inflight.fetch_add(1, Ordering::AcqRel) >= inner.cfg.max_inflight {
            slot.inflight.fetch_sub(1, Ordering::AcqRel);
            slot.failovers_total.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        // ...then the outbound breaker (an admitted half-open probe is
        // always followed by a `record`).
        if slot.breaker.try_acquire() == Admit::No {
            slot.inflight.fetch_sub(1, Ordering::AcqRel);
            slot.failovers_total.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        let Some(addr) = inner.fleet.replica_addr(id) else {
            slot.breaker.record(false);
            slot.inflight.fetch_sub(1, Ordering::AcqRel);
            continue;
        };
        // Hedge only on the primary attempt; later attempts already are
        // the hedge's failover cousins.
        let hedge = if i == 0 {
            hedge_delay(&inner.cfg, &inner.latency).and_then(|delay| {
                let target = candidates.get(1).copied()?;
                let target_slot = inner.fleet.slot(target)?;
                let target_addr = inner.fleet.replica_addr(target)?;
                Some((delay, target, target_addr, Arc::clone(target_slot)))
            })
        } else {
            None
        };
        let result = attempt_replica(pool, id, addr, slot, &req, hedge, budget);
        slot.inflight.fetch_sub(1, Ordering::AcqRel);
        match result {
            Ok((raw, from)) => {
                let backend_ok = raw.status < 500;
                // The breaker grades the *attempt*: a hedge win still
                // means this route produced an answer in budget.
                slot.breaker.record(backend_ok);
                if backend_ok {
                    let us = started.elapsed().as_micros() as u64;
                    metrics::CLUSTER_BACKEND_US.record(us);
                    inner.latency.record(us);
                    return proxied_response(&raw, from);
                }
                slot.failovers_total.fetch_add(1, Ordering::Relaxed);
                last_response = Some(proxied_response(&raw, from));
            }
            Err(_) => {
                slot.breaker.record(false);
                slot.failovers_total.fetch_add(1, Ordering::Relaxed);
                pool.remove(&id);
            }
        }
    }
    last_response.unwrap_or_else(|| {
        let mut resp = Response::error(
            502,
            "all_replicas_failed",
            "every healthy replica failed or timed out for this request",
        );
        resp.retry_after = Some(1);
        resp
    })
}

type HedgePlan = (Duration, u32, SocketAddr, Arc<ReplicaSlot>);

/// One routed attempt: send on a pooled (or fresh) connection, wait up
/// to the hedge delay, and race a duplicate if the primary is slow.
fn attempt_replica(
    pool: &mut HashMap<u32, BackendConn>,
    id: u32,
    addr: SocketAddr,
    slot: &Arc<ReplicaSlot>,
    req: &ForwardReq,
    hedge: Option<HedgePlan>,
    budget: Duration,
) -> std::io::Result<(RawResponse, u32)> {
    // Simulated backend read failure (chaos only): exercises failover.
    airchitect_chaos::fail_point!("cluster.proxy.read", Err);
    let deadline = Instant::now() + budget;
    let mut conn = match pool.remove(&id) {
        Some(c) => c,
        None => BackendConn::connect(addr, budget)?,
    };
    conn.send("POST", &req.path, &req.body, req.deadline_ms)?;
    let first_wait = hedge
        .as_ref()
        .map_or(budget, |(delay, ..)| (*delay).min(budget));
    match conn.read_step(first_wait)? {
        ReadStep::Ready(raw) => {
            pool.insert(id, conn);
            Ok((raw, id))
        }
        ReadStep::Pending => {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let Some((_, target_id, target_addr, target_slot)) = hedge else {
                // No hedge available: keep waiting out the budget on the
                // same connection.
                return match conn.read_step(remaining)? {
                    ReadStep::Ready(raw) => {
                        pool.insert(id, conn);
                        Ok((raw, id))
                    }
                    ReadStep::Pending => Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "replica exceeded the backend budget",
                    )),
                };
            };
            metrics::CLUSTER_HEDGES_FIRED.inc();
            slot.hedges_fired.fetch_add(1, Ordering::Relaxed);
            race_hedge(conn, id, target_id, target_addr, target_slot, req, remaining)
        }
    }
}

/// First answer wins: the slow primary keeps reading on one thread while
/// a duplicate runs against `target` on another. Loser connections are
/// dropped, not pooled — hedges are tail-rare by construction.
fn race_hedge(
    mut primary: BackendConn,
    primary_id: u32,
    target_id: u32,
    target_addr: SocketAddr,
    target_slot: Arc<ReplicaSlot>,
    req: &ForwardReq,
    remaining: Duration,
) -> std::io::Result<(RawResponse, u32)> {
    let deadline = Instant::now() + remaining;
    let (tx, rx) = mpsc::channel::<(u32, std::io::Result<RawResponse>)>();
    {
        let tx = tx.clone();
        let _ = std::thread::Builder::new()
            .name("hedge-primary".into())
            .spawn(move || {
                let result = primary.read_step(remaining).and_then(|step| match step {
                    ReadStep::Ready(raw) => Ok(raw),
                    ReadStep::Pending => Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "primary exceeded the backend budget",
                    )),
                });
                let _ = tx.send((primary_id, result));
            });
    }
    {
        let req = req.clone();
        let _ = std::thread::Builder::new()
            .name("hedge-duplicate".into())
            .spawn(move || {
                target_slot.inflight.fetch_add(1, Ordering::AcqRel);
                let result = BackendConn::connect(target_addr, remaining)
                    .and_then(|mut c| {
                        c.send("POST", &req.path, &req.body, req.deadline_ms)?;
                        Ok(c)
                    })
                    .and_then(|mut c| match c.read_step(remaining)? {
                        ReadStep::Ready(raw) => Ok(raw),
                        ReadStep::Pending => Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            "hedge exceeded the backend budget",
                        )),
                    });
                target_slot.breaker.record(
                    result.as_ref().map(|r| r.status < 500).unwrap_or(false),
                );
                target_slot.inflight.fetch_sub(1, Ordering::AcqRel);
                let _ = tx.send((target_id, result));
            });
    }
    let mut first_err: Option<std::io::Error> = None;
    loop {
        let wait = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(wait.max(Duration::from_millis(1))) {
            Ok((id, Ok(raw))) => {
                if id != primary_id {
                    metrics::CLUSTER_HEDGE_WINS.inc();
                }
                return Ok((raw, id));
            }
            Ok((_, Err(e))) => match first_err.take() {
                // Both legs failed: surface the first error.
                Some(first) => return Err(first),
                None => first_err = Some(e),
            },
            Err(_) => {
                return Err(first_err.unwrap_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "hedged request pair exceeded the backend budget",
                    )
                }))
            }
        }
    }
}

/// Rebuilds a backend answer as a client response, annotated with the
/// replica that produced it.
fn proxied_response(raw: &RawResponse, from: u32) -> Response {
    let mut resp = if raw.content_type.starts_with("text/plain") {
        Response::text(raw.status, raw.body.clone())
    } else {
        Response::json(raw.status, raw.body.clone())
    };
    resp.retry_after = raw.retry_after;
    resp.warning = raw.warning.clone();
    resp.extra.push(("X-Replica".into(), from.to_string()));
    resp
}

// ---------------------------------------------------------------------
// Cluster orchestration
// ---------------------------------------------------------------------

/// A running cluster: the supervisor (children + probes) plus the bound
/// router. [`Cluster::run`] blocks until shutdown; tests and the bench
/// drive it from a thread via [`Cluster::fleet`] and the HTTP API.
pub struct Cluster {
    supervisor: Option<Supervisor>,
    router: Option<Router>,
    fleet: Arc<Fleet>,
    addr: SocketAddr,
}

impl Cluster {
    /// Builds the replica argv for the standard case: re-invoke `program`
    /// (usually `current_exe`) with `serve` and the flags of `config`,
    /// letting the supervisor append `--port 0`.
    #[must_use]
    pub fn replica_argv(program: &str, config: &ServeConfig) -> Vec<String> {
        let mut argv = vec![
            program.to_string(),
            "serve".into(),
            "--host".into(),
            "127.0.0.1".into(),
            "--model".into(),
            config
                .model_paths
                .iter()
                .map(|p| p.display().to_string())
                .collect::<Vec<_>>()
                .join(","),
        ];
        for (flag, value) in [
            ("--workers", config.workers as u64),
            ("--queue-depth", config.queue_depth as u64),
            ("--batch-max", config.batch_max as u64),
            ("--cache-cap", config.cache_capacity as u64),
            ("--read-timeout-secs", config.read_timeout_secs),
            ("--write-timeout-secs", config.write_timeout_secs),
            ("--deadline-ms", config.deadline_ms),
            ("--breaker-threshold", u64::from(config.breaker_threshold)),
            ("--breaker-cooldown-ms", config.breaker_cooldown_ms),
            ("--event-loops", config.event_loops as u64),
        ] {
            argv.push(flag.into());
            argv.push(value.to_string());
        }
        if config.fallback_search {
            argv.push("--fallback".into());
            argv.push("search".into());
        }
        if !config.single_query_bypass {
            argv.push("--no-bypass".into());
        }
        if config.nodelay {
            argv.push("--nodelay".into());
        }
        if config.shadow_rate > 0.0 {
            argv.push("--shadow-oracle".into());
            argv.push(config.shadow_rate.to_string());
            if let Some(dir) = &config.shadow_dir {
                argv.push("--shadow-log-dir".into());
                argv.push(dir.display().to_string());
            }
            argv.push("--shadow-queue-depth".into());
            argv.push(config.shadow_queue_depth.to_string());
            argv.push("--shadow-threads".into());
            argv.push(config.shadow_threads.to_string());
        }
        // Canary thresholds ride along so the rolling rollout can drive
        // each replica's evaluation. `--model-dir` deliberately does NOT:
        // replicas serve the registry's `current.airm` by path, while the
        // router alone owns the MANIFEST.
        if config.canary_split > 0.0 {
            argv.push("--canary-split".into());
            argv.push(config.canary_split.to_string());
            argv.push("--canary-min-samples".into());
            argv.push(config.canary_min_samples.to_string());
            argv.push("--canary-min-agreement".into());
            argv.push(config.canary_min_agreement.to_string());
            argv.push("--canary-max-p99-ratio".into());
            argv.push(config.canary_max_p99_ratio.to_string());
        }
        argv
    }

    /// Spawns the fleet and binds the router.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] for bad configuration, spawn failures, or
    /// bind failures.
    pub fn start(cfg: ClusterConfig) -> Result<Self, ServeError> {
        airchitect_telemetry::enable();
        let (supervisor, fleet) = Supervisor::start(cfg.clone())?;
        let router = Router::bind(&cfg, Arc::clone(&fleet))?;
        Ok(Self {
            addr: router.local_addr(),
            supervisor: Some(supervisor),
            router: Some(router),
            fleet,
        })
    }

    /// The router's bound address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared fleet state (kill hooks, health polling).
    #[must_use]
    pub fn fleet(&self) -> Arc<Fleet> {
        Arc::clone(&self.fleet)
    }

    /// Polls until at least `want` replicas are on the ring. Returns
    /// whether the quorum arrived within `timeout`.
    #[must_use]
    pub fn wait_healthy(&self, want: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if self.fleet.healthy() >= want {
                return true;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        self.fleet.healthy() >= want
    }

    /// Serves until `POST /v1/shutdown`, then drains the children.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] for router accept-loop failures (the
    /// children are still drained first).
    pub fn run(mut self) -> Result<(), ServeError> {
        let router = self.router.take().expect("router consumed twice");
        let result = router.run();
        if let Some(supervisor) = self.supervisor.take() {
            supervisor.shutdown();
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::Ring;

    #[test]
    fn parse_response_handles_split_arrival() {
        let full = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 4\r\nRetry-After: 2\r\n\r\n{\"a\"";
        for split in 0..full.len() {
            let mut buf = full[..split].to_vec();
            assert!(
                try_parse_response(&mut buf).unwrap().is_none(),
                "split {split} parsed early"
            );
            buf.extend_from_slice(&full[split..]);
            let resp = try_parse_response(&mut buf).unwrap().expect("complete");
            assert_eq!(resp.status, 200);
            assert_eq!(resp.body, "{\"a\"");
            assert_eq!(resp.retry_after, Some(2));
            assert!(buf.is_empty(), "buffer not drained");
        }
    }

    #[test]
    fn parse_response_rejects_garbage() {
        let mut buf = b"NOT-HTTP\r\n\r\n".to_vec();
        assert!(try_parse_response(&mut buf).is_err());
        let mut buf = b"HTTP/1.1 200 OK\r\n\r\n".to_vec();
        assert!(try_parse_response(&mut buf).is_err(), "missing Content-Length");
    }

    #[test]
    fn latency_estimator_warms_up_then_tracks_p99() {
        let est = LatencyEstimator::new();
        assert_eq!(est.p99_us(), None);
        for _ in 0..LATENCY_WARMUP {
            est.record(1000);
        }
        assert_eq!(est.p99_us(), Some(1000));
        // A tail of slow samples drags the p99 up once recomputed.
        for _ in 0..LATENCY_WARMUP {
            est.record(50_000);
        }
        assert_eq!(est.p99_us(), Some(50_000));
    }

    #[test]
    fn hedge_delay_prefers_fixed_config() {
        let cfg = ClusterConfig {
            hedge_ms: 7,
            ..ClusterConfig::default()
        };
        let est = LatencyEstimator::new();
        assert_eq!(hedge_delay(&cfg, &est), Some(Duration::from_millis(7)));
        let auto = ClusterConfig::default();
        assert_eq!(hedge_delay(&auto, &est), None, "cold estimator: no hedging");
        for _ in 0..LATENCY_WARMUP {
            est.record(100); // 100us, below the 1ms clamp floor
        }
        assert_eq!(hedge_delay(&auto, &est), Some(Duration::from_millis(1)));
    }

    #[test]
    fn replica_argv_round_trips_serve_flags() {
        let config = ServeConfig {
            model_paths: vec!["/tmp/m.airm".into()],
            cache_capacity: 0,
            fallback_search: true,
            ..ServeConfig::default()
        };
        let argv = Cluster::replica_argv("airchitect", &config);
        assert_eq!(argv[0], "airchitect");
        assert_eq!(argv[1], "serve");
        assert!(argv.contains(&"--model".to_string()));
        assert!(argv.contains(&"--cache-cap".to_string()));
        assert!(argv.contains(&"--fallback".to_string()));
        assert!(argv.contains(&"search".to_string()));
        assert_eq!(
            argv.iter().filter(|a| *a == "--model").count(),
            1,
            "the CLI rejects duplicate keys; model paths must be comma-joined"
        );
        assert!(
            !argv.contains(&"--port".to_string()),
            "the supervisor appends --port itself"
        );
    }

    #[test]
    fn ring_key_is_the_parsed_cache_key() {
        // Routing must be body-layout independent, exactly like caching.
        let a = router::parse_recommend(
            airchitect::model::CaseStudy::ArrayDataflow,
            br#"{"m":64,"n":32,"k":16}"#,
        )
        .unwrap();
        let b = router::parse_recommend(
            airchitect::model::CaseStudy::ArrayDataflow,
            br#"{ "k": 16, "n": 32, "m": 64 }"#,
        )
        .unwrap();
        let mut ring = Ring::new(64);
        for id in 0..3 {
            ring.add(id);
        }
        assert_eq!(ring.primary(&a.cache_key), ring.primary(&b.cache_key));
    }
}
