//! The cluster router: consistent-hashes recommendation requests across
//! healthy replicas, and absorbs replica failure so clients never see it.
//!
//! The router is served by the same event-loop shards as a replica
//! (`crate::evented`), with [`ProxyInner`] as their [`Handler`]. Work that
//! waits on a replica runs off the loop and answers through the shard's
//! completion queue, so the shard never blocks: forwarded recommends on
//! `max_inflight` forwarding threads per replica (an [`OffLoop`]), each
//! keeping its own keep-alive connection per replica; reloads, rollouts
//! and rollbacks on one control thread, as on a replica.
//!
//! Per request the router walks the ring's failover order:
//!
//! 1. **Selection** — the canonical cache key from
//!    [`router::parse_recommend`] is hashed onto the ring; malformed
//!    bodies are answered `400` on the shard and never consume fleet
//!    capacity.
//! 2. **Admission** — a full forwarding queue answers `429` with
//!    `Retry-After`; a replica holding its `max_inflight` requests (its
//!    share of the forwarding threads) is skipped (a spill, counted in
//!    `cluster.spills`), so a stalled replica holds only its share. When
//!    every replica left is at its cap, the request waits for one of them
//!    to finish a request, within the backend budget.
//! 3. **Failover** — an open outbound breaker, a transport error, a 5xx,
//!    or no answer within the backend budget moves to the next distinct
//!    replica (a failover, counted in `cluster.failovers`); a delivered
//!    non-5xx answer is returned as-is with an `X-Replica` header naming
//!    the replica that produced it.
//!
//! `/healthz`, `/metrics` and `/v1/shutdown` are answered on the shard,
//! with fleet-level aggregation; `/v1/shutdown` drains the router, then
//! the supervisor drains the children.
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
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use airchitect_telemetry::json::{self, Value};
use airchitect_telemetry::metrics;

use crate::batch::{OffLoop, Outcome, Reply};
use crate::breaker::Admit;
use crate::client::{ClientResponse, HttpClient, RetryClient};
use crate::http::{self, Request, Response};
use crate::listener::evented::{bind_shards, run_shards, ShardSeed};
use crate::listener::{
    initiate_shutdown, off_loop, render_metrics_response, Front, Handler, Step, CONTROL_QUEUE_DEPTH,
};
use crate::registry::{Registry, RegistryError, DEFAULT_RETAIN};
use crate::router::{self, Route};
use crate::supervisor::{fleet_status, ClusterConfig, Fleet, ReplicaSlot, Supervisor};
use crate::{ServeConfig, ServeError};

/// Hard cap on a proxied response (head + body) the router will buffer:
/// a replica is another process.
const MAX_PROXIED_BYTES: usize = http::MAX_BODY_BYTES + 64 * 1024;

/// The largest `max_inflight`: each in-flight place is a forwarding
/// thread.
const MAX_INFLIGHT: u64 = 256;

/// Forwards the queue holds per replica before answering `429`: as many as
/// a replica's own default batch queue (`--queue-depth`).
const QUEUED_PER_REPLICA: usize = 256;

/// One forwarding thread's keep-alive replica connections, by replica
/// id, each with the address it was opened to (a restarted replica
/// listens on a new port).
type Backends = HashMap<u32, (SocketAddr, HttpClient)>;

/// The router's state, shared by its shards and its off-loop threads.
struct ProxyInner {
    front: Front,
    fleet: Arc<Fleet>,
    cfg: ClusterConfig,
    /// Forwarded recommends: `max_inflight` threads per replica.
    forward: Arc<OffLoop<Backends>>,
    /// Where a forward waits while every replica it may use is at its cap.
    room: Room,
    /// The control thread: reloads, rollouts and rollbacks, one at a time.
    control: Arc<OffLoop<()>>,
    /// The shared model registry (`--model-dir` deployments only).
    registry: Option<Mutex<Registry>>,
    /// Set while a registry rollout or rollback is queued or running: a
    /// second one answers `409` instead of interleaving canaries.
    rollout_busy: AtomicBool,
    /// The last version a rolling rollout promoted — the fleet-wide
    /// `/v1/rollback` target.
    last_promoted: Mutex<Option<u64>>,
}

impl Handler for ProxyInner {
    fn front(&self) -> &Front {
        &self.front
    }

    fn step(this: &Arc<Self>, request: &Request, make_reply: &mut dyn FnMut() -> Reply) -> Step {
        let route = match router::route(&request.method, &request.path) {
            Ok(r) => r,
            Err(resp) => return Step::Respond(resp),
        };
        match route {
            Route::Healthz => Step::Respond(render_fleet_healthz(&this.fleet)),
            Route::Metrics => Step::Respond(render_cluster_metrics(this)),
            Route::Shutdown => {
                initiate_shutdown(&this.front);
                Step::Respond(Response::json(200, "{\"shutting_down\":true}\n".into()))
            }
            Route::Reload | Route::Rollback => control_step(this, &route, request, make_reply),
            Route::Recommend(case) => {
                if this.front.shutdown.load(Ordering::Acquire) {
                    let mut resp = Response::error(503, "draining", "router is shutting down");
                    resp.retry_after = Some(1);
                    return Step::Respond(resp);
                }
                metrics::CLUSTER_PROXY_REQUESTS.inc();
                // Validate on the shard: bad requests are answered here and
                // never spend a replica's time; the canonical cache key
                // doubles as the ring key, giving each replica's response
                // cache a stable shard of the space.
                let parsed = match router::parse_recommend(case, &request.body) {
                    Ok(p) => p,
                    Err(resp) => return Step::Respond(resp),
                };
                let req = ForwardReq {
                    key: parsed.cache_key,
                    path: request.path.clone(),
                    body: String::from_utf8_lossy(&request.body).into_owned(),
                    deadline_ms: request.deadline_ms,
                };
                let inner = Arc::clone(this);
                off_loop(&this.forward, make_reply, move |backends| {
                    forward_recommend(&inner, backends, &req)
                })
            }
        }
    }

    fn frame(&self, _: Outcome, _: Instant, _: Vec<u8>) -> Response {
        unreachable!("the router's off-loop steps deliver responses, never outcomes")
    }
}

/// Queues a reload or rollback on the control thread. With a registry it
/// is a rollout or a fleet rollback, and only one runs at a time: another
/// arriving meanwhile answers `409` on the shard.
fn control_step(
    this: &Arc<ProxyInner>,
    route: &Route,
    request: &Request,
    make_reply: &mut dyn FnMut() -> Reply,
) -> Step {
    let exclusive = this.registry.is_some();
    if exclusive && this.rollout_busy.swap(true, Ordering::AcqRel) {
        return Step::Respond(Response::error(
            409,
            "rollout_in_progress",
            "a rolling rollout is already running",
        ));
    }
    let (inner, body) = (Arc::clone(this), request.body.clone());
    let reload = matches!(route, Route::Reload);
    let step = off_loop(&this.control, make_reply, move |()| {
        // Cleared however the step ends, a panic included.
        let _done = exclusive.then(|| Release(&inner.rollout_busy));
        if reload {
            rolling_reload(&body, &inner)
        } else {
            fleet_rollback(&inner)
        }
    });
    if exclusive && matches!(step, Step::Respond(_)) {
        this.rollout_busy.store(false, Ordering::Release);
    }
    step
}

/// Clears a flag when dropped.
struct Release<'a>(&'a AtomicBool);

impl Drop for Release<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
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

/// The registry snapshot and the listener's connection lines, plus
/// per-replica gauge lines (`cluster.replica.N.healthy` and friends).
fn render_cluster_metrics(inner: &ProxyInner) -> Response {
    let mut resp = render_metrics_response(&inner.front);
    for v in inner.fleet.views() {
        let id = v.id;
        resp.body.push_str(&format!(
            "cluster.replica.{id}.healthy {}\n",
            u8::from(v.phase == "healthy")
        ));
        resp.body
            .push_str(&format!("cluster.replica.{id}.restarts_total {}\n", v.restarts_total));
        resp.body.push_str(&format!(
            "cluster.replica.{id}.failovers_total {}\n",
            v.failovers_total
        ));
        resp.body.push_str(&format!(
            "cluster.replica.{id}.spills_total {}\n",
            v.spills_total
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
fn rolling_reload(body: &[u8], inner: &ProxyInner) -> Response {
    let Some(registry) = &inner.registry else {
        // Legacy fan-out for registry-less clusters.
        return broadcast_reload(inner);
    };
    // Optional body: register a fresh artifact as the candidate version.
    let explicit_path = match parse_router_reload_body(body) {
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
// Recommend forwarding: failover
// ---------------------------------------------------------------------

/// Everything a forwarding thread needs to issue the request.
struct ForwardReq {
    /// The ring key (the parsed request's cache key).
    key: Vec<u8>,
    path: String,
    body: String,
    deadline_ms: Option<u64>,
}

fn forward_recommend(inner: &ProxyInner, backends: &mut Backends, req: &ForwardReq) -> Response {
    let mut candidates = inner.fleet.ordered(&req.key, inner.fleet.total());
    if candidates.is_empty() {
        let mut resp = Response::error(
            503,
            "no_healthy_replicas",
            "no replica is currently admitted to the ring",
        );
        resp.retry_after = Some(1);
        return resp;
    }
    let cap = inner.cfg.max_inflight;
    let budget = Duration::from_millis(inner.cfg.backend_timeout_ms.max(1));
    let started = Instant::now();
    let mut last_response: Option<Response> = None;

    // A replica skipped for its cap again after a wait is not counted
    // again as a spill.
    let mut first_walk = true;
    loop {
        // Replicas skipped because they hold their cap of requests.
        let mut full = Vec::new();
        for &id in &candidates {
            let Some(slot) = inner.fleet.slot(id) else { continue };
            // In-flight cap first (no breaker state is consumed by a skip):
            // load spilling to the next replica, not a failure...
            if !Room::enter(slot, cap) {
                if first_walk {
                    metrics::CLUSTER_SPILLS.inc();
                    slot.spills_total.fetch_add(1, Ordering::Relaxed);
                }
                full.push(id);
                continue;
            }
            // ...then the outbound breaker (an admitted half-open probe is
            // always followed by a `record`).
            if slot.breaker.try_acquire() == Admit::No {
                inner.room.leave(slot);
                failed_over(slot);
                continue;
            }
            let Some(addr) = inner.fleet.replica_addr(id) else {
                slot.breaker.record(false);
                inner.room.leave(slot);
                failed_over(slot);
                continue;
            };
            let result = attempt_replica(backends, id, addr, req, budget);
            inner.room.leave(slot);
            match result {
                Ok(answer) => {
                    let backend_ok = answer.status < 500;
                    slot.breaker.record(backend_ok);
                    if backend_ok {
                        metrics::CLUSTER_BACKEND_US.record(started.elapsed().as_micros() as u64);
                        return proxied_response(answer, id);
                    }
                    failed_over(slot);
                    last_response = Some(proxied_response(answer, id));
                }
                Err(_) => {
                    slot.breaker.record(false);
                    failed_over(slot);
                }
            }
        }
        // Those busy replicas are the ones left: wait for one of them to
        // finish a request rather than refuse this one.
        let until = started + budget;
        if full.is_empty() || Instant::now() >= until {
            break;
        }
        inner.room.wait(&inner.fleet, &full, cap, until);
        candidates = full;
        first_walk = false;
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

/// Counts a request leaving `slot` because the replica failed it: an open
/// outbound breaker, no address, a transport error or timeout, or a 5xx.
fn failed_over(slot: &ReplicaSlot) {
    metrics::CLUSTER_FAILOVERS.inc();
    slot.failovers_total.fetch_add(1, Ordering::Relaxed);
}

/// The replicas' in-flight places: each replica takes at most `cap` of
/// the router's requests at a time, and a forwarding thread that finds
/// every replica it may use full sleeps here until one gives a place back.
#[derive(Default)]
struct Room {
    lock: Mutex<()>,
    freed: Condvar,
    /// Threads inside [`Room::wait`].
    waiting: AtomicUsize,
}

impl Room {
    /// Takes one of `slot`'s `cap` places, if one is free.
    fn enter(slot: &ReplicaSlot, cap: u64) -> bool {
        slot.inflight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < cap).then_some(n + 1)
            })
            .is_ok()
    }

    /// Gives back a place [`Room::enter`] took, waking any waiter.
    fn leave(&self, slot: &ReplicaSlot) {
        slot.inflight.fetch_sub(1, Ordering::SeqCst);
        if self.waiting.load(Ordering::SeqCst) > 0 {
            let _guard = self.lock.lock().expect("room lock poisoned");
            self.freed.notify_all();
        }
    }

    /// Sleeps until one of `ids` may have a free place, or `until`.
    fn wait(&self, fleet: &Fleet, ids: &[u32], cap: u64, until: Instant) {
        let guard = self.lock.lock().expect("room lock poisoned");
        self.waiting.fetch_add(1, Ordering::SeqCst);
        // Looked at after announcing the wait: a `leave` either shows here
        // or sees the waiter and notifies under the lock.
        let full = ids
            .iter()
            .filter_map(|&id| fleet.slot(id))
            .all(|s| s.inflight.load(Ordering::SeqCst) >= cap);
        if full {
            let timeout = until.saturating_duration_since(Instant::now());
            drop(self.freed.wait_timeout(guard, timeout));
        } else {
            drop(guard);
        }
        self.waiting.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One routed attempt on this thread's connection to replica `id`
/// (opened afresh when missing or opened to an older address). A failed
/// connection is dropped, not pooled.
fn attempt_replica(
    backends: &mut Backends,
    id: u32,
    addr: SocketAddr,
    req: &ForwardReq,
    budget: Duration,
) -> std::io::Result<ClientResponse> {
    // Simulated backend read failure (chaos only): exercises failover.
    airchitect_chaos::fail_point!("cluster.proxy.read", Err);
    let mut client = match backends.remove(&id) {
        Some((at, client)) if at == addr => client,
        _ => HttpClient::connect(addr, budget)?,
    };
    let answer = client.forward(&req.path, &req.body, req.deadline_ms, MAX_PROXIED_BYTES)?;
    backends.insert(id, (addr, client));
    Ok(answer)
}

/// Rebuilds a replica's answer as a client response, annotated with the
/// replica that produced it.
fn proxied_response(answer: ClientResponse, from: u32) -> Response {
    let mut resp = Response::json(answer.status, answer.body);
    resp.retry_after = answer.retry_after;
    resp.warning = answer.warning;
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
    supervisor: Supervisor,
    inner: Arc<ProxyInner>,
    shards: Vec<ShardSeed>,
    addr: SocketAddr,
}

impl Cluster {
    /// Builds the replica argv for the standard case: re-invoke `program`
    /// (usually `current_exe`) with `serve` and the flags of `config`,
    /// letting the supervisor append `--port 0`. Replicas keep `serve`'s
    /// defaults for everything else, `TCP_NODELAY` included.
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
        if config.shadow_rate > 0.0 {
            argv.push("--shadow-oracle".into());
            argv.push(config.shadow_rate.to_string());
            if let Some(dir) = &config.shadow_dir {
                argv.push("--shadow-log-dir".into());
                argv.push(dir.display().to_string());
            }
        }
        // The scoring pool serves the oracle and the canary alike.
        if config.shadow_rate > 0.0 || config.canary_split > 0.0 {
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

    /// Binds the router, then spawns the fleet.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] for bad configuration, spawn failures, or
    /// bind failures. Off Linux it is the configuration error
    /// [`Server::bind`](crate::Server::bind) gives, before any replica
    /// spawns.
    pub fn start(cfg: ClusterConfig) -> Result<Self, ServeError> {
        if !(1..=MAX_INFLIGHT).contains(&cfg.max_inflight) {
            return Err(ServeError::Config(format!(
                "--max-inflight must be in 1..={MAX_INFLIGHT}, got {}",
                cfg.max_inflight
            )));
        }
        airchitect_telemetry::enable();
        let shards = bind_shards(&cfg.addr, 0)?;
        let registry = match &cfg.model_dir {
            Some(dir) => Some(Mutex::new(
                Registry::open(dir, DEFAULT_RETAIN)
                    .map_err(|e| ServeError::Config(format!("--model-dir: {e}")))?,
            )),
            None => None,
        };
        let (supervisor, fleet) = Supervisor::start(cfg.clone())?;
        Ok(Self {
            addr: shards[0].addr,
            supervisor,
            inner: Arc::new(ProxyInner {
                front: Front::new(&shards, cfg.read_timeout_secs, cfg.write_timeout_secs, true),
                fleet,
                forward: OffLoop::new(QUEUED_PER_REPLICA * cfg.replicas),
                room: Room::default(),
                control: OffLoop::new(CONTROL_QUEUE_DEPTH),
                cfg,
                registry,
                rollout_busy: AtomicBool::new(false),
                last_promoted: Mutex::new(None),
            }),
            shards,
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
        Arc::clone(&self.inner.fleet)
    }

    /// Polls until at least `want` replicas are on the ring. Returns
    /// whether the quorum arrived within `timeout`.
    #[must_use]
    pub fn wait_healthy(&self, want: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if self.inner.fleet.healthy() >= want {
                return true;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        self.inner.fleet.healthy() >= want
    }

    /// Serves until `POST /v1/shutdown`, then drains the children.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] when a router shard fails (the children
    /// are still drained first).
    pub fn run(self) -> Result<(), ServeError> {
        let Cluster {
            supervisor,
            inner,
            shards,
            ..
        } = self;
        // One forwarding thread per in-flight place: every replica can
        // hold its cap while the others keep theirs.
        let mut threads = inner
            .forward
            .spawn("router-forward", inner.cfg.replicas * inner.cfg.max_inflight as usize);
        threads.extend(inner.control.spawn("router-control", 1));
        let result = run_shards(shards, &inner);
        inner.forward.shutdown();
        inner.control.shutdown();
        for handle in threads {
            let _ = handle.join();
        }
        supervisor.shutdown();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::Ring;

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

        // A canary without the oracle still sizes the scoring pool.
        let config = ServeConfig {
            canary_split: 0.5,
            shadow_threads: 3,
            shadow_queue_depth: 17,
            ..config
        };
        let argv = Cluster::replica_argv("airchitect", &config);
        let value = |flag: &str| {
            let at = argv.iter().position(|a| a == flag);
            at.map(|i| argv[i + 1].as_str())
        };
        assert_eq!(value("--canary-split"), Some("0.5"));
        assert_eq!(value("--shadow-threads"), Some("3"));
        assert_eq!(value("--shadow-queue-depth"), Some("17"));
        assert_eq!(value("--shadow-oracle"), None);
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
