//! The server: binding, request dispatch, and the graceful drain-then-exit
//! shutdown sequence.
//!
//! The listener is N event-loop shards, each with its own `SO_REUSEPORT`
//! acceptor and epoll reactor (`crate::evented`). Connections are
//! nonblocking state machines; off-loop replies come back through a
//! completion queue + eventfd wake. The shards serve any [`Handler`]: a
//! replica's [`Inner`] here, the cluster router's state in
//! [`proxy`](crate::proxy). Every replica request goes through
//! [`handle_request_step`], so routing, admission control, deadlines,
//! breakers, caching and chaos semantics are decided in exactly one place,
//! and every recommend is answered by one function, [`Inner::answer`]: a
//! top-1 query inline on the shard, a ranked one on the ranked pool (an
//! [`OffLoop`] of `workers` threads). Reloads and rollbacks read and
//! compile models and make fsynced registry writes, so they run on one
//! control thread (an [`OffLoop`] of one), one at a time, while the shard
//! keeps serving; a canary verdict's promote or rollback runs on the
//! shadow pool that scores the canary (`crate::shadow`). No registry write
//! runs on a shard.
//!
//! Shutdown protocol (`POST /v1/shutdown`):
//!
//! 1. the shutdown flag flips and every shard wakes, so connections close
//!    after their in-flight request and the shards stop admitting sockets;
//! 2. the handling connection gets its `200`; any request a shard
//!    dispatches after the flip answers `503 draining`;
//! 3. the ranked pool and the control thread stop admitting work but
//!    drain what they hold; their threads exit once it is done;
//! 4. [`Server::run`] joins every pool thread and shard and returns `Ok`,
//!    letting the process exit 0.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use airchitect_telemetry::metrics;

use crate::batch::{self, CompletionQueue, OffLoop, Outcome, PushError, RecQuery, Reply, Source};
use crate::breaker::{Admit, Breakers};
use crate::cache::{CachedResponse, LruCache};
use crate::canary::{Rollout, RolloutConfig};
#[cfg(target_os = "linux")]
pub(crate) use crate::evented;
use crate::fallback::{self, Oracle};
use crate::http::{Request, Response};
use crate::registry::{Registry, DEFAULT_RETAIN};
use crate::reload::{case_name, ModelHub};
use crate::router::{self, Route};
use crate::{ServeConfig, ServeError};

/// Hard ceiling on any effective deadline (10 minutes): an absurd
/// `X-Deadline-Ms` must not pin resources for hours.
const MAX_DEADLINE_MS: u64 = 600_000;

/// Reloads and rollbacks that may wait for a control thread (a replica's
/// or the router's); more are refused `429`.
pub(crate) const CONTROL_QUEUE_DEPTH: usize = 16;

/// Consecutive accept failures tolerated (with backoff) before an accept
/// path gives up. Transient errors — EMFILE pressure, injected faults —
/// should never kill an otherwise healthy server.
pub(crate) const MAX_ACCEPT_ERRORS: u32 = 64;

/// Off Linux there is no listener: the event loops are built on epoll.
/// This stand-in keeps the crate compiling there and makes
/// [`Server::bind`] and [`Cluster::start`](crate::Cluster::start) fail
/// with a configuration error that says so.
#[cfg(not(target_os = "linux"))]
pub(crate) mod evented {
    use std::net::SocketAddr;
    use std::sync::Arc;

    use super::{Handler, ShardStats};
    use crate::batch::CompletionQueue;
    use crate::ServeError;

    pub(crate) struct ShardSeed {
        pub(crate) addr: SocketAddr,
        pub(crate) stats: Arc<ShardStats>,
        pub(crate) completions: Arc<CompletionQueue>,
    }

    pub(crate) fn bind_shards(_: &str, _: usize) -> Result<Vec<ShardSeed>, ServeError> {
        Err(ServeError::Config(
            "the listener is an epoll reactor; serving needs Linux".into(),
        ))
    }

    pub(crate) fn run_shards<H: Handler>(_: Vec<ShardSeed>, _: &Arc<H>) -> Result<(), ServeError> {
        Ok(())
    }
}

/// Per-shard counters for the evented listener, surfaced as
/// `serve.shard.N.*` lines in `/metrics`.
#[derive(Debug, Default)]
pub(crate) struct ShardStats {
    /// Connections currently registered with this shard's poller.
    pub(crate) open: AtomicU64,
    /// Connections this shard has accepted since startup.
    pub(crate) accepted: AtomicU64,
    /// Eventfd wakeups this shard has observed.
    pub(crate) wakeups: AtomicU64,
}

/// The listener-visible face of one evented shard: its stats and its
/// completion queue (whose depth is the ready-queue gauge and whose waker
/// nudges the loop during shutdown).
pub(crate) struct ShardHandle {
    pub(crate) stats: Arc<ShardStats>,
    pub(crate) completions: Arc<CompletionQueue>,
}

/// What every shard reads of the role it serves, replica or router.
pub(crate) struct Front {
    pub(crate) shutdown: AtomicBool,
    pub(crate) read_timeout: Option<Duration>,
    pub(crate) write_timeout: Option<Duration>,
    /// `TCP_NODELAY` on accepted sockets (see `ServeConfig::nodelay`).
    pub(crate) nodelay: bool,
    /// One handle per event-loop shard.
    pub(crate) shards: Vec<ShardHandle>,
}

impl Front {
    /// The front for `seeds`; a zero timeout disables that timeout.
    pub(crate) fn new(
        seeds: &[evented::ShardSeed],
        read_timeout_secs: u64,
        write_timeout_secs: u64,
        nodelay: bool,
    ) -> Self {
        let secs_opt = |secs: u64| (secs > 0).then(|| Duration::from_secs(secs));
        Self {
            shutdown: AtomicBool::new(false),
            read_timeout: secs_opt(read_timeout_secs),
            write_timeout: secs_opt(write_timeout_secs),
            nodelay,
            shards: seeds
                .iter()
                .map(|s| ShardHandle {
                    stats: Arc::clone(&s.stats),
                    completions: Arc::clone(&s.completions),
                })
                .collect(),
        }
    }
}

/// The request handling a shard runs: a replica's [`Inner`] or the
/// cluster router's state. Shards are generic over it, so the replica's
/// path is statically dispatched.
pub(crate) trait Handler: Send + Sync + 'static {
    /// The listener state the shards share.
    fn front(&self) -> &Front;

    /// Dispatches one parsed request without blocking. `make_reply` is
    /// only invoked if the request is queued.
    fn step(this: &Arc<Self>, request: &Request, make_reply: &mut dyn FnMut() -> Reply) -> Step;

    /// Frames a ranked-pool outcome for the request that queued it.
    fn frame(&self, outcome: Outcome, started: Instant, cache_key: Vec<u8>) -> Response;
}

/// State shared by every shard and connection.
pub(crate) struct Inner {
    pub(crate) front: Front,
    pub(crate) hub: Arc<ModelHub>,
    /// The ranked pool: `workers` threads answering ranked requests, at
    /// most `queue_depth` of them waiting.
    pub(crate) ranked: Arc<OffLoop<()>>,
    /// The control thread: reloads and rollbacks, one at a time.
    pub(crate) control: Arc<OffLoop<()>>,
    pub(crate) cache: Mutex<LruCache>,
    pub(crate) breakers: Arc<Breakers>,
    /// The degraded-mode oracle (`fallback_search`).
    pub(crate) fallback: Option<Oracle>,
    pub(crate) deadline_ms: u64,
    /// The sampling hook and its scoring pool (shadow oracle and rollout
    /// canary); `None` when neither samples anything.
    pub(crate) shadow: Option<Arc<crate::shadow::ShadowState>>,
    /// Canary rollout controller (inert when the split is zero and no
    /// registry is attached, but always present so dispatch is uniform).
    pub(crate) rollout: Arc<Rollout>,
}

impl Handler for Inner {
    fn front(&self) -> &Front {
        &self.front
    }

    fn step(this: &Arc<Self>, request: &Request, make_reply: &mut dyn FnMut() -> Reply) -> Step {
        handle_request_step(request, this, make_reply)
    }

    fn frame(&self, outcome: Outcome, started: Instant, cache_key: Vec<u8>) -> Response {
        record_latency(started, outcome_response(outcome, cache_key, self))
    }
}

/// A bound, ready-to-run inference server. Dropping it without calling
/// [`Server::run`] leaks nothing but joins nothing either; `run` owns the
/// full lifecycle.
pub struct Server {
    addr: SocketAddr,
    inner: Arc<Inner>,
    /// The ranked pool's threads.
    workers: Vec<JoinHandle<()>>,
    shards: Vec<evented::ShardSeed>,
}

impl Server {
    /// Loads the models, binds the socket(s), and starts the ranked pool.
    /// Also enables telemetry recording (the serve counters are the
    /// product surface of `/metrics`); a bind that fails leaves recording
    /// as it found it.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] for bad configuration, model load failures,
    /// or bind failures.
    pub fn bind(config: &ServeConfig) -> Result<Self, ServeError> {
        let was_recording = airchitect_telemetry::enabled();
        airchitect_telemetry::enable();
        let bound = Self::bind_recording(config);
        if bound.is_err() && !was_recording {
            airchitect_telemetry::disable();
        }
        bound
    }

    fn bind_recording(config: &ServeConfig) -> Result<Self, ServeError> {
        if config.threaded {
            return Err(ServeError::Config(
                "`threaded` is no longer supported: the evented listener is the only one".into(),
            ));
        }
        // Registry mode: boot from the stable `current.airm` copy so a
        // restart (even one SIGKILLed mid-rollout) lands on the version
        // the last successful promote installed. A `--model` given
        // alongside an *empty* registry seeds version 1; with an active
        // version already on disk, the registry wins.
        let mut model_paths = config.model_paths.clone();
        let registry = match &config.model_dir {
            Some(dir) => {
                let mut reg = Registry::open(dir, DEFAULT_RETAIN)
                    .map_err(|e| ServeError::Config(format!("--model-dir: {e}")))?;
                if model_paths.len() > 1 {
                    return Err(ServeError::Config(
                        "--model-dir manages a single model; pass at most one --model".into(),
                    ));
                }
                if reg.manifest().active.is_none() {
                    let seed = model_paths.first().ok_or_else(|| {
                        ServeError::Config(format!(
                            "registry at {} has no active version; seed it with --model or `train --model-dir`",
                            dir.display()
                        ))
                    })?;
                    let bytes = std::fs::read(seed)
                        .map_err(|e| ServeError::Io(format!("{}: {e}", seed.display())))?;
                    let version = reg
                        .add_version(&bytes)
                        .and_then(|v| reg.promote(v).map(|_| v))
                        .map_err(|e| ServeError::Config(format!("--model-dir seed: {e}")))?;
                    let _ = version;
                }
                model_paths = vec![reg.current_path()];
                Some(reg)
            }
            None => None,
        };
        // `fallback_search` doubles as "tolerate startup load failures":
        // the oracle can answer for a model that failed its checksum.
        let hub = Arc::new(ModelHub::load(&model_paths, config.fallback_search)?);
        let rollout = Arc::new(Rollout::new(
            RolloutConfig {
                split_ppm: airchitect_online::sampler::rate_to_ppm(config.canary_split),
                min_samples: config.canary_min_samples.max(1),
                min_agreement: config.canary_min_agreement,
                max_p99_ratio: config.canary_max_p99_ratio,
            },
            Arc::clone(&hub),
            registry,
        ));
        // Built after `enable()` so the breaker gauges publish their
        // closed state and show up in `/metrics` from the first scrape.
        let breakers = Arc::new(Breakers::new(
            config.breaker_threshold,
            Duration::from_millis(config.breaker_cooldown_ms),
        ));

        let shards = evented::bind_shards(&config.addr, config.event_loops)?;
        let addr = shards[0].addr;
        let shadow = crate::shadow::ShadowState::start(config, &hub, &rollout)?;

        let ranked = OffLoop::new(config.queue_depth);
        let workers = ranked.spawn("serve-ranked", config.workers);
        Ok(Self {
            addr,
            inner: Arc::new(Inner {
                front: Front::new(
                    &shards,
                    config.read_timeout_secs,
                    config.write_timeout_secs,
                    config.nodelay,
                ),
                hub,
                ranked,
                control: OffLoop::new(CONTROL_QUEUE_DEPTH),
                cache: Mutex::new(LruCache::new(config.cache_capacity)),
                breakers,
                fallback: config.fallback_search.then(Oracle::new),
                deadline_ms: config.deadline_ms,
                shadow,
                rollout,
            }),
            workers,
            shards,
        })
    }

    /// The bound address (read the ephemeral port back after `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of event-loop shards.
    pub fn event_loops(&self) -> usize {
        self.inner.front.shards.len()
    }

    /// Serves until `POST /v1/shutdown`, then drains and joins everything.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] only when a shard fails (epoll, or a
    /// persistent accept-error streak); per-connection errors are handled
    /// inside their shard.
    pub fn run(self) -> Result<(), ServeError> {
        let Server {
            inner,
            workers,
            shards,
            ..
        } = self;
        let control = inner.control.spawn("serve-control", 1);
        let result = evented::run_shards(shards, &inner);
        // The shards have exited: no new jobs, and the ranked pool and the
        // control thread exit once their queues are empty.
        inner.ranked.shutdown();
        inner.control.shutdown();
        for handle in workers.into_iter().chain(control) {
            let _ = handle.join();
        }
        // Drain the shadow pool last: in-flight oracle records land in the
        // log (with their end line) before the process exits.
        if let Some(shadow) = &inner.shadow {
            shadow.finish();
        }
        result
    }
}

/// How one request resolves from the caller's point of view.
pub(crate) enum Step {
    /// The response is ready — nothing was queued.
    Respond(Response),
    /// The request was queued; its result will arrive through the
    /// [`Reply`] built by the dispatch call. The caller must frame an
    /// [`Outcome`] with [`Handler::frame`], and answer 504 itself if the
    /// deadline passes first.
    Queued {
        /// When request handling started (for the latency histogram).
        started: Instant,
        /// Absolute deadline, if one applies.
        deadline: Option<Instant>,
        /// Cache key for a successful model answer.
        cache_key: Vec<u8>,
    },
}

/// Dispatches one request without blocking. `make_reply` is only invoked
/// if the request is queued.
pub(crate) fn handle_request_step(
    request: &Request,
    inner: &Arc<Inner>,
    make_reply: &mut dyn FnMut() -> Reply,
) -> Step {
    let route = match router::route(&request.method, &request.path) {
        Ok(r) => r,
        Err(resp) => return Step::Respond(resp),
    };
    Step::Respond(match route {
        Route::Healthz => router::render_healthz(&inner.hub, &inner.breakers, Some(&*inner.rollout)),
        Route::Metrics => render_metrics_response(&inner.front),
        Route::Shutdown => {
            initiate_shutdown(&inner.front);
            Response::json(200, "{\"shutting_down\":true}\n".into())
        }
        Route::Reload => {
            let (body, state) = (request.body.clone(), Arc::clone(inner));
            return off_loop(&inner.control, make_reply, move |_| reload(&body, &state));
        }
        Route::Rollback => {
            let state = Arc::clone(inner);
            return off_loop(&inner.control, make_reply, move |_| {
                state.rollout.rollback_now()
            });
        }
        Route::Recommend(case) => return recommend_step(case, request, inner, make_reply),
    })
}

/// Hands `work` to `pool` and parks the connection until its response
/// comes back through the shard's completion queue.
pub(crate) fn off_loop<S: Default + 'static>(
    pool: &OffLoop<S>,
    make_reply: &mut dyn FnMut() -> Reply,
    work: impl FnOnce(&mut S) -> Response + Send + 'static,
) -> Step {
    match pool.submit(make_reply(), work) {
        Ok(()) => Step::Queued {
            started: Instant::now(),
            deadline: None,
            cache_key: Vec::new(),
        },
        Err(e) => Step::Respond(refused(e)),
    }
}

/// The answer to a job a queue would not take; a full queue counts
/// `serve.rejected`.
pub(crate) fn refused(e: PushError) -> Response {
    match e {
        PushError::Full => {
            metrics::SERVE_REJECTED.inc();
            let mut resp =
                Response::error(429, "queue_full", "request queue is full; retry shortly");
            resp.retry_after = Some(1);
            resp
        }
        PushError::ShuttingDown => draining(),
    }
}

/// Starts the drain: flips the shutdown flag, then wakes every shard so
/// none sleeps through it. This runs before the `200` is written, so a
/// client that reads it and sends at once on a connection another shard
/// owns is answered `503 draining`, not served.
pub(crate) fn initiate_shutdown(front: &Front) {
    front.shutdown.store(true, Ordering::Release);
    for shard in &front.shards {
        shard.completions.wake();
    }
}

/// `/metrics` body: the telemetry registry plus the listener's live
/// connection accounting — an aggregate `serve.open_connections` line and
/// per-shard `serve.shard.N.*` gauges (the cluster router appends its
/// per-replica series the same way).
pub(crate) fn render_metrics_response(front: &Front) -> Response {
    use std::fmt::Write as _;
    let mut resp = router::render_metrics();
    let mut total = 0;
    let mut shard_lines = String::new();
    for (i, shard) in front.shards.iter().enumerate() {
        let open = shard.stats.open.load(Ordering::Relaxed);
        total += open;
        let _ = writeln!(shard_lines, "serve.shard.{i}.open_connections {open}");
        let _ = writeln!(
            shard_lines,
            "serve.shard.{i}.ready_depth {}",
            shard.completions.len()
        );
        let _ = writeln!(
            shard_lines,
            "serve.shard.{i}.wakeups {}",
            shard.stats.wakeups.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            shard_lines,
            "serve.shard.{i}.accepted {}",
            shard.stats.accepted.load(Ordering::Relaxed)
        );
    }
    let _ = writeln!(resp.body, "serve.open_connections {total}");
    resp.body.push_str(&shard_lines);
    resp
}

/// `POST /v1/reload` behind its circuit breaker: repeated reload failures
/// (corrupt artifact stuck on disk) stop hammering the filesystem and are
/// reported as an open circuit instead.
///
/// With a canary split configured the reload *stages* the candidate and
/// hands it to the rollout controller; without one it keeps the legacy
/// immediate swap (in registry mode, promoting the newest unquarantined
/// version first so the swap picks it up from `current.airm`).
fn reload(body: &[u8], inner: &Inner) -> Response {
    match inner.breakers.reload.try_acquire() {
        Admit::No => {
            let mut resp = Response::error(
                503,
                "circuit_open",
                "reload circuit is open; retry after cooldown",
            );
            resp.retry_after = Some(1);
            resp
        }
        Admit::Yes if inner.rollout.enabled() && !crate::canary::reload_is_immediate(body) => {
            let resp = inner.rollout.stage_reload(body);
            // A stage failure counts against the breaker exactly like a
            // failed legacy reload: redeploying a corrupt artifact in a
            // loop should trip it.
            inner.breakers.reload.record(resp.status == 200);
            resp
        }
        Admit::Yes => {
            // Immediate swap: explicit `{"path", "version"}` bodies from
            // the rolling coordinator are honored, registry mode promotes
            // the newest candidate first, plain mode re-reads the
            // registered paths. A failure still counts against the
            // breaker — an operator redeploying a corrupt model in a loop
            // should trip it.
            let resp = inner.rollout.immediate_reload(body);
            inner.breakers.reload.record(resp.status == 200);
            resp
        }
    }
}

/// The effective per-request budget: the tighter of the server default and
/// the client's `X-Deadline-Ms`, both capped at [`MAX_DEADLINE_MS`].
fn effective_deadline(config_ms: u64, header_ms: Option<u64>) -> Option<Duration> {
    let ms = match (config_ms, header_ms) {
        (0, None) => return None,
        (0, Some(h)) => h,
        (c, None) => c,
        (c, Some(h)) => h.min(c),
    };
    Some(Duration::from_millis(ms.min(MAX_DEADLINE_MS)))
}

pub(crate) fn deadline_exceeded() -> Response {
    metrics::SERVE_DEADLINE_EXCEEDED.inc();
    Response::error(
        504,
        "deadline_exceeded",
        "request deadline expired before an answer was produced",
    )
}

fn draining() -> Response {
    let mut resp = Response::error(503, "draining", "server is shutting down");
    resp.retry_after = Some(1);
    resp
}

/// Records the end-to-end latency for a finished request. *Every*
/// terminal path goes through this — 504s, 429s, and draining rejections
/// included — so the histogram reflects the traffic the server actually
/// saw, not just its successes.
pub(crate) fn record_latency(started: Instant, response: Response) -> Response {
    metrics::SERVE_REQUEST_US.record(started.elapsed().as_micros() as u64);
    response
}

fn recommend_step(
    case: airchitect::model::CaseStudy,
    request: &Request,
    inner: &Arc<Inner>,
    make_reply: &mut dyn FnMut() -> Reply,
) -> Step {
    metrics::SERVE_REQUESTS.inc();
    let started = Instant::now();
    let respond = |resp: Response| Step::Respond(record_latency(started, resp));
    let deadline =
        effective_deadline(inner.deadline_ms, request.deadline_ms).map(|budget| started + budget);
    // Admission-time checks: a draining server or an already-expired
    // budget (`X-Deadline-Ms: 0`) answers before any work is queued.
    if inner.front.shutdown.load(Ordering::Acquire) {
        return respond(draining());
    }
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return respond(deadline_exceeded());
    }
    let parsed = match router::parse_recommend(case, &request.body) {
        Ok(p) => p,
        Err(resp) => return respond(resp),
    };

    // The one sampling hook, before the cache so hot queries are scored
    // too: the shadow pool scores a sampled query against the oracle, a
    // staged canary candidate, or both, on the live model's snapshot. The
    // client's answer below is the incumbent's either way.
    if let Some(shadow) = &inner.shadow {
        shadow.maybe_sample(&parsed);
    }

    // Cache lookup, generation-checked against the live model.
    let live_generation = inner.hub.generation();
    let hit = inner
        .cache
        .lock()
        .expect("cache poisoned")
        .get(&parsed.cache_key, live_generation);
    if let Some(cached) = hit {
        metrics::SERVE_CACHE_HITS.inc();
        let body = format!("{{\"cached\":true,{}", cached.body_tail);
        return respond(Response::json(200, body));
    }
    metrics::SERVE_CACHE_MISSES.inc();

    // One answer path per request kind: a top-1 query is answered here,
    // on the shard, by the int8 pass; a ranked one runs the f32 pass on
    // the ranked pool, behind its admission control (reject-on-full keeps
    // queue latency bounded).
    if parsed.topk == 0 {
        let outcome = inner.answer(&parsed.query, 0, deadline);
        return respond(outcome_response(outcome, parsed.cache_key, inner));
    }
    let (query, topk, state) = (parsed.query, parsed.topk, Arc::clone(inner));
    let work = move |_: &mut ()| {
        metrics::SERVE_BATCHES.inc();
        metrics::SERVE_BATCHED_JOBS.inc();
        state.answer(&query, topk, deadline)
    };
    match inner.ranked.submit(make_reply(), work) {
        Ok(()) => Step::Queued {
            started,
            deadline,
            cache_key: parsed.cache_key,
        },
        Err(e) => respond(refused(e)),
    }
}

impl Inner {
    /// Answers one recommend request on a snapshot of the live model of
    /// its case study: the deadline check, the panic-isolated inference
    /// behind the case's breaker ([`batch::guarded`]), and the
    /// degraded-mode fallback when the model is missing or its circuit is
    /// open. The shard calls it for a top-1 query, a ranked-pool thread for
    /// a ranked one.
    fn answer(&self, query: &RecQuery, topk: usize, deadline: Option<Instant>) -> Outcome {
        // A ranked request that already blew its budget waiting in the
        // queue is dropped here: the client has (or is about to) time out,
        // so doing the work would only add load exactly when the server is
        // already behind.
        if deadline.is_some_and(|d| Instant::now() >= d) {
            metrics::SERVE_DEADLINE_EXCEEDED.inc();
            return Outcome::Err {
                status: 504,
                code: "deadline_exceeded",
                message: "request deadline expired before execution".into(),
            };
        }
        let case = query.case();
        let Some(model) = self.hub.get(case) else {
            return self.fallback_or(query, topk, || Outcome::Err {
                status: 503,
                code: "model_not_loaded",
                message: format!("no model loaded for case study `{}`", case_name(case)),
            });
        };
        let breaker = self.breakers.infer(case);
        if breaker.try_acquire() == Admit::No {
            return self.fallback_or(query, topk, || Outcome::Err {
                status: 503,
                code: "circuit_open",
                message: format!(
                    "inference circuit for `{}` is open; retry after cooldown",
                    case_name(case)
                ),
            });
        }
        if topk == 0 {
            metrics::SERVE_BYPASS.inc();
        }
        let outcome = batch::guarded(&model, query, topk);
        // Only 5xx-class outcomes count against the breaker: a 422 for an
        // infeasible budget is the query's fault, not the model's.
        let failed = matches!(&outcome, Outcome::Err { status, .. } if *status >= 500);
        if failed {
            metrics::SERVE_INFER_FAILURES.inc();
        }
        breaker.record(!failed);
        outcome
    }

    fn fallback_or(
        &self,
        query: &RecQuery,
        topk: usize,
        otherwise: impl FnOnce() -> Outcome,
    ) -> Outcome {
        match &self.fallback {
            Some(oracle) => {
                metrics::SERVE_FALLBACKS.inc();
                oracle.answer(query, topk)
            }
            None => otherwise(),
        }
    }
}

/// Frames an inference [`Outcome`] as HTTP and handles response caching —
/// shared by the inline and the ranked-pool answers so both produce
/// responses of one shape.
pub(crate) fn outcome_response(outcome: Outcome, cache_key: Vec<u8>, inner: &Inner) -> Response {
    match outcome {
        Outcome::Ok {
            body_tail,
            generation,
            source,
        } => {
            let body = format!("{{\"cached\":false,{body_tail}");
            match source {
                // Only model answers are cached: a cache must never replay
                // a degraded-mode answer after the model recovers.
                Source::Model => {
                    inner.cache.lock().expect("cache poisoned").put(
                        cache_key,
                        CachedResponse {
                            body_tail,
                            generation,
                        },
                    );
                    Response::json(200, body)
                }
                Source::Search => {
                    let mut resp = Response::json(200, body);
                    resp.warning = Some(fallback::WARNING.to_string());
                    resp
                }
            }
        }
        Outcome::Err {
            status,
            code,
            message,
        } => {
            let mut resp = Response::error(status, code, &message);
            if code == "circuit_open" {
                resp.retry_after = Some(1);
            }
            resp
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_deadline_prefers_the_tighter_budget() {
        assert_eq!(effective_deadline(0, None), None);
        assert_eq!(
            effective_deadline(0, Some(50)),
            Some(Duration::from_millis(50))
        );
        assert_eq!(
            effective_deadline(100, None),
            Some(Duration::from_millis(100))
        );
        assert_eq!(
            effective_deadline(100, Some(50)),
            Some(Duration::from_millis(50))
        );
        assert_eq!(
            effective_deadline(50, Some(100)),
            Some(Duration::from_millis(50))
        );
        assert_eq!(
            effective_deadline(0, Some(u64::MAX)),
            Some(Duration::from_millis(MAX_DEADLINE_MS))
        );
    }
}
