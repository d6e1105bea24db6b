//! The server: binding, request dispatch, and the graceful drain-then-exit
//! shutdown sequence.
//!
//! The listener is N event-loop shards, each with its own `SO_REUSEPORT`
//! acceptor and epoll reactor (`crate::evented`). Connections are
//! nonblocking state machines; batch-worker replies come back through a
//! completion queue + eventfd wake. Every request goes through
//! [`handle_request_step`], so routing, admission control, deadlines,
//! breakers, caching, bypass, and chaos semantics are decided in exactly
//! one place.
//!
//! Shutdown protocol (`POST /v1/shutdown`):
//!
//! 1. the shutdown flag flips and every shard wakes, so connections close
//!    after their in-flight request and the shards stop admitting sockets;
//! 2. the handling connection gets its `200`; any request a shard
//!    dispatches after the flip answers `503 draining`;
//! 3. the queue stops admitting jobs but drains what it holds; workers
//!    exit once it is empty;
//! 4. [`Server::run`] joins every worker and shard and returns `Ok`,
//!    letting the process exit 0.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use airchitect_telemetry::metrics;

use crate::batch::{spawn_workers, CompletionQueue, Job, PushError, Queue, Reply, Source};
use crate::breaker::{Admit, Breakers};
use crate::cache::{CachedResponse, LruCache};
use crate::canary::{Rollout, RolloutConfig};
#[cfg(target_os = "linux")]
use crate::evented;
use crate::fallback::{self, Oracle};
use crate::http::{Request, Response};
use crate::registry::{Registry, DEFAULT_RETAIN};
use crate::reload::ModelHub;
use crate::router::{self, Route};
use crate::{ServeConfig, ServeError};

/// Hard ceiling on any effective deadline (10 minutes): an absurd
/// `X-Deadline-Ms` must not pin resources for hours.
const MAX_DEADLINE_MS: u64 = 600_000;

/// Consecutive accept failures tolerated (with backoff) before an accept
/// path gives up. Transient errors — EMFILE pressure, injected faults —
/// should never kill an otherwise healthy server.
pub(crate) const MAX_ACCEPT_ERRORS: u32 = 64;

/// Off Linux there is no listener: the event loops are built on epoll.
/// This stand-in keeps the crate compiling there and makes
/// [`Server::bind`] fail with a configuration error that says so.
#[cfg(not(target_os = "linux"))]
mod evented {
    use std::net::SocketAddr;
    use std::sync::Arc;

    use super::{Inner, ShardStats};
    use crate::batch::CompletionQueue;
    use crate::{ServeConfig, ServeError};

    pub(crate) struct ShardSeed {
        pub(crate) addr: SocketAddr,
        pub(crate) stats: Arc<ShardStats>,
        pub(crate) completions: Arc<CompletionQueue>,
    }

    pub(crate) fn bind_shards(_: &ServeConfig) -> Result<Vec<ShardSeed>, ServeError> {
        Err(ServeError::Config(
            "the listener is an epoll reactor; serving needs Linux".into(),
        ))
    }

    pub(crate) fn run_shards(_: Vec<ShardSeed>, _: &Arc<Inner>) -> Result<(), ServeError> {
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

/// State shared by every shard and connection.
pub(crate) struct Inner {
    pub(crate) hub: Arc<ModelHub>,
    pub(crate) queue: Arc<Queue>,
    pub(crate) cache: Mutex<LruCache>,
    pub(crate) breakers: Arc<Breakers>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) read_timeout: Option<Duration>,
    pub(crate) write_timeout: Option<Duration>,
    pub(crate) deadline_ms: u64,
    pub(crate) bypass: bool,
    /// `TCP_NODELAY` on accepted sockets (see `ServeConfig::nodelay`).
    pub(crate) nodelay: bool,
    /// Shadow-oracle sampling pipeline; `None` when disabled.
    pub(crate) shadow: Option<Arc<crate::shadow::ShadowState>>,
    /// Canary rollout controller (inert when the split is zero and no
    /// registry is attached, but always present so dispatch is uniform).
    pub(crate) rollout: Rollout,
    /// One handle per event-loop shard.
    pub(crate) shards: Vec<ShardHandle>,
}

/// A bound, ready-to-run inference server. Dropping it without calling
/// [`Server::run`] leaks nothing but joins nothing either; `run` owns the
/// full lifecycle.
pub struct Server {
    addr: SocketAddr,
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    shards: Vec<evented::ShardSeed>,
}

impl Server {
    /// Loads the models, binds the socket(s), and starts the worker pool.
    /// Also enables telemetry recording (the serve counters are the
    /// product surface of `/metrics`).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] for bad configuration, model load failures,
    /// or bind failures.
    pub fn bind(config: &ServeConfig) -> Result<Self, ServeError> {
        if config.threaded {
            return Err(ServeError::Config(
                "`threaded` is no longer supported: the evented listener is the only one".into(),
            ));
        }
        airchitect_telemetry::enable();
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
        let rollout = Rollout::new(
            RolloutConfig {
                split_ppm: airchitect_online::sampler::rate_to_ppm(config.canary_split),
                min_samples: config.canary_min_samples.max(1),
                min_agreement: config.canary_min_agreement,
                max_p99_ratio: config.canary_max_p99_ratio,
            },
            Arc::clone(&hub),
            registry,
        );
        // Built after `enable()` so the breaker gauges publish their
        // closed state and show up in `/metrics` from the first scrape.
        let breakers = Arc::new(Breakers::new(
            config.breaker_threshold,
            Duration::from_millis(config.breaker_cooldown_ms),
        ));
        let fallback = config.fallback_search.then(|| Arc::new(Oracle::new()));

        let shards = evented::bind_shards(config)?;
        let addr = shards[0].addr;
        let shard_handles = shards
            .iter()
            .map(|s| ShardHandle {
                stats: Arc::clone(&s.stats),
                completions: Arc::clone(&s.completions),
            })
            .collect();

        let queue = Arc::new(Queue::new(config.queue_depth));
        let workers = spawn_workers(
            config.workers,
            config.batch_max,
            Arc::clone(&queue),
            Arc::clone(&hub),
            Arc::clone(&breakers),
            fallback,
        );
        let secs_opt = |secs: u64| (secs > 0).then(|| Duration::from_secs(secs));
        Ok(Self {
            addr,
            inner: Arc::new(Inner {
                hub,
                queue,
                cache: Mutex::new(LruCache::new(config.cache_capacity)),
                breakers,
                shutdown: AtomicBool::new(false),
                read_timeout: secs_opt(config.read_timeout_secs),
                write_timeout: secs_opt(config.write_timeout_secs),
                deadline_ms: config.deadline_ms,
                bypass: config.single_query_bypass,
                nodelay: config.nodelay,
                shadow: crate::shadow::ShadowState::start(config)?,
                rollout,
                shards: shard_handles,
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
        self.inner.shards.len()
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
        let result = evented::run_shards(shards, &inner);
        // The shards have exited: no new jobs, and the workers exit once
        // the queue is empty.
        inner.queue.shutdown();
        for handle in workers {
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
    /// The request was queued; the worker's outcome will arrive through
    /// the [`Reply`] built by the dispatch call. The caller must frame it
    /// with [`outcome_response`], record `serve.request_us`, and answer
    /// 504 itself if the deadline passes first.
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
    inner: &Inner,
    make_reply: &mut dyn FnMut() -> Reply,
) -> Step {
    let route = match router::route(&request.method, &request.path) {
        Ok(r) => r,
        Err(resp) => return Step::Respond(resp),
    };
    Step::Respond(match route {
        Route::Healthz => router::render_healthz(&inner.hub, &inner.breakers, Some(&inner.rollout)),
        Route::Metrics => render_metrics_response(inner),
        Route::Shutdown => {
            initiate_shutdown(inner);
            Response::json(200, "{\"shutting_down\":true}\n".into())
        }
        Route::Reload => reload(request, inner),
        Route::Rollback => inner.rollout.rollback_now(),
        Route::Recommend(case) => return recommend_step(case, request, inner, make_reply),
    })
}

/// Starts the drain: flips the shutdown flag, then wakes every shard so
/// none sleeps through it. This runs before the `200` is written, so a
/// client that reads it and sends at once on a connection another shard
/// owns is answered `503 draining`, not served.
fn initiate_shutdown(inner: &Inner) {
    inner.shutdown.store(true, Ordering::Release);
    for shard in &inner.shards {
        shard.completions.wake();
    }
}

/// `/metrics` body: the telemetry registry plus the listener's live
/// connection accounting — an aggregate `serve.open_connections` line and
/// per-shard `serve.shard.N.*` gauges (the same manual append pattern the
/// cluster router uses for per-replica series).
fn render_metrics_response(inner: &Inner) -> Response {
    use std::fmt::Write as _;
    let mut resp = router::render_metrics();
    let mut total = 0;
    let mut shard_lines = String::new();
    for (i, shard) in inner.shards.iter().enumerate() {
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
fn reload(request: &Request, inner: &Inner) -> Response {
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
        Admit::Yes
            if inner.rollout.enabled() && !crate::canary::reload_is_immediate(&request.body) =>
        {
            let resp = inner.rollout.stage_reload(&request.body);
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
            let resp = inner.rollout.immediate_reload(&request.body);
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
    inner: &Inner,
    make_reply: &mut dyn FnMut() -> Reply,
) -> Step {
    metrics::SERVE_REQUESTS.inc();
    let started = Instant::now();
    let respond = |resp: Response| Step::Respond(record_latency(started, resp));
    let deadline =
        effective_deadline(inner.deadline_ms, request.deadline_ms).map(|budget| started + budget);
    // Admission-time checks: a draining server or an already-expired
    // budget (`X-Deadline-Ms: 0`) answers before any work is queued.
    if inner.shutdown.load(Ordering::Acquire) {
        return respond(draining());
    }
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return respond(deadline_exceeded());
    }
    let parsed = match router::parse_recommend(case, &request.body) {
        Ok(p) => p,
        Err(resp) => return respond(resp),
    };

    // Shadow-oracle sampling, before the cache so hot queries are scored
    // too. The task snapshots the live model: concurrent reloads can't
    // change which generation this request is scored against.
    if let Some(shadow) = &inner.shadow {
        if let Some(model) = inner.hub.get(case) {
            shadow.maybe_sample(&parsed.cache_key, &parsed.query, model);
        }
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

    // Single-query bypass: with no batch window to join (empty queue), a
    // top-1 request is answered inline on the int8-quantized hot path —
    // no queue hop, no worker round-trip. Only model-source answers are
    // taken here; every other situation (missing model, unquantizable
    // model, open circuit, ranked query) falls through so the queue path
    // stays the single owner of fallback and circuit-open policy.
    if inner.bypass && parsed.topk == 0 && inner.queue.is_empty() {
        if let Some(model) = inner.hub.get(case) {
            if model.recommender.quantized().is_some() {
                let breaker = inner.breakers.infer(case);
                if matches!(breaker.try_acquire(), Admit::Yes) {
                    metrics::SERVE_BYPASS.inc();
                    // Canary slice: a deterministically sampled request is
                    // answered by the staged candidate *and* the incumbent,
                    // the answers compared, and the verdict tallied. The
                    // client gets the candidate's answer when it succeeded,
                    // the incumbent's otherwise — a bad canary can lose the
                    // vote but never fail a request.
                    if let Some(candidate) = inner.rollout.active() {
                        if inner.rollout.in_slice(&parsed.cache_key) {
                            if let Some(cand_model) = candidate.model(case) {
                                if cand_model.recommender.quantized().is_some() {
                                    let inc_start = Instant::now();
                                    let inc = guarded_fast(&model, &parsed.query);
                                    let inc_us = inc_start.elapsed().as_micros() as u64;
                                    let cand_start = Instant::now();
                                    let cand = guarded_fast(cand_model, &parsed.query);
                                    let cand_us = cand_start.elapsed().as_micros() as u64;
                                    let cand_failed = matches!(
                                        &cand,
                                        crate::batch::Outcome::Err { .. }
                                    );
                                    let agreed =
                                        !cand_failed && answers_agree(&inc, &cand);
                                    inner.rollout.record_sample(
                                        &candidate,
                                        agreed,
                                        cand_failed,
                                        cand_us,
                                        inc_us,
                                    );
                                    let inc_failed = matches!(
                                        &inc,
                                        crate::batch::Outcome::Err { status, .. } if *status >= 500
                                    );
                                    if inc_failed {
                                        metrics::SERVE_INFER_FAILURES.inc();
                                    }
                                    breaker.record(!inc_failed);
                                    // Never cached: the winning answer may
                                    // carry a generation that is not live.
                                    let served = if cand_failed { inc } else { cand };
                                    return respond(uncached_response(served));
                                }
                            }
                        }
                    }
                    // Same panic isolation and breaker accounting as the
                    // worker's answer_job: a poisoned model costs one 500.
                    let outcome = guarded_fast(&model, &parsed.query);
                    let failed = matches!(
                        &outcome,
                        crate::batch::Outcome::Err { status, .. } if *status >= 500
                    );
                    if failed {
                        metrics::SERVE_INFER_FAILURES.inc();
                    }
                    breaker.record(!failed);
                    return respond(outcome_response(outcome, parsed.cache_key, inner));
                }
            }
        }
    }

    // Admission control: reject-on-full keeps queue latency bounded.
    let job = Job {
        query: parsed.query,
        topk: parsed.topk,
        reply: make_reply(),
        deadline,
    };
    match inner.queue.push(job) {
        Ok(()) => Step::Queued {
            started,
            deadline,
            cache_key: parsed.cache_key,
        },
        Err(PushError::Full) => {
            let mut resp =
                Response::error(429, "queue_full", "request queue is full; retry shortly");
            resp.retry_after = Some(1);
            respond(resp)
        }
        Err(PushError::ShuttingDown) => respond(draining()),
    }
}

/// Frames an inference [`Outcome`](crate::batch::Outcome) as HTTP and
/// handles response caching — shared by the queue path and the
/// single-query bypass so both produce byte-identical responses.
pub(crate) fn outcome_response(
    outcome: crate::batch::Outcome,
    cache_key: Vec<u8>,
    inner: &Inner,
) -> Response {
    match outcome {
        crate::batch::Outcome::Ok {
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
        crate::batch::Outcome::Err {
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

/// Panic-isolated [`execute_fast`](crate::batch::execute_fast): a poisoned
/// model costs one 500, never the shard that hit it.
fn guarded_fast(
    model: &crate::reload::LoadedModel,
    query: &crate::batch::RecQuery,
) -> crate::batch::Outcome {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        crate::batch::execute_fast(model, query)
    }))
    .unwrap_or_else(|_| crate::batch::Outcome::Err {
        status: 500,
        code: "inference_panic",
        message: "inference panicked; the request was isolated".into(),
    })
}

/// Whether two successful fast-path answers agree on everything but the
/// producing generation (the tail's first field, which legitimately
/// differs between incumbent and candidate).
fn answers_agree(a: &crate::batch::Outcome, b: &crate::batch::Outcome) -> bool {
    let tail = |o: &crate::batch::Outcome| match o {
        crate::batch::Outcome::Ok { body_tail, .. } => body_tail
            .find(',')
            .map(|i| body_tail[i..].to_string()),
        crate::batch::Outcome::Err { .. } => None,
    };
    match (tail(a), tail(b)) {
        (Some(x), Some(y)) => x == y,
        _ => false,
    }
}

/// Frames an outcome as HTTP without touching the response cache (canary
/// comparisons: the served answer may come from a non-live generation).
fn uncached_response(outcome: crate::batch::Outcome) -> Response {
    match outcome {
        crate::batch::Outcome::Ok { body_tail, .. } => {
            Response::json(200, format!("{{\"cached\":false,{body_tail}"))
        }
        crate::batch::Outcome::Err {
            status,
            code,
            message,
        } => Response::error(status, code, &message),
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
