//! `airchitect-serve` — a std-only HTTP/1.1 inference server that turns the
//! constant-time [`Recommender`](airchitect::Recommender) into a long-lived
//! service (the "learned optimizer as a service" framing of AIRCHITECT v2
//! and ArchGym).
//!
//! The socket handling is deliberately boring; the subsystem is the serving
//! machinery around it:
//!
//! * **One answer path per request kind** ([`batch`]) — a shard answers
//!   every top-1 query inline with the int8-quantized pass; a ranked
//!   (`topk`) query runs the f32 pass on the ranked pool, a fixed set of
//!   threads off the event loops. Each answer snapshots the current model
//!   once.
//! * **Admission control** ([`batch::Queue`]) — the ranked pool's queue is
//!   bounded. When it is full, ranked requests are rejected immediately
//!   with `429 Too Many Requests` and a `Retry-After` header instead of
//!   piling latency onto every queued caller.
//! * **Response caching** ([`cache`]) — an LRU keyed on the canonicalized
//!   query (exact integer parameters, not the JSON text), with hit/miss
//!   counters in the telemetry registry. Entries are stamped with the model
//!   generation that produced them, so a hot-reload implicitly invalidates
//!   the whole cache without racing in-flight insertions.
//! * **Hot reload** ([`reload::ModelHub`]) — `POST /v1/reload` re-reads the
//!   registered model files (checksum-verified by the `AIRM` codec) and
//!   atomically swaps an `Arc` per case study. An answer in flight
//!   finishes on the model it snapshotted; no request ever mixes two
//!   models.
//! * **Evented c10k core** ([`listener`], `evented`, `reactor`) — the
//!   listener is N event-loop shards, each with its own `SO_REUSEPORT`
//!   acceptor and epoll reactor driving nonblocking connection state
//!   machines. Work that may block — ranked answers, reloads, rollbacks,
//!   the cluster router's calls to its replicas — runs on bounded
//!   off-loop pools whose replies re-arm their connection through a
//!   completion queue + eventfd wakeup. The
//!   reactor is epoll, so serving needs Linux.
//! * **Graceful shutdown** ([`listener`]) — `POST /v1/shutdown` stops the
//!   shards accepting, lets the pools drain their queues, waits for every
//!   connection to close, and returns from [`Server::run`] so the process
//!   can exit 0.
//! * **Cluster mode** ([`supervisor`], [`ring`], [`proxy`]) — `serve
//!   --cluster` supervises N single-process replicas as child processes
//!   (health probes, exponential-backoff restarts, restart-storm caps) and
//!   fronts them with a consistent-hashing router, served by the same
//!   event-loop shards, that fails over and aggregates `/healthz` and
//!   `/metrics` across the fleet.
//!
//! Routes:
//!
//! | Route                        | Method | Purpose                            |
//! |------------------------------|--------|------------------------------------|
//! | `/v1/recommend/array`        | POST   | CS1: array shape + dataflow        |
//! | `/v1/recommend/buffers`      | POST   | CS2: SRAM buffer split             |
//! | `/v1/recommend/schedule`     | POST   | CS3: multi-array schedule          |
//! | `/v1/reload`                 | POST   | atomic model hot-reload            |
//! | `/v1/shutdown`               | POST   | drain-then-exit                    |
//! | `/healthz`                   | GET    | liveness + loaded models           |
//! | `/metrics`                   | GET    | telemetry registry, text format    |
//!
//! All recommendation bodies are JSON; `topk` requests a ranked list. The
//! crate is zero-dependency (std plus the in-workspace crates) — JSON
//! parsing is borrowed from `airchitect-telemetry`'s hand-rolled parser.

#![warn(missing_docs)]

pub mod batch;
pub mod breaker;
pub mod cache;
pub mod canary;
pub mod client;
#[cfg(target_os = "linux")]
mod evented;
pub mod fallback;
pub mod http;
pub mod listener;
pub mod proxy;
#[cfg(target_os = "linux")]
pub mod reactor;
pub mod registry;
pub mod reload;
pub mod ring;
pub mod router;
mod shadow;
pub mod supervisor;

use std::path::PathBuf;

pub use listener::Server;
pub use proxy::Cluster;
pub use supervisor::ClusterConfig;

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind, e.g. `127.0.0.1:8080`; port 0 picks an ephemeral
    /// port (read it back via [`Server::local_addr`]).
    pub addr: String,
    /// Trained `.airm` model files, at most one per case study. The paths
    /// are remembered for hot-reload.
    pub model_paths: Vec<PathBuf>,
    /// Threads of the ranked pool, which answers ranked (`topk`) requests
    /// with the f32 pass off the event loops. Top-1 requests never use
    /// it: the shard that parsed one answers it inline.
    pub workers: usize,
    /// Ranked requests that may wait for the ranked pool; a full queue
    /// answers 429. Zero refuses every uncached ranked request (useful for
    /// admission-control testing).
    pub queue_depth: usize,
    /// LRU response-cache capacity in entries; zero disables caching.
    pub cache_capacity: usize,
    /// Idle keep-alive / read timeout per connection, seconds. Also bounds
    /// how long graceful shutdown waits for silent connections.
    pub read_timeout_secs: u64,
    /// Socket write timeout per connection, seconds; zero disables it. A
    /// reader that stops draining its socket is closed after this long.
    pub write_timeout_secs: u64,
    /// Default end-to-end request budget in milliseconds; zero disables
    /// server-side deadlines. Clients may tighten (never extend) it per
    /// request with an `X-Deadline-Ms` header; an expired budget answers
    /// `504` at whatever stage it is detected.
    pub deadline_ms: u64,
    /// Consecutive 5xx-class failures that open a circuit breaker (one per
    /// case study for inference, one for reload). Zero disables breakers.
    pub breaker_threshold: u32,
    /// How long an open breaker rejects before admitting one half-open
    /// probe, milliseconds.
    pub breaker_cooldown_ms: u64,
    /// Degraded-mode serving: when a case's circuit is open or its model
    /// failed to load at startup, answer from the exhaustive-search oracle
    /// (`"source":"search"` + `Warning` header) instead of a 5xx. Also
    /// makes startup tolerate per-model load failures.
    pub fallback_search: bool,
    /// Event-loop shards for the listener (each gets its own
    /// `SO_REUSEPORT` acceptor and epoll reactor); zero auto-selects from
    /// the CPU count.
    pub event_loops: usize,
    /// Must stay `false`: [`Server::bind`] rejects `true` with
    /// [`ServeError::Config`], because the evented listener is the only
    /// one. The field is kept so struct literals that set it (the
    /// benchmark harness's does) still compile.
    pub threaded: bool,
    /// `TCP_NODELAY` on accepted sockets, on by default. Each response
    /// leaves in one write, so Nagle's algorithm has nothing to coalesce:
    /// it only holds an answer until the client ACKs the previous one.
    /// `false` keeps Nagle on (the benchmark harness sets it, so its gated
    /// latencies stay comparable across versions).
    pub nodelay: bool,
    /// Shadow-oracle sampling rate in `0.0..=1.0`; zero disables the
    /// online-learning loop. Sampled requests are re-scored against the
    /// exact DSE oracle in a background pool and logged to `shadow_dir`.
    pub shadow_rate: f64,
    /// Directory for the rotating JSONL misprediction log. Required when
    /// `shadow_rate > 0`. Cluster replicas may share it (files are
    /// pid-scoped).
    pub shadow_dir: Option<PathBuf>,
    /// Bounded shadow-queue depth, shared by oracle and canary samples; a
    /// full queue drops samples (oracle ones counted in
    /// `serve.shadow.dropped`) rather than delaying requests.
    pub shadow_queue_depth: usize,
    /// Dedicated low-priority shadow worker threads (never borrowed from
    /// the ranked pool); they score oracle and canary samples.
    pub shadow_threads: usize,
    /// Versioned model registry directory (`--model-dir`). When set and
    /// `model_paths` is empty, the server boots from the registry's
    /// `current.airm`; reloads stage the newest unpromoted version and
    /// failed canaries quarantine it.
    pub model_dir: Option<PathBuf>,
    /// Canary traffic split in `0.0..=1.0`; zero keeps the legacy
    /// immediate-swap reload. With a split, `/v1/reload` stages the
    /// candidate, and while it is staged this fraction of recommend
    /// requests of any kind (cached or not, top-1 or ranked) is scored on
    /// the shadow pool: answered by the candidate and the incumbent and
    /// compared, until the gates decide. Clients keep getting the
    /// incumbent's answer. The pool is sized by `shadow_threads` and
    /// `shadow_queue_depth`.
    pub canary_split: f64,
    /// Compared samples required before the canary gates are judged.
    pub canary_min_samples: u64,
    /// Minimum candidate-vs-incumbent agreement rate for promotion: the
    /// share of samples on which both answer alike (a ranked answer by
    /// its configurations in order, not its scores).
    pub canary_min_agreement: f64,
    /// Maximum candidate p99 latency as a multiple of the incumbent's.
    pub canary_max_p99_ratio: f64,
    /// Rolling cluster reload: how long the router waits for one
    /// replica's canary verdict before declaring the rollout failed.
    pub rollout_timeout_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            model_paths: Vec::new(),
            workers: 2,
            queue_depth: 256,
            cache_capacity: 4096,
            read_timeout_secs: 5,
            write_timeout_secs: 5,
            deadline_ms: 0,
            breaker_threshold: 5,
            breaker_cooldown_ms: 1000,
            fallback_search: false,
            event_loops: 0,
            threaded: false,
            nodelay: true,
            shadow_rate: 0.0,
            shadow_dir: None,
            shadow_queue_depth: 64,
            shadow_threads: 1,
            model_dir: None,
            canary_split: 0.0,
            canary_min_samples: 50,
            canary_min_agreement: 0.9,
            canary_max_p99_ratio: 4.0,
            rollout_timeout_ms: 30_000,
        }
    }
}

/// Error produced when configuring, binding, or running a server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Invalid configuration (no models, zero workers, ...).
    Config(String),
    /// A model file failed to load or validate.
    Model(String),
    /// Socket-level failure, stringified.
    Io(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(msg) => write!(f, "server config: {msg}"),
            ServeError::Model(msg) => write!(f, "model: {msg}"),
            ServeError::Io(msg) => write!(f, "server i/o: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}
