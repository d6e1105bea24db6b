//! Atomic metric primitives and the fixed registry of well-known metrics.
//!
//! All metrics are `static` instances declared here so that (a) every crate
//! records into the same cells without registration plumbing and (b) the
//! registry is a constant list that [`snapshot`] can walk without locking.
//! Recording is a relaxed-load enabled check followed by at most a couple
//! of relaxed RMW operations: lock-free, allocation-free, and a no-op when
//! telemetry is disabled.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::enabled;

/// Number of power-of-two latency buckets kept per histogram.
pub const HIST_BUCKETS: usize = 32;

/// Monotonic event counter.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            value: AtomicU64::new(0),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Add `n` events. Free when telemetry is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Last-write-wins scalar. Stores `f64` bits in an `AtomicU64`; `NaN`
/// means "never set" and is skipped by [`snapshot`].
pub struct Gauge {
    name: &'static str,
    bits: AtomicU64,
}

const GAUGE_UNSET: u64 = f64::NAN.to_bits();

impl Gauge {
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            bits: AtomicU64::new(GAUGE_UNSET),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Record the latest value. Free when telemetry is disabled.
    #[inline]
    pub fn set(&self, v: f64) {
        if enabled() {
            self.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// `None` until the first `set` while enabled.
    pub fn get(&self) -> Option<f64> {
        let v = f64::from_bits(self.bits.load(Ordering::Relaxed));
        if v.is_nan() {
            None
        } else {
            Some(v)
        }
    }

    fn reset(&self) {
        self.bits.store(GAUGE_UNSET, Ordering::Relaxed);
    }
}

/// Lock-free histogram over `u64` samples (microseconds by convention).
///
/// Tracks count/sum/min/max plus power-of-two buckets: bucket `i` counts
/// samples whose bit length is `i` (bucket 0 holds zeros, the last bucket
/// absorbs everything ≥ 2^30).
pub struct Histogram {
    name: &'static str,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);

impl Histogram {
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [ZERO; HIST_BUCKETS],
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Index of the power-of-two bucket for `v`.
    #[inline]
    fn bucket(v: u64) -> usize {
        ((u64::BITS - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }

    /// Record one sample. Free when telemetry is disabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if !enabled() {
            return;
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[Self::bucket(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Start a wall-clock timer whose drop records elapsed microseconds.
    ///
    /// When telemetry is disabled the guard holds no timestamp and drop is
    /// a no-op — no clock read, no atomics.
    #[inline]
    pub fn start_timer(&self) -> HistTimer<'_> {
        HistTimer {
            hist: self,
            start: if enabled() { Some(Instant::now()) } else { None },
        }
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// RAII timer from [`Histogram::start_timer`].
pub struct HistTimer<'a> {
    hist: &'a Histogram,
    start: Option<Instant>,
}

impl Drop for HistTimer<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            self.hist.record(start.elapsed().as_micros() as u64);
        }
    }
}

/// Point-in-time copy of a histogram's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

// ---------------------------------------------------------------------------
// Well-known metrics. Declared centrally so the registry is a const list.
// ---------------------------------------------------------------------------

/// Analytical simulator evaluations (`runtime_cycles` calls).
pub static SIM_EVALS: Counter = Counter::new("sim.evals");
/// Exhaustive/heuristic searches launched.
pub static DSE_SEARCHES: Counter = Counter::new("dse.searches");
/// Design points visited across all searches.
pub static DSE_SEARCH_POINTS: Counter = Counter::new("dse.search_points");
/// Dataset-generation shards completed (fresh or retried).
pub static DSE_SHARDS_COMPLETED: Counter = Counter::new("dse.shards_completed");
/// Panic-isolated shard retries.
pub static DSE_SHARD_RETRIES: Counter = Counter::new("dse.shard_retries");
/// Shards skipped because a checkpointed artifact was reused.
pub static DSE_SHARDS_RESUMED: Counter = Counter::new("dse.shards_resumed");
/// Mini-batches processed by the trainer.
pub static TRAIN_BATCHES: Counter = Counter::new("train.batches");
/// Epochs completed by the trainer.
pub static TRAIN_EPOCHS: Counter = Counter::new("train.epochs");
/// Single-row inference queries answered.
pub static INFER_QUERIES: Counter = Counter::new("infer.queries");
/// Checkpoints written.
pub static CHECKPOINT_SAVES: Counter = Counter::new("checkpoint.saves");
/// GEMM calls run on the AVX-512F tier.
pub static GEMM_DISPATCH_AVX512: Counter = Counter::new("gemm.kernel_dispatch.avx512");
/// GEMM calls run on the AVX2 tier.
pub static GEMM_DISPATCH_AVX2: Counter = Counter::new("gemm.kernel_dispatch.avx2");
/// GEMM calls run on the portable tier.
pub static GEMM_DISPATCH_PORTABLE: Counter = Counter::new("gemm.kernel_dispatch.portable");
/// HTTP requests accepted by the inference server (any route).
pub static SERVE_REQUESTS: Counter = Counter::new("serve.requests");
/// Requests answered 429 because a queue was full: the ranked pool's, a
/// control thread's or a router forwarding queue (never a dropped shadow
/// or canary sample).
pub static SERVE_REJECTED: Counter = Counter::new("serve.rejected");
/// Recommendation responses served from the LRU cache.
pub static SERVE_CACHE_HITS: Counter = Counter::new("serve.cache_hits");
/// Recommendation requests that missed the cache and ran inference.
pub static SERVE_CACHE_MISSES: Counter = Counter::new("serve.cache_misses");
/// Ranked requests answered on the ranked pool, one per request (an
/// expired deadline or a fallback answer included). The pool answers each
/// request on its own, so this always equals `serve.batched_jobs`.
pub static SERVE_BATCHES: Counter = Counter::new("serve.batches");
/// Ranked requests answered on the ranked pool, one per request; equal to
/// `serve.batches` (one job per "batch"). Both stay for the readers that
/// divide them.
pub static SERVE_BATCHED_JOBS: Counter = Counter::new("serve.batched_jobs");
/// Successful model hot-reloads.
pub static SERVE_RELOADS: Counter = Counter::new("serve.reloads");
/// Requests answered 504 because their end-to-end deadline expired.
pub static SERVE_DEADLINE_EXCEEDED: Counter = Counter::new("serve.deadline_exceeded");
/// Circuit-breaker transitions into the open state (any breaker).
pub static SERVE_BREAKER_OPENS: Counter = Counter::new("serve.breaker_opens");
/// Recommendations served by the exhaustive-search fallback oracle.
pub static SERVE_FALLBACKS: Counter = Counter::new("serve.fallbacks");
/// Inference executions that failed server-side (5xx-class outcomes).
pub static SERVE_INFER_FAILURES: Counter = Counter::new("serve.infer_failures");
/// Transient artifact-read errors retried by `core::persist`.
pub static PERSIST_READ_RETRIES: Counter = Counter::new("persist.read_retries");
/// Recommendation requests routed by the cluster proxy.
pub static CLUSTER_PROXY_REQUESTS: Counter = Counter::new("cluster.proxy_requests");
/// Requests moved off a replica because it failed them: an open outbound
/// breaker, a transport error or timeout, or a 5xx. A healthy replica
/// skipped at its in-flight cap is a spill, not a failover.
pub static CLUSTER_FAILOVERS: Counter = Counter::new("cluster.failovers");
/// Requests that skipped a healthy replica holding its `max_inflight`
/// requests and went to the next one on the ring (load spill, not a
/// failure).
pub static CLUSTER_SPILLS: Counter = Counter::new("cluster.spills");
/// Replica child processes (re)started by the supervisor after a crash.
pub static CLUSTER_RESTARTS: Counter = Counter::new("cluster.restarts");
/// Health probes issued by the supervisor.
pub static CLUSTER_PROBES: Counter = Counter::new("cluster.probes");
/// Health probes that failed (unreachable, non-200, or injected fault).
pub static CLUSTER_PROBE_FAILURES: Counter = Counter::new("cluster.probe_failures");
/// Replicas ejected from the routing ring (degraded, unreachable, or dead).
pub static CLUSTER_EJECTIONS: Counter = Counter::new("cluster.ejections");
/// Previously ejected replicas re-admitted after consecutive healthy probes.
pub static CLUSTER_READMISSIONS: Counter = Counter::new("cluster.readmissions");
/// Int8 GEMV calls dispatched to the AVX2 kernel.
pub static QGEMV_DISPATCH_AVX2: Counter = Counter::new("qgemv.dispatch.avx2");
/// Int8 GEMV calls dispatched to the portable scalar kernel.
pub static QGEMV_DISPATCH_SCALAR: Counter = Counter::new("qgemv.dispatch.scalar");
/// Always 0: the int8 path has no embedding memo (every query gathers
/// its embedding row). Registered so that readers of the old series see
/// a zero, not a missing line.
pub static QUANT_MEMO_HITS: Counter = Counter::new("quant.memo_hits");
/// Always 0, like `quant.memo_hits`.
pub static QUANT_MEMO_MISSES: Counter = Counter::new("quant.memo_misses");
/// Top-1 recommendations answered inline on a shard by a model (not by
/// the fallback oracle, a missing model or an expired deadline). Every
/// top-1 request that reaches a model is answered this way.
pub static SERVE_BYPASS: Counter = Counter::new("serve.bypass");
/// Event-loop wakeups issued by off-loop threads delivering completions
/// to the evented listener (one eventfd write per empty→non-empty queue
/// transition, not one per completion).
pub static SERVE_WAKEUPS: Counter = Counter::new("serve.wakeups");
/// Admitted requests sampled for the shadow oracle (canary samples are
/// not counted here).
pub static SERVE_SHADOW_SAMPLED: Counter = Counter::new("serve.shadow.sampled");
/// Oracle samples dropped because the shadow queue was full (the
/// backpressure signal for shadow-pool starvation).
pub static SERVE_SHADOW_DROPPED: Counter = Counter::new("serve.shadow.dropped");
/// Misprediction-log records written by the shadow pool.
pub static SERVE_SHADOW_RECORDS: Counter = Counter::new("serve.shadow.records");
/// Shadow-scored requests where the model's top-1 disagreed with the
/// exact DSE oracle.
pub static SERVE_SHADOW_DISAGREEMENTS: Counter =
    Counter::new("serve.shadow.disagreements");
/// Candidate models staged as canaries by `/v1/reload`.
pub static SERVE_CANARY_STAGED: Counter = Counter::new("serve.canary.staged");
/// Canary samples scored on the shadow pool: sampled requests of any
/// kind answered by both the incumbent and the staged candidate and
/// compared. Clients never see the candidate's answer, so this is not an
/// exposure count.
pub static SERVE_CANARY_SAMPLES: Counter = Counter::new("serve.canary.samples");
/// Canary samples where candidate and incumbent agreed on the answer.
pub static SERVE_CANARY_AGREEMENTS: Counter = Counter::new("serve.canary.agreements");
/// Canary samples where the candidate's answer was a 5xx-class outcome
/// (a panic or model error); any such failure rolls the candidate back.
pub static SERVE_CANARY_CANDIDATE_FAILURES: Counter =
    Counter::new("serve.canary.candidate_failures");
/// Candidates promoted to incumbent after passing the canary gates.
pub static SERVE_CANARY_PROMOTIONS: Counter = Counter::new("serve.canary.promotions");
/// Candidates rolled back (gate failure, candidate error, or explicit
/// `/v1/rollback`), quarantined in the registry when one is attached.
pub static SERVE_CANARY_ROLLBACKS: Counter = Counter::new("serve.canary.rollbacks");
/// Half-open connections reaped by the header-phase deadline (slowloris
/// defense: dribbled header bytes no longer reset the clock).
pub static SERVE_SLOWLORIS_REAPED: Counter = Counter::new("serve.slowloris_reaped");
/// Rolling cluster reloads started by the router.
pub static CLUSTER_ROLLOUT_STARTED: Counter = Counter::new("cluster.rollout.started");
/// Rolling reloads where every replica promoted its canary.
pub static CLUSTER_ROLLOUT_PROMOTED: Counter = Counter::new("cluster.rollout.promoted");
/// Fleet-wide rollbacks (a replica's canary failed mid-rollout, so every
/// replica was reverted to the incumbent).
pub static CLUSTER_ROLLOUT_ROLLBACKS: Counter =
    Counter::new("cluster.rollout.rollbacks");
/// Per-replica reload attempts issued during rolling reloads.
pub static CLUSTER_ROLLOUT_REPLICA_RELOADS: Counter =
    Counter::new("cluster.rollout.replica_reloads");

/// Latest training loss.
pub static TRAIN_LOSS: Gauge = Gauge::new("train.loss");
/// Latest training accuracy.
pub static TRAIN_ACCURACY: Gauge = Gauge::new("train.accuracy");
/// CS1 inference breaker state (0 closed, 1 open, 2 half-open).
pub static SERVE_BREAKER_ARRAY: Gauge = Gauge::new("serve.breaker_state.array");
/// CS2 inference breaker state (0 closed, 1 open, 2 half-open).
pub static SERVE_BREAKER_BUFFERS: Gauge = Gauge::new("serve.breaker_state.buffers");
/// CS3 inference breaker state (0 closed, 1 open, 2 half-open).
pub static SERVE_BREAKER_SCHEDULE: Gauge = Gauge::new("serve.breaker_state.schedule");
/// Hot-reload breaker state (0 closed, 1 open, 2 half-open).
pub static SERVE_BREAKER_RELOAD: Gauge = Gauge::new("serve.breaker_state.reload");
/// Replicas currently admitted to the cluster routing ring.
pub static CLUSTER_HEALTHY_REPLICAS: Gauge = Gauge::new("cluster.healthy_replicas");
/// Rolling top-1 agreement between the served model and the shadow DSE
/// oracle, in `[0, 1]` over the drift monitor's window.
pub static SERVE_SHADOW_AGREEMENT: Gauge = Gauge::new("serve.shadow.agreement");
/// Rolling mean shadow-oracle search latency, microseconds.
pub static SERVE_SHADOW_ORACLE_MEAN_US: Gauge =
    Gauge::new("serve.shadow.oracle_mean_us");
/// Whether a canary candidate is currently staged (1) or not (0).
pub static SERVE_CANARY_ACTIVE: Gauge = Gauge::new("serve.canary.active");
/// Candidate-vs-incumbent agreement over the current canary's samples.
pub static SERVE_CANARY_AGREEMENT: Gauge = Gauge::new("serve.canary.agreement");
/// Candidate p99 latency divided by incumbent p99 over a canary's
/// samples, both timed on the shadow pool; set once, when the verdict is
/// judged (0 while a candidate is evaluating). The latency gate compares
/// it to the threshold.
pub static SERVE_CANARY_P99_RATIO: Gauge = Gauge::new("serve.canary.p99_ratio");
/// Replicas that have promoted the candidate in the in-flight rolling
/// reload (reset to 0 when no rollout is in progress).
pub static CLUSTER_ROLLOUT_REPLICAS_DONE: Gauge =
    Gauge::new("cluster.rollout.replicas_done");

/// Per-mini-batch wall time, microseconds.
pub static TRAIN_BATCH_US: Histogram = Histogram::new("train.batch_us");
/// Per-query inference latency, microseconds.
pub static INFER_QUERY_US: Histogram = Histogram::new("infer.query_us");
/// Checkpoint persistence latency, microseconds.
pub static CHECKPOINT_SAVE_US: Histogram = Histogram::new("checkpoint.save_us");
/// End-to-end server request latency (parse to response write), microseconds.
pub static SERVE_REQUEST_US: Histogram = Histogram::new("serve.request_us");
/// Router-observed backend round-trip latency, microseconds.
pub static CLUSTER_BACKEND_US: Histogram = Histogram::new("cluster.backend_us");
/// Exact DSE-oracle search latency per shadow-sampled request,
/// microseconds (the shadow pool's cost, never on the serving path).
pub static SERVE_SHADOW_ORACLE_US: Histogram =
    Histogram::new("serve.shadow.oracle_us");

static COUNTERS: [&Counter; 54] = [
    &SIM_EVALS,
    &DSE_SEARCHES,
    &DSE_SEARCH_POINTS,
    &DSE_SHARDS_COMPLETED,
    &DSE_SHARD_RETRIES,
    &DSE_SHARDS_RESUMED,
    &TRAIN_BATCHES,
    &TRAIN_EPOCHS,
    &INFER_QUERIES,
    &CHECKPOINT_SAVES,
    &GEMM_DISPATCH_AVX512,
    &GEMM_DISPATCH_AVX2,
    &GEMM_DISPATCH_PORTABLE,
    &SERVE_REQUESTS,
    &SERVE_REJECTED,
    &SERVE_CACHE_HITS,
    &SERVE_CACHE_MISSES,
    &SERVE_BATCHES,
    &SERVE_BATCHED_JOBS,
    &SERVE_RELOADS,
    &SERVE_DEADLINE_EXCEEDED,
    &SERVE_BREAKER_OPENS,
    &SERVE_FALLBACKS,
    &SERVE_INFER_FAILURES,
    &PERSIST_READ_RETRIES,
    &CLUSTER_PROXY_REQUESTS,
    &CLUSTER_FAILOVERS,
    &CLUSTER_SPILLS,
    &CLUSTER_RESTARTS,
    &CLUSTER_PROBES,
    &CLUSTER_PROBE_FAILURES,
    &CLUSTER_EJECTIONS,
    &CLUSTER_READMISSIONS,
    &QGEMV_DISPATCH_AVX2,
    &QGEMV_DISPATCH_SCALAR,
    &QUANT_MEMO_HITS,
    &QUANT_MEMO_MISSES,
    &SERVE_BYPASS,
    &SERVE_WAKEUPS,
    &SERVE_SHADOW_SAMPLED,
    &SERVE_SHADOW_DROPPED,
    &SERVE_SHADOW_RECORDS,
    &SERVE_SHADOW_DISAGREEMENTS,
    &SERVE_CANARY_STAGED,
    &SERVE_CANARY_SAMPLES,
    &SERVE_CANARY_AGREEMENTS,
    &SERVE_CANARY_CANDIDATE_FAILURES,
    &SERVE_CANARY_PROMOTIONS,
    &SERVE_CANARY_ROLLBACKS,
    &SERVE_SLOWLORIS_REAPED,
    &CLUSTER_ROLLOUT_STARTED,
    &CLUSTER_ROLLOUT_PROMOTED,
    &CLUSTER_ROLLOUT_ROLLBACKS,
    &CLUSTER_ROLLOUT_REPLICA_RELOADS,
];
static GAUGES: [&Gauge; 13] = [
    &TRAIN_LOSS,
    &TRAIN_ACCURACY,
    &SERVE_BREAKER_ARRAY,
    &SERVE_BREAKER_BUFFERS,
    &SERVE_BREAKER_SCHEDULE,
    &SERVE_BREAKER_RELOAD,
    &CLUSTER_HEALTHY_REPLICAS,
    &SERVE_SHADOW_AGREEMENT,
    &SERVE_SHADOW_ORACLE_MEAN_US,
    &SERVE_CANARY_ACTIVE,
    &SERVE_CANARY_AGREEMENT,
    &SERVE_CANARY_P99_RATIO,
    &CLUSTER_ROLLOUT_REPLICAS_DONE,
];
static HISTOGRAMS: [&Histogram; 6] = [
    &TRAIN_BATCH_US,
    &INFER_QUERY_US,
    &CHECKPOINT_SAVE_US,
    &SERVE_REQUEST_US,
    &CLUSTER_BACKEND_US,
    &SERVE_SHADOW_ORACLE_US,
];

/// Every registered counter.
pub fn counters() -> &'static [&'static Counter] {
    &COUNTERS
}

/// Every registered gauge.
pub fn gauges() -> &'static [&'static Gauge] {
    &GAUGES
}

/// Every registered histogram.
pub fn histograms() -> &'static [&'static Histogram] {
    &HISTOGRAMS
}

/// Point-in-time copy of every *touched* metric (untouched metrics are
/// omitted so telemetry files only carry what the run exercised).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Collect the current value of every touched metric.
pub fn snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        counters: counters()
            .iter()
            .filter(|c| c.get() > 0)
            .map(|c| (c.name().to_string(), c.get()))
            .collect(),
        gauges: gauges()
            .iter()
            .filter_map(|g| g.get().map(|v| (g.name().to_string(), v)))
            .collect(),
        histograms: histograms()
            .iter()
            .map(|h| (h.name(), h.snapshot()))
            .filter(|(_, s)| s.count > 0)
            .map(|(n, s)| (n.to_string(), s))
            .collect(),
    }
}

/// Zero every registered metric.
pub(crate) fn reset_all() {
    for c in counters() {
        c.reset();
    }
    for g in gauges() {
        g.reset();
    }
    for h in histograms() {
        h.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_metrics_do_not_move() {
        let _g = crate::test_guard();
        crate::disable();
        crate::reset();
        SIM_EVALS.add(5);
        TRAIN_LOSS.set(1.0);
        TRAIN_BATCH_US.record(10);
        assert_eq!(SIM_EVALS.get(), 0);
        assert_eq!(TRAIN_LOSS.get(), None);
        assert_eq!(TRAIN_BATCH_US.snapshot().count, 0);
        let snap = snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn histogram_bucketing_and_stats() {
        let _g = crate::test_guard();
        crate::enable();
        crate::reset();
        for v in [0u64, 1, 2, 3, 900, 1 << 40] {
            INFER_QUERY_US.record(v);
        }
        let s = INFER_QUERY_US.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1 << 40);
        assert_eq!(s.buckets[0], 1); // the zero
        assert_eq!(s.buckets[1], 1); // 1
        assert_eq!(s.buckets[2], 2); // 2, 3
        assert_eq!(s.buckets[10], 1); // 900
        assert_eq!(s.buckets[HIST_BUCKETS - 1], 1); // overflow bucket
        crate::disable();
        crate::reset();
    }

    #[test]
    fn timer_records_when_enabled_only() {
        let _g = crate::test_guard();
        crate::disable();
        crate::reset();
        drop(TRAIN_BATCH_US.start_timer());
        assert_eq!(TRAIN_BATCH_US.snapshot().count, 0);
        crate::enable();
        drop(TRAIN_BATCH_US.start_timer());
        assert_eq!(TRAIN_BATCH_US.snapshot().count, 1);
        crate::disable();
        crate::reset();
    }
}
