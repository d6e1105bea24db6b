//! Behavioural soaks: a live server, or a supervised cluster, under
//! sustained keep-alive load while the system does something hard — learns
//! from drifted traffic, canaries a bad and a good checkpoint, loses a
//! replica to SIGKILL, or answers through cycling injected faults. Every
//! gate is an assertion; `--nocapture` prints what each soak measured.
//!
//! ```sh
//! cargo test --release -p airchitect-cli --test soaks -- --nocapture
//! cargo test --release -p airchitect-cli --features chaos --test soaks chaos
//! ```

use std::io;
use std::net::SocketAddr;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use airchitect::model::{AirchitectConfig, AirchitectModel, CaseStudy};
use airchitect::{persist, Recommender};
use airchitect_cli::bench::percentile;
use airchitect_data::Dataset;
use airchitect_dse::case1::Case1Problem;
use airchitect_dse::space::Case1Space;
use airchitect_nn::train::TrainConfig;
use airchitect_online::{fine_tune, read_dir, DriftStats, FineTuneOptions, OnlinePolicy};
use airchitect_serve::client::{ClientResponse, HttpClient, RetryClient};
use airchitect_serve::registry::{Registry, DEFAULT_RETAIN};
use airchitect_serve::router::parse_recommend;
use airchitect_serve::{Cluster, ClusterConfig, ServeConfig, ServeError, Server};
use airchitect_sim::{ArrayConfig, Dataflow};
use airchitect_telemetry::json::write_f64;
use airchitect_telemetry::metrics;
use airchitect_workload::GemmWorkload;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

mod common;
use common::Running;

const TIMEOUT: Duration = Duration::from_secs(30);
/// CS1 output-space size at the paper's default 2^18 MAC budget.
const CS1_CLASSES: u32 = 459;
/// MAC budget whose output space has [`CS1_CLASSES`] labels.
const CS1_BUDGET_LOG2: u32 = 18;
/// The MAC budget every soak request carries.
const BUDGET: u64 = 1 << 10;

/// The soaks read process-global state — the `SERVE_SHADOW_*`,
/// `SERVE_CANARY_*` and breaker counters and the chaos registry — so they
/// run one at a time.
fn soak_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A temp path private to one soak of this process.
fn temp_path(soak: &str, name: &str) -> PathBuf {
    let pid = std::process::id();
    std::env::temp_dir().join(format!("airchitect-soak-{soak}-{pid}-{name}"))
}

/// When a load run ends.
#[derive(Clone, Copy)]
enum Until<'a> {
    /// After this many requests across all clients.
    Requests(u64),
    /// Once the flag is set.
    Stopped(&'a AtomicBool),
}

/// The one load driver: `clients` keep-alive clients stride `pool` (client
/// `c` sends entries `c, c + 7, c + 14, …`; 7 is coprime to every pool
/// size here, so each client walks the whole pool) and hand every response,
/// or transport error, to `check`. With `attempts > 1` a transport error is
/// retried on a fresh connection; only the cluster soak, whose replicas die
/// mid-run, does that. Returns the sorted request latencies in µs.
fn drive<T: AsRef<str> + Sync>(
    addr: SocketAddr,
    clients: usize,
    pool: &[T],
    until: Until<'_>,
    attempts: u32,
    check: impl Fn(&T, io::Result<ClientResponse>) + Sync,
) -> Vec<u64> {
    let (limit, stop) = match until {
        Until::Requests(n) => (n, None),
        Until::Stopped(flag) => (u64::MAX, Some(flag)),
    };
    let sent = AtomicU64::new(0);
    let mut latencies: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (sent, check) = (&sent, &check);
                s.spawn(move || {
                    let mut client =
                        RetryClient::new(addr, TIMEOUT, attempts, Duration::from_millis(50));
                    let mut latencies = Vec::new();
                    for i in 0.. {
                        if stop.is_some_and(|f| f.load(Ordering::Acquire))
                            || sent.fetch_add(1, Ordering::Relaxed) >= limit
                        {
                            break;
                        }
                        let entry = &pool[(c + i * 7) % pool.len()];
                        let t0 = Instant::now();
                        let resp = client.post("/v1/recommend/array", entry.as_ref());
                        latencies.push(t0.elapsed().as_micros() as u64);
                        check(entry, resp);
                    }
                    latencies
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load client panicked"))
            .collect()
    });
    latencies.sort_unstable();
    latencies
}

/// Sets its flag when dropped, so a load run ends even if the code that
/// would have ended it panics.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

type ServerHandle = JoinHandle<Result<(), ServeError>>;

fn start(config: &ServeConfig) -> (SocketAddr, ServerHandle) {
    let server = Server::bind(config).expect("server binds");
    let addr = server.local_addr();
    (addr, std::thread::spawn(move || server.run()))
}

/// Graceful shutdown: `Server::run` (or `Cluster::run`) must return `Ok`.
fn shutdown(addr: SocketAddr, handle: ServerHandle) {
    let resp = HttpClient::connect(addr, TIMEOUT)
        .unwrap()
        .post("/v1/shutdown", "")
        .unwrap();
    assert_eq!(resp.status, 200, "shutdown: {}", resp.body);
    handle
        .join()
        .expect("server thread panicked")
        .expect("graceful shutdown returns Ok");
}

fn gemm(rng: &mut StdRng, m: Range<u64>, n: Range<u64>, k: Range<u64>) -> GemmWorkload {
    let (m, n, k) = (rng.random_range(m), rng.random_range(n), rng.random_range(k));
    GemmWorkload::new(m, n, k).expect("dims are positive")
}

fn random_workload(rng: &mut StdRng) -> GemmWorkload {
    gemm(rng, 16..2048, 16..2048, 16..2048)
}

/// CNN-shaped GEMMs: the balanced-ish dims convolution layers lower to.
fn cnn_workload(rng: &mut StdRng) -> GemmWorkload {
    gemm(rng, 64..512, 64..512, 32..384)
}

/// Drifted traffic: skinny LLM-decode-style GEMMs (tiny M, huge N/K) whose
/// optimal arrays look nothing like the CNN regime's.
fn drifted_workload(rng: &mut StdRng) -> GemmWorkload {
    gemm(rng, 1..8, 1024..8192, 1024..8192)
}

fn body(wl: &GemmWorkload) -> String {
    format!(
        "{{\"m\":{},\"n\":{},\"k\":{},\"mac_budget\":{BUDGET}}}",
        wl.m(),
        wl.n(),
        wl.k()
    )
}

/// Renders a CS1 answer exactly as the server does, so response bodies can
/// be compared byte for byte against a locally computed one.
fn render_cs1(array: &ArrayConfig, df: Dataflow) -> String {
    format!(
        "\"rows\":{},\"cols\":{},\"macs\":{},\"dataflow\":\"{df}\"",
        array.rows(),
        array.cols(),
        array.macs()
    )
}

/// A CS1 model trained on `ds` for `epochs`.
fn train_cs1(ds: &Dataset, epochs: usize) -> AirchitectModel {
    let train = TrainConfig {
        epochs,
        ..Default::default()
    };
    let config = AirchitectConfig {
        num_classes: ds.num_classes(),
        train,
        ..Default::default()
    };
    let mut model = AirchitectModel::new(CaseStudy::ArrayDataflow, &config);
    model.train(ds).expect("train");
    model
}

/// A CS1 model trained for one epoch on random labels: its answers are
/// arbitrary but fixed per seed, which is all a soak needs.
fn noise_model(seed: u64) -> AirchitectModel {
    let mut ds = Dataset::new(4, CS1_CLASSES).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..2_000 {
        let wl = random_workload(&mut rng);
        let budget = 1u64 << rng.random_range(5..=CS1_BUDGET_LOG2);
        let label = rng.random_range(0..CS1_CLASSES);
        ds.push(&Case1Problem::features(&wl, budget), label).unwrap();
    }
    train_cs1(&ds, 1)
}

/// Blocks until the shadow pool has scored (or dropped) every admitted
/// sample, so the misprediction log is complete before it is replayed.
fn drain_shadow() {
    let deadline = Instant::now() + Duration::from_secs(60);
    while metrics::SERVE_SHADOW_RECORDS.get() + metrics::SERVE_SHADOW_DROPPED.get()
        < metrics::SERVE_SHADOW_SAMPLED.get()
    {
        assert!(Instant::now() < deadline, "shadow queue failed to drain");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Fraction of `eval` bodies the live server answers with the oracle's
/// answer. Measured over HTTP, so a reload that silently failed to take
/// effect shows.
fn oracle_agreement(addr: SocketAddr, eval: &[(String, String)]) -> f64 {
    let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();
    let agree = eval
        .iter()
        .filter(|(body, expected)| {
            let resp = client.post("/v1/recommend/array", body).unwrap();
            assert_eq!(resp.status, 200, "agreement probe: {}", resp.body);
            resp.body.contains(expected.as_str())
        })
        .count();
    agree as f64 / eval.len() as f64
}

/// Closed-loop online learning. A model trained on oracle-labelled
/// CNN-shaped GEMMs serves traffic that drifts to skinny LLM-decode shapes,
/// with shadow-oracle sampling at rate 1.0. Each round drives a chunk of
/// drifted load, drains the shadow pool and asks the [`OnlinePolicy`];
/// when it fires, the misprediction log is replayed through [`fine_tune`]
/// and the result hot-reloaded. Oracle agreement on the drifted
/// distribution must strictly improve after at least one cycle, with zero
/// failed requests, zero 5xx and no torn log segment.
#[test]
fn online_soak_fine_tunes_on_drift_and_improves_agreement() {
    const CLIENTS: usize = 4;
    const DRIFT_POOL: usize = 48;
    const MAX_ROUNDS: usize = 4;
    let _lock = soak_lock();
    let space = Case1Space::new(BUDGET);
    let classes = space.len() as u32;
    let problem = Case1Problem::new(BUDGET);

    // Oracle labels over the CNN regime only, so the base model's
    // agreement there is real and the drifted regime is new to it.
    let model_path = temp_path("online", "model.airm");
    let mut ds = Dataset::new(4, classes).unwrap();
    let mut rng = StdRng::seed_from_u64(37);
    for _ in 0..1_200 {
        let wl = cnn_workload(&mut rng);
        let label = problem.search(&wl, BUDGET).label;
        ds.push(&Case1Problem::features(&wl, BUDGET), label).unwrap();
    }
    persist::save(&train_cs1(&ds, 2), &model_path).unwrap();
    let shadow_dir = temp_path("online", "shadow");
    let _ = std::fs::remove_dir_all(&shadow_dir);

    // Counter baselines, so the gates see this soak only.
    let sampled0 = metrics::SERVE_SHADOW_SAMPLED.get();
    let dropped0 = metrics::SERVE_SHADOW_DROPPED.get();
    let records0 = metrics::SERVE_SHADOW_RECORDS.get();
    let disagree0 = metrics::SERVE_SHADOW_DISAGREEMENTS.get();

    let (addr, server) = start(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        model_paths: vec![model_path.clone()],
        workers: 2,
        queue_depth: 1024,
        cache_capacity: 4096,
        read_timeout_secs: 30,
        shadow_rate: 1.0,
        shadow_dir: Some(shadow_dir.clone()),
        shadow_queue_depth: 4096,
        shadow_threads: 2,
        ..ServeConfig::default()
    });

    // Distinct body pools per phase; the drifted pool doubles as the
    // agreement eval set, with the oracle's answers rendered up front.
    let mut rng = StdRng::seed_from_u64(41);
    let warm_pool: Vec<String> = (0..256).map(|_| body(&cnn_workload(&mut rng))).collect();
    let eval: Vec<(String, String)> = (0..DRIFT_POOL)
        .map(|_| {
            let wl = drifted_workload(&mut rng);
            let (array, df) = space
                .decode(problem.search(&wl, BUDGET).label)
                .expect("oracle label inside its own space");
            (body(&wl), format!("\"result\":{{{}}}", render_cs1(&array, df)))
        })
        .collect();
    let drift_pool: Vec<String> = eval.iter().map(|(body, _)| body.clone()).collect();

    let failed = AtomicU64::new(0);
    let fivexx = AtomicU64::new(0);
    // A transport error counts as failed; the client reconnects.
    let tally = |_: &String, resp: io::Result<ClientResponse>| {
        let status = resp.map_or(0, |r| r.status);
        failed.fetch_add(u64::from(status != 200), Ordering::Relaxed);
        fivexx.fetch_add(u64::from(status >= 500), Ordering::Relaxed);
    };
    let t0 = Instant::now();

    // In-distribution traffic first: its shadow records are overwhelmingly
    // agreements, and the policy must not fire on them.
    let mut requests = drive(addr, CLIENTS, &warm_pool, Until::Requests(512), 1, tally).len();
    drain_shadow();
    let before = oracle_agreement(addr, &eval);
    requests += eval.len();

    // Drifted traffic, policy-watched: each round drives a chunk, drains
    // the shadow pool, and consults the policy on the counter deltas since
    // the last cycle.
    let policy = OnlinePolicy::default();
    let opts = FineTuneOptions {
        epochs: 8,
        lr: 3e-3,
        batch_size: 32,
        threads: 2,
        seed: 7,
    };
    let mut cycles = 0u64;
    let mut after = before;
    let mut window_records0 = metrics::SERVE_SHADOW_RECORDS.get();
    let mut window_disagree0 = metrics::SERVE_SHADOW_DISAGREEMENTS.get();
    for round in 0..MAX_ROUNDS {
        let chunk = Until::Requests(4 * DRIFT_POOL as u64);
        requests += drive(addr, CLIENTS, &drift_pool, chunk, 1, tally).len();
        drain_shadow();
        let window_samples = metrics::SERVE_SHADOW_RECORDS.get() - window_records0;
        let window_disagreements = metrics::SERVE_SHADOW_DISAGREEMENTS.get() - window_disagree0;
        let stats = DriftStats {
            window_samples,
            window_disagreements,
            agreement: if window_samples == 0 {
                1.0
            } else {
                (window_samples - window_disagreements) as f64 / window_samples as f64
            },
            oracle_mean_us: metrics::SERVE_SHADOW_ORACLE_US.snapshot().mean(),
            total_samples: metrics::SERVE_SHADOW_RECORDS.get() - records0,
            total_disagreements: metrics::SERVE_SHADOW_DISAGREEMENTS.get() - disagree0,
        };
        if policy.should_fine_tune(&stats) {
            let scan = read_dir(&shadow_dir).expect("misprediction log reads");
            let mut model = persist::load(&model_path).unwrap();
            let outcome = fine_tune(&mut model, &scan.records, &opts).expect("fine-tune");
            if outcome.report.is_some() {
                persist::save(&model, &model_path).unwrap();
                let resp = HttpClient::connect(addr, TIMEOUT)
                    .unwrap()
                    .post("/v1/reload", "")
                    .unwrap();
                assert_eq!(resp.status, 200, "reload after fine-tune: {}", resp.body);
                cycles += 1;
                window_records0 = metrics::SERVE_SHADOW_RECORDS.get();
                window_disagree0 = metrics::SERVE_SHADOW_DISAGREEMENTS.get();
                println!(
                    "online round {round}: policy fired at window agreement {:.4}; fine-tuned \
                     on {} rows (v{}) and hot-reloaded",
                    stats.agreement, outcome.used_rows, outcome.target_version
                );
            }
        }
        after = oracle_agreement(addr, &eval);
        requests += eval.len();
        println!("online round {round}: drifted agreement {after:.4} after {cycles} cycle(s)");
        if cycles >= 1 && after > before {
            break;
        }
    }
    let secs = t0.elapsed().as_secs_f64();

    // Graceful shutdown closes the misprediction log with its end line.
    shutdown(addr, server);
    let scan = read_dir(&shadow_dir).expect("misprediction log reads");
    let _ = std::fs::remove_file(&model_path);
    let _ = std::fs::remove_dir_all(&shadow_dir);

    let sampled = metrics::SERVE_SHADOW_SAMPLED.get() - sampled0;
    let dropped = metrics::SERVE_SHADOW_DROPPED.get() - dropped0;
    let records = metrics::SERVE_SHADOW_RECORDS.get() - records0;
    let (failed, fivexx) = (failed.into_inner(), fivexx.into_inner());
    println!(
        "online: {requests} requests at {:.0} req/s ({failed} failed, {fivexx} 5xx); \
         {sampled} sampled, {records} records, {dropped} dropped, {} log segments; \
         agreement {before:.4} -> {after:.4} after {cycles} cycle(s)",
        requests as f64 / secs,
        scan.segments
    );
    assert!(cycles >= 1, "the drift policy never fired a fine-tune + reload cycle");
    assert!(after > before, "oracle agreement did not improve: {before:.4} -> {after:.4}");
    assert_eq!((failed, fivexx), (0, 0), "failed requests / 5xx during the soak");
    assert_eq!(scan.torn_segments, 0, "torn misprediction-log segments");
    assert!(records > 0 && sampled >= records, "{sampled} sampled, {records} records");
}

/// A supervised 3-replica cluster loses replica 0 to SIGKILL 40 % of the
/// way through a load of 16 retrying clients. No client may see a failure,
/// the victim must be restarted and re-admitted within 30 s, and cluster
/// QPS must hold against one replica behind the same router — so both pay
/// the same proxy hop: at least 1× given the cores to run the fleet in
/// parallel, 0.6× below 8 cores. Replica caches are off, so the comparison
/// is inference-bound and a killed replica costs recomputation. Until the
/// kill every replica is healthy, so the router may spill load past a
/// replica at its in-flight cap but must count no failover.
#[test]
fn cluster_soak_survives_a_replica_sigkill_under_load() {
    const CLIENTS: usize = 16;
    const REPLICAS: usize = 3;
    const REQUESTS: u64 = 2_000;
    const BASELINE_REQUESTS: u64 = 1_000;
    const VICTIM: u32 = 0;
    const KILL_AT: u64 = REQUESTS * 2 / 5;
    const PROBE_INTERVAL_MS: u64 = 100;
    let _lock = soak_lock();
    let model_path = temp_path("cluster", "model.airm");
    persist::save(&noise_model(29), &model_path).unwrap();
    let replica = ServeConfig {
        model_paths: vec![model_path.clone()],
        workers: 2,
        queue_depth: 1024,
        cache_capacity: 0,
        read_timeout_secs: 30,
        ..ServeConfig::default()
    };
    let cluster_config = |replicas: usize| ClusterConfig {
        addr: "127.0.0.1:0".into(),
        replica_argv: Cluster::replica_argv(env!("CARGO_BIN_EXE_airchitect"), &replica),
        replicas,
        probe_interval_ms: PROBE_INTERVAL_MS,
        restart_base_ms: 100,
        backend_timeout_ms: 30_000,
        read_timeout_secs: 30,
        ..ClusterConfig::default()
    };
    let boot = |replicas: usize| {
        let cluster = Cluster::start(cluster_config(replicas)).expect("cluster starts");
        assert!(
            cluster.wait_healthy(replicas, Duration::from_secs(60)),
            "cluster never reached {replicas} healthy replica(s)"
        );
        let fleet = cluster.fleet();
        (cluster.local_addr(), fleet, Running::start(cluster))
    };

    let mut rng = StdRng::seed_from_u64(41);
    let pool: Vec<String> = (0..256).map(|_| body(&random_workload(&mut rng))).collect();
    let failed = AtomicU64::new(0);
    let progress = AtomicU64::new(0);
    let tally = |_: &String, resp: io::Result<ClientResponse>| {
        if !resp.is_ok_and(|r| r.status == 200) {
            failed.fetch_add(1, Ordering::Relaxed);
        }
        progress.fetch_add(1, Ordering::Relaxed);
    };

    let (addr, _, router) = boot(1);
    let t0 = Instant::now();
    drive(addr, CLIENTS, &pool, Until::Requests(BASELINE_REQUESTS), 4, tally);
    let baseline_qps = BASELINE_REQUESTS as f64 / t0.elapsed().as_secs_f64();
    router.shutdown(&mut RetryClient::new(addr, TIMEOUT, 4, Duration::from_millis(50)));
    let baseline_failed = failed.swap(0, Ordering::Relaxed);
    progress.store(0, Ordering::Relaxed);

    let (addr, fleet, router) = boot(REPLICAS);
    let t0 = Instant::now();
    let (latencies, (healthy_views, killed)) = std::thread::scope(|s| {
        let killer = s.spawn(|| {
            while progress.load(Ordering::Relaxed) < KILL_AT {
                std::thread::sleep(Duration::from_millis(5));
            }
            let healthy_views = fleet.views();
            (healthy_views, fleet.kill_replica(VICTIM))
        });
        let latencies = drive(addr, CLIENTS, &pool, Until::Requests(REQUESTS), 4, tally);
        (latencies, killer.join().expect("killer panicked"))
    });
    let qps = REQUESTS as f64 / t0.elapsed().as_secs_f64();

    // The load can drain before the probes even eject the victim (it
    // counts as healthy until then), so wait for the whole eject ->
    // restart -> re-admit cycle, not just the healthy count.
    let restarts = || -> u64 { fleet.views().iter().map(|v| v.restarts_total).sum() };
    let readmit_t0 = Instant::now();
    let readmitted = loop {
        if restarts() >= 1 && fleet.healthy() >= REPLICAS {
            break true;
        }
        if readmit_t0.elapsed() >= Duration::from_secs(30) {
            break false;
        }
        std::thread::sleep(Duration::from_millis(PROBE_INTERVAL_MS));
    };
    let readmit_ms = readmit_t0.elapsed().as_millis();
    let views = fleet.views();
    let failovers: u64 = views.iter().map(|v| v.failovers_total).sum();
    let restarts = restarts();
    router.shutdown(&mut RetryClient::new(addr, TIMEOUT, 4, Duration::from_millis(50)));
    let _ = std::fs::remove_file(&model_path);

    let failed = failed.into_inner();
    let healthy_failovers: u64 = healthy_views.iter().map(|v| v.failovers_total).sum();
    let healthy_spills: u64 = healthy_views.iter().map(|v| v.spills_total).sum();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let required = if cores >= 2 * REPLICAS + 2 { 1.0 } else { 0.6 };
    println!(
        "cluster: {qps:.0} req/s ({:.2}x one replica at {baseline_qps:.0}, floor {required}x, \
         {cores} cores); {failed} failed; replica {VICTIM} re-admitted in {readmit_ms} ms; \
         {restarts} restarts, {failovers} failovers; before the kill \
         {healthy_failovers} failovers, {healthy_spills} spills; latency p50 {} us, \
         p95 {} us, p99 {} us",
        qps / baseline_qps,
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.95),
        percentile(&latencies, 0.99),
    );
    assert_eq!(baseline_failed, 0, "failed requests against the one-replica baseline");
    assert!(killed, "kill_replica({VICTIM}) found no live child to kill");
    assert_eq!(
        healthy_failovers, 0,
        "failovers counted while every replica was healthy"
    );
    assert!(
        healthy_spills > 0,
        "no request spilled past a replica at its in-flight cap"
    );
    assert_eq!(failed, 0, "client-visible failures while replica {VICTIM} was killed");
    assert!(readmitted, "replica {VICTIM} was not restarted and re-admitted within 30 s");
    assert!(restarts >= 1, "the killed replica recorded no restart");
    assert!(
        qps >= baseline_qps * required,
        "cluster QPS {qps:.0} fell below {required}x the one-replica {baseline_qps:.0}"
    );
}

/// Polls `/healthz` until the rollout state machine is idle, returning the
/// final body; the load keeps the canary fed meanwhile.
fn settle(client: &mut HttpClient) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let health = client.get("/healthz").unwrap();
        if health.status == 200 && health.body.contains("\"state\":\"idle\"") {
            return health.body;
        }
        assert!(
            Instant::now() < deadline,
            "rollout did not settle within 60 s: {}",
            health.body
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Renders a CS1 ranked answer (`"results":[…]`) exactly as the server
/// does.
fn render_cs1_ranked(ranked: &[(ArrayConfig, Dataflow, f32)]) -> String {
    let mut out = String::from("\"results\":[");
    for (i, (array, df, score)) in ranked.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        out.push_str(&render_cs1(array, *df));
        out.push_str(",\"score\":");
        write_f64(&mut out, f64::from(*score));
        out.push('}');
    }
    out.push(']');
    out
}

/// Safe rollout under live load: a registry-backed server with a 25 %
/// canary split and the response cache on is pushed a corrupted, a
/// regressed and a good checkpoint through `/v1/reload`. The corrupted one
/// must be rejected at staging and quarantined, the regressed one rolled
/// back and quarantined, and the good one promoted on disk and in the
/// server, with zero failed and zero wrong answers.
///
/// The load mixes every path a request can take: three of every four pool
/// slots cycle over a few hot keys (cache hits once warm), the fourth
/// walks more cold keys than the cache holds (they keep missing, so the
/// shard answers them inline on the int8 path), and a quarter of the keys
/// ask for a ranked list (the ranked pool on a miss). The canary is
/// scored on the shadow pool, never on a client's request, so the
/// regressed candidate must answer zero client requests; every sampled key
/// is one on which it disagrees with the incumbent, so it must lose the
/// vote.
#[test]
fn rollout_soak_rejects_bad_checkpoints_and_promotes_a_good_one() {
    const CLIENTS: usize = 4;
    const SPLIT: f64 = 0.25;
    const HOT: usize = 64;
    const TOPK: usize = 4;
    const MIN_SAMPLES: u64 = 50;

    /// A request body with both models' answers to it: the int8 answer
    /// to a top-1 query (every top-1 miss is answered inline by the int8
    /// pass), the f32 list to a ranked one.
    struct Entry {
        body: String,
        incumbent: String,
        candidate: String,
    }
    impl AsRef<str> for Entry {
        fn as_ref(&self) -> &str {
            &self.body
        }
    }

    let _lock = soak_lock();
    // Incumbent A and a regressed candidate B: different random labels, so
    // their answers disagree on most queries.
    let (model_a, model_b) = (noise_model(29), noise_model(43));
    let (bytes_a, bytes_b) = (persist::to_bytes(&model_a), persist::to_bytes(&model_b));
    let rec_a = Recommender::new(model_a).unwrap();
    let rec_b = Recommender::new(model_b).unwrap();

    // The seed artifact becomes registry version 1.
    let dir = temp_path("rollout", "registry");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let seed_path = dir.join("seed.airm");
    std::fs::write(&seed_path, &bytes_a[..]).unwrap();

    // Classify keys with the same `cache_key` + `sampled` pair the server
    // uses, so the canary sees exactly the keys kept as disagreeing.
    let problem = Case1Problem::new(1 << CS1_BUDGET_LOG2);
    let ppm = airchitect_online::sampler::rate_to_ppm(SPLIT);
    let answers = |rec: &Recommender, wl: &GemmWorkload, topk: usize| {
        if topk > 0 {
            let ranked = rec.recommend_array_topk(&problem, wl, BUDGET, topk).unwrap();
            return render_cs1_ranked(&ranked);
        }
        let (fast, fast_df) = rec.recommend_array_fast(&problem, wl, BUDGET).unwrap();
        render_cs1(&fast, fast_df)
    };
    let mut rng = StdRng::seed_from_u64(47);
    let mut entries = |n: usize| {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let wl = random_workload(&mut rng);
            let topk = if rng.random_range(0..4) == 0 { TOPK } else { 0 };
            let mut body = body(&wl);
            if topk > 0 {
                body.insert_str(body.len() - 1, &format!(",\"topk\":{topk}"));
            }
            let key = parse_recommend(CaseStudy::ArrayDataflow, body.as_bytes())
                .unwrap_or_else(|r| panic!("pool body rejected: {}", r.body))
                .cache_key;
            let entry = Entry {
                incumbent: answers(&rec_a, &wl, topk),
                candidate: answers(&rec_b, &wl, topk),
                body,
            };
            if entry.incumbent != entry.candidate || !airchitect_online::sampler::sampled(&key, ppm)
            {
                out.push(entry);
            }
        }
        out
    };
    let hot = entries(HOT);
    let cold = entries(ServeConfig::default().cache_capacity + HOT);
    let pool: Vec<&Entry> = (0..4 * cold.len())
        .map(|i| if i % 4 == 3 { &cold[i / 4] } else { &hot[(i - i / 4) % HOT] })
        .collect();
    assert_ne!(pool.len() % 7, 0, "the clients' stride must walk the whole pool");

    let samples0 = metrics::SERVE_CANARY_SAMPLES.get();
    let promotions0 = metrics::SERVE_CANARY_PROMOTIONS.get();
    let rollbacks0 = metrics::SERVE_CANARY_ROLLBACKS.get();
    let (addr, server) = start(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        model_paths: vec![seed_path],
        model_dir: Some(dir.clone()),
        canary_split: SPLIT,
        canary_min_samples: MIN_SAMPLES,
        canary_min_agreement: 0.9,
        canary_max_p99_ratio: 1e9, // latency gate off: shared machines jitter
        workers: 2,
        queue_depth: 1024,
        read_timeout_secs: 30,
        ..ServeConfig::default()
    });

    // Every answer must be one of the incumbent's; the candidate's counts
    // toward its exposure.
    let done = AtomicBool::new(false);
    let total = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let wrong = AtomicU64::new(0);
    let candidate_answers = AtomicU64::new(0);
    let registry = || Registry::open(&dir, DEFAULT_RETAIN).unwrap();
    let quarantined = |v: u64| {
        registry()
            .manifest()
            .entries
            .iter()
            .any(|e| e.version == v && e.quarantined)
    };
    // Cache hits, inline top-1 answers and ranked-pool answers while the
    // regressed candidate is staged.
    let paths = || {
        [
            metrics::SERVE_CACHE_HITS.get(),
            metrics::SERVE_BYPASS.get(),
            metrics::SERVE_BATCHED_JOBS.get(),
        ]
    };
    let t0 = Instant::now();
    let (window, window_paths) = std::thread::scope(|s| {
        s.spawn(|| {
            drive(addr, CLIENTS, &pool, Until::Stopped(&done), 1, |entry, resp| {
                total.fetch_add(1, Ordering::Relaxed);
                match resp {
                    Ok(r) if r.status == 200 => {
                        if !r.body.contains(&entry.incumbent) {
                            let tally = if r.body.contains(&entry.candidate) {
                                &candidate_answers
                            } else {
                                &wrong
                            };
                            tally.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    _ => {
                        failed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        });
        let _stop = StopOnDrop(&done);
        let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();
        // Warmup: the incumbent serves and the hot keys are cached.
        while total.load(Ordering::Relaxed) < 16 * HOT as u64 {
            std::thread::sleep(Duration::from_millis(10));
        }

        // A corrupted checkpoint must be rejected at staging.
        let corrupt_v = registry()
            .add_version(b"definitely not a model artifact")
            .unwrap();
        let resp = client.post("/v1/reload", "").unwrap();
        assert!(
            resp.status == 409 && resp.body.contains("stage_failed"),
            "corrupt checkpoint was not rejected: {} {}",
            resp.status,
            resp.body
        );
        assert!(quarantined(corrupt_v), "corrupt v{corrupt_v} was not quarantined");

        // A regressed checkpoint canaries, fails the agreement gate, and is
        // rolled back and quarantined.
        let bad_v = registry().add_version(&bytes_b).unwrap();
        let (window_start, paths_start) = (total.load(Ordering::Relaxed), paths());
        let resp = client.post("/v1/reload", "").unwrap();
        assert!(
            resp.status == 200 && resp.body.contains("\"staged\":true"),
            "regressed checkpoint failed to stage: {} {}",
            resp.status,
            resp.body
        );
        let health = settle(&mut client);
        let window = total.load(Ordering::Relaxed) - window_start;
        let paths_end = paths();
        let window_paths: [u64; 3] = std::array::from_fn(|i| paths_end[i] - paths_start[i]);
        assert!(health.contains("rolled_back"), "regressed checkpoint kept: {health}");
        assert!(quarantined(bad_v), "regressed v{bad_v} was not quarantined");

        // A good checkpoint (the incumbent's own bytes, so perfect
        // agreement) canaries and promotes.
        let good_v = registry().add_version(&bytes_a).unwrap();
        let resp = client.post("/v1/reload", "").unwrap();
        assert!(
            resp.status == 200 && resp.body.contains("\"staged\":true"),
            "good checkpoint failed to stage: {} {}",
            resp.status,
            resp.body
        );
        let health = settle(&mut client);
        assert!(health.contains("promoted"), "good checkpoint not promoted: {health}");
        assert_eq!(registry().manifest().active, Some(good_v), "active version on disk");
        (window, window_paths)
    });
    let secs = t0.elapsed().as_secs_f64();
    shutdown(addr, server);
    let _ = std::fs::remove_dir_all(&dir);

    let total = total.into_inner();
    let (failed, wrong) = (failed.into_inner(), wrong.into_inner());
    let candidate_answers = candidate_answers.into_inner();
    let samples = metrics::SERVE_CANARY_SAMPLES.get() - samples0;
    let promotions = metrics::SERVE_CANARY_PROMOTIONS.get() - promotions0;
    let rollbacks = metrics::SERVE_CANARY_ROLLBACKS.get() - rollbacks0;
    let [hits, bypassed, batched] = window_paths;
    println!(
        "rollout: {total} requests at {:.0} req/s ({failed} failed, {wrong} wrong); \
         {samples} canary samples, {promotions} promotions, {rollbacks} rollbacks; \
         bad candidate answered {candidate_answers}/{window} of its canary window \
         ({hits} cache hits, {bypassed} bypassed, {batched} batched)",
        total as f64 / secs
    );
    assert_eq!(failed, 0, "failed requests during the rollout");
    assert_eq!(wrong, 0, "answers matching neither the incumbent nor the candidate");
    assert_eq!(candidate_answers, 0, "the staged candidate answered clients");
    assert!(
        hits > 0 && bypassed > 0 && batched > 0,
        "the canary window missed a path: {hits} cache hits, {bypassed} bypassed, {batched} batched"
    );
    assert!(samples >= MIN_SAMPLES, "{samples} canary samples, fewer than {MIN_SAMPLES}");
    assert!(rollbacks >= 1 && promotions >= 1, "{rollbacks} rollbacks, {promotions} promotions");
}

/// Arms one fault, holds it until `enough` says it has done its job (at
/// most 10 s), lets it run 60 ms longer, then disarms every point and
/// returns how often the fault's point fired.
#[cfg(feature = "chaos")]
fn inject(spec: &str, enough: impl Fn(u64) -> bool) -> u64 {
    let point = spec.split('=').next().expect("`point=action` spec");
    airchitect_chaos::configure_str(spec).expect("valid chaos spec");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !enough(airchitect_chaos::fired(point)) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(60));
    let fired = airchitect_chaos::fired(point);
    airchitect_chaos::reset();
    fired
}

/// One cycle of the chaos schedule. Every fault aims at `serve.infer`,
/// which every model answer reaches, inline or on the ranked pool. Returns
/// how often each fault fired: error burst, delay, panic, reload read.
#[cfg(feature = "chaos")]
fn fault_cycle(addr: SocketAddr) -> [u64; 4] {
    // An error burst, held until the breaker opens: the open circuit
    // answers from the search fallback, and its first half-open probe
    // after the 100 ms cooldown, once the burst is disarmed, recovers.
    let opens = metrics::SERVE_BREAKER_OPENS.get();
    let errors = inject("serve.infer=err(other)", |_| {
        metrics::SERVE_BREAKER_OPENS.get() > opens
    });
    // Latency injection rides under the 2 s deadline but stalls the thread
    // that answers: the shard, for these top-1 requests.
    let delays = inject("serve.infer=delay(40):0.3:20", |fired| fired > 0);
    // A panic must cost exactly one 500.
    let panics = inject("serve.infer=panic:1:1", |fired| fired > 0);
    // Reload corruption: a one-shot read fault fails the reload with 409
    // and the old model keeps serving; the clients' answer checks prove no
    // mixed-model answer leaks.
    airchitect_chaos::configure_str("serve.reload.read=err(other):1:1").expect("valid chaos spec");
    let resp = HttpClient::connect(addr, TIMEOUT)
        .unwrap()
        .post("/v1/reload", "")
        .unwrap();
    assert_eq!(resp.status, 409, "reload under a read fault: {}", resp.body);
    let reloads = airchitect_chaos::fired("serve.reload.read");
    airchitect_chaos::reset();
    [errors, delays, panics, reloads]
}

/// Load under a cycling fault schedule, bounded by completed fault cycles
/// rather than by request count, so every cycle lands on live traffic.
/// Every 200 must carry the model's own int8 answer (every top-1 request
/// is answered inline by the int8 pass) or the exhaustive-search optimum; no client may hang; 5xx may not exceed one
/// per injected error or panic plus 1 % of the load; every scheduled fault
/// must fire in every cycle; the fallback must answer at least once; and
/// model serving must resume once the faults drain.
#[cfg(feature = "chaos")]
#[test]
fn chaos_soak_answers_correctly_through_cycling_faults() {
    const CLIENTS: usize = 4;
    const CYCLES: usize = 2;

    /// A request body with every answer the server may legitimately give.
    struct Entry {
        body: String,
        int8: String,
        search: String,
    }
    impl AsRef<str> for Entry {
        fn as_ref(&self) -> &str {
            &self.body
        }
    }

    let _lock = soak_lock();
    airchitect_chaos::reset();
    let model_path = temp_path("chaos", "model.airm");
    persist::save(&noise_model(29), &model_path).unwrap();
    let rec = Recommender::new(persist::load(&model_path).unwrap()).unwrap();
    let problem = Case1Problem::new(1 << CS1_BUDGET_LOG2);
    let mut rng = StdRng::seed_from_u64(37);
    let pool: Vec<Entry> = (0..48)
        .map(|_| {
            let wl = random_workload(&mut rng);
            let (array, df) = rec.recommend_array_fast(&problem, &wl, BUDGET).unwrap();
            let int8 = render_cs1(&array, df);
            let found = problem.search(&wl, BUDGET);
            let (array, df) = problem.space().decode(found.label).expect("label in space");
            let search = render_cs1(&array, df);
            Entry {
                body: body(&wl),
                int8,
                search,
            }
        })
        .collect();

    let (addr, server) = start(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        model_paths: vec![model_path.clone()],
        workers: 4,
        queue_depth: 1024,
        cache_capacity: 0, // every answer must be computed under fault
        read_timeout_secs: 30,
        deadline_ms: 2_000,
        breaker_threshold: 5,
        breaker_cooldown_ms: 100,
        fallback_search: true,
        ..ServeConfig::default()
    });

    let opens0 = metrics::SERVE_BREAKER_OPENS.get();
    let done = AtomicBool::new(false);
    let (from_model, from_search) = (AtomicU64::new(0), AtomicU64::new(0));
    let (wrong, fivexx, rejected) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
    let broken = AtomicU64::new(0);
    let t0 = Instant::now();
    let (firings, latencies) = std::thread::scope(|s| {
        let conductor = s.spawn(|| {
            let _stop = StopOnDrop(&done);
            // A healthy warmup before the first fault lands.
            std::thread::sleep(Duration::from_millis(50));
            (0..CYCLES).map(|_| fault_cycle(addr)).collect::<Vec<_>>()
        });
        let latencies = drive(addr, CLIENTS, &pool, Until::Stopped(&done), 1, |e, resp| {
            let counter = match resp {
                Ok(r) if r.status == 200 => {
                    let has = |answer: &str| r.body.contains(answer);
                    if has("\"source\":\"search\"") && has(&e.search) {
                        &from_search
                    } else if has("\"source\":\"model\"") && has(&e.int8) {
                        &from_model
                    } else {
                        &wrong
                    }
                }
                Ok(r) if r.status == 429 => &rejected,
                Ok(r) if r.status >= 500 => &fivexx,
                // An unexpected status, or a client that hung past its
                // 30 s timeout or lost its connection.
                _ => &broken,
            };
            counter.fetch_add(1, Ordering::Relaxed);
        });
        (conductor.join().expect("chaos conductor panicked"), latencies)
    });
    let secs = t0.elapsed().as_secs_f64();

    // With the faults drained, the half-open probe must close the circuit
    // and model serving resume.
    let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();
    let recovered = (0..100).any(|_| {
        let resp = client.post("/v1/recommend/array", &pool[0].body).unwrap();
        let ok = resp.status == 200 && resp.body.contains("\"source\":\"model\"");
        if !ok {
            std::thread::sleep(Duration::from_millis(50));
        }
        ok
    });
    drop(client);
    shutdown(addr, server);
    let _ = std::fs::remove_file(&model_path);

    let total = latencies.len() as u64;
    let opens = metrics::SERVE_BREAKER_OPENS.get() - opens0;
    let [from_model, from_search, wrong, fivexx, rejected, broken] =
        [from_model, from_search, wrong, fivexx, rejected, broken].map(AtomicU64::into_inner);
    let injected: u64 = firings.iter().map(|[errors, _, panics, _]| errors + panics).sum();
    let max_5xx = injected + total.div_ceil(100);
    println!(
        "chaos: {total} requests at {:.0} req/s over {} fault cycles; firings per cycle \
         [error burst, delay, panic, reload read] {firings:?}; {opens} breaker opens; \
         {} model, {} search, {fivexx} 5xx (budget {max_5xx}), {} 429, {wrong} wrong, \
         {broken} broken; latency p50 {} us, p99 {} us, max {} us",
        total as f64 / secs,
        firings.len(),
        from_model,
        from_search,
        rejected,
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.99),
        latencies.last().copied().unwrap_or(0),
    );
    for (cycle, &[errors, delays, panics, reloads]) in firings.iter().enumerate() {
        assert!(errors >= 5, "cycle {cycle}: {errors} injected errors, short of the breaker");
        assert!(delays >= 1, "cycle {cycle}: the delay fault never fired");
        assert_eq!(panics, 1, "cycle {cycle}: panic firings");
        assert_eq!(reloads, 1, "cycle {cycle}: reload-read firings");
    }
    assert!(opens >= CYCLES as u64, "{opens} breaker opens in {CYCLES} cycles");
    assert!(from_search > 0, "the search fallback never answered");
    assert_eq!(wrong, 0, "answers matching neither the model nor the search oracle");
    assert_eq!(broken, 0, "clients that hung, lost their connection or got an odd status");
    assert!(fivexx <= max_5xx, "{fivexx} 5xx exceeds the budget of {max_5xx}");
    assert!(recovered, "model serving did not resume after the faults drained");
}
