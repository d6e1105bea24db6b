//! Chaos integration: the server under injected faults — breaker trips and
//! half-open recovery, deadlines under injected latency, reload corruption,
//! a slow reload and a held canary promote off the event loop, a top-1
//! answer that never waits behind ranked work, accept-loop fault retry,
//! and the degraded-mode fallback when a circuit is open.
//! Compiled only with `--features chaos`.

#![cfg(feature = "chaos")]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use airchitect::model::{AirchitectConfig, AirchitectModel, CaseStudy};
use airchitect::persist;
use airchitect_data::Dataset;
use airchitect_nn::train::TrainConfig;
use airchitect_serve::client::HttpClient;
use airchitect_serve::{ServeConfig, ServeError, Server};

const TIMEOUT: Duration = Duration::from_secs(30);

/// The chaos registry is process-global; serialize every test and always
/// leave the registry clean.
fn chaos_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    match LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

struct ChaosGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        airchitect_chaos::reset();
    }
}

fn chaos(cfg: &str) -> ChaosGuard {
    let guard = chaos_lock();
    airchitect_chaos::reset();
    airchitect_chaos::configure_str(cfg).expect("valid chaos config");
    ChaosGuard { _lock: guard }
}

fn cs1_model_file() -> PathBuf {
    static FILE: OnceLock<PathBuf> = OnceLock::new();
    FILE.get_or_init(|| {
        let mut ds = Dataset::new(4, 30).unwrap();
        let mut row = [0f32; 4];
        for i in 0..240usize {
            for (j, v) in row.iter_mut().enumerate() {
                *v = ((i * 31 + j * 7) % 97) as f32;
            }
            ds.push(&row, (i as u32 * 13) % 30).unwrap();
        }
        let mut model = AirchitectModel::new(
            CaseStudy::ArrayDataflow,
            &AirchitectConfig {
                num_classes: 30,
                train: TrainConfig {
                    epochs: 2,
                    batch_size: 64,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        model.train(&ds).unwrap();
        let path = std::env::temp_dir().join(format!(
            "airchitect-serve-chaos-{}.airm",
            std::process::id()
        ));
        persist::save(&model, &path).unwrap();
        path
    })
    .clone()
}

type ServerHandle = JoinHandle<Result<(), ServeError>>;

fn start(config: ServeConfig) -> (SocketAddr, ServerHandle) {
    let server = Server::bind(&config).expect("server binds");
    let addr = server.local_addr();
    (addr, std::thread::spawn(move || server.run()))
}

fn config(breaker_threshold: u32, cooldown_ms: u64, fallback: bool) -> ServeConfig {
    ServeConfig {
        model_paths: vec![cs1_model_file()],
        read_timeout_secs: 30,
        cache_capacity: 0, // no caching: every request must reach a worker
        breaker_threshold,
        breaker_cooldown_ms: cooldown_ms,
        fallback_search: fallback,
        ..ServeConfig::default()
    }
}

/// Shuts the server down over the test's own keep-alive connection, so no
/// idle connection is left to wait out the read-timeout drain window.
fn shutdown(mut client: HttpClient, handle: ServerHandle) {
    let resp = client.post("/v1/shutdown", "").unwrap();
    assert_eq!(resp.status, 200);
    handle.join().unwrap().unwrap();
}

const ARRAY_BODY: &str = r#"{"m":128,"n":64,"k":256,"mac_budget":1024}"#;
/// A ranked query: answered on the ranked pool, where
/// `serve.batch.dispatch` fires.
const RANKED_BODY: &str = r#"{"m":128,"n":64,"k":256,"mac_budget":1024,"topk":3}"#;

#[test]
fn breaker_opens_after_injected_failures_and_half_open_recovers() {
    let _guard = chaos("serve.infer=err(other):1:3");
    let (addr, handle) = start(config(3, 150, false));
    let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();

    // Three injected inference failures: each surfaces as a 500 and counts
    // against the breaker.
    for i in 0..3 {
        let resp = client.post("/v1/recommend/array", ARRAY_BODY).unwrap();
        assert_eq!(resp.status, 500, "request {i}: {}", resp.body);
        assert!(resp.body.contains("inference_failed"), "{}", resp.body);
    }
    // The circuit is now open: fail-fast 503 without touching the model.
    let resp = client.post("/v1/recommend/array", ARRAY_BODY).unwrap();
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert!(resp.body.contains("circuit_open"), "{}", resp.body);
    assert_eq!(resp.retry_after, Some(1));

    // Open circuits degrade /healthz and are visible in /metrics.
    let health = client.get("/healthz").unwrap();
    assert!(health.body.contains("\"status\":\"degraded\""), "{}", health.body);
    assert!(health.body.contains("\"array\":\"open\""), "{}", health.body);
    let metrics = client.get("/metrics").unwrap();
    assert!(
        metrics.body.contains("serve.breaker_state.array 1"),
        "{}",
        metrics.body
    );
    // Counters are process-global and cumulative across tests: assert
    // presence and positivity, not an exact value.
    assert!(
        metrics.body.lines().any(|l| {
            l.split_once(' ')
                .is_some_and(|(k, v)| k == "serve.breaker_opens" && v.parse::<u64>().unwrap_or(0) > 0)
        }),
        "{}",
        metrics.body
    );

    // After the cooldown the next request is the half-open probe; the
    // failpoint is exhausted, so it succeeds and closes the circuit.
    std::thread::sleep(Duration::from_millis(200));
    let resp = client.post("/v1/recommend/array", ARRAY_BODY).unwrap();
    assert_eq!(resp.status, 200, "probe must recover: {}", resp.body);
    let health = client.get("/healthz").unwrap();
    assert!(health.body.contains("\"status\":\"ok\""), "{}", health.body);
    assert!(health.body.contains("\"array\":\"closed\""), "{}", health.body);

    shutdown(client, handle);
}

#[test]
fn open_circuit_with_fallback_serves_the_search_answer() {
    let _guard = chaos("serve.infer=err(other):1:2");
    let (addr, handle) = start(config(2, 60_000, true));
    let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();

    for _ in 0..2 {
        let resp = client.post("/v1/recommend/array", ARRAY_BODY).unwrap();
        assert_eq!(resp.status, 500, "{}", resp.body);
    }
    // Circuit open + fallback configured: degraded 200, not a 503.
    let resp = client.post("/v1/recommend/array", ARRAY_BODY).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"source\":\"search\""), "{}", resp.body);
    assert!(resp.warning.is_some(), "fallback must carry Warning");

    // The search answer is the exhaustive optimum for this workload.
    use airchitect_dse::case1::Case1Problem;
    use airchitect_workload::GemmWorkload;
    let problem = Case1Problem::new(1 << 18);
    let found = problem.search(&GemmWorkload::new(128, 64, 256).unwrap(), 1024);
    let (array, df) = problem.space().decode(found.label).unwrap();
    let rendered = format!(
        "\"rows\":{},\"cols\":{},\"macs\":{},\"dataflow\":\"{df}\"",
        array.rows(),
        array.cols(),
        array.macs()
    );
    assert!(resp.body.contains(&rendered), "{} !~ {rendered}", resp.body);

    shutdown(client, handle);
}

#[test]
fn injected_worker_stall_turns_into_a_timely_504() {
    let _guard = chaos("serve.batch.dispatch=delay(600):1:1");
    // A ranked request: the stall is injected on the ranked pool's
    // dispatch, and the 504-at-deadline contract is about the listener
    // abandoning a stuck pool thread.
    let (addr, handle) = start(ServeConfig {
        deadline_ms: 150,
        ..config(0, 0, false)
    });
    let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();

    let started = std::time::Instant::now();
    let resp = client.post("/v1/recommend/array", RANKED_BODY).unwrap();
    assert_eq!(resp.status, 504, "{}", resp.body);
    assert!(resp.body.contains("deadline_exceeded"), "{}", resp.body);
    // The 504 must be answered at the deadline, not after the stall ends.
    assert!(
        started.elapsed() < Duration::from_millis(500),
        "504 answered after {}ms",
        started.elapsed().as_millis()
    );

    // Once the injected stall drains, the server answers normally.
    let resp = client.post("/v1/recommend/array", RANKED_BODY).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    shutdown(client, handle);
}

#[test]
fn injected_worker_panic_is_isolated_to_one_500() {
    let _guard = chaos("serve.batch.dispatch=panic:1:1");
    // A ranked request: the panic is injected on the ranked pool's
    // dispatch.
    let (addr, handle) = start(config(0, 0, false));
    let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();

    let resp = client.post("/v1/recommend/array", RANKED_BODY).unwrap();
    assert_eq!(resp.status, 500, "{}", resp.body);
    assert!(resp.body.contains("inference_panic"), "{}", resp.body);
    // The pool thread survived; later requests are answered.
    for _ in 0..3 {
        let resp = client.post("/v1/recommend/array", RANKED_BODY).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    shutdown(client, handle);
}

/// A top-1 request never waits behind ranked work: with the ranked pool's
/// one thread held by a stalled ranked request A and ranked request B
/// queued behind it, a top-1 request on a third connection is answered
/// inline at once, with the int8 answer `execute_fast` gives.
#[test]
fn a_top1_answer_never_waits_behind_ranked_work() {
    use airchitect_serve::batch::{execute_fast, Outcome};
    use airchitect_serve::reload::ModelHub;
    use airchitect_serve::router::parse_recommend;
    use airchitect_telemetry::metrics::SERVE_CACHE_MISSES;

    let _guard = chaos("serve.batch.dispatch=delay(800):1:1");
    let (addr, handle) = start(ServeConfig {
        workers: 1,
        ..config(0, 0, false)
    });
    let send = |body: &str| {
        let mut stream = TcpStream::connect(addr).unwrap();
        let request = format!(
            "POST /v1/recommend/array HTTP/1.1\r\nConnection: close\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes()).unwrap();
        stream
    };
    let wait_for = |what: &str, done: &dyn Fn() -> bool| {
        let deadline = Instant::now() + TIMEOUT;
        while !done() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    // A takes the pool's one thread and stalls in its dispatch.
    let misses = SERVE_CACHE_MISSES.get();
    let mut a = send(RANKED_BODY);
    wait_for("A never reached the ranked pool", &|| {
        airchitect_chaos::fired("serve.batch.dispatch") == 1
    });
    // B waits in the pool's queue behind it (a shard counts its cache
    // miss just before queueing it).
    let mut b = send(r#"{"m":96,"n":64,"k":256,"mac_budget":1024,"topk":3}"#);
    wait_for("B never missed the cache", &|| {
        SERVE_CACHE_MISSES.get() >= misses + 2
    });

    let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();
    let started = Instant::now();
    let resp = client.post("/v1/recommend/array", ARRAY_BODY).unwrap();
    let waited = started.elapsed();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(
        waited < Duration::from_millis(200),
        "the top-1 answer waited {} ms behind ranked work",
        waited.as_millis()
    );
    let hub = ModelHub::load(&[cs1_model_file()], false).unwrap();
    let model = hub.get(CaseStudy::ArrayDataflow).unwrap();
    let query = parse_recommend(CaseStudy::ArrayDataflow, ARRAY_BODY.as_bytes())
        .unwrap()
        .query;
    let Outcome::Ok { body_tail, .. } = execute_fast(&model, &query) else {
        panic!("execute_fast failed on {ARRAY_BODY}");
    };
    assert_eq!(resp.body, format!("{{\"cached\":false,{body_tail}"));

    // A and B are still answered, once the stall ends.
    for stream in [&mut a, &mut b] {
        let mut answer = String::new();
        stream.read_to_string(&mut answer).unwrap();
        assert!(answer.starts_with("HTTP/1.1 200 "), "{answer}");
        assert!(answer.contains("\"results\":["), "{answer}");
    }
    shutdown(client, handle);
}

#[test]
fn injected_panic_on_the_bypass_is_isolated_to_one_500() {
    // `serve.infer` fires inside `execute_fast`, so for a top-1 request
    // the panic lands on the shard that answers it inline — it must be
    // caught there exactly like a ranked-pool thread catches its own.
    let _guard = chaos("serve.infer=panic:1:1");
    let (addr, handle) = start(config(0, 0, false));
    let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();

    let resp = client.post("/v1/recommend/array", ARRAY_BODY).unwrap();
    assert_eq!(resp.status, 500, "{}", resp.body);
    assert!(resp.body.contains("inference_panic"), "{}", resp.body);
    // The connection (and server) survived; later requests are answered.
    for _ in 0..3 {
        let resp = client.post("/v1/recommend/array", ARRAY_BODY).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    shutdown(client, handle);
}

#[test]
fn reload_faults_409_then_trip_the_reload_breaker() {
    // Start clean so the initial load at bind time succeeds, then inject
    // read faults that only the reload path will hit.
    let _guard = chaos("");
    let (addr, handle) = start(config(2, 60_000, false));
    airchitect_chaos::configure_str("serve.reload.read=err(other):1:2").unwrap();
    let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();

    // Two injected read failures: each reload answers 409 and the old
    // model keeps serving.
    for _ in 0..2 {
        let resp = client.post("/v1/reload", "").unwrap();
        assert_eq!(resp.status, 409, "{}", resp.body);
        assert!(resp.body.contains("reload_failed"), "{}", resp.body);
        let ok = client.post("/v1/recommend/array", ARRAY_BODY).unwrap();
        assert_eq!(ok.status, 200, "old model must keep serving");
    }
    // The reload circuit is now open: fail fast without touching disk.
    let resp = client.post("/v1/reload", "").unwrap();
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert!(resp.body.contains("circuit_open"), "{}", resp.body);
    assert_eq!(resp.retry_after, Some(1));
    let health = client.get("/healthz").unwrap();
    assert!(health.body.contains("\"reload\":\"open\""), "{}", health.body);

    shutdown(client, handle);
}

/// A reload runs on the control thread, not on the event loop that parsed
/// it: while `serve.reload.read` holds the reload, a recommend sent after
/// it on another connection of the same (only) loop is answered, and the
/// reload's answer has not arrived yet. On the loop, the reload's answer
/// would have been written first.
#[test]
fn a_slow_reload_does_not_stall_its_event_loop() {
    let _guard = chaos("");
    let (addr, handle) = start(ServeConfig {
        event_loops: 1,
        ..config(0, 0, false)
    });
    airchitect_chaos::configure_str("serve.reload.read=delay(1500):1:1").unwrap();

    let mut reloading = TcpStream::connect(addr).unwrap();
    reloading
        .write_all(b"POST /v1/reload HTTP/1.1\r\nConnection: close\r\nContent-Length: 0\r\n\r\n")
        .unwrap();
    let deadline = Instant::now() + TIMEOUT;
    while airchitect_chaos::fired("serve.reload.read") == 0 {
        assert!(
            Instant::now() < deadline,
            "the reload never reached the model read"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();
    let resp = client.post("/v1/recommend/array", ARRAY_BODY).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    reloading.set_nonblocking(true).unwrap();
    let early = reloading.read(&mut [0u8; 1]);
    assert!(
        matches!(&early, Err(e) if e.kind() == std::io::ErrorKind::WouldBlock),
        "the reload answered before a request sent after it: {early:?}"
    );

    reloading.set_nonblocking(false).unwrap();
    let mut answer = String::new();
    reloading.read_to_string(&mut answer).unwrap();
    assert!(answer.starts_with("HTTP/1.1 200 "), "{answer}");
    assert!(answer.contains("\"generation\":2"), "{answer}");
    shutdown(client, handle);
}

#[test]
fn injected_accept_errors_are_retried_not_fatal() {
    let _guard = chaos("serve.listener.accept=err(other):1:5");
    let (addr, handle) = start(config(0, 0, false));
    // Every connection still gets through: the accept loop backs off and
    // retries, and pending sockets wait in the kernel backlog.
    for _ in 0..3 {
        let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();
        let resp = client.post("/v1/recommend/array", ARRAY_BODY).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    assert!(airchitect_chaos::fired("serve.listener.accept") >= 1);
    shutdown(HttpClient::connect(addr, TIMEOUT).unwrap(), handle);
}

// --- Safe-rollout chaos: injected faults on the registry persist paths ---

/// Fresh registry dir + canary config for one chaos rollout test.
fn rollout_config(name: &str) -> (PathBuf, ServeConfig) {
    let dir = std::env::temp_dir().join(format!(
        "airchitect-chaos-rollout-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    (
        dir.clone(),
        ServeConfig {
            model_paths: vec![cs1_model_file()],
            model_dir: Some(dir),
            canary_split: 1.0,
            canary_min_samples: 2,
            canary_min_agreement: 0.9,
            canary_max_p99_ratio: 1e9,
            read_timeout_secs: 30,
            ..ServeConfig::default()
        },
    )
}

/// Drives sampled traffic until the rollout settles, returning healthz.
fn settle(client: &mut HttpClient) -> String {
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        for m in [64u64, 96, 128] {
            let body = format!("{{\"m\":{m},\"n\":64,\"k\":256,\"mac_budget\":1024}}");
            let resp = client.post("/v1/recommend/array", &body).unwrap();
            assert!(resp.status < 500, "{} {}", resp.status, resp.body);
        }
        let health = client.get("/healthz").unwrap();
        if health.body.contains("\"state\":\"idle\"") {
            return health.body;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "rollout never settled: {}",
            health.body
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A promote that cannot persist must fail the rollout — incumbent keeps
/// serving, registry state unchanged, candidate NOT quarantined (the
/// artifact was fine) — and a retry after the fault clears promotes.
#[test]
fn injected_promote_persist_failure_fails_the_rollout_then_recovers() {
    use airchitect_serve::registry::Registry;

    let _guard = chaos(""); // clean: bind-time seeding must succeed
    let (dir, config) = rollout_config("promote-fault");
    let (addr, handle) = start(config);
    let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();
    {
        let bytes = std::fs::read(dir.join("current.airm")).unwrap();
        let mut reg = Registry::open(&dir, 3).unwrap();
        assert_eq!(reg.add_version(&bytes).unwrap(), 2);
    }
    airchitect_chaos::configure_str("registry.promote=err(other):1:1").unwrap();

    let resp = client.post("/v1/reload", "").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"staged\":true"), "{}", resp.body);
    let health = settle(&mut client);
    assert!(health.contains("\"last\":\"rolled_back\""), "{health}");
    assert!(health.contains("\"version\":1"), "{health}");

    // The artifact itself was fine: not quarantined, so the retry (fault
    // exhausted) stages the same version again and promotes cleanly.
    {
        let reg = Registry::open(&dir, 3).unwrap();
        assert_eq!(reg.manifest().active, Some(1));
        assert!(reg.manifest().entries.iter().any(|e| e.version == 2 && !e.quarantined));
    }
    let retry = client.post("/v1/reload", "").unwrap();
    assert_eq!(retry.status, 200, "{}", retry.body);
    let health = settle(&mut client);
    assert!(health.contains("\"last\":\"promoted\""), "{health}");
    assert!(health.contains("\"version\":2"), "{health}");
    assert_eq!(Registry::open(&dir, 3).unwrap().manifest().active, Some(2));

    shutdown(client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A quarantine whose MANIFEST write fails must not take the server down:
/// the stage failure still answers 409, serving continues, and the
/// persist error is surfaced through /healthz load_errors.
#[test]
fn injected_quarantine_persist_failure_is_surfaced_not_fatal() {
    use airchitect_serve::registry::Registry;

    let _guard = chaos("");
    let (dir, config) = rollout_config("quarantine-fault");
    let (addr, handle) = start(config);
    let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();
    {
        let mut reg = Registry::open(&dir, 3).unwrap();
        assert_eq!(reg.add_version(b"corrupt artifact bytes").unwrap(), 2);
    }
    airchitect_chaos::configure_str("registry.quarantine=err(other):1:1").unwrap();

    let resp = client.post("/v1/reload", "").unwrap();
    assert_eq!(resp.status, 409, "{}", resp.body);
    assert!(resp.body.contains("stage_failed"), "{}", resp.body);
    let ok = client.post("/v1/recommend/array", ARRAY_BODY).unwrap();
    assert_eq!(ok.status, 200, "incumbent must keep serving");
    let health = client.get("/healthz").unwrap();
    assert!(health.body.contains("quarantine"), "persist failure must surface: {}", health.body);
    // The failed quarantine left the entry promotable on disk — and the
    // next stage attempt (fault exhausted) quarantines it for real.
    let retry = client.post("/v1/reload", "").unwrap();
    assert_eq!(retry.status, 409, "{}", retry.body);
    let reg = Registry::open(&dir, 3).unwrap();
    assert!(reg.manifest().entries.iter().any(|e| e.version == 2 && e.quarantined));

    shutdown(client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A canary verdict runs on the shadow pool, never on a shard: on a
/// one-loop server with every request sampled and one sample enough, the
/// request whose sample settles the verdict is answered while the
/// promote's registry write is still held by `registry.promote`, and so
/// are a recommend and a `/healthz` sent next on another connection of the
/// same loop.
#[test]
fn a_held_canary_promote_does_not_stall_its_event_loop() {
    use airchitect_serve::registry::Registry;

    let _guard = chaos("");
    let (dir, config) = rollout_config("held-promote");
    let (addr, handle) = start(ServeConfig {
        event_loops: 1,
        canary_min_samples: 1,
        ..config
    });
    let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();
    {
        let bytes = std::fs::read(dir.join("current.airm")).unwrap();
        let mut reg = Registry::open(&dir, 3).unwrap();
        assert_eq!(reg.add_version(&bytes).unwrap(), 2);
    }
    let resp = client.post("/v1/reload", "").unwrap();
    assert!(resp.body.contains("\"staged\":true"), "{}", resp.body);
    airchitect_chaos::configure_str("registry.promote=delay(1500):1:1").unwrap();
    let active = || Registry::open(&dir, 3).unwrap().manifest().active;

    let resp = client.post("/v1/recommend/array", ARRAY_BODY).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(active(), Some(1), "the settling request waited for the promote");
    let deadline = Instant::now() + TIMEOUT;
    while airchitect_chaos::fired("registry.promote") == 0 {
        assert!(Instant::now() < deadline, "the verdict never reached the promote");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut other = HttpClient::connect(addr, TIMEOUT).unwrap();
    let resp = other.post("/v1/recommend/array", ARRAY_BODY).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(active(), Some(1), "a request on another connection waited for the promote");
    // `/healthz` reports the active version without the registry lock the
    // promote holds.
    let health = other.get("/healthz").unwrap();
    assert_eq!(health.status, 200, "{}", health.body);
    assert_eq!(active(), Some(1), "a healthz waited for the promote");
    assert!(health.body.trim_end().ends_with(",\"version\":1}"), "{}", health.body);

    let health = settle(&mut client);
    assert!(health.contains("\"last\":\"promoted\""), "{health}");
    assert_eq!(active(), Some(2));
    drop(other);
    shutdown(client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Clone-mutate-store-commit: a MANIFEST write fault mid-promote leaves
/// both the on-disk file and the in-memory registry on the old state.
#[test]
fn injected_manifest_write_failure_keeps_registry_atomic() {
    use airchitect_serve::registry::Registry;

    let _guard = chaos("");
    let dir = std::env::temp_dir().join(format!(
        "airchitect-chaos-manifest-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut reg = Registry::open(&dir, 3).unwrap();
    let v1 = reg.add_version(b"one").unwrap();
    reg.promote(v1).unwrap();
    let v2 = reg.add_version(b"two").unwrap();

    airchitect_chaos::configure_str("registry.manifest.write=err(other):1:1").unwrap();
    assert!(reg.promote(v2).is_err(), "injected write fault must surface");
    // `current.airm` is written before the MANIFEST, so it may already
    // hold v2's bytes — the manifest pointer is what must not tear.
    assert_eq!(reg.manifest().active, Some(v1), "memory keeps old state");
    let reopened = Registry::open(&dir, 3).unwrap();
    assert_eq!(reopened.manifest().active, Some(v1), "disk keeps old state");

    // Fault exhausted: the same promote now lands.
    reg.promote(v2).unwrap();
    assert_eq!(reg.manifest().active, Some(v2));
    assert_eq!(std::fs::read(dir.join("current.airm")).unwrap(), b"two");
    let _ = std::fs::remove_dir_all(&dir);
}
