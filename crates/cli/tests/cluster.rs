//! End-to-end cluster test against the real `airchitect` binary: boot a
//! supervised 2-replica cluster, hammer it through the router, SIGKILL a
//! replica mid-run, and assert that no client request fails and the
//! killed replica is restarted and re-admitted to the ring. The router
//! runs in the test process, so its thread count can be read there.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use airchitect::model::{AirchitectConfig, AirchitectModel, CaseStudy};
use airchitect::persist;
use airchitect_data::Dataset;
use airchitect_dse::case1::Case1Problem;
use airchitect_nn::train::TrainConfig;
use airchitect_serve::client::RetryClient;
use airchitect_serve::{Cluster, ClusterConfig, ServeConfig};
use airchitect_workload::GemmWorkload;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

mod common;
use common::Running;

const CS1_CLASSES: u32 = 459;

/// A briefly trained CS1 model (accuracy is irrelevant; the replicas
/// just need a loadable model). Different seeds give different weights,
/// so artifacts trained from different seeds have distinct bytes.
fn train_model(seed: u64) -> AirchitectModel {
    let mut ds = Dataset::new(4, CS1_CLASSES).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..400 {
        let wl = GemmWorkload::new(
            rng.random_range(16..512u64),
            rng.random_range(16..512u64),
            rng.random_range(16..512u64),
        )
        .unwrap();
        ds.push(
            &Case1Problem::features(&wl, 1 << 10),
            rng.random_range(0..CS1_CLASSES),
        )
        .unwrap();
    }
    let mut model = AirchitectModel::new(
        CaseStudy::ArrayDataflow,
        &AirchitectConfig {
            num_classes: CS1_CLASSES,
            train: TrainConfig {
                epochs: 1,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    model.train(&ds).expect("train");
    model
}

/// The default test model persisted to a temp `.airm`.
fn model_file() -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "airchitect-cluster-test-{}.airm",
        std::process::id()
    ));
    persist::save(&train_model(3), &path).expect("persist model");
    path
}

#[test]
fn cluster_survives_a_replica_sigkill_under_load() {
    let model_path = model_file();
    let replica_config = ServeConfig {
        model_paths: vec![model_path.clone()],
        workers: 2,
        queue_depth: 1024,
        cache_capacity: 64,
        read_timeout_secs: 30,
        ..ServeConfig::default()
    };
    let cfg = ClusterConfig {
        addr: "127.0.0.1:0".into(),
        replica_argv: Cluster::replica_argv(env!("CARGO_BIN_EXE_airchitect"), &replica_config),
        replicas: 2,
        probe_interval_ms: 50,
        probe_timeout_ms: 2000,
        restart_base_ms: 50,
        backend_timeout_ms: 30_000,
        read_timeout_secs: 30,
        ..ClusterConfig::default()
    };
    let probe_interval_ms = cfg.probe_interval_ms;
    let cluster = Cluster::start(cfg).expect("cluster starts");
    let addr = cluster.local_addr();
    let fleet = cluster.fleet();
    assert!(
        cluster.wait_healthy(2, Duration::from_secs(60)),
        "both replicas should pass startup probes"
    );
    let running = Running::start(cluster);

    // Router healthz aggregates the fleet.
    let mut client = RetryClient::new(addr, Duration::from_secs(10), 4, Duration::from_millis(50));
    let healthz = client.get("/healthz").expect("healthz");
    assert_eq!(healthz.status, 200);
    assert!(healthz.body.contains("\"role\":\"router\""), "{}", healthz.body);
    assert!(healthz.body.contains("\"status\":\"ok\""), "{}", healthz.body);

    // Load with a SIGKILL a quarter of the way through. RetryClient only
    // retries transport errors, so a 5xx leaking through the router's
    // failover would fail the assertion below.
    let victim: u32 = 0;
    let bodies: Vec<String> = (0..16)
        .map(|i| format!("{{\"m\":{},\"n\":64,\"k\":32}}", 16 + i * 8))
        .collect();
    let mut failures = 0u64;
    for i in 0..200 {
        if i == 50 {
            assert!(
                fleet.kill_replica(victim),
                "victim replica should have a live child to kill"
            );
        }
        let resp = client
            .post("/v1/recommend/array", &bodies[i % bodies.len()])
            .expect("request survives failover");
        if resp.status != 200 {
            failures += 1;
        }
    }
    assert_eq!(
        failures, 0,
        "a replica SIGKILL must not surface as client-visible errors"
    );

    // The supervisor restarts and re-admits the killed replica. The
    // request loop can drain before the probe thread even notices the
    // death (the victim still counts as healthy until ejected), so wait
    // for the full eject -> restart -> re-admit cycle, not just the
    // healthy count.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let restarts: u64 = fleet.views().iter().map(|v| v.restarts_total).sum();
        if restarts >= 1 && fleet.healthy() >= 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "killed replica was not restarted and re-admitted within 30 s"
        );
        std::thread::sleep(Duration::from_millis(probe_interval_ms));
    }

    // Per-replica gauges show up in the router's aggregated metrics.
    let metrics = client.get("/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    for line in [
        "cluster.replica.0.restarts_total",
        "cluster.replica.1.healthy 1",
        "cluster.proxy_requests",
    ] {
        assert!(metrics.body.contains(line), "missing `{line}` in:\n{}", metrics.body);
    }

    // Reload fans out to every replica.
    let reload = client.post("/v1/reload", "").expect("reload");
    assert_eq!(reload.status, 200, "{}", reload.body);
    assert!(reload.body.contains("\"reloaded\":true"), "{}", reload.body);

    running.shutdown(&mut client);
    let _ = std::fs::remove_file(&model_path);
}

/// The answer portion of a recommend response: everything after the
/// `"generation":N` field. The `"cached"` flag and producing generation
/// legitimately change across reloads and restarts; the recommendation
/// itself must not.
fn answer_of(body: &str) -> &str {
    let i = body.find("\"generation\":").expect("generation field");
    let rest = &body[i..];
    let j = rest.find(',').expect("fields after generation");
    &rest[j..]
}

/// SIGKILL-ing the replica that is mid-canary during a rolling reload
/// must roll the whole fleet back: the candidate version ends up
/// quarantined, the registry stays on the incumbent, the killed replica
/// is restarted onto `current.airm`, and every replica answers exactly
/// as it did before the rollout started.
#[test]
fn rolling_reload_mid_rollout_sigkill_rolls_the_fleet_back() {
    use airchitect_serve::registry::{Registry, DEFAULT_RETAIN};

    let dir = std::env::temp_dir().join(format!(
        "airchitect-cluster-rollout-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Seed the registry the way `serve --cluster --model-dir` does: the
    // router owns the MANIFEST, replicas serve `current.airm` by path.
    let seed_bytes = persist::to_bytes(&train_model(3));
    let current_path = {
        let mut reg = Registry::open(&dir, DEFAULT_RETAIN).expect("open registry");
        let v = reg.add_version(&seed_bytes).expect("seed version");
        reg.promote(v).expect("promote seed");
        reg.current_path()
    };
    let candidate_path = dir.join("candidate.airm");
    persist::save(&train_model(7), &candidate_path).expect("persist candidate");

    // min_samples is unreachable (no sampled traffic is driven), so the
    // staged replica sits in `evaluating` until we kill it.
    let replica_config = ServeConfig {
        model_paths: vec![current_path],
        workers: 2,
        queue_depth: 1024,
        cache_capacity: 64,
        read_timeout_secs: 30,
        canary_split: 1.0,
        canary_min_samples: 10_000,
        canary_min_agreement: 0.9,
        canary_max_p99_ratio: 1e9,
        ..ServeConfig::default()
    };
    let cfg = ClusterConfig {
        addr: "127.0.0.1:0".into(),
        replica_argv: Cluster::replica_argv(env!("CARGO_BIN_EXE_airchitect"), &replica_config),
        replicas: 2,
        probe_interval_ms: 50,
        probe_timeout_ms: 2000,
        restart_base_ms: 50,
        backend_timeout_ms: 30_000,
        read_timeout_secs: 30,
        model_dir: Some(dir.clone()),
        rollout_timeout_ms: 3_000,
        ..ClusterConfig::default()
    };
    let probe_interval_ms = cfg.probe_interval_ms;
    let cluster = Cluster::start(cfg).expect("cluster starts");
    let addr = cluster.local_addr();
    let fleet = cluster.fleet();
    assert!(
        cluster.wait_healthy(2, Duration::from_secs(60)),
        "both replicas should pass startup probes"
    );
    let running = Running::start(cluster);
    let mut client = RetryClient::new(addr, Duration::from_secs(30), 4, Duration::from_millis(50));

    // Baseline answers; the fleet must return to exactly these.
    let bodies: Vec<String> = (0..16)
        .map(|i| format!("{{\"m\":{},\"n\":64,\"k\":32}}", 16 + i * 8))
        .collect();
    let baseline: Vec<String> = bodies
        .iter()
        .map(|b| {
            let resp = client.post("/v1/recommend/array", b).expect("baseline request");
            assert_eq!(resp.status, 200, "{}", resp.body);
            resp.body
        })
        .collect();

    // Kick off the rolling reload; it blocks in the router until the
    // fleet-wide verdict, so drive it from a second thread.
    let reload_thread = {
        let body = format!("{{\"path\":{:?}}}", candidate_path.display().to_string());
        std::thread::spawn(move || {
            let mut c = RetryClient::new(addr, Duration::from_secs(60), 1, Duration::from_millis(50));
            c.post("/v1/reload", &body).expect("reload request completes")
        })
    };

    // Wait for one replica to enter canary evaluation, then SIGKILL it.
    let deadline = Instant::now() + Duration::from_secs(30);
    'found: loop {
        assert!(Instant::now() < deadline, "no replica ever started evaluating");
        for view in fleet.views() {
            let Some(replica_addr) = view.addr else { continue };
            let mut probe =
                RetryClient::new(replica_addr, Duration::from_secs(5), 1, Duration::from_millis(20));
            if let Ok(health) = probe.get("/healthz") {
                if health.body.contains("\"state\":\"evaluating\"") {
                    assert!(fleet.kill_replica(view.id), "evaluating replica should be killable");
                    break 'found;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    // The router must notice the dead canary and roll the fleet back.
    let reload = reload_thread.join().expect("reload thread joins");
    assert_eq!(reload.status, 409, "{}", reload.body);
    assert!(reload.body.contains("\"rolled_back\":true"), "{}", reload.body);

    // Disk is authoritative: incumbent active, candidate quarantined.
    let manifest = Registry::open(&dir, DEFAULT_RETAIN).expect("reopen registry").manifest().clone();
    assert_eq!(manifest.active, Some(1), "{manifest:?}");
    let candidate = manifest.entries.iter().find(|e| e.version == 2).expect("candidate entry");
    assert!(candidate.quarantined, "{manifest:?}");

    // The killed replica restarts from `current.airm` and rejoins.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let restarts: u64 = fleet.views().iter().map(|v| v.restarts_total).sum();
        if restarts >= 1 && fleet.healthy() >= 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "killed replica was not restarted and re-admitted within 30 s"
        );
        std::thread::sleep(Duration::from_millis(probe_interval_ms));
    }

    // Every replica answers exactly as before the aborted rollout.
    for (body, expected) in bodies.iter().zip(&baseline) {
        let resp = client.post("/v1/recommend/array", body).expect("post-rollback request");
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(
            answer_of(&resp.body),
            answer_of(expected),
            "fleet answers diverged after rollback"
        );
    }
    let metrics = client.get("/metrics").expect("metrics");
    assert!(
        metrics.body.contains("cluster.rollout.rollbacks 1"),
        "{}",
        metrics.body
    );

    running.shutdown(&mut client);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `Threads:` line of this process's `/proc/self/status`.
#[cfg(target_os = "linux")]
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("Threads: line")
}

/// Sends one recommend on `stream` without reading the answer.
#[cfg(target_os = "linux")]
fn send_recommend(mut stream: &TcpStream, body: &str) -> std::io::Result<()> {
    write!(
        stream,
        "POST /v1/recommend/array HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// Reads one whole answer from `stream`, so the connection stays usable;
/// returns its status.
#[cfg(target_os = "linux")]
fn read_status(stream: &TcpStream) -> std::io::Result<u16> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = line.split_whitespace().nth(1).and_then(|s| s.parse().ok());
    let mut length = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let Some((name, value)) = line.trim_end().split_once(':') else {
            break; // the blank line ending the head
        };
        if name.eq_ignore_ascii_case("content-length") {
            length = value.trim().parse().unwrap_or(0);
        }
    }
    reader.read_exact(&mut vec![0u8; length])?;
    status.ok_or_else(|| std::io::ErrorKind::InvalidData.into())
}

/// Sends one recommend on `stream` and reads its whole answer.
#[cfg(target_os = "linux")]
fn recommend_status(stream: &TcpStream, body: &str) -> std::io::Result<u16> {
    send_recommend(stream, body)?;
    read_status(stream)
}

/// The router answers from the reactor shards, not from a thread per
/// connection: a one-replica cluster holds 5 000 keep-alive connections
/// (the c10k quick size; fewer, down to 1 000, where the fd limit is
/// lower) with no failed connect, answers a recommend on every one of
/// them, and the process gains fewer threads than a quarter of the
/// connections while they are held.
#[cfg(target_os = "linux")]
#[test]
fn router_holds_five_thousand_keep_alive_connections_on_a_few_threads() {
    const WANT: u64 = 5_000;
    const FLOOR: u64 = 1_000;
    // Both ends of every connection live in this process; keep headroom
    // for the model, the epoll instances and the other tests' clusters.
    let granted = airchitect_serve::reactor::raise_nofile_limit(2 * WANT + 1024);
    let connections = WANT.min(granted.saturating_sub(512) / 2);
    if connections < FLOOR {
        println!("skipped: the fd limit {granted} holds fewer than {FLOOR} connections");
        return;
    }
    let connections = connections as usize;
    // A thread per connection would add all of them; the clusters this
    // binary's other tests start meanwhile add a few dozen.
    let thread_growth_bound = connections / 4;
    let model_path = std::env::temp_dir().join(format!(
        "airchitect-cluster-c10k-{}.airm",
        std::process::id()
    ));
    persist::save(&train_model(3), &model_path).expect("persist model");
    let replica_config = ServeConfig {
        model_paths: vec![model_path.clone()],
        workers: 2,
        cache_capacity: 64,
        read_timeout_secs: 30,
        ..ServeConfig::default()
    };
    let cfg = ClusterConfig {
        addr: "127.0.0.1:0".into(),
        replica_argv: Cluster::replica_argv(env!("CARGO_BIN_EXE_airchitect"), &replica_config),
        replicas: 1,
        probe_interval_ms: 50,
        probe_timeout_ms: 2000,
        backend_timeout_ms: 30_000,
        read_timeout_secs: 60,
        ..ClusterConfig::default()
    };
    let cluster = Cluster::start(cfg).expect("cluster starts");
    let addr = cluster.local_addr();
    assert!(
        cluster.wait_healthy(1, Duration::from_secs(60)),
        "the replica should pass its startup probe"
    );
    let running = Running::start(cluster);
    let mut client = RetryClient::new(addr, Duration::from_secs(30), 4, Duration::from_millis(50));
    let body = "{\"m\":64,\"n\":64,\"k\":32}";
    assert_eq!(
        client
            .post("/v1/recommend/array", body)
            .expect("warm-up")
            .status,
        200
    );
    let threads_before = process_threads();

    let mut held = Vec::with_capacity(connections);
    let mut failed_connects = 0usize;
    for _ in 0..connections {
        match TcpStream::connect_timeout(&addr, Duration::from_secs(10)) {
            Ok(stream) => {
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                stream.set_nodelay(true).unwrap();
                held.push(stream);
            }
            Err(_) => failed_connects += 1,
        }
    }
    let mut not_ok = 0usize;
    for stream in &held {
        if !matches!(recommend_status(stream, body), Ok(200)) {
            not_ok += 1;
        }
    }
    let threads_held = process_threads();
    println!(
        "router: {} connections held, {failed_connects} failed connects, {not_ok} non-200, \
         threads {threads_before} -> {threads_held}",
        held.len()
    );
    assert_eq!(failed_connects, 0, "failed connects");
    assert_eq!(
        not_ok, 0,
        "connections whose recommend was not answered 200"
    );
    assert!(
        threads_held < threads_before + thread_growth_bound,
        "threads grew from {threads_before} to {threads_held} while {} connections were held",
        held.len()
    );
    let metrics = client.get("/metrics").expect("metrics").body;
    let open: usize = metrics
        .lines()
        .find_map(|l| l.strip_prefix("serve.open_connections "))
        .and_then(|n| n.parse().ok())
        .expect("router reports serve.open_connections");
    assert!(
        open > held.len(),
        "router holds {open} connections, not all {}",
        held.len()
    );

    // Close every held connection first: idle ones would otherwise wait
    // out the drain's read-timeout window.
    drop(held);
    running.shutdown(&mut client);
    let _ = std::fs::remove_file(&model_path);
}

/// Sends `signal` to process `pid`.
#[cfg(target_os = "linux")]
fn signal(pid: u32, signal: i32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    let pid = i32::try_from(pid).expect("pid fits an i32");
    // SAFETY: `kill` reads its two integer arguments only.
    assert_eq!(unsafe { kill(pid, signal) }, 0, "kill({pid}, {signal})");
}

/// Resumes a stopped process when dropped, so a failing test leaves no
/// replica stopped for the supervisor's drain to wait on.
#[cfg(target_os = "linux")]
struct Resume(u32);

#[cfg(target_os = "linux")]
impl Drop for Resume {
    fn drop(&mut self) {
        const SIGCONT: i32 = 18;
        signal(self.0, SIGCONT);
    }
}

/// A replica that stops answering but stays on the ring (SIGSTOPped here,
/// never ejected: like one whose inference stalls while its `/healthz`
/// answers) holds only its share of the router's forwarding threads.
/// With twice the router's threads in requests waiting on it, requests
/// keyed to the other replica are answered `200` well within the backend
/// budget, and the waiting ones are all answered `200` too.
#[cfg(target_os = "linux")]
#[test]
fn a_stopped_replica_does_not_stall_requests_for_the_other() {
    use airchitect_serve::router::parse_recommend;

    const SIGSTOP: i32 = 19;
    const STOPPED: u32 = 0;
    const BACKEND_TIMEOUT_MS: u64 = 10_000;
    let model_path = std::env::temp_dir().join(format!(
        "airchitect-cluster-stopped-{}.airm",
        std::process::id()
    ));
    persist::save(&train_model(3), &model_path).expect("persist model");
    let replica_config = ServeConfig {
        model_paths: vec![model_path.clone()],
        workers: 2,
        cache_capacity: 0,
        read_timeout_secs: 30,
        ..ServeConfig::default()
    };
    let cfg = ClusterConfig {
        addr: "127.0.0.1:0".into(),
        replica_argv: Cluster::replica_argv(env!("CARGO_BIN_EXE_airchitect"), &replica_config),
        replicas: 2,
        probe_interval_ms: 50,
        probe_timeout_ms: 2000,
        eject_after: u32::MAX,
        backend_timeout_ms: BACKEND_TIMEOUT_MS,
        read_timeout_secs: 30,
        ..ClusterConfig::default()
    };
    let forwarders = cfg.replicas * cfg.max_inflight as usize;
    let cluster = Cluster::start(cfg).expect("cluster starts");
    let addr = cluster.local_addr();
    let fleet = cluster.fleet();
    assert!(
        cluster.wait_healthy(2, Duration::from_secs(60)),
        "both replicas should pass startup probes"
    );
    let running = Running::start(cluster);

    let primary = |body: &String| {
        let key = parse_recommend(CaseStudy::ArrayDataflow, body.as_bytes())
            .expect("valid body")
            .cache_key;
        fleet.ordered(&key, 1)[0]
    };
    let (to_stopped, to_live): (Vec<String>, Vec<String>) = (0..64)
        .map(|i| format!("{{\"m\":{},\"n\":64,\"k\":32}}", 16 + i))
        .partition(|body| primary(body) == STOPPED);
    assert!(
        !to_stopped.is_empty() && to_live.len() >= 8,
        "the 64 bodies should key to both replicas"
    );
    let pid = fleet.views()[STOPPED as usize].pid.expect("replica pid");
    signal(pid, SIGSTOP);
    let resume = Resume(pid);

    // Each on its own connection, answers left unread for now.
    let waiting: Vec<TcpStream> = to_stopped
        .iter()
        .cycle()
        .take(2 * forwarders)
        .map(|body| {
            let stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(60)))
                .unwrap();
            send_recommend(&stream, body).expect("send");
            stream
        })
        .collect();
    // Let the router take them up before timing the others.
    std::thread::sleep(Duration::from_millis(200));

    let bound = Duration::from_millis(BACKEND_TIMEOUT_MS / 4);
    let mut client = RetryClient::new(addr, Duration::from_secs(30), 4, Duration::from_millis(50));
    for body in to_live.iter().take(8) {
        let t0 = Instant::now();
        let resp = client.post("/v1/recommend/array", body).expect("recommend");
        let took = t0.elapsed();
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(
            took < bound,
            "a request for the live replica took {took:?} while replica {STOPPED} was stopped"
        );
    }

    drop(resume);
    for stream in &waiting {
        assert_eq!(
            read_status(stream).expect("answer"),
            200,
            "a request keyed to the stopped replica"
        );
    }
    drop(waiting);
    running.shutdown(&mut client);
    let _ = std::fs::remove_file(&model_path);
}
