//! Integration: the closed online-learning loop against a live server —
//! shadow sampling writes versioned records, concurrent hot-reloads stamp
//! each record with the generation it was scored against, and
//! [`fine_tune`] replays the log while skipping cross-version records.

use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use airchitect::model::{AirchitectConfig, AirchitectModel, CaseStudy};
use airchitect::persist;
use airchitect_data::Dataset;
use airchitect_dse::case1::Case1Problem;
use airchitect_dse::space::Case1Space;
use airchitect_nn::train::TrainConfig;
use airchitect_online::{fine_tune, read_dir, FineTuneOptions, LogScan};
use airchitect_serve::client::HttpClient;
use airchitect_serve::{ServeConfig, ServeError, Server};
use airchitect_workload::GemmWorkload;

const TIMEOUT: Duration = Duration::from_secs(30);

/// The tiny CS1 space the tests serve: 2^5 MAC budget, 30 labels.
const BUDGET: u64 = 1 << 5;

/// Trains a tiny CS1 model on oracle-labeled rows and persists it.
fn oracle_model_file(tag: &str) -> PathBuf {
    let space = Case1Space::new(BUDGET);
    let problem = Case1Problem::new(BUDGET);
    let mut ds = Dataset::new(4, space.len() as u32).unwrap();
    for m in [8u64, 16, 32, 64, 128, 256] {
        let wl = GemmWorkload::new(m, 16, 32).unwrap();
        ds.push(
            &Case1Problem::features(&wl, BUDGET),
            problem.search(&wl, BUDGET).label,
        )
        .unwrap();
    }
    let mut model = AirchitectModel::new(
        CaseStudy::ArrayDataflow,
        &AirchitectConfig {
            num_classes: space.len() as u32,
            train: TrainConfig {
                epochs: 2,
                batch_size: 8,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    model.train(&ds).unwrap();
    let path = std::env::temp_dir().join(format!(
        "airchitect-online-loop-{}-{tag}.airm",
        std::process::id()
    ));
    persist::save(&model, &path).unwrap();
    path
}

fn start(config: ServeConfig) -> (SocketAddr, JoinHandle<Result<(), ServeError>>) {
    let server = Server::bind(&config).expect("server binds");
    let addr = server.local_addr();
    (addr, std::thread::spawn(move || server.run()))
}

/// Shuts the server down over the test's own keep-alive connection, so no
/// idle connection is left to wait out the read-timeout drain window.
fn shutdown(mut client: HttpClient, handle: JoinHandle<Result<(), ServeError>>) {
    let resp = client.post("/v1/shutdown", "").unwrap();
    assert_eq!(resp.status, 200);
    handle.join().unwrap().unwrap();
}

fn body(m: u64) -> String {
    format!("{{\"m\":{m},\"n\":16,\"k\":32,\"mac_budget\":{BUDGET}}}")
}

/// Polls the misprediction log until it holds `n` records (the shadow pool
/// scores asynchronously) or panics after 10 s.
fn wait_for_records(dir: &Path, n: usize) -> LogScan {
    let t0 = Instant::now();
    loop {
        let scan = read_dir(dir).unwrap();
        if scan.records.len() >= n {
            return scan;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "only {} of {n} shadow records after 10s",
            scan.records.len()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The tentpole loop, under reload pressure: records written before a
/// hot-reload carry generation 1, records written after carry the bumped
/// generation even while further reloads race the shadow pool, and a
/// fine-tune replay targets only the newest generation.
#[test]
fn shadow_records_survive_concurrent_reloads_with_correct_versions() {
    let model_path = oracle_model_file("reload");
    let dir = std::env::temp_dir().join(format!(
        "airchitect-online-loop-log-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig {
        model_paths: vec![model_path.clone()],
        read_timeout_secs: 30,
        shadow_rate: 1.0,
        shadow_dir: Some(dir.clone()),
        shadow_queue_depth: 256,
        shadow_threads: 1,
        ..ServeConfig::default()
    };
    let (addr, handle) = start(config);
    let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();

    // Phase 1: distinct queries scored against generation 1.
    let phase1 = 6usize;
    for i in 0..phase1 {
        let resp = client
            .post("/v1/recommend/array", &body(8 + i as u64 * 8))
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    wait_for_records(&dir, phase1);

    // Bump the generation, then keep reloading *while* phase 2 flows so
    // sampling races in-flight generation swaps.
    let resp = client.post("/v1/reload", "").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let stop = Arc::new(AtomicBool::new(false));
    let reloader = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut c = HttpClient::connect(addr, TIMEOUT).unwrap();
            while !stop.load(Ordering::Acquire) {
                let resp = c.post("/v1/reload", "").unwrap();
                assert_eq!(resp.status, 200);
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };
    let phase2 = 6usize;
    for i in 0..phase2 {
        let resp = client
            .post("/v1/recommend/array", &body(1000 + i as u64 * 8))
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    stop.store(true, Ordering::Release);
    reloader.join().unwrap();
    wait_for_records(&dir, phase1 + phase2);
    shutdown(client, handle);

    // The closed log replays completely: no torn lines, no junk, one
    // record per sampled request.
    let scan = read_dir(&dir).unwrap();
    assert_eq!(scan.records.len(), phase1 + phase2);
    assert_eq!(scan.torn_segments, 0);
    assert_eq!(scan.skipped_lines, 0);
    let versions: BTreeSet<u64> =
        scan.records.iter().map(|r| r.model_version).collect();
    assert!(
        versions.contains(&1),
        "phase-1 records must carry generation 1, got {versions:?}"
    );
    assert!(
        versions.iter().any(|v| *v >= 2),
        "phase-2 records must carry a post-reload generation, got {versions:?}"
    );

    // Replay targets the newest generation; everything scored against an
    // older one is skipped, never trained on.
    let newest = *versions.iter().max().unwrap();
    let stale = scan
        .records
        .iter()
        .filter(|r| r.model_version != newest)
        .count() as u64;
    let mut model = persist::load(&model_path).unwrap();
    let outcome =
        fine_tune(&mut model, &scan.records, &FineTuneOptions::default()).unwrap();
    assert_eq!(outcome.target_version, newest);
    assert_eq!(outcome.skipped_cross_version, stale);
    assert!(
        stale >= phase1 as u64,
        "all phase-1 records are stale after the reloads"
    );

    let _ = std::fs::remove_file(&model_path);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rate 0 (the default) must leave no trace: no log directory, no shadow
/// machinery on the request path.
#[test]
fn shadow_disabled_by_default_writes_no_log() {
    let model_path = oracle_model_file("off");
    let dir = std::env::temp_dir().join(format!(
        "airchitect-online-loop-off-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig {
        model_paths: vec![model_path.clone()],
        read_timeout_secs: 30,
        shadow_dir: Some(dir.clone()), // dir configured but rate is 0.0
        ..ServeConfig::default()
    };
    let (addr, handle) = start(config);
    let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();
    let resp = client.post("/v1/recommend/array", &body(64)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    shutdown(client, handle);
    assert!(!dir.exists(), "rate 0 must not create a log directory");
    let _ = std::fs::remove_file(&model_path);
}

/// Shadow sampling with a rate but no directory is a configuration error
/// at bind time, not a silent no-op.
#[test]
fn shadow_rate_without_dir_is_a_config_error() {
    let model_path = oracle_model_file("nodir");
    let config = ServeConfig {
        model_paths: vec![model_path.clone()],
        shadow_rate: 0.5,
        shadow_dir: None,
        ..ServeConfig::default()
    };
    match Server::bind(&config) {
        Err(ServeError::Config(msg)) => {
            assert!(msg.contains("log directory"), "{msg}");
        }
        Err(other) => panic!("expected a config error, got: {other}"),
        Ok(_) => panic!("bind must fail without a shadow log directory"),
    }
    let _ = std::fs::remove_file(&model_path);
}
