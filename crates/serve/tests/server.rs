//! Integration: the full server over real sockets — routing, caching,
//! admission control, hot reload, and graceful shutdown.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::thread::JoinHandle;
use std::time::Duration;

use airchitect::model::{AirchitectConfig, AirchitectModel, CaseStudy};
use airchitect::persist;
use airchitect_data::integrity::{append_crc_footer, split_crc_footer};
use airchitect_data::Dataset;
use airchitect_nn::train::TrainConfig;
use airchitect_serve::client::HttpClient;
use airchitect_serve::{ServeConfig, ServeError, Server};

const TIMEOUT: Duration = Duration::from_secs(30);

/// Trains and persists one tiny model per case study, once per process.
fn model_file(case: CaseStudy) -> PathBuf {
    static FILES: OnceLock<[PathBuf; 3]> = OnceLock::new();
    let files = FILES.get_or_init(|| {
        // (feature_dim, classes): CS1 = the 2^5-budget space (30 labels),
        // CS2 = the paper's 1000-label grid, CS3 = the 1944-label space.
        let specs = [
            (CaseStudy::ArrayDataflow, 4usize, 30u32),
            (CaseStudy::BufferSizing, 8, 1000),
            (CaseStudy::MultiArrayScheduling, 12, 1944),
        ];
        specs.map(|(case, dim, classes)| {
            let mut ds = Dataset::new(dim, classes).unwrap();
            let mut row = vec![0f32; dim];
            for i in 0..240usize {
                for (j, v) in row.iter_mut().enumerate() {
                    *v = ((i * 31 + j * 7) % 97) as f32;
                }
                ds.push(&row, (i as u32 * 13) % classes).unwrap();
            }
            let mut model = AirchitectModel::new(
                case,
                &AirchitectConfig {
                    num_classes: classes,
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
                "airchitect-serve-test-{}-{}.airm",
                std::process::id(),
                case.name().replace(' ', "-")
            ));
            persist::save(&model, &path).unwrap();
            path
        })
    });
    match case {
        CaseStudy::ArrayDataflow => files[0].clone(),
        CaseStudy::BufferSizing => files[1].clone(),
        CaseStudy::MultiArrayScheduling => files[2].clone(),
    }
}

fn all_models() -> Vec<PathBuf> {
    CaseStudy::ALL.iter().map(|&c| model_file(c)).collect()
}

type ServerHandle = JoinHandle<Result<(), ServeError>>;

fn start(config: ServeConfig) -> (SocketAddr, ServerHandle) {
    let server = Server::bind(&config).expect("server binds");
    let addr = server.local_addr();
    (addr, std::thread::spawn(move || server.run()))
}

fn default_config(models: Vec<PathBuf>) -> ServeConfig {
    ServeConfig {
        model_paths: models,
        read_timeout_secs: 30,
        ..ServeConfig::default()
    }
}

/// Shuts the server down over the test's own keep-alive connection, so no
/// idle connection is left to wait out the read-timeout drain window.
fn shutdown(mut client: HttpClient, handle: ServerHandle) {
    let resp = client.post("/v1/shutdown", "").unwrap();
    assert_eq!(resp.status, 200);
    handle
        .join()
        .expect("server thread must not panic")
        .expect("graceful shutdown must return Ok");
}

const ARRAY_BODY: &str = r#"{"m":128,"n":64,"k":256,"mac_budget":1024}"#;
/// A ranked query: answered on the ranked pool, behind its queue.
const RANKED_BODY: &str = r#"{"m":128,"n":64,"k":256,"mac_budget":1024,"topk":3}"#;
const BUFFERS_BODY: &str = r#"{"m":256,"n":256,"k":256,"rows":32,"cols":32,"limit_kb":1500}"#;
const SCHEDULE_BODY: &str = r#"{"workloads":[{"m":64,"n":64,"k":64},{"m":128,"n":128,"k":128},{"m":256,"n":64,"k":32},{"m":96,"n":96,"k":96}]}"#;

#[test]
fn healthz_and_every_endpoint_answer() {
    let (addr, handle) = start(default_config(all_models()));
    let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();

    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    for case in ["array", "buffers", "schedule"] {
        assert!(health.body.contains(case), "healthz lists `{case}`: {}", health.body);
    }

    for (path, body, expect) in [
        ("/v1/recommend/array", ARRAY_BODY, "\"dataflow\""),
        ("/v1/recommend/buffers", BUFFERS_BODY, "\"ifmap_kb\""),
        ("/v1/recommend/schedule", SCHEDULE_BODY, "\"assignments\""),
    ] {
        let resp = client.post(path, body).unwrap();
        assert_eq!(resp.status, 200, "{path}: {}", resp.body);
        assert!(resp.body.starts_with("{\"cached\":false,"), "{path}: {}", resp.body);
        assert!(resp.body.contains("\"result\":"), "{path}: {}", resp.body);
        assert!(resp.body.contains(expect), "{path}: {}", resp.body);
    }

    // Top-k returns a ranked list with scores.
    let body = r#"{"m":128,"n":64,"k":256,"mac_budget":1024,"topk":3}"#;
    let resp = client.post("/v1/recommend/array", body).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("\"results\":["), "{}", resp.body);
    assert!(resp.body.contains("\"score\":"), "{}", resp.body);

    shutdown(client, handle);
}

#[test]
fn repeat_queries_hit_the_cache_and_metrics_show_it() {
    let (addr, handle) = start(default_config(all_models()));
    let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();

    let first = client.post("/v1/recommend/array", ARRAY_BODY).unwrap();
    assert!(first.body.starts_with("{\"cached\":false,"), "{}", first.body);
    // Same query, different JSON formatting: still a cache hit.
    let reordered = r#"{ "mac_budget": 1024, "k": 256, "n": 64, "m": 128 }"#;
    let second = client.post("/v1/recommend/array", reordered).unwrap();
    assert!(second.body.starts_with("{\"cached\":true,"), "{}", second.body);
    // Identical payload after the flag.
    assert_eq!(
        first.body.trim_start_matches("{\"cached\":false,"),
        second.body.trim_start_matches("{\"cached\":true,"),
    );

    let metrics = client.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    assert!(
        metrics.body.lines().any(|l| {
            l.split_once(' ')
                .is_some_and(|(k, v)| k == "serve.cache_hits" && v.parse::<u64>().unwrap_or(0) > 0)
        }),
        "metrics must report cache hits:\n{}",
        metrics.body
    );

    shutdown(client, handle);
}

#[test]
fn full_queue_answers_429_with_retry_after() {
    // Depth 0 = every uncached ranked request is rejected at admission. A
    // top-1 request is answered inline and never queues, so the
    // admission-control path is reached with a ranked one.
    let config = ServeConfig {
        queue_depth: 0,
        cache_capacity: 0,
        ..default_config(vec![model_file(CaseStudy::ArrayDataflow)])
    };
    let (addr, handle) = start(config);
    let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();
    let resp = client.post("/v1/recommend/array", RANKED_BODY).unwrap();
    assert_eq!(resp.status, 429);
    assert_eq!(resp.retry_after, Some(1), "429 must carry Retry-After");
    shutdown(client, handle);
}

#[test]
fn unloaded_case_answers_503() {
    let (addr, handle) = start(default_config(vec![model_file(CaseStudy::ArrayDataflow)]));
    let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();
    let resp = client.post("/v1/recommend/buffers", BUFFERS_BODY).unwrap();
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert!(resp.body.contains("model_not_loaded"), "{}", resp.body);
    shutdown(client, handle);
}

#[test]
fn bad_requests_get_4xx_not_5xx() {
    let (addr, handle) = start(default_config(vec![model_file(CaseStudy::ArrayDataflow)]));
    let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();

    for (path, body, status) in [
        ("/v1/recommend/array", r#"{"m":0,"n":8,"k":8}"#, 400),
        ("/v1/recommend/array", "{not json", 400),
        ("/v1/recommend/array", r#"{"m":8,"n":8,"k":8,"oops":1}"#, 400),
        // A 2-MAC budget admits no array: domain-infeasible is 422.
        ("/v1/recommend/array", r#"{"m":8,"n":8,"k":8,"mac_budget":2}"#, 422),
        ("/v1/nope", "{}", 404),
    ] {
        let resp = client.post(path, body).unwrap();
        assert_eq!(resp.status, status, "{path} {body}: {}", resp.body);
    }
    let resp = client.get("/v1/reload").unwrap();
    assert_eq!(resp.status, 405);

    shutdown(client, handle);
}

#[test]
fn reload_bumps_the_generation_and_invalidates_the_cache() {
    let (addr, handle) = start(default_config(vec![model_file(CaseStudy::ArrayDataflow)]));
    let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();

    let first = client.post("/v1/recommend/array", ARRAY_BODY).unwrap();
    assert!(first.body.contains("\"generation\":1"), "{}", first.body);
    let cached = client.post("/v1/recommend/array", ARRAY_BODY).unwrap();
    assert!(cached.body.starts_with("{\"cached\":true,"), "{}", cached.body);

    let reload = client.post("/v1/reload", "").unwrap();
    assert_eq!(reload.status, 200, "{}", reload.body);
    assert!(reload.body.contains("\"generation\":2"), "{}", reload.body);

    // The old cache entry is generation-stale: recomputed, not served.
    let after = client.post("/v1/recommend/array", ARRAY_BODY).unwrap();
    assert!(after.body.starts_with("{\"cached\":false,"), "{}", after.body);
    assert!(after.body.contains("\"generation\":2"), "{}", after.body);
    // And the fresh entry caches again.
    let again = client.post("/v1/recommend/array", ARRAY_BODY).unwrap();
    assert!(again.body.starts_with("{\"cached\":true,"), "{}", again.body);

    shutdown(client, handle);
}

/// Regression: a reload of a CRC-valid model whose network
/// header disagrees with its quantizer (one input too many) used to panic
/// on the shard that ran it. It must answer non-200, keep the old model
/// serving, and leave the connection usable.
#[test]
fn reload_of_an_inconsistent_header_fails_and_keeps_serving() {
    let dir = std::env::temp_dir().join(format!(
        "airchitect-serve-bad-header-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cs1.airm");
    std::fs::copy(model_file(CaseStudy::ArrayDataflow), &path).unwrap();
    let (addr, handle) = start(default_config(vec![path.clone()]));
    let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();
    let before = client.post("/v1/recommend/array", ARRAY_BODY).unwrap();
    assert_eq!(before.status, 200, "{}", before.body);

    // The network header's `in_dim` (8 bytes into the AINN blob) becomes
    // 5; the footer is recomputed so only the structural checks can tell.
    let bytes = std::fs::read(&path).unwrap();
    let (body, _) = split_crc_footer(&bytes).unwrap();
    let mut body = body.to_vec();
    let at = body.windows(4).position(|w| w == b"AINN").unwrap() + 8;
    body[at..at + 4].copy_from_slice(&5u32.to_le_bytes());
    append_crc_footer(&mut body);
    std::fs::write(&path, &body).unwrap();

    let reload = client.post("/v1/reload", "").unwrap();
    assert_ne!(reload.status, 200, "{}", reload.body);
    let after = client.post("/v1/recommend/array", ARRAY_BODY).unwrap();
    assert_eq!(after.status, 200, "{}", after.body);
    assert!(after.body.contains("\"generation\":1"), "{}", after.body);
    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200, "{}", health.body);

    shutdown(client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn expired_deadline_answers_504_before_any_work() {
    // `X-Deadline-Ms: 0` is an already-expired budget: deterministic 504
    // at admission, no queueing, no inference.
    let (addr, handle) = start(default_config(vec![model_file(CaseStudy::ArrayDataflow)]));
    let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();
    let resp = client
        .post_with_deadline("/v1/recommend/array", ARRAY_BODY, 0)
        .unwrap();
    assert_eq!(resp.status, 504, "{}", resp.body);
    assert!(resp.body.contains("deadline_exceeded"), "{}", resp.body);

    // A generous budget answers normally and reports the metric.
    let resp = client
        .post_with_deadline("/v1/recommend/array", ARRAY_BODY, 30_000)
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let metrics = client.get("/metrics").unwrap();
    assert!(
        metrics.body.lines().any(|l| {
            l.split_once(' ')
                .is_some_and(|(k, v)| k == "serve.deadline_exceeded" && v.parse::<u64>().unwrap_or(0) > 0)
        }),
        "metrics must count deadline_exceeded:\n{}",
        metrics.body
    );
    shutdown(client, handle);
}

#[test]
fn draining_server_answers_503_with_retry_after() {
    // Repeated on two event loops: `late` often lands on the other shard,
    // so its request, sent the moment the drainer reads its 200, must
    // already see the shutdown flag. A flag set after the 200 lost about
    // one drain in a hundred, which 200 drains could miss; 1000 take
    // under 2 s in a release build.
    for _ in 0..1000 {
        let config = ServeConfig {
            read_timeout_secs: 5,
            event_loops: 2,
            ..default_config(vec![model_file(CaseStudy::ArrayDataflow)])
        };
        let (addr, handle) = start(config);
        // `late`'s connection is accepted *before* the drain starts; its
        // request lands while the server is shutting down.
        let mut drainer = HttpClient::connect(addr, TIMEOUT).unwrap();
        let mut late = HttpClient::connect(addr, TIMEOUT).unwrap();
        // Make sure `late` is fully established (registered with its
        // shard) first.
        let health = late.get("/healthz").unwrap();
        assert_eq!(health.status, 200);

        let resp = drainer.post("/v1/shutdown", "").unwrap();
        assert_eq!(resp.status, 200);
        let resp = late.post("/v1/recommend/array", ARRAY_BODY).unwrap();
        assert_eq!(resp.status, 503, "{}", resp.body);
        assert!(resp.body.contains("draining"), "{}", resp.body);
        assert_eq!(resp.retry_after, Some(1), "503 draining must carry Retry-After");
        handle.join().unwrap().unwrap();
    }
}

#[test]
fn slow_reader_cannot_wedge_the_server_or_shutdown() {
    // Short socket timeouts: a client that sends one request and then
    // neither reads nor writes must not hold its shard (and therefore
    // graceful shutdown) hostage.
    let config = ServeConfig {
        read_timeout_secs: 1,
        write_timeout_secs: 1,
        ..default_config(vec![model_file(CaseStudy::ArrayDataflow)])
    };
    let (addr, handle) = start(config);

    let raw = std::net::TcpStream::connect(addr).unwrap();
    {
        use std::io::Write;
        let mut w = raw.try_clone().unwrap();
        let req = format!(
            "POST /v1/recommend/array HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{ARRAY_BODY}",
            ARRAY_BODY.len()
        );
        w.write_all(req.as_bytes()).unwrap();
        w.flush().unwrap();
    }
    // Never read the response; keep the socket open while other clients
    // are served.
    let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();
    for _ in 0..3 {
        let resp = client.post("/v1/recommend/array", ARRAY_BODY).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    // Graceful shutdown must complete despite the silent connection: the
    // 1s read timeout reclaims its thread.
    shutdown(client, handle);
    drop(raw);
}

#[test]
fn fallback_serves_the_search_answer_for_a_missing_model() {
    use airchitect_dse::case2::{Case2Problem, Case2Query};
    use airchitect_sim::{ArrayConfig, Dataflow};
    use airchitect_workload::GemmWorkload;

    // Register a CS1 model plus a path that does not exist; tolerant
    // (fallback) startup serves anyway.
    let bogus = std::env::temp_dir().join(format!(
        "airchitect-serve-test-{}-missing.airm",
        std::process::id()
    ));
    let config = ServeConfig {
        fallback_search: true,
        ..default_config(vec![model_file(CaseStudy::ArrayDataflow), bogus])
    };
    let (addr, handle) = start(config);
    let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();

    // Degraded is visible before any traffic: the registered model is
    // missing.
    let health = client.get("/healthz").unwrap();
    assert!(health.body.contains("\"status\":\"degraded\""), "{}", health.body);
    assert!(health.body.contains("\"load_errors\":[\""), "{}", health.body);

    // The loaded CS1 model answers normally, stamped source=model.
    let resp = client.post("/v1/recommend/array", ARRAY_BODY).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"source\":\"model\""), "{}", resp.body);
    assert!(resp.warning.is_none());

    // The unloaded CS2 case falls back to exhaustive search: 200 with
    // source=search and a Warning header, and the answer matches the DSE
    // oracle exactly.
    let resp = client.post("/v1/recommend/buffers", BUFFERS_BODY).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"source\":\"search\""), "{}", resp.body);
    assert!(resp.warning.is_some(), "fallback must carry a Warning header");

    let oracle = Case2Problem::new();
    let expect = oracle.search(&Case2Query {
        workload: GemmWorkload::new(256, 256, 256).unwrap(),
        array: ArrayConfig::new(32, 32).unwrap(),
        dataflow: Dataflow::Os,
        bandwidth: 16,
        limit_kb: 1500,
    });
    let (i, f, o) = oracle.space().decode(expect.label).unwrap();
    let rendered = format!("\"ifmap_kb\":{i},\"filter_kb\":{f},\"ofmap_kb\":{o}");
    assert!(resp.body.contains(&rendered), "{} !~ {rendered}", resp.body);

    // Fallback answers are never cached.
    let again = client.post("/v1/recommend/buffers", BUFFERS_BODY).unwrap();
    assert!(again.body.starts_with("{\"cached\":false,"), "{}", again.body);

    shutdown(client, handle);
}

#[test]
fn degradation_ladder_is_table_driven() {
    // Each rung of the degradation ladder, from least to most degraded,
    // with the exact status + code contract a client can program against.
    struct Case {
        name: &'static str,
        config: ServeConfig,
        body: &'static str,
        deadline_ms: Option<u64>,
        status: u16,
        marker: &'static str,
        retry_after: Option<u64>,
    }
    let cases = [
        Case {
            name: "healthy",
            config: default_config(vec![model_file(CaseStudy::ArrayDataflow)]),
            body: ARRAY_BODY,
            deadline_ms: None,
            status: 200,
            marker: "\"source\":\"model\"",
            retry_after: None,
        },
        Case {
            name: "queue-full",
            // A ranked request: this rung is about queue admission, which
            // an inline top-1 answer never reaches.
            config: ServeConfig {
                queue_depth: 0,
                cache_capacity: 0,
                ..default_config(vec![model_file(CaseStudy::ArrayDataflow)])
            },
            body: RANKED_BODY,
            deadline_ms: None,
            status: 429,
            marker: "queue_full",
            retry_after: Some(1),
        },
        Case {
            name: "deadline-expired",
            config: default_config(vec![model_file(CaseStudy::ArrayDataflow)]),
            body: ARRAY_BODY,
            deadline_ms: Some(0),
            status: 504,
            marker: "deadline_exceeded",
            retry_after: None,
        },
        Case {
            name: "missing-model-without-fallback",
            config: default_config(vec![model_file(CaseStudy::BufferSizing)]),
            body: ARRAY_BODY,
            deadline_ms: None,
            status: 503,
            marker: "model_not_loaded",
            retry_after: None,
        },
        Case {
            name: "missing-model-with-fallback",
            config: ServeConfig {
                fallback_search: true,
                ..default_config(vec![model_file(CaseStudy::BufferSizing)])
            },
            body: ARRAY_BODY,
            deadline_ms: None,
            status: 200,
            marker: "\"source\":\"search\"",
            retry_after: None,
        },
    ];
    for case in cases {
        let (addr, handle) = start(case.config);
        let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();
        let resp = match case.deadline_ms {
            Some(ms) => client
                .post_with_deadline("/v1/recommend/array", case.body, ms)
                .unwrap(),
            None => client.post("/v1/recommend/array", case.body).unwrap(),
        };
        assert_eq!(resp.status, case.status, "{}: {}", case.name, resp.body);
        assert!(
            resp.body.contains(case.marker),
            "{}: expected `{}` in {}",
            case.name,
            case.marker,
            resp.body
        );
        assert_eq!(resp.retry_after, case.retry_after, "{}", case.name);
        shutdown(client, handle);
    }
}

#[test]
fn reload_swaps_the_quantized_model_and_bypass_answers_from_it() {
    use airchitect::Recommender;
    use airchitect_dse::case1::Case1Problem;
    use airchitect_dse::space::Case1Space;
    use airchitect_workload::GemmWorkload;

    fn train_cs1(label_mul: u32, seed: u64) -> AirchitectModel {
        let mut ds = Dataset::new(4, 30).unwrap();
        let mut row = [0f32; 4];
        for i in 0..240usize {
            for (j, v) in row.iter_mut().enumerate() {
                *v = ((i * 31 + j * 7) % 97) as f32;
            }
            ds.push(&row, (i as u32 * label_mul) % 30).unwrap();
        }
        let mut model = AirchitectModel::new(
            CaseStudy::ArrayDataflow,
            &AirchitectConfig {
                num_classes: 30,
                seed,
                train: TrainConfig {
                    epochs: 2,
                    batch_size: 64,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        model.train(&ds).unwrap();
        model
    }

    let path = std::env::temp_dir().join(format!(
        "airchitect-serve-quant-reload-{}.airm",
        std::process::id()
    ));
    persist::save(&train_cs1(13, 0), &path).unwrap();
    let (addr, handle) = start(default_config(vec![path.clone()]));
    let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();

    let first = client.post("/v1/recommend/array", ARRAY_BODY).unwrap();
    assert_eq!(first.status, 200, "{}", first.body);
    assert!(first.body.contains("\"generation\":1"), "{}", first.body);

    // Swap a differently-trained model onto the same path and hot-reload:
    // the quantized artifact must be rebuilt.
    let model_b = train_cs1(7, 99);
    persist::save(&model_b, &path).unwrap();
    let resp = client.post("/v1/reload", "").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);

    // Compute model B's own int8 fast answer in-process; the served body
    // must match it exactly — an answer from A's quantized weights (an
    // unswapped artifact) would not.
    let rec = Recommender::new(model_b).unwrap();
    assert!(rec.quantized().is_some(), "embedding MLP must quantize");
    let space = Case1Space::from_len(30).expect("30-label CS1 space");
    let problem = Case1Problem::new(space.mac_budget());
    let wl = GemmWorkload::new(128, 64, 256).unwrap();
    let (array, df) = rec.recommend_array_fast(&problem, &wl, 1024).unwrap();
    let expected = format!(
        "\"rows\":{},\"cols\":{},\"macs\":{},\"dataflow\":\"{df}\"",
        array.rows(),
        array.cols(),
        array.macs()
    );
    let after = client.post("/v1/recommend/array", ARRAY_BODY).unwrap();
    assert_eq!(after.status, 200, "{}", after.body);
    assert!(after.body.contains("\"cached\":false"), "reload must invalidate the cache: {}", after.body);
    assert!(after.body.contains("\"generation\":2"), "{}", after.body);
    assert!(after.body.contains(&expected), "{} !~ {expected}", after.body);

    // The inline path actually served these: the bypass counter moved and
    // the quantized pass ran its int8 GEMVs.
    let metrics = client.get("/metrics").unwrap();
    let counter = |name: &str| {
        metrics
            .body
            .lines()
            .find_map(|l| {
                l.split_once(' ')
                    .filter(|(k, _)| *k == name)
                    .and_then(|(_, v)| v.parse::<u64>().ok())
            })
            .unwrap_or(0)
    };
    assert!(counter("serve.bypass") > 0, "{}", metrics.body);
    assert!(
        counter("qgemv.dispatch.avx2") + counter("qgemv.dispatch.scalar") > 0,
        "{}",
        metrics.body
    );

    shutdown(client, handle);
}

#[test]
fn concurrent_load_with_reloads_never_sees_5xx() {
    const THREADS: usize = 6;
    const REQUESTS: usize = 60;
    let (addr, handle) = start(default_config(vec![model_file(CaseStudy::ArrayDataflow)]));

    let workers: Vec<_> = (0..THREADS)
        .map(|tid| {
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();
                for i in 0..REQUESTS {
                    if tid == 0 && i % 10 == 5 {
                        let resp = client.post("/v1/reload", "").unwrap();
                        assert_eq!(resp.status, 200, "reload: {}", resp.body);
                        continue;
                    }
                    let body = format!(
                        "{{\"m\":{},\"n\":64,\"k\":64,\"mac_budget\":1024}}",
                        8 + (tid * REQUESTS + i) % 32
                    );
                    let resp = client.post("/v1/recommend/array", &body).unwrap();
                    assert!(
                        resp.status < 500,
                        "5xx under reload load: {} {}",
                        resp.status,
                        resp.body
                    );
                    assert_eq!(resp.status, 200, "{}", resp.body);
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("load thread panicked");
    }

    shutdown(HttpClient::connect(addr, TIMEOUT).unwrap(), handle);
}

// --- Safe-rollout suite: registry mode, canary evaluation, rollback ---

fn train_cs1_variant(label_mul: u32, seed: u64) -> AirchitectModel {
    let mut ds = Dataset::new(4, 30).unwrap();
    let mut row = [0f32; 4];
    for i in 0..240usize {
        for (j, v) in row.iter_mut().enumerate() {
            *v = ((i * 31 + j * 7) % 97) as f32;
        }
        ds.push(&row, (i as u32 * label_mul) % 30).unwrap();
    }
    let mut model = AirchitectModel::new(
        CaseStudy::ArrayDataflow,
        &AirchitectConfig {
            num_classes: 30,
            seed,
            train: TrainConfig {
                epochs: 2,
                batch_size: 64,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    model.train(&ds).unwrap();
    model
}

/// Fresh registry dir + incumbent artifact for one rollout test.
fn rollout_fixture(name: &str, canary_split: f64) -> (PathBuf, ServeConfig) {
    let dir = std::env::temp_dir().join(format!(
        "airchitect-serve-rollout-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let seed_path = dir.join("seed.airm");
    persist::save(&train_cs1_variant(13, 0), &seed_path).unwrap();
    let config = ServeConfig {
        model_paths: vec![seed_path],
        model_dir: Some(dir.clone()),
        canary_split,
        canary_min_samples: 3,
        canary_min_agreement: 0.9,
        canary_max_p99_ratio: 1e9, // latency gate off: CI machines jitter
        read_timeout_secs: 30,
        ..ServeConfig::default()
    };
    (dir, config)
}

/// Polls `/healthz` until the rollout state machine is idle, driving
/// sampled traffic between polls, and returns the final healthz body.
fn drive_until_idle(client: &mut HttpClient, traffic: &[String]) -> String {
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        for body in traffic {
            let resp = client.post("/v1/recommend/array", body).unwrap();
            assert!(resp.status < 500, "{} {}", resp.status, resp.body);
        }
        let health = client.get("/healthz").unwrap();
        assert_eq!(health.status, 200);
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

/// Satellite regression: the reload acknowledgement must carry the loaded
/// model version, the new generation, and the rollout state object — and
/// `/healthz` must expose the same rollout state.
#[test]
fn reload_ack_reports_version_generation_and_rollout_state() {
    let (dir, config) = rollout_fixture("ack", 0.0);
    let (addr, handle) = start(config);
    let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();

    let resp = client.post("/v1/reload", "").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"reloaded\":true"), "{}", resp.body);
    assert!(resp.body.contains("\"generation\":2"), "{}", resp.body);
    assert!(resp.body.contains("\"version\":1"), "{}", resp.body);
    assert!(resp.body.contains("\"rollout\":{"), "{}", resp.body);
    assert!(resp.body.contains("\"state\":\"idle\""), "{}", resp.body);
    assert!(resp.body.contains("\"registry\":true"), "{}", resp.body);

    let health = client.get("/healthz").unwrap();
    assert!(health.body.contains("\"rollout\":{"), "{}", health.body);
    assert!(health.body.contains("\"version\":1"), "{}", health.body);
    assert!(health.body.contains("\"last\":\"none\""), "{}", health.body);

    shutdown(client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without a canary split, a reload body naming an explicit candidate —
/// what the rolling cluster coordinator sends each replica — must swap to
/// exactly that artifact and report `last: "promoted"` so the
/// coordinator's verdict poll advances. A candidate that cannot load
/// answers 409 and keeps the incumbent serving.
#[test]
fn immediate_reload_honors_explicit_candidate_path() {
    let (dir, config) = rollout_fixture("immediate", 0.0);
    let (addr, handle) = start(config);
    let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();

    let candidate = dir.join("candidate.airm");
    persist::save(&train_cs1_variant(17, 9), &candidate).unwrap();
    let body = format!("{{\"path\":{:?},\"version\":2}}", candidate.display().to_string());
    let resp = client.post("/v1/reload", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"reloaded\":true"), "{}", resp.body);
    assert!(resp.body.contains("\"generation\":2"), "{}", resp.body);

    let health = client.get("/healthz").unwrap();
    assert!(health.body.contains("\"last\":\"promoted\""), "{}", health.body);
    assert!(health.body.contains("\"state\":\"idle\""), "{}", health.body);

    // A corrupt explicit candidate is rejected; the swapped model stays.
    let bad = dir.join("bad.airm");
    std::fs::write(&bad, b"definitely not a model artifact").unwrap();
    let body = format!("{{\"path\":{:?},\"version\":3}}", bad.display().to_string());
    let resp = client.post("/v1/reload", &body).unwrap();
    assert_eq!(resp.status, 409, "{}", resp.body);
    assert!(resp.body.contains("reload_failed"), "{}", resp.body);
    let health = client.get("/healthz").unwrap();
    assert!(health.body.contains("\"generation\":2"), "{}", health.body);

    shutdown(client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A staged candidate that agrees with the incumbent must promote after
/// the sample quota: disk registry first (MANIFEST + current.airm), then
/// the in-memory swap, with `/healthz` reporting the new version.
#[test]
fn canary_promotes_an_agreeing_candidate_and_persists_it() {
    use airchitect_serve::registry::Registry;

    let (dir, config) = rollout_fixture("promote", 1.0);
    let (addr, handle) = start(config);
    let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();

    // Register the identical artifact as v2 out-of-process, the way
    // `train --from-log --model-dir` stages a fine-tune.
    {
        let bytes = std::fs::read(dir.join("seed.airm")).unwrap();
        let mut reg = Registry::open(&dir, 3).unwrap();
        assert_eq!(reg.add_version(&bytes).unwrap(), 2);
    }

    let resp = client.post("/v1/reload", "").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"staged\":true"), "{}", resp.body);
    assert!(resp.body.contains("\"reloaded\":false"), "{}", resp.body);
    assert!(resp.body.contains("\"state\":\"evaluating\""), "{}", resp.body);
    assert!(resp.body.contains("\"version\":2"), "{}", resp.body);

    // A second reload during evaluation is refused.
    let dup = client.post("/v1/reload", "").unwrap();
    assert_eq!(dup.status, 409, "{}", dup.body);
    assert!(dup.body.contains("rollout_in_progress"), "{}", dup.body);

    // Identical weights agree on every sampled query: 3 samples promote.
    let traffic: Vec<String> = (0..4)
        .map(|i| format!("{{\"m\":{},\"n\":64,\"k\":256,\"mac_budget\":1024}}", 64 + i * 32))
        .collect();
    let health = drive_until_idle(&mut client, &traffic);
    assert!(health.contains("\"last\":\"promoted\""), "{health}");
    assert!(health.contains("\"version\":2"), "{health}");

    // Disk agrees: the MANIFEST promoted v2 and current.airm was rewritten.
    let reg = Registry::open(&dir, 3).unwrap();
    assert_eq!(reg.manifest().active, Some(2));
    assert!(reg.current_path().exists());

    shutdown(client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A retrained candidate whose weights differ but whose rankings do not
/// must promote under ranked traffic: its scores differ from the
/// incumbent's on every ranked answer, and agreement is judged on the
/// configurations a client gets, not on the scores.
#[test]
fn canary_promotes_a_candidate_that_ranks_alike_with_different_scores() {
    use airchitect::Recommender;
    use airchitect_dse::case1::Case1Problem;
    use airchitect_dse::space::Case1Space;
    use airchitect_serve::registry::Registry;
    use airchitect_workload::GemmWorkload;

    let (dir, config) = rollout_fixture("rescaled", 1.0);
    // Doubling the output layer doubles every logit exactly: the same
    // argmax and the same order, different softmax scores.
    let incumbent = persist::load(dir.join("seed.airm")).unwrap();
    let mut network = incumbent.network().clone();
    let mut params = network.params_mut();
    let outputs = params.len() - 2;
    for param in &mut params[outputs..] {
        param.value.iter_mut().for_each(|v| *v *= 2.0);
    }
    let rescaled = AirchitectModel::from_parts(
        incumbent.case_study(),
        incumbent.quantizer().clone(),
        network,
        true,
    );
    let ms: Vec<u64> = (0..4).map(|i| 64 + i * 32).collect();
    {
        let rec_a = Recommender::new(incumbent).unwrap();
        let rec_b = Recommender::new(rescaled.clone()).unwrap();
        let space = Case1Space::from_len(30).expect("30-label CS1 space");
        let problem = Case1Problem::new(space.mac_budget());
        for &m in &ms {
            let wl = GemmWorkload::new(m, 64, 256).unwrap();
            let a = rec_a.recommend_array_topk(&problem, &wl, 1024, 4).unwrap();
            let b = rec_b.recommend_array_topk(&problem, &wl, 1024, 4).unwrap();
            assert!(
                a.iter().map(|r| (r.0, r.1)).eq(b.iter().map(|r| (r.0, r.1))),
                "m={m}: rescaling changed a ranking"
            );
            assert_ne!(a[0].2, b[0].2, "m={m}: rescaling left the scores alike");
        }
    }

    let (addr, handle) = start(config);
    let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();
    {
        let mut reg = Registry::open(&dir, 3).unwrap();
        assert_eq!(reg.add_version(&persist::to_bytes(&rescaled)).unwrap(), 2);
    }
    let resp = client.post("/v1/reload", "").unwrap();
    assert!(resp.body.contains("\"staged\":true"), "{}", resp.body);

    // Mostly ranked traffic, one top-1 key.
    let mut traffic: Vec<String> = ms
        .iter()
        .map(|m| format!("{{\"m\":{m},\"n\":64,\"k\":256,\"mac_budget\":1024,\"topk\":4}}"))
        .collect();
    traffic.push(format!("{{\"m\":{},\"n\":64,\"k\":256,\"mac_budget\":1024}}", ms[0]));
    let health = drive_until_idle(&mut client, &traffic);
    assert!(health.contains("\"last\":\"promoted\""), "{health}");
    assert!(health.contains("\"version\":2"), "{health}");

    shutdown(client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A candidate that disagrees with the incumbent must lose the vote:
/// automatic rollback, version quarantined in the MANIFEST, incumbent
/// still serving, and the same artifact refused on re-registration.
#[test]
fn canary_rolls_back_and_quarantines_a_disagreeing_candidate() {
    use airchitect::Recommender;
    use airchitect_dse::case1::Case1Problem;
    use airchitect_dse::space::Case1Space;
    use airchitect_serve::registry::{Registry, RegistryError};
    use airchitect_workload::GemmWorkload;

    let (dir, config) = rollout_fixture("rollback", 1.0);

    // Find a query where the two trainings actually disagree, so the
    // agreement gate trips deterministically.
    let model_a = train_cs1_variant(13, 0);
    let model_b = train_cs1_variant(7, 99);
    let rec_a = Recommender::new(model_a).unwrap();
    let rec_b = Recommender::new(model_b).unwrap();
    let space = Case1Space::from_len(30).expect("30-label CS1 space");
    let problem = Case1Problem::new(space.mac_budget());
    let disagreeing_m = (1..=32u64)
        .map(|i| i * 16)
        .find(|&m| {
            let wl = GemmWorkload::new(m, 64, 256).unwrap();
            rec_a.recommend_array_fast(&problem, &wl, 1024).unwrap()
                != rec_b.recommend_array_fast(&problem, &wl, 1024).unwrap()
        })
        .expect("differently-trained models must disagree somewhere");

    let (addr, handle) = start(config);
    let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();
    {
        let bytes = persist::to_bytes(rec_b.model());
        let mut reg = Registry::open(&dir, 3).unwrap();
        assert_eq!(reg.add_version(&bytes).unwrap(), 2);
    }
    let resp = client.post("/v1/reload", "").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"staged\":true"), "{}", resp.body);

    let traffic = vec![format!(
        "{{\"m\":{disagreeing_m},\"n\":64,\"k\":256,\"mac_budget\":1024}}"
    )];
    let health = drive_until_idle(&mut client, &traffic);
    assert!(health.contains("\"last\":\"rolled_back\""), "{health}");
    assert!(health.contains("\"version\":1"), "incumbent must survive: {health}");

    // The MANIFEST quarantined v2 and re-registering the identical
    // artifact is refused — known-bad weights cannot re-enter the pipe.
    let mut reg = Registry::open(&dir, 3).unwrap();
    assert_eq!(reg.manifest().active, Some(1));
    let entry = reg.manifest().entries.iter().find(|e| e.version == 2).unwrap();
    assert!(entry.quarantined, "{:?}", reg.manifest());
    assert!(matches!(
        reg.add_version(&persist::to_bytes(rec_b.model())),
        Err(RegistryError::Quarantined { version: 2, .. })
    ));

    // With the only candidate quarantined, another reload has nothing to
    // stage; `/v1/rollback` with nothing in flight is an idempotent no-op.
    let none = client.post("/v1/reload", "").unwrap();
    assert_eq!(none.status, 409, "{}", none.body);
    assert!(none.body.contains("no_candidate"), "{}", none.body);
    let rb = client.post("/v1/rollback", "").unwrap();
    assert_eq!(rb.status, 200, "{}", rb.body);
    assert!(rb.body.contains("\"rolled_back\":false"), "{}", rb.body);

    shutdown(client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An artifact that cannot even load (corrupt bytes) must fail at the
/// staging step: 409, immediate quarantine, incumbent untouched.
#[test]
fn corrupt_candidate_fails_staging_and_is_quarantined() {
    use airchitect_serve::registry::Registry;

    let (dir, config) = rollout_fixture("corrupt", 1.0);
    let (addr, handle) = start(config);
    let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();

    {
        let mut reg = Registry::open(&dir, 3).unwrap();
        assert_eq!(reg.add_version(b"not a model at all").unwrap(), 2);
    }
    let resp = client.post("/v1/reload", "").unwrap();
    assert_eq!(resp.status, 409, "{}", resp.body);
    assert!(resp.body.contains("stage_failed"), "{}", resp.body);

    let health = client.get("/healthz").unwrap();
    assert!(health.body.contains("\"last\":\"rolled_back\""), "{}", health.body);
    assert!(health.body.contains("\"version\":1"), "{}", health.body);

    // Serving is unaffected and the bad version is quarantined on disk.
    let ok = client.post("/v1/recommend/array", ARRAY_BODY).unwrap();
    assert_eq!(ok.status, 200, "{}", ok.body);
    let reg = Registry::open(&dir, 3).unwrap();
    assert_eq!(reg.manifest().active, Some(1));
    assert!(reg.manifest().entries.iter().any(|e| e.version == 2 && e.quarantined));

    shutdown(client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}
