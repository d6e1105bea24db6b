//! Integration: serving-core hardening — open-connection accounting after
//! hang-ups, request-latency accounting on every terminal path, per-shard
//! reactor telemetry, and socket-level parser robustness (dribbled bytes,
//! pipelining, unbounded heads).
//!
//! Lives in its own binary so its metric assertions see a registry no
//! other suite is writing to (telemetry statics are per-process).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use airchitect::model::{AirchitectConfig, AirchitectModel, CaseStudy};
use airchitect::persist;
use airchitect_data::Dataset;
use airchitect_nn::train::TrainConfig;
use airchitect_serve::client::HttpClient;
use airchitect_serve::{ServeConfig, ServeError, Server};

const TIMEOUT: Duration = Duration::from_secs(30);

/// Trains and persists one tiny CS1 model, once per process.
fn model_file() -> PathBuf {
    static FILE: OnceLock<PathBuf> = OnceLock::new();
    FILE.get_or_init(|| {
        let (dim, classes) = (4usize, 30u32);
        let mut ds = Dataset::new(dim, classes).unwrap();
        let mut row = vec![0f32; dim];
        for i in 0..240usize {
            for (j, v) in row.iter_mut().enumerate() {
                *v = ((i * 31 + j * 7) % 97) as f32;
            }
            ds.push(&row, (i as u32 * 13) % classes).unwrap();
        }
        let mut model = AirchitectModel::new(
            CaseStudy::ArrayDataflow,
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
            "airchitect-hardening-test-{}.airm",
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

/// Reads a metric value (`name value`) out of a `/metrics` scrape.
fn metric(body: &str, name: &str) -> Option<f64> {
    body.lines().find_map(|l| {
        l.split_once(' ')
            .and_then(|(k, v)| (k == name).then(|| v.parse().ok()).flatten())
    })
}

fn accepted_total(scrape: &str, shards: usize) -> f64 {
    (0..shards)
        .map(|s| metric(scrape, &format!("serve.shard.{s}.accepted")).unwrap())
        .sum()
}

/// Connections that hang up must leave the listener's books by
/// themselves: after a burst against an otherwise idle server,
/// `serve.open_connections` returns to the scraper alone, with no
/// further accepts needed to notice.
#[test]
fn open_connections_return_to_baseline_after_a_burst() {
    let config = ServeConfig {
        model_paths: vec![model_file()],
        read_timeout_secs: 30,
        event_loops: 2,
        ..ServeConfig::default()
    };
    let (addr, handle) = start(config);

    // Burst: 8 concurrent connections, one request each, then hang up.
    {
        let clients: Vec<HttpClient> = (0..8)
            .map(|_| {
                let mut c = HttpClient::connect(addr, TIMEOUT).unwrap();
                assert_eq!(c.get("/healthz").unwrap().status, 200);
                c
            })
            .collect();
        drop(clients);
    }

    // No accepts happen while we wait: the shards alone must notice the
    // burst connections closing. One persistent scraper connection polls,
    // so the floor is that single open connection.
    let mut scraper = HttpClient::connect(addr, TIMEOUT).unwrap();
    let first = scraper.get("/metrics").unwrap().body;
    let accepted = accepted_total(&first, 2);
    assert_eq!(accepted, 9.0, "8 burst connections + the scraper");
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut last = f64::MAX;
    let mut scrape = first;
    while Instant::now() < deadline {
        last = metric(&scrape, "serve.open_connections").unwrap();
        if last == 1.0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
        scrape = scraper.get("/metrics").unwrap().body;
    }
    assert_eq!(
        last, 1.0,
        "burst connections were not released (serve.open_connections stuck at {last})"
    );
    assert_eq!(accepted_total(&scrape, 2), accepted, "no further accepts");
    shutdown(scraper, handle);
}

/// `serve.request_us` must observe *every* terminal path — 504s from an
/// expired budget, 429s from a full queue, and parse rejections — not
/// just successful answers, or the histogram lies about tail latency
/// exactly when the server is struggling.
#[test]
fn latency_histogram_counts_rejected_and_expired_requests() {
    let config = ServeConfig {
        model_paths: vec![model_file()],
        read_timeout_secs: 30,
        queue_depth: 0,            // every queued push answers 429
        single_query_bypass: false, // force the queue path
        cache_capacity: 0,         // no cache hits short-circuiting
        ..ServeConfig::default()
    };
    let (addr, handle) = start(config);
    let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();

    let before = {
        let scrape = client.get("/metrics").unwrap();
        metric(&scrape.body, "serve.request_us_count").unwrap_or(0.0)
    };

    // 504: the budget is already spent at admission.
    let resp = client
        .post_with_deadline("/v1/recommend/array", ARRAY_BODY, 0)
        .unwrap();
    assert_eq!(resp.status, 504, "{}", resp.body);
    // 429: queue depth zero.
    let resp = client.post("/v1/recommend/array", ARRAY_BODY).unwrap();
    assert_eq!(resp.status, 429, "{}", resp.body);
    // 400: parse rejection.
    let resp = client.post("/v1/recommend/array", "{\"m\":-1}").unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);

    let after = {
        let scrape = client.get("/metrics").unwrap();
        metric(&scrape.body, "serve.request_us_count").unwrap_or(0.0)
    };
    assert!(
        after >= before + 3.0,
        "504/429/400 terminal paths must all record serve.request_us \
         (count went {before} -> {after})"
    );
    shutdown(client, handle);
}

/// The evented listener publishes per-shard gauges; the aggregate
/// connection gauge must cover the scraping connection itself.
#[test]
fn evented_listener_exposes_per_shard_metrics() {
    let config = ServeConfig {
        model_paths: vec![model_file()],
        read_timeout_secs: 30,
        event_loops: 2,
        ..ServeConfig::default()
    };
    let (addr, handle) = start(config);
    let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();
    assert_eq!(client.post("/v1/recommend/array", ARRAY_BODY).unwrap().status, 200);

    let scrape = client.get("/metrics").unwrap();
    for shard in 0..2 {
        for series in ["open_connections", "ready_depth", "wakeups", "accepted"] {
            let name = format!("serve.shard.{shard}.{series}");
            assert!(
                metric(&scrape.body, &name).is_some(),
                "missing {name} in:\n{}",
                scrape.body
            );
        }
    }
    let open = metric(&scrape.body, "serve.open_connections").unwrap();
    assert!(open >= 1.0, "the scraping connection must be counted ({open})");
    let accepted = accepted_total(&scrape.body, 2);
    assert!(accepted >= 1.0, "accept counters must move ({accepted})");
    shutdown(client, handle);
}

/// A request trickled in over many small writes (slow client, tiny MTU)
/// must parse exactly like one delivered whole, and two requests sent
/// back-to-back in one segment must both be answered, in order.
#[test]
fn dribbled_and_pipelined_requests_are_served() {
    let config = ServeConfig {
        model_paths: vec![model_file()],
        read_timeout_secs: 30,
        ..ServeConfig::default()
    };
    let (addr, handle) = start(config);

    // Dribble: a few bytes at a time with pauses.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let request = format!(
        "POST /v1/recommend/array HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{ARRAY_BODY}",
        ARRAY_BODY.len()
    );
    for chunk in request.as_bytes().chunks(7) {
        stream.write_all(chunk).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut buf = Vec::new();
    let mut tmp = [0u8; 4096];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") || !body_complete(&buf) {
        let n = stream.read(&mut tmp).unwrap();
        assert!(n > 0, "connection closed before a full response");
        buf.extend_from_slice(&tmp[..n]);
    }
    let text = String::from_utf8_lossy(&buf);
    assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    assert!(text.contains("\"dataflow\""), "{text}");

    // Pipeline: two requests in one write on the same connection.
    let two = format!("{request}{request}");
    stream.write_all(two.as_bytes()).unwrap();
    let mut buf = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    while count_responses(&buf) < 2 && Instant::now() < deadline {
        let n = stream.read(&mut tmp).unwrap();
        assert!(n > 0, "connection closed after {} responses", count_responses(&buf));
        buf.extend_from_slice(&tmp[..n]);
    }
    assert_eq!(count_responses(&buf), 2, "{}", String::from_utf8_lossy(&buf));
    drop(stream);
    shutdown(HttpClient::connect(addr, TIMEOUT).unwrap(), handle);
}

fn body_complete(buf: &[u8]) -> bool {
    response_len(buf).is_some()
}

/// Bytes of one complete response at the front of `buf`.
fn response_len(buf: &[u8]) -> Option<usize> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let len: usize = head.split("\r\n").find_map(|l| {
        let (name, value) = l.split_once(':')?;
        name.eq_ignore_ascii_case("content-length")
            .then(|| value.trim().parse().ok())
            .flatten()
    })?;
    (buf.len() >= head_end + len).then_some(head_end + len)
}

fn count_responses(buf: &[u8]) -> usize {
    let mut rest = buf;
    let mut n = 0;
    while let Some(len) = response_len(rest) {
        rest = &rest[len..];
        n += 1;
    }
    n
}

/// A newline-free megabyte "head" must be rejected at the cap with a 413
/// while the flood is still arriving — not buffered to completion.
#[test]
fn newline_free_megabyte_head_is_answered_413_mid_flood() {
    let config = ServeConfig {
        model_paths: vec![model_file()],
        read_timeout_secs: 30,
        ..ServeConfig::default()
    };
    let (addr, handle) = start(config);

    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Read on a second thread so the 413 is captured the moment it is
    // sent; the server closes right after and further flood writes may
    // RST the socket.
    let reader = {
        let mut r = stream.try_clone().unwrap();
        std::thread::spawn(move || {
            let mut buf = Vec::new();
            let mut tmp = [0u8; 4096];
            loop {
                match r.read(&mut tmp) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => buf.extend_from_slice(&tmp[..n]),
                }
            }
            buf
        })
    };
    let flood = vec![b'A'; 1024 * 1024];
    let mut w = stream;
    for chunk in flood.chunks(8 * 1024) {
        if w.write_all(chunk).is_err() {
            break; // server already rejected and closed
        }
    }
    let _ = w.shutdown(std::net::Shutdown::Write);
    let buf = reader.join().unwrap();
    let text = String::from_utf8_lossy(&buf);
    assert!(
        text.starts_with("HTTP/1.1 413"),
        "flooded head must answer 413, got: {:?}",
        &text[..text.len().min(120)]
    );
    shutdown(HttpClient::connect(addr, TIMEOUT).unwrap(), handle);
}

/// `TCP_NODELAY` must never change observable semantics, only latency:
/// with and without it the listener answers byte-identically.
#[test]
fn nodelay_keeps_answers_identical() {
    let base = ServeConfig {
        model_paths: vec![model_file()],
        read_timeout_secs: 30,
        cache_capacity: 0, // identical `cached` flags on both servers
        ..ServeConfig::default()
    };
    let (addr_a, handle_a) = start(ServeConfig {
        nodelay: true,
        ..base.clone()
    });
    let (addr_b, handle_b) = start(ServeConfig {
        nodelay: false,
        ..base
    });
    let mut a = HttpClient::connect(addr_a, TIMEOUT).unwrap();
    let mut b = HttpClient::connect(addr_b, TIMEOUT).unwrap();
    for (path, body) in [
        ("/v1/recommend/array", ARRAY_BODY),
        ("/v1/recommend/array", ARRAY_BODY),
        ("/v1/recommend/array", "{\"m\":-1}"),
        ("/nope", ""),
    ] {
        let ra = a.post(path, body).unwrap();
        let rb = b.post(path, body).unwrap();
        assert_eq!(ra.status, rb.status, "{path}: {} vs {}", ra.body, rb.body);
        assert_eq!(ra.body, rb.body, "{path}");
    }
    shutdown(a, handle_a);
    shutdown(b, handle_b);
}

/// A slowloris client trickles header bytes forever, refreshing the
/// per-chunk activity clock on every byte so the idle timeout never
/// fires. The evented core's header-phase deadline must answer 408 and
/// reap the connection once a request head has been incomplete for a
/// whole read-timeout window, and count the reap in
/// `serve.slowloris_reaped`.
#[test]
fn slowloris_header_trickle_is_reaped_with_408() {
    let config = ServeConfig {
        model_paths: vec![model_file()],
        read_timeout_secs: 1,
        event_loops: 1,
        ..ServeConfig::default()
    };
    let (addr, handle) = start(config);

    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let reader = {
        let mut r = stream.try_clone().unwrap();
        std::thread::spawn(move || {
            let mut buf = Vec::new();
            let mut tmp = [0u8; 4096];
            loop {
                match r.read(&mut tmp) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => buf.extend_from_slice(&tmp[..n]),
                }
            }
            buf
        })
    };
    // Never idle, never complete: one header byte every 200ms keeps
    // `last_activity` fresh while the head stays unparsable.
    let mut w = stream;
    let _ = w.write_all(b"GET /healthz HTTP/1.1\r\nHost:");
    for _ in 0..15 {
        std::thread::sleep(Duration::from_millis(200));
        if w.write_all(b"x").is_err() {
            break; // already reaped
        }
    }
    let buf = reader.join().unwrap();
    let text = String::from_utf8_lossy(&buf);
    assert!(
        text.starts_with("HTTP/1.1 408"),
        "trickled head must answer 408, got: {:?}",
        &text[..text.len().min(120)]
    );

    let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();
    let scrape = client.get("/metrics").unwrap();
    assert!(
        metric(&scrape.body, "serve.slowloris_reaped").unwrap_or(0.0) >= 1.0,
        "reap must be counted:\n{}",
        scrape.body
    );
    shutdown(client, handle);
}
