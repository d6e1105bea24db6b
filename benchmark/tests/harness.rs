//! The benchmark's own machinery on synthetic inputs: the response framer,
//! the request streams, the percentile and bisection logic, and the metric
//! tables against `BENCHMARK.json`.

use std::collections::HashSet;

use airchitect_benchmark::loadgen::parse_response;
use airchitect_benchmark::report::{END_TO_END, PER_LAYER};
use airchitect_benchmark::stats::{bisect, quartiles, LogHist, Windows};
use airchitect_benchmark::workload::{Kind, RequestStream, Workload, COLD_MIX, HOT_KEYS, ZIPF_S};
use airchitect_telemetry::json::{self, Value};

/// Every frame in `buf`, as `(status, body)`.
fn frames(buf: &mut Vec<u8>, out: &mut Vec<(u16, Vec<u8>)>) {
    while let Some(f) = parse_response(buf).expect("well-formed responses") {
        out.push((f.status, buf[f.body_start..f.len].to_vec()));
        buf.drain(..f.len);
    }
}

#[test]
fn framer_gives_identical_results_when_split_at_every_boundary() {
    let stream: Vec<u8> = [
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 27\r\nConnection: keep-alive\r\n\r\n{\"cached\":true,\"case\":\"a\"}\n",
        "HTTP/1.1 429 Too Many Requests\r\nContent-Length: 2\r\nRetry-After: 1\r\n\r\n{}",
        "HTTP/1.1 200 OK\r\ncontent-length: 0\r\n\r\n",
        "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 5\r\n\r\nbusy\n",
    ]
    .concat()
    .into_bytes();
    let mut whole = Vec::new();
    frames(&mut stream.clone(), &mut whole);
    assert_eq!(whole.len(), 4);
    assert_eq!(whole[1].0, 429);
    assert_eq!(whole[2].1, b"");

    for cut in 0..=stream.len() {
        let mut got = Vec::new();
        let mut buf = stream[..cut].to_vec();
        frames(&mut buf, &mut got);
        buf.extend_from_slice(&stream[cut..]);
        frames(&mut buf, &mut got);
        assert_eq!(got, whole, "split at byte {cut}");
        assert!(buf.is_empty());
    }
    let mut got = Vec::new();
    let mut buf = Vec::new();
    for &b in &stream {
        buf.push(b);
        frames(&mut buf, &mut got);
    }
    assert_eq!(got, whole, "one byte at a time");
}

#[test]
fn framer_rejects_responses_it_cannot_frame() {
    assert!(
        parse_response(b"HTTP/1.1 200 OK\r\n\r\n").is_err(),
        "no Content-Length"
    );
    assert!(parse_response(b"garbage\r\n\r\n").is_err());
    assert!(parse_response(&vec![b'a'; 9000]).is_err(), "endless head");
}

fn rendered(workload: Workload, seed: u64, n: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for request in RequestStream::new(workload, seed).take(n) {
        request.write_http(&mut out);
    }
    out
}

#[test]
fn same_seed_gives_a_byte_identical_stream() {
    for workload in Workload::ALL {
        let a = rendered(workload, 7, 2_000);
        assert_eq!(a, rendered(workload, 7, 2_000), "{}", workload.name());
        assert_ne!(a, rendered(workload, 8, 2_000), "{}", workload.name());
    }
}

#[test]
fn each_mix_is_within_one_percent_of_its_shares() {
    const N: usize = 100_000;
    let cold: Vec<_> = RequestStream::new(Workload::ServeCold, 3).take(N).collect();
    for (kind, share) in COLD_MIX {
        let got = cold.iter().filter(|r| r.kind == kind).count() as f64 / N as f64;
        assert!((got - share).abs() < 0.01, "{kind:?}: {got} vs {share}");
    }
    let distinct: HashSet<(Kind, &str)> = cold.iter().map(|r| (r.kind, r.body.as_str())).collect();
    assert_eq!(distinct.len(), N, "every cold key is unique");

    let harmonic: f64 = (1..=HOT_KEYS).map(|r| (r as f64).powf(-ZIPF_S)).sum();
    for workload in [Workload::ServeHot, Workload::ServeChurn] {
        let hot: Vec<_> = RequestStream::new(workload, 3).take(N).collect();
        assert!(hot.iter().all(|r| r.kind == Kind::Cs1Top1));
        let keys: HashSet<&str> = hot.iter().map(|r| r.body.as_str()).collect();
        assert!(keys.len() <= HOT_KEYS);
        for rank in [0u32, 1, 9] {
            let share = hot.iter().filter(|r| r.key == Some(rank)).count() as f64 / N as f64;
            let want = f64::from(rank + 1).powf(-ZIPF_S) / harmonic;
            assert!(
                (share - want).abs() < 0.01,
                "rank {rank}: {share} vs {want}"
            );
        }
    }
}

#[test]
fn histogram_quantiles_are_within_one_percent() {
    let mut h = LogHist::new();
    for v in 1..=100_000u64 {
        h.record(v * 10);
    }
    for q in [0.5, 0.9, 0.99, 0.999] {
        let got = h.quantile_ns(q).unwrap();
        let want = q * 1_000_000.0;
        assert!((got / want - 1.0).abs() < 0.01, "q{q}: {got} vs {want}");
    }
    h.record_infinite();
    assert_eq!(
        h.quantile_ns(1.0),
        Some(f64::INFINITY),
        "failures rank last"
    );
    assert!(LogHist::new().quantile_ns(0.5).is_none());
}

#[test]
fn windowed_p99_is_the_median_of_window_p99s() {
    // Ten 1-second windows of 1000 samples spread over 1..=1000 µs; two
    // windows also see a 100 ms stall. Their own p99 explodes, the median
    // across windows does not.
    let second = 1_000_000_000;
    let mut w = Windows::new(0, second, 10);
    for window in 0..10u64 {
        for i in 1..=1_000u64 {
            w.record(window * second + i, i * 1_000);
        }
        if window == 3 || window == 7 {
            for i in 0..150 {
                w.record(window * second + i, 100_000_000);
            }
        }
    }
    let per_window: Vec<f64> = w
        .hists()
        .iter()
        .map(|h| h.quantile_ns(0.99).unwrap())
        .collect();
    assert!(per_window[3] > 50_000_000.0);
    let p99 = w.windowed_quantile_ns(0.99).unwrap();
    assert!((p99 / 990_000.0 - 1.0).abs() < 0.01, "windowed p99 {p99}");
    assert!(
        w.merged().quantile_ns(0.99).unwrap() > p99,
        "pooled p99 sees the stalls"
    );
    // A failure lands in the window its send was due in.
    w.record_infinite(9 * second + 5);
    assert_eq!(w.hists()[9].count(), 1_001);
}

#[test]
fn bisection_converges_on_the_highest_passing_rate() {
    let capacity = 50_000.0;
    let trail = bisect(20_000.0, 320_000.0, 6, |r| r <= capacity);
    assert_eq!(trail.len(), 6);
    let best = trail
        .iter()
        .filter(|(_, ok)| *ok)
        .map(|(r, _)| *r)
        .fold(0.0, f64::max);
    // Six geometric halvings of a 16x bracket leave a 16^(1/64) step.
    assert!(
        best <= capacity && best >= capacity / 16f64.powf(1.0 / 64.0),
        "{best}"
    );
    assert!(bisect(1.0, 2.0, 3, |_| false).iter().all(|(_, ok)| !ok));
    let all = bisect(1_000.0, 64_000.0, 6, |_| true);
    assert!(
        all.windows(2).all(|w| w[1].0 > w[0].0),
        "climbs when all pass"
    );
}

#[test]
fn quartiles_match_python_statistics() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
    assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
    assert_eq!(quartiles(&[1.0]), None);
}

fn metrics_of(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("string field")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(metrics_of(&doc, "end_to_end"), table(&END_TO_END));
    assert_eq!(metrics_of(&doc, "per_layer"), table(&PER_LAYER));
    for w in doc.get("workloads").and_then(Value::as_arr).unwrap() {
        let name = w.get("name").and_then(Value::as_str).unwrap();
        assert!(
            Workload::from_name(name).is_some(),
            "unknown workload {name}"
        );
    }
}
