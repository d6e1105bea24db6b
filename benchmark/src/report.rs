//! The metric tables (the same names and units as `BENCHMARK.json`), their
//! values for a pass, and the JSON the benchmark writes.

use airchitect_telemetry::json::{write_escaped, write_f64};

use crate::offline::CaseRun;
use crate::run::{ratio, Pass, EPOCHS};
use crate::trace::Tracer;

/// End-to-end metrics: what a user of the service or the pipeline sees.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("lat_p50_low_us", "us"),
    ("lat_p99_low_us", "us"),
    ("lat_p50_high_us", "us"),
    ("lat_p99_high_us", "us"),
    ("peak_rss_mb", "MiB"),
    ("pipeline_s", "s"),
    ("penalty_geomean_cs1", "ratio"),
    ("int8_agreement", "ratio"),
];

/// Per-layer metrics, named `crate.module.quantity`, plus the measures too
/// unsteady on a shared 2-core box to gate on (`serve.max_rps`,
/// `core.eval.penalty_geomean_cs3`).
pub const PER_LAYER: [(&str, &str); 39] = [
    ("serve.max_rps", "1/s"),
    ("serve.http.try_parse_ns", "ns"),
    ("serve.http.write_response_ns", "ns"),
    ("serve.router.parse_recommend_ns", "ns"),
    ("serve.cache.get_ns", "ns"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.batch.execute_fast_ns.cs1", "ns"),
    ("serve.batch.execute_fast_ns.cs2", "ns"),
    ("serve.batch.execute_fast_ns.cs3", "ns"),
    ("serve.bypass_ratio", "ratio"),
    ("serve.batch.execute_ns.cs1", "ns"),
    ("serve.batch.execute_ns.cs2", "ns"),
    ("serve.batch.execute_ns.cs3", "ns"),
    ("serve.batch.execute_topk8_ns.cs1", "ns"),
    ("serve.batch.jobs_per_batch", "count"),
    ("serve.rejected_ratio", "ratio"),
    ("serve.wakeups_per_request", "count"),
    ("serve.request_us.p50", "us"),
    ("nn.quant.memo_hit_ratio", "ratio"),
    ("nn.quant.compile_ms", "ms"),
    ("serve.reload_ms", "ms"),
    ("core.persist.load_ms", "ms"),
    ("serve.fallback.oracle_ns.cs1", "ns"),
    ("serve.shadow.dropped_ratio", "ratio"),
    ("dse.generate_s.cs1", "s"),
    ("dse.generate_s.cs3", "s"),
    ("dse.labels_per_s.cs3", "1/s"),
    ("sim.evals_per_s", "1/s"),
    ("data.split_s", "s"),
    ("nn.train_s.cs1", "s"),
    ("nn.train_s.cs3", "s"),
    ("nn.train_samples_per_s", "1/s"),
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("core.eval_s", "s"),
    ("core.eval.penalty_geomean_cs3", "ratio"),
    ("core.eval.test_accuracy_cs1", "ratio"),
    ("serve.unattributed_p50_us", "us"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.floor_p50_us", "us"),
];

/// End-to-end values of a pass, in [`END_TO_END`] order.
pub fn end_to_end(p: &Pass) -> Vec<f64> {
    vec![
        p.setup_s(),
        p.low.p50_us(),
        p.low.p99_us(),
        p.high.p50_us(),
        p.high.p99_us(),
        p.peak_rss_mb(),
        p.pipeline_s(),
        p.cs1.penalty_geomean,
        p.cs1.int8_agreement.min(p.cs3.int8_agreement),
    ]
}

/// What the calibration responder measured.
#[derive(Debug, Clone, Copy)]
pub struct Floor {
    /// Generator lateness p99 at the workload's rates, µs.
    pub late_p99_us: f64,
    /// Client p50 against the canned responder at the high rate, µs.
    pub floor_p50_us: f64,
}

fn both(a: &CaseRun, b: &CaseRun, stage: &str) -> f64 {
    a.steady_s(stage) + b.steady_s(stage)
}

/// Per-layer values of a traced pass, in [`PER_LAYER`] order.
pub fn per_layer(p: &Pass, t: &Tracer, floor: Floor) -> Vec<f64> {
    let c = &p.counters;
    let (cs1, cs3) = (&p.cs1, &p.cs3);
    let ms = |name| t.median_ns(name) / 1e6;
    let train_s = both(cs1, cs3, "train");
    let trained_rows = ((cs1.train_rows + cs3.train_rows) * EPOCHS) as f64;
    vec![
        p.max_rps.unwrap_or(f64::NAN),
        t.median_ns("http.try_parse"),
        t.median_ns("http.write_response"),
        t.median_ns("router.parse_recommend"),
        t.median_ns("cache.get"),
        ratio(c.cache_hits, c.cache_hits + c.cache_misses),
        t.median_ns("batch.execute_fast.cs1"),
        t.median_ns("batch.execute_fast.cs2"),
        t.median_ns("batch.execute_fast.cs3"),
        ratio(c.bypass, c.requests),
        t.median_ns("batch.execute.cs1"),
        t.median_ns("batch.execute.cs2"),
        t.median_ns("batch.execute.cs3"),
        t.median_ns("batch.execute_topk8.cs1"),
        ratio(c.batched_jobs, c.batches),
        ratio(c.rejected, c.requests),
        ratio(c.wakeups, c.requests),
        c.request_us_p50(),
        ratio(c.memo_hits, c.memo_hits + c.memo_misses),
        ms("quant.compile"),
        ms("reload"),
        ms("persist.load"),
        t.median_ns("fallback.oracle.cs1"),
        ratio(c.shadow_dropped, c.shadow_sampled),
        cs1.steady_s("generate"),
        cs3.steady_s("generate"),
        cs3.samples as f64 / cs3.steady_s("generate"),
        p.sim_evals as f64 / both(cs1, cs3, "generate"),
        both(cs1, cs3, "split"),
        cs1.steady_s("train"),
        cs3.steady_s("train"),
        trained_rows / train_s,
        (cs1.train_flops + cs3.train_flops) / train_s / 1e9,
        both(cs1, cs3, "eval"),
        cs3.penalty_geomean,
        cs1.test_accuracy,
        p.high.p50_us() - t.median_ns("replay.request") / 1e3,
        floor.late_p99_us,
        floor.floor_p50_us,
    ]
}

/// Appends `"key":` to a JSON object under construction.
fn key(out: &mut String, k: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    write_escaped(out, k);
    out.push(':');
}

/// A JSON object built field by field.
pub struct Obj(String);

impl Default for Obj {
    fn default() -> Self {
        Self::new()
    }
}

impl Obj {
    /// `{`.
    pub fn new() -> Self {
        Self("{".into())
    }

    /// A number field (`null` when not finite).
    pub fn num(mut self, k: &str, v: f64) -> Self {
        key(&mut self.0, k);
        write_f64(&mut self.0, v);
        self
    }

    /// A string field.
    pub fn str(mut self, k: &str, v: &str) -> Self {
        key(&mut self.0, k);
        write_escaped(&mut self.0, v);
        self
    }

    /// A field holding already-serialized JSON.
    pub fn raw(mut self, k: &str, json: &str) -> Self {
        key(&mut self.0, k);
        self.0.push_str(json);
        self
    }

    /// `}`.
    pub fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` for a metric table.
pub fn metrics_json(table: &[(&str, &str)], values: &[f64]) -> String {
    table
        .iter()
        .zip(values)
        .fold(Obj::new(), |o, ((name, unit), &v)| {
            o.raw(name, &Obj::new().num("value", v).str("unit", unit).finish())
        })
        .finish()
}

/// The last line of standard output: the machine-readable verdict.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&str, &str)],
    values: &[f64],
) -> String {
    Obj::new()
        .raw("correct", if correct { "true" } else { "false" })
        .raw("attempted", &attempted.to_string())
        .raw("failed", &failed.to_string())
        .raw("metrics", &metrics_json(table, values))
        .finish()
}

/// Prints `name value unit` lines.
pub fn print_table(title: &str, table: &[(&str, &str)], values: &[f64]) {
    println!("{title}");
    for ((name, unit), v) in table.iter().zip(values) {
        println!("  {name:<36} {v:>16.4} {unit}");
    }
}
