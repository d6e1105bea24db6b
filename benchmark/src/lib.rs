//! Seeded benchmark of the AIrchitect reproduction, measured from outside
//! the program: it times calls into public functions, drives the server
//! over loopback, and reads the telemetry counters the server already
//! exports. See `README.md` for the workloads and metrics.

#![cfg(target_os = "linux")]

pub mod loadgen;
pub mod offline;
pub mod report;
pub mod run;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod verify;
pub mod workload;

use std::path::{Path, PathBuf};
use std::time::Instant;

use airchitect::persist;
use airchitect_serve::reload::ModelHub;

use crate::loadgen::{Generator, PhaseSpec, Responder};
use crate::report::{Floor, Obj, END_TO_END, PER_LAYER};
use crate::run::{Pass, Settings};
use crate::trace::Tracer;
use crate::workload::{RequestStream, Workload};

/// Client-side spans kept per traced pass (the JSONL file stays a few MB).
const CLIENT_SPAN_CAP: usize = 20_000;
/// Spans kept for the JSONL file overall.
const SPAN_CAP: usize = 60_000;
/// Requests of the stream the replay runs at most.
const REPLAY_CAP: usize = 200_000;
/// Probe-set queries per request kind.
const PROBES_PER_KIND: usize = 200;

/// Build facts recorded in every result file.
pub const RUSTC_VERSION: &str = env!("BENCH_RUSTC_VERSION");
/// Git revision the benchmark was built from, `unknown` outside a clone.
pub const GIT_REV: &str = env!("BENCH_GIT_REV");

/// What one invocation measured.
pub struct Outcome {
    /// No answer differed from its in-process reference.
    pub correct: bool,
    /// Requests and reload calls of the fixed-rate phases.
    pub attempted: u64,
    /// Failures among them, plus wrong answers.
    pub failed: u64,
    /// End-to-end values of the untraced pass, in [`END_TO_END`] order.
    pub end_to_end: Vec<f64>,
    /// Per-layer values of the traced pass, in [`PER_LAYER`] order.
    pub per_layer: Option<Vec<f64>>,
    /// Where the result file was written.
    pub result_file: PathBuf,
}

impl Outcome {
    /// The machine-readable last line: end-to-end metrics, or per-layer
    /// ones for a traced run.
    pub fn result_line(&self) -> String {
        match &self.per_layer {
            Some(values) => report::result_line(
                self.correct,
                self.attempted,
                self.failed,
                &PER_LAYER,
                values,
            ),
            None => report::result_line(
                self.correct,
                self.attempted,
                self.failed,
                &END_TO_END,
                &self.end_to_end,
            ),
        }
    }
}

fn phase_json(name: &str, s: &loadgen::PhaseStats) -> String {
    let per_window = |q: f64| {
        let v: Vec<String> = s
            .windows
            .hists()
            .iter()
            .map(|h| match h.quantile_ns(q) {
                Some(ns) if ns.is_finite() => format!("{:.1}", ns / 1e3),
                _ => "null".into(),
            })
            .collect();
        format!("[{}]", v.join(","))
    };
    Obj::new()
        .str("phase", name)
        .num("rate", s.spec.rate)
        .num("secs", s.spec.secs)
        .num("sent", s.sent as f64)
        .num("ok", s.ok as f64)
        .num("failed", s.failed as f64)
        .num("p50_us", s.p50_us())
        .num("p99_us", s.p99_us())
        .num("p999_us", s.p999_us())
        .raw("window_p50_us", &per_window(0.50))
        .raw("window_p99_us", &per_window(0.99))
        .num("samples", s.windows.merged().count() as f64)
        .num("achieved_rps", s.achieved_rps())
        .num("late_p99_us", s.late_p99_us())
        .raw("valid", if s.valid() { "true" } else { "false" })
        .finish()
}

/// Seconds of every repeated part (generation chunk, epoch) of `stage`.
fn parts_json(run: &offline::CaseRun, stage: &str) -> String {
    let parts = match stage {
        "generate" => &run.chunk_s,
        "train" => &run.epoch_s,
        _ => return "[]".into(),
    };
    let secs: Vec<String> = parts.iter().map(|s| format!("{s:.5}")).collect();
    format!("[{}]", secs.join(","))
}

fn pass_json(p: &Pass) -> String {
    let mut phases = vec![
        phase_json("warm_burst", &p.warm[0]),
        phase_json("warm", &p.warm[1]),
        phase_json("low", &p.low),
        phase_json("high", &p.high),
    ];
    for (rate, passed, stats) in &p.probes {
        let name = format!("probe@{rate:.0}:{}", if *passed { "pass" } else { "fail" });
        phases.push(phase_json(&name, stats));
    }
    let stages: Vec<String> = [&p.cs1, &p.cs3]
        .iter()
        .flat_map(|run| {
            offline::STAGES.iter().map(move |stage| {
                Obj::new()
                    .str("case", run.case.name())
                    .str("stage", stage)
                    .num("secs", run.stage_s(stage))
                    .num("steady_secs", run.steady_s(stage))
                    .raw("parts", &parts_json(run, stage))
                    .finish()
            })
        })
        .collect();
    let reload_ms: Vec<f64> = p
        .reloads
        .iter()
        .map(|(a, b, _)| b.duration_since(*a).as_secs_f64() * 1e3)
        .collect();
    Obj::new()
        .raw(
            "end_to_end",
            &report::metrics_json(&END_TO_END, &report::end_to_end(p)),
        )
        .raw("phases", &format!("[{}]", phases.join(",")))
        .raw("stages", &format!("[{}]", stages.join(",")))
        .num("max_rps", p.max_rps.unwrap_or(f64::NAN))
        .num("cs1_test_accuracy", p.cs1.test_accuracy)
        .num("cs3_test_accuracy", p.cs3.test_accuracy)
        .num("cs3_penalty_geomean", p.cs3.penalty_geomean)
        .num("reload_calls", p.reloads.len() as f64)
        .num(
            "reload_p50_ms",
            stats::median(&reload_ms).unwrap_or(f64::NAN),
        )
        .num("answers_checked", p.verdict.checked as f64)
        .num("wrong_answers", p.verdict.wrong as f64)
        .num("attempted", p.attempted() as f64)
        .num("failed", p.failed() as f64)
        .finish()
}

fn print_pass(p: &Pass) {
    for (name, s) in [("low", &p.low), ("high", &p.high)] {
        println!(
            "  {name:<5} {:>7.0} rps: p50 {:.1} us, p99 {:.1} us, p99.9 {:.1} us over {} samples; late p99 {:.1} us{}",
            s.spec.rate,
            s.p50_us(),
            s.p99_us(),
            s.p999_us(),
            s.windows.merged().count(),
            s.late_p99_us(),
            if s.valid() { "" } else { "  [INVALID: generator late]" }
        );
    }
    for (rate, passed, s) in &p.probes {
        println!(
            "  probe {rate:>7.0} rps: {} (achieved {:.0}, p99 {:.1} us, fail {:.4}, late p99 {:.1} us)",
            if *passed { "pass" } else { "fail" },
            s.achieved_rps(),
            s.p99_us(),
            s.fail_ratio(),
            s.late_p99_us()
        );
    }
    println!(
        "  answers checked {}, wrong {}; reload calls {}",
        p.verdict.checked,
        p.verdict.wrong,
        p.reloads.len()
    );
    if let Some(body) = &p.verdict.first_wrong {
        println!("  first wrong answer was for {body}");
    }
}

/// Drives the canned responder with the generator at the workload's low
/// and high rates.
fn calibrate(workload: Workload, seed: u64, secs: f64) -> Result<Floor, String> {
    let io = |e: std::io::Error| format!("calibration: {e}");
    let responder = Responder::start().map_err(io)?;
    let rates = workload.rates();
    let stream = RequestStream::new(workload, seed);
    let mut gen = Generator::connect(
        loadgen::plain(responder.addr()),
        run::CONNECTIONS,
        stream,
        0,
    )
    .map_err(io)?;
    let mut run = |rate, n| {
        gen.run_phase(PhaseSpec {
            rate,
            secs,
            windows: 1,
            schedule_seed: seed ^ n,
        })
    };
    let low = run(rates.low, 1).map_err(io)?;
    let high = run(rates.high, 2).map_err(io)?;
    drop(gen);
    responder.stop();
    Ok(Floor {
        late_p99_us: low.late_p99_us().max(high.late_p99_us()),
        floor_p50_us: high.p50_us(),
    })
}

/// Adds the pass's own spans (pipeline stages, set-ups, client requests,
/// reloads) to the tracer.
fn record_pass_spans(t: &mut Tracer, p: &Pass) {
    for run in [&p.cs1, &p.cs3] {
        let id = run::slot(run.case) as u64 + 1;
        for (stage, a, b) in &run.stages {
            let name = match *stage {
                "generate" => "pipeline.generate",
                "split" => "pipeline.split",
                "train" => "pipeline.train",
                "quantize" => "pipeline.quantize",
                _ => "pipeline.eval",
            };
            let (a, b) = (t.ns(*a), t.ns(*b));
            t.record(name, id, None, a, b);
        }
    }
    for (i, (a, b)) in p.setups.iter().enumerate() {
        let (a, b) = (t.ns(*a), t.ns(*b));
        t.record("setup.bind_to_healthy", i as u64, None, a, b);
    }
    let offset = t.ns(p.epoch);
    for s in &p.client_spans {
        t.record(
            "client.request",
            s.id,
            None,
            offset + s.due_ns,
            offset + s.end_ns,
        );
    }
    for (i, (a, b, _)) in p.reloads.iter().enumerate() {
        let (a, b) = (t.ns(*a), t.ns(*b));
        t.record("client.reload", i as u64, None, a, b);
    }
}

fn print_layers(t: &Tracer, client_p50_us: f64) {
    println!("layer self time (in-process replay) against client p50 {client_p50_us:.1} us at the high rate");
    let layers = trace::REQUEST_LAYERS
        .iter()
        .chain(["replay.request"].iter());
    for name in layers {
        let n = t.durations(name).len();
        if n == 0 {
            continue;
        }
        let p50 = t.quantile_ns(name, 0.5) / 1e3;
        println!(
            "  {name:<24} calls {n:>8}  p50 {p50:>9.2} us  p99 {:>9.2} us  share {:>6.2}%",
            t.quantile_ns(name, 0.99) / 1e3,
            100.0 * p50 / client_p50_us
        );
    }
    let in_process = t.median_ns("replay.request") / 1e3;
    println!(
        "  unattributed (network, reactor, queueing): {:.1} us ({:.1}%)",
        client_p50_us - in_process,
        100.0 * (client_p50_us - in_process) / client_p50_us
    );
}

/// Runs `workload` once (untraced), or with `traced` once untraced and
/// once traced; prints every metric and writes the result file into `out`.
pub fn execute(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: f64,
    traced: bool,
    out: &Path,
) -> Result<Outcome, String> {
    let work_dir = out.join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    let result = execute_in(workload, seed, seconds, scale, traced, out, &work_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    result
}

fn execute_in(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: f64,
    traced: bool,
    out: &Path,
    work_dir: &Path,
) -> Result<Outcome, String> {
    let started = Instant::now();
    let cs2_path = work_dir.join("cs2.airm");
    persist::save(&offline::fixture_case2(seed), &cs2_path)
        .map_err(|e| format!("save model: {e}"))?;
    let settings = Settings {
        workload,
        seed,
        seconds,
        scale,
        work_dir: work_dir.to_path_buf(),
    };

    println!("{} seed {seed}: {seconds} s of serving", workload.name());
    let untraced = run::run_pass(&settings, &cs2_path, 0, false)?;
    print_pass(&untraced);
    let end_to_end = report::end_to_end(&untraced);
    report::print_table("end-to-end", &END_TO_END, &end_to_end);
    let mut correct = untraced.verdict.wrong == 0;
    let mut attempted = untraced.attempted();
    let mut failed = untraced.failed();
    let mut result = Obj::new().raw("untraced_pass", &pass_json(&untraced));
    drop(untraced);

    let mut per_layer = None;
    if traced {
        let pass = run::run_pass(&settings, &cs2_path, CLIENT_SPAN_CAP, true)?;
        println!("traced pass:");
        print_pass(&pass);
        correct &= pass.verdict.wrong == 0;
        attempted += pass.attempted();
        failed += pass.failed();
        let mut tracer = Tracer::new(pass.began, SPAN_CAP);
        record_pass_spans(&mut tracer, &pass);
        let hub =
            ModelHub::load(&pass.model_paths, false).map_err(|e| format!("replay models: {e}"))?;
        trace::replay(
            &mut tracer,
            workload,
            seed,
            pass.replayable.min(REPLAY_CAP),
            &hub,
        );
        let paths: Vec<&Path> = pass.model_paths.iter().map(PathBuf::as_path).collect();
        trace::probe_layers(&mut tracer, seed, PROBES_PER_KIND, &hub, &paths);
        let floor = calibrate(workload, seed, (0.05 * seconds).clamp(0.2, 1.0))?;
        print_layers(&tracer, pass.high.p50_us());
        let values = report::per_layer(&pass, &tracer, floor);
        report::print_table("per-layer", &PER_LAYER, &values);
        let traced_e2e = report::end_to_end(&pass);
        println!("tracing overhead (traced - untraced):");
        let mut overhead = Obj::new();
        for (((name, unit), t), u) in END_TO_END.iter().zip(&traced_e2e).zip(&end_to_end) {
            println!(
                "  {name:<36} {:>+14.4} {unit} ({:+.2}%)",
                t - u,
                100.0 * (t - u) / u
            );
            overhead = overhead.num(name, t - u);
        }
        let spans = out.join(format!("{}-seed{seed}.spans.jsonl", workload.name()));
        tracer
            .write_jsonl(&spans)
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        println!("spans: {}", spans.display());
        result = result
            .raw("traced_pass", &pass_json(&pass))
            .raw("per_layer", &report::metrics_json(&PER_LAYER, &values))
            .raw("tracing_overhead", &overhead.finish())
            .str("spans", &spans.display().to_string());
        per_layer = Some(values);
    }

    let env = Obj::new()
        .num("nproc", sys::nproc() as f64)
        .raw("avx2", if sys::has_avx2() { "true" } else { "false" })
        .str("rustc", RUSTC_VERSION)
        .str("git_rev", GIT_REV)
        .finish();
    let rates = workload.rates();
    let result = result
        .str("workload", workload.name())
        .raw("seed", &seed.to_string())
        .num("seconds", seconds)
        .raw("traced", if traced { "true" } else { "false" })
        .raw(
            "rates",
            &Obj::new()
                .num("low", rates.low)
                .num("high", rates.high)
                .num("probe_lo", rates.probe_lo)
                .num("probe_hi", rates.probe_hi)
                .finish(),
        )
        .raw("env", &env)
        .raw("correct", if correct { "true" } else { "false" })
        .num("wall_s", started.elapsed().as_secs_f64())
        .finish();
    let result_file = out.join(format!(
        "{}-seed{seed}-trace{}.json",
        workload.name(),
        u8::from(traced)
    ));
    std::fs::write(&result_file, result + "\n")
        .map_err(|e| format!("{}: {e}", result_file.display()))?;
    println!("result file: {}", result_file.display());
    Ok(Outcome {
        correct,
        attempted,
        failed,
        end_to_end,
        per_layer,
        result_file,
    })
}
