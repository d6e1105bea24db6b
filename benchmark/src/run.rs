//! One pass of a workload: the timed offline pipeline, whose models the
//! server then loads; the server's set-up; the open-loop phases; and the
//! correctness check of every answer.

use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use airchitect::model::CaseStudy;
use airchitect::persist;
use airchitect_serve::client::{HttpClient, RetryClient};
use airchitect_serve::reload::ModelHub;
use airchitect_serve::{ServeConfig, ServeError, Server};
use airchitect_telemetry::metrics;

use crate::loadgen::{ClientSpan, Generator, Opener, PhaseSpec, PhaseStats};
use crate::offline::{self, CaseRun};
use crate::stats::{bisect, median};
use crate::verify::{self, Verdict};
use crate::workload::{RequestStream, Workload};

/// The server's response-cache capacity (the `serve` CLI default).
pub const CACHE_CAPACITY: usize = 4096;
/// CS1 samples at full scale, budgets 2^10..2^18: training-bound.
pub const CS1_SAMPLES: usize = 20_000;
/// CS1 MAC-budget range, log2.
pub const CS1_BUDGET_LOG2: (u32, u32) = (10, 18);
/// CS3 samples at full scale: search-bound.
pub const CS3_SAMPLES: usize = 2_000;
/// Generation calls each case's samples are split over: short enough
/// (50 CS3 samples) that some fall between a neighbour's busy spells.
pub const GENERATE_CHUNKS: usize = 40;
/// Training schedule of both cases.
pub const EPOCHS: usize = 5;
/// Minibatch size of both cases.
pub const BATCH: usize = 256;
/// Training kernel threads (the box's core count).
pub const TRAIN_THREADS: usize = 2;
/// Binds whose median is `setup_s`: three before serving (the last one
/// serves) and two after, so one slow spell of the box does not catch all.
pub const SETUP_BINDS: [usize; 2] = [3, 2];
/// Keep-alive connections the generator drives (the box's core count).
pub const CONNECTIONS: usize = 2;
/// Cadence of `POST /v1/reload` in `serve_churn`.
pub const RELOAD_EVERY: Duration = Duration::from_millis(500);
/// Shadow-oracle sampling rate in `serve_churn`.
pub const SHADOW_RATE: f64 = 0.05;
/// Probes of the `max_rps` bisection.
pub const PROBES: usize = 6;
/// A probe passes only if at least this share of its requests was answered
/// before it ended and at most [`PROBE_MAX_FAIL`] failed.
pub const PROBE_MIN_ACHIEVED: f64 = 0.99;
/// See [`PROBE_MIN_ACHIEVED`].
pub const PROBE_MAX_FAIL: f64 = 0.001;

/// Slot of a case study in per-case arrays.
pub fn slot(case: CaseStudy) -> usize {
    match case {
        CaseStudy::ArrayDataflow => 0,
        CaseStudy::BufferSizing => 1,
        CaseStudy::MultiArrayScheduling => 2,
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Settings {
    /// The traffic mix.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the serving phases together, seconds.
    pub seconds: f64,
    /// Multiplier on the pipeline's sample counts (1 in every reported
    /// run; tests shrink it).
    pub scale: f64,
    /// Scratch directory for model files and the shadow log.
    pub work_dir: PathBuf,
}

/// Lengths of the serving phases: 10% warm-up (not reported), 45% at the
/// low rate, 45% at the high rate; a traced pass adds the bisection probes,
/// 40% more. For the default 30 s: 3 s, 13.5 s, 13.5 s and six 2-s probes.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Warm-up seconds.
    pub warm: f64,
    /// `low` phase seconds.
    pub low: f64,
    /// `high` phase seconds.
    pub high: f64,
    /// Seconds of each bisection probe.
    pub probe: f64,
}

impl Plan {
    /// The plan for `seconds` of serving.
    pub fn new(seconds: f64) -> Self {
        Self {
            warm: 0.10 * seconds,
            low: 0.45 * seconds,
            high: 0.45 * seconds,
            probe: 0.40 * seconds / PROBES as f64,
        }
    }
}

/// Windows over a phase: as many as fit while each still expects 1000
/// requests (so its p99 has ten samples beyond it) and lasts at least a
/// quarter second. The median over many short windows sees through the
/// scheduling stalls of a 2-core box that a few long windows do not.
fn windows(secs: f64, rate: f64) -> usize {
    let width = (1_000.0 / rate).max(0.25);
    ((secs / width).floor() as usize).max(1)
}

/// Telemetry counters the server exports, read before and after the
/// measured load.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// `serve.requests`.
    pub requests: u64,
    /// `serve.cache_hits`.
    pub cache_hits: u64,
    /// `serve.cache_misses`.
    pub cache_misses: u64,
    /// `serve.bypass`.
    pub bypass: u64,
    /// `serve.batches`.
    pub batches: u64,
    /// `serve.batched_jobs`.
    pub batched_jobs: u64,
    /// `serve.rejected`.
    pub rejected: u64,
    /// `serve.wakeups`.
    pub wakeups: u64,
    /// `quant.memo_hits`.
    pub memo_hits: u64,
    /// `quant.memo_misses`.
    pub memo_misses: u64,
    /// `serve.shadow.sampled`.
    pub shadow_sampled: u64,
    /// `serve.shadow.dropped`.
    pub shadow_dropped: u64,
    /// `sim.evals`.
    pub sim_evals: u64,
    /// `serve.request_us` power-of-two buckets.
    pub request_us: [u64; metrics::HIST_BUCKETS],
}

impl Counters {
    /// Reads the live registry.
    pub fn read() -> Self {
        let mut request_us = [0; metrics::HIST_BUCKETS];
        for (slot, v) in request_us
            .iter_mut()
            .zip(metrics::SERVE_REQUEST_US.snapshot().buckets)
        {
            *slot = v;
        }
        Self {
            requests: metrics::SERVE_REQUESTS.get(),
            cache_hits: metrics::SERVE_CACHE_HITS.get(),
            cache_misses: metrics::SERVE_CACHE_MISSES.get(),
            bypass: metrics::SERVE_BYPASS.get(),
            batches: metrics::SERVE_BATCHES.get(),
            batched_jobs: metrics::SERVE_BATCHED_JOBS.get(),
            rejected: metrics::SERVE_REJECTED.get(),
            wakeups: metrics::SERVE_WAKEUPS.get(),
            memo_hits: metrics::QUANT_MEMO_HITS.get(),
            memo_misses: metrics::QUANT_MEMO_MISSES.get(),
            shadow_sampled: metrics::SERVE_SHADOW_SAMPLED.get(),
            shadow_dropped: metrics::SERVE_SHADOW_DROPPED.get(),
            sim_evals: metrics::SIM_EVALS.get(),
            request_us,
        }
    }

    /// What was counted between `earlier` and `self`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let mut request_us = [0; metrics::HIST_BUCKETS];
        for (i, slot) in request_us.iter_mut().enumerate() {
            *slot = self.request_us[i] - earlier.request_us[i];
        }
        Counters {
            requests: self.requests - earlier.requests,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            bypass: self.bypass - earlier.bypass,
            batches: self.batches - earlier.batches,
            batched_jobs: self.batched_jobs - earlier.batched_jobs,
            rejected: self.rejected - earlier.rejected,
            wakeups: self.wakeups - earlier.wakeups,
            memo_hits: self.memo_hits - earlier.memo_hits,
            memo_misses: self.memo_misses - earlier.memo_misses,
            shadow_sampled: self.shadow_sampled - earlier.shadow_sampled,
            shadow_dropped: self.shadow_dropped - earlier.shadow_dropped,
            sim_evals: self.sim_evals - earlier.sim_evals,
            request_us,
        }
    }

    /// Median of `serve.request_us`, interpolated inside its power-of-two
    /// bucket (bucket `i` holds values of bit length `i`), so only within
    /// 2× of the truth.
    pub fn request_us_p50(&self) -> f64 {
        let n: u64 = self.request_us.iter().sum();
        if n == 0 {
            return 0.0;
        }
        let rank = n.div_ceil(2);
        let mut below = 0;
        for (i, &c) in self.request_us.iter().enumerate() {
            if below + c >= rank {
                let (lo, width) = if i == 0 {
                    (0.0, 1.0)
                } else {
                    ((1u64 << (i - 1)) as f64, (1u64 << (i - 1)) as f64)
                };
                return lo + width * ((rank - below) as f64 - 0.5) / c as f64;
            }
            below += c;
        }
        f64::NAN
    }
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One `POST /v1/reload` call: start, end, whether it answered 200.
pub type ReloadCall = (Instant, Instant, bool);

/// Everything one pass measured.
pub struct Pass {
    /// When the pass began, before the pipeline.
    pub began: Instant,
    /// The timed CS1 pipeline.
    pub cs1: CaseRun,
    /// The timed CS3 pipeline.
    pub cs3: CaseRun,
    /// `sim.evals` counted during the two generate stages (0 unless
    /// telemetry was on).
    pub sim_evals: u64,
    /// Start and end of each bind-to-healthy set-up.
    pub setups: Vec<(Instant, Instant)>,
    /// Warm-up: the burst at the high rate, then the low rate (not
    /// reported).
    pub warm: Vec<PhaseStats>,
    /// `low` phase.
    pub low: PhaseStats,
    /// `high` phase.
    pub high: PhaseStats,
    /// Bisection probes (traced passes only): rate, passed, what it
    /// measured.
    pub probes: Vec<(f64, bool, PhaseStats)>,
    /// Achieved rate of the highest passing probe; the bracket's lower end
    /// when none passed.
    pub max_rps: Option<f64>,
    /// Counters over low, high and the probes.
    pub counters: Counters,
    /// Reload calls (`serve_churn` only).
    pub reloads: Vec<ReloadCall>,
    /// The correctness check.
    pub verdict: Verdict,
    /// Client-side spans of the traced pass.
    pub client_spans: Vec<ClientSpan>,
    /// Epoch of the client spans (the generator's start).
    pub epoch: Instant,
    /// Requests sent through the end of the `high` phase.
    pub replayable: usize,
    /// The model files the server loaded.
    pub model_paths: Vec<PathBuf>,
}

impl Pass {
    /// Median bind-to-healthy seconds.
    pub fn setup_s(&self) -> f64 {
        let secs: Vec<f64> = self
            .setups
            .iter()
            .map(|(a, b)| b.duration_since(*a).as_secs_f64())
            .collect();
        median(&secs).unwrap_or(f64::NAN)
    }

    /// Seconds over every stage of both pipelines.
    pub fn pipeline_s(&self) -> f64 {
        self.cs1.total_s() + self.cs3.total_s()
    }

    /// Largest resident set sampled during `low` and `high`, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.low.peak_rss_mb.max(self.high.peak_rss_mb)
    }

    fn fixed_rate(&self) -> impl Iterator<Item = &PhaseStats> {
        self.warm.iter().chain([&self.low, &self.high])
    }

    /// Requests and reload calls of the fixed-rate phases.
    pub fn attempted(&self) -> u64 {
        self.fixed_rate().map(|p| p.ok + p.failed).sum::<u64>() + self.reloads.len() as u64
    }

    /// Failures among [`Pass::attempted`], plus wrong answers anywhere.
    pub fn failed(&self) -> u64 {
        self.fixed_rate().map(|p| p.failed).sum::<u64>()
            + self.reloads.iter().filter(|(_, _, ok)| !ok).count() as u64
            + self.verdict.wrong
    }
}

struct Running {
    addr: SocketAddr,
    thread: JoinHandle<Result<(), ServeError>>,
}

/// Binds a server, runs it on a thread, and waits for its first healthy
/// `/healthz`.
fn start(config: &ServeConfig) -> Result<(Running, (Instant, Instant)), String> {
    let t0 = Instant::now();
    let server = Server::bind(config).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let thread = std::thread::spawn(move || server.run());
    let give_up = t0 + Duration::from_secs(30);
    loop {
        let healthy = HttpClient::connect(addr, Duration::from_secs(5))
            .and_then(|mut c| c.get("/healthz"))
            .is_ok_and(|r| r.status == 200);
        if healthy {
            return Ok((Running { addr, thread }, (t0, Instant::now())));
        }
        if Instant::now() > give_up {
            return Err("server never became healthy".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Drains and joins a server; every client connection must be closed.
fn stop(server: Running) -> Result<(), String> {
    let resp = HttpClient::connect(server.addr, Duration::from_secs(10))
        .and_then(|mut c| c.post("/v1/shutdown", ""))
        .map_err(|e| format!("shutdown: {e}"))?;
    if resp.status != 200 {
        return Err(format!("shutdown answered {}", resp.status));
    }
    server
        .thread
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| format!("server exited with: {e}"))
}

/// The server under test: the `airchitect serve` defaults (4 workers,
/// queue 256, batch 16, cache 4096, automatic event loops, Nagle on).
pub fn serve_config(workload: Workload, model_paths: Vec<PathBuf>, work_dir: &Path) -> ServeConfig {
    let churn = workload == Workload::ServeChurn;
    ServeConfig {
        model_paths,
        workers: 4,
        cache_capacity: CACHE_CAPACITY,
        threaded: false,
        nodelay: false,
        shadow_rate: if churn { SHADOW_RATE } else { 0.0 },
        shadow_dir: churn.then(|| work_dir.join("shadow")),
        ..ServeConfig::default()
    }
}

/// Open connections per event loop, as `/metrics` reports them (empty for
/// the threaded listener).
fn loop_connections(control: &mut RetryClient) -> std::io::Result<Vec<u64>> {
    let mut counts = Vec::new();
    for line in control.get("/metrics")?.body.lines() {
        let Some((shard, value)) = line
            .strip_prefix("serve.shard.")
            .and_then(|rest| rest.split_once(".open_connections "))
        else {
            continue;
        };
        if let (Ok(shard), Ok(value)) = (shard.parse::<usize>(), value.trim().parse::<u64>()) {
            counts.resize(counts.len().max(shard + 1), 0);
            counts[shard] = value;
        }
    }
    Ok(counts)
}

/// Opens generator connection `i` on event loop `i mod loops`. With so few
/// connections, `SO_REUSEPORT` would place them at random, and whether two
/// land on one loop moved tail latency and `max_rps` by tens of percent
/// between otherwise identical runs. Each attempt connects, reads from
/// `/metrics` which loop accepted it, and keeps it if it is the wanted one.
fn spread_opener(addr: SocketAddr) -> Opener {
    // Reconnects by itself after the server reaps it as idle.
    let mut control = RetryClient::new(addr, Duration::from_secs(10), 3, Duration::from_millis(10));
    Box::new(move |i| {
        for _ in 0..64 {
            let before = loop_connections(&mut control)?;
            if before.is_empty() {
                return TcpStream::connect(addr);
            }
            let stream = TcpStream::connect(addr)?;
            let give_up = Instant::now() + Duration::from_millis(500);
            let landed = loop {
                let after = loop_connections(&mut control)?;
                if let Some(shard) = (0..before.len()).find(|&s| after[s] > before[s]) {
                    break Some(shard);
                }
                if Instant::now() > give_up {
                    break None;
                }
                std::thread::sleep(Duration::from_micros(100));
            };
            if landed == Some(i % before.len()) {
                return Ok(stream);
            }
        }
        Err(std::io::Error::other(
            "no connection landed on the wanted event loop",
        ))
    })
}

fn spawn_reloader(addr: SocketAddr, stop: Arc<AtomicBool>) -> JoinHandle<Vec<ReloadCall>> {
    std::thread::spawn(move || {
        let mut calls = Vec::new();
        let mut client =
            RetryClient::new(addr, Duration::from_secs(10), 3, Duration::from_millis(10));
        let mut next = Instant::now() + RELOAD_EVERY;
        while !stop.load(Ordering::Acquire) {
            let now = Instant::now();
            if now < next {
                std::thread::sleep((next - now).min(Duration::from_millis(20)));
                continue;
            }
            next += RELOAD_EVERY;
            let t0 = Instant::now();
            let ok = client.post("/v1/reload", "").is_ok_and(|r| r.status == 200);
            calls.push((t0, Instant::now(), ok));
        }
        calls
    })
}

fn phase_seed(seed: u64, phase: u64) -> u64 {
    seed ^ phase.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs one pass. `cs2_model` is the (untimed) CS2 fixture; `span_cap`
/// keeps that many client-side spans and `probe` runs the `max_rps`
/// bisection (both for a traced pass only).
pub fn run_pass(
    s: &Settings,
    cs2_model: &Path,
    span_cap: usize,
    probe: bool,
) -> Result<Pass, String> {
    let scaled = |n: usize| ((n as f64 * s.scale).round() as usize).max(20);
    let spec = |samples| offline::Spec {
        samples,
        chunks: GENERATE_CHUNKS,
        epochs: EPOCHS,
        batch_size: BATCH,
        threads: TRAIN_THREADS,
        seed: s.seed,
    };
    let began = Instant::now();
    let before = Counters::read();
    let mut cs1 = offline::run_case1(&spec(scaled(CS1_SAMPLES)), CS1_BUDGET_LOG2);
    let mut cs3 = offline::run_case3(&spec(scaled(CS3_SAMPLES)));
    let sim_evals = Counters::read().since(&before).sim_evals;
    // The pipeline's repeated parts are timed again at four moments spread
    // over the run, but never between warm-up and `low`: the pause would
    // let the connections' TCP state settle back.
    let resample = |cs1: &mut CaseRun, cs3: &mut CaseRun| {
        cs1.resample();
        cs3.resample();
    };

    let cs1_path = s.work_dir.join("cs1.airm");
    let cs3_path = s.work_dir.join("cs3.airm");
    for (run, path) in [(&cs1, &cs1_path), (&cs3, &cs3_path)] {
        persist::save(run.recommender.model(), path).map_err(|e| format!("save model: {e}"))?;
    }
    let model_paths = vec![cs1_path, cs2_model.to_path_buf(), cs3_path];
    let config = serve_config(s.workload, model_paths.clone(), &s.work_dir);
    if let Some(dir) = &config.shadow_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("shadow dir: {e}"))?;
    }

    let mut setups = Vec::with_capacity(SETUP_BINDS.iter().sum());
    let mut server = None;
    for _ in 0..SETUP_BINDS[0] {
        if let Some(previous) = server.take() {
            stop(previous)?;
        }
        let (running, span) = start(&config)?;
        setups.push(span);
        server = Some(running);
    }
    let server = server.expect("at least one bind");
    resample(&mut cs1, &mut cs3);

    let plan = Plan::new(s.seconds);
    let rates = s.workload.rates();
    let stream = RequestStream::new(s.workload, s.seed);
    let mut gen = Generator::connect(spread_opener(server.addr), CONNECTIONS, stream, span_cap)
        .map_err(|e| format!("connect: {e}"))?;
    // Room for every answer hash up front, so no reallocation stalls the
    // generator mid-phase (untouched capacity costs no resident memory).
    let probing = if probe {
        plan.probe * PROBES as f64
    } else {
        0.0
    };
    let most =
        rates.high * (plan.warm + plan.high) + rates.low * plan.low + rates.probe_hi * probing;
    gen.reserve((most * 1.1) as usize + 1024);
    let epoch = gen.epoch();

    let stop_reloads = Arc::new(AtomicBool::new(false));
    let reloader = (s.workload == Workload::ServeChurn)
        .then(|| spawn_reloader(server.addr, Arc::clone(&stop_reloads)));

    let phase = |rate, secs, n| PhaseSpec {
        rate,
        secs,
        windows: windows(secs, rate),
        schedule_seed: phase_seed(s.seed, n),
    };
    let io = |e: std::io::Error| format!("load generator: {e}");
    // The warm-up opens with a burst at the high rate. With Nagle on, a
    // keep-alive connection flips at a random moment, and then for good,
    // into a state where each answer waits for the client's next request
    // to carry the ACK of the previous one; the burst puts both connections
    // there before `low`, instead of leaving it to chance mid-phase.
    let warm = vec![
        gen.run_phase(phase(rates.high, 0.3 * plan.warm, 0))
            .map_err(io)?,
        gen.run_phase(phase(rates.low, 0.7 * plan.warm, 1))
            .map_err(io)?,
    ];
    let counters_before = Counters::read();
    let low = gen.run_phase(phase(rates.low, plan.low, 2)).map_err(io)?;
    resample(&mut cs1, &mut cs3);
    let high = gen.run_phase(phase(rates.high, plan.high, 3)).map_err(io)?;
    let replayable = gen.outcomes().len();
    let mut probes = Vec::with_capacity(PROBES);
    let mut probe_error = None;
    let mut n = 4;
    if probe {
        bisect(rates.probe_lo, rates.probe_hi, PROBES, |rate| {
            n += 1;
            match gen.run_phase(phase(rate, plan.probe, n)) {
                Ok(stats) => {
                    let passed = stats.p99_us() <= rates.p99_limit_us
                        && ratio(stats.completed_in_phase, stats.sent) >= PROBE_MIN_ACHIEVED
                        && stats.fail_ratio() <= PROBE_MAX_FAIL;
                    probes.push((rate, passed, stats));
                    passed
                }
                Err(e) => {
                    probe_error.get_or_insert(io(e));
                    false
                }
            }
        });
    }
    let counters = Counters::read().since(&counters_before);
    let max_rps = probe.then(|| {
        probes
            .iter()
            .filter(|(_, passed, _)| *passed)
            .map(|(_, _, stats)| stats.achieved_rps())
            .fold(rates.probe_lo, f64::max)
    });
    stop_reloads.store(true, Ordering::Release);
    let outcomes = gen.outcomes().to_vec();
    let client_spans = gen.spans().to_vec();
    drop(gen);
    let reloads = reloader
        .map(|h| h.join().map_err(|_| "reloader panicked".to_string()))
        .transpose()?
        .unwrap_or_default();
    stop(server)?;
    if let Some(e) = probe_error {
        return Err(e);
    }
    resample(&mut cs1, &mut cs3);

    let hub = ModelHub::load(&model_paths, false).map_err(|e| format!("reference models: {e}"))?;
    let verdict = verify::check(s.workload, s.seed, &outcomes, &hub);
    resample(&mut cs1, &mut cs3);
    for _ in 0..SETUP_BINDS[1] {
        let (running, span) = start(&config)?;
        setups.push(span);
        stop(running)?;
    }
    Ok(Pass {
        began,
        cs1,
        cs3,
        sim_evals,
        setups,
        warm,
        low,
        high,
        probes,
        max_rps,
        counters,
        reloads,
        verdict,
        client_spans,
        epoch,
        replayable,
        model_paths,
    })
}
