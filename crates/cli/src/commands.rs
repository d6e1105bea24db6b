//! Subcommand implementations.

use airchitect::checkpoint::CheckpointError;
use airchitect::model::{AirchitectConfig, AirchitectModel, CaseStudy};
use airchitect::persist::PersistError;
use airchitect::pipeline::{self, CheckpointConfig, PipelineError};
use airchitect::{persist, Recommender};
use airchitect_data::{codec, DataError};
use airchitect_dse::case1::{Case1DatasetSpec, Case1Problem};
use airchitect_dse::case2::{Case2DatasetSpec, Case2Problem, Case2Query};
use airchitect_dse::case3::{Case3DatasetSpec, Case3Problem};
use airchitect_dse::parallel::{self, ParallelError, Step};
use airchitect_dse::search_algos::SearchStrategy;
use airchitect_dse::space::{Case1Space, Case2Space, Case3Space};
use airchitect_nn::optim::Optimizer;
use airchitect_nn::train::TrainConfig;
use airchitect_online as online;
use airchitect_sim::functional::{FunctionalArray, SimMatrix};
use airchitect_sim::memory::BufferConfig;
use airchitect_sim::{report, ArrayConfig, Dataflow};
use airchitect_workload::GemmWorkload;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::args::{parse_workloads, Args};
use crate::CliError;

fn run_err(e: impl std::fmt::Display) -> CliError {
    CliError::Run(e.to_string())
}

/// Shared `--trace` / `--metrics-out FILE` handling.
///
/// [`telemetry_begin`] arms the recorder (and opens the JSONL sink) before
/// a command's work; [`Telemetry::finish`] always tears it down afterwards
/// — even when the command failed — so a traced error in one invocation
/// cannot leak recording state into the next (the CLI tests run many
/// commands in one process).
pub(crate) struct Telemetry {
    command: &'static str,
    trace: bool,
    active: bool,
    out: Option<String>,
}

pub(crate) fn telemetry_begin(args: &Args, command: &'static str) -> Result<Telemetry, CliError> {
    let trace = args.flag("trace");
    let out = args.optional("metrics-out").map(str::to_string);
    let active = trace || out.is_some();
    if active {
        airchitect_telemetry::reset();
        airchitect_telemetry::enable();
    }
    if let Some(path) = &out {
        airchitect_telemetry::sink::open(std::path::Path::new(path), command).map_err(|e| {
            CliError::Io {
                path: path.clone(),
                message: e.to_string(),
            }
        })?;
    }
    Ok(Telemetry {
        command,
        trace,
        active,
        out,
    })
}

impl Telemetry {
    /// Disables recording, prints the `--trace` summary, and closes the
    /// sink (flushing whatever was recorded even on failure). The
    /// command's own error, if any, takes precedence over sink I/O errors.
    pub(crate) fn finish(self, result: Result<(), CliError>) -> Result<(), CliError> {
        if !self.active {
            return result;
        }
        if result.is_ok() && self.trace {
            print!("{}", self.live_report().render());
        }
        let closed = airchitect_telemetry::sink::close();
        airchitect_telemetry::disable();
        match (result, closed) {
            (Err(e), _) => Err(e),
            (Ok(()), Err(e)) => Err(CliError::Io {
                path: self.out.unwrap_or_default(),
                message: e.to_string(),
            }),
            (Ok(()), Ok(Some(path))) => {
                println!("telemetry written to {}", path.display());
                Ok(())
            }
            (Ok(()), Ok(None)) => Ok(()),
        }
    }

    /// The in-memory state rendered like a parsed file (events are only
    /// counted by the sink, so that section is empty here).
    fn live_report(&self) -> airchitect_telemetry::report::Report {
        let snap = airchitect_telemetry::metrics::snapshot();
        airchitect_telemetry::report::Report {
            command: self.command.to_string(),
            schema_version: airchitect_telemetry::SCHEMA_VERSION,
            spans: airchitect_telemetry::span::aggregates()
                .into_iter()
                .map(|(name, agg)| (name.to_string(), agg))
                .collect(),
            events: Vec::new(),
            counters: snap.counters,
            gauges: snap.gauges,
            histograms: snap.histograms,
            shadow_records: 0,
            shadow_disagreements: 0,
        }
    }
}

/// Maps a dataset-codec error for `path` onto the exit-code taxonomy:
/// unreadable file → [`CliError::Io`], damaged contents →
/// [`CliError::Corrupt`].
fn data_err(path: &str) -> impl Fn(DataError) -> CliError + '_ {
    move |e| match e {
        DataError::Io(message) => CliError::Io {
            path: path.to_string(),
            message,
        },
        DataError::Corrupt { .. } | DataError::ChecksumMismatch { .. } => CliError::Corrupt {
            path: path.to_string(),
            message: e.to_string(),
        },
        other => CliError::Run(other.to_string()),
    }
}

/// Maps a model-codec error for `path` onto the exit-code taxonomy.
fn persist_err(path: &str) -> impl Fn(PersistError) -> CliError + '_ {
    move |e| match e {
        PersistError::Io(message) => CliError::Io {
            path: path.to_string(),
            message,
        },
        PersistError::Corrupt(_)
        | PersistError::ChecksumMismatch { .. }
        | PersistError::Network(_) => CliError::Corrupt {
            path: path.to_string(),
            message: e.to_string(),
        },
    }
}

/// Maps a checkpointed-pipeline error onto the exit-code taxonomy, naming
/// the checkpoint directory as the offending path.
fn pipeline_err(dir: &str) -> impl Fn(PipelineError) -> CliError + '_ {
    move |e| match e {
        PipelineError::Config(what) => CliError::Usage(what.to_string()),
        PipelineError::Checkpoint(CheckpointError::Io(message)) => CliError::Io {
            path: dir.to_string(),
            message,
        },
        PipelineError::Checkpoint(
            ce @ (CheckpointError::Corrupt(_) | CheckpointError::ChecksumMismatch { .. }),
        ) => CliError::Corrupt {
            path: dir.to_string(),
            message: ce.to_string(),
        },
        PipelineError::Generation(ParallelError::Data(de)) => data_err(dir)(de),
        other => CliError::Run(other.to_string()),
    }
}

/// Resolves the `--checkpoint-dir DIR` / `--resume DIR` pair shared by
/// `generate` and `train`: at most one may be given; `--resume` implies
/// resuming from (and continuing to checkpoint into) its directory.
fn checkpoint_args(args: &Args) -> Result<Option<(String, bool)>, CliError> {
    match (args.optional("checkpoint-dir"), args.optional("resume")) {
        (Some(_), Some(_)) => Err(CliError::Usage(
            "pass either `--checkpoint-dir` or `--resume`, not both".into(),
        )),
        (Some(dir), None) => Ok(Some((dir.to_string(), false))),
        (None, Some(dir)) => Ok(Some((dir.to_string(), true))),
        (None, None) => Ok(None),
    }
}

fn parse_dataflow(args: &Args) -> Result<Dataflow, CliError> {
    match args.optional("dataflow") {
        None => Ok(Dataflow::Os),
        Some(s) => s.parse::<Dataflow>().map_err(run_err),
    }
}

/// The GEMM of `--m --n --k`.
fn parse_gemm(args: &Args) -> Result<GemmWorkload, CliError> {
    let dim = |key| args.required_u64(key);
    GemmWorkload::new(dim("m")?, dim("n")?, dim("k")?).map_err(run_err)
}

/// The CS2 query of `--m --n --k --rows --cols` and the optional
/// `--dataflow`, `--bandwidth` and `--limit-kb`.
fn parse_case2_query(args: &Args) -> Result<Case2Query, CliError> {
    Ok(Case2Query {
        workload: parse_gemm(args)?,
        array: ArrayConfig::new(args.required_u64("rows")?, args.required_u64("cols")?)
            .map_err(run_err)?,
        dataflow: parse_dataflow(args)?,
        bandwidth: args.u64_or("bandwidth", 16)?,
        limit_kb: args.u64_or("limit-kb", 1500)?,
    })
}

/// The four CS3 workloads of `--workloads M,N,K;...`.
fn parse_case3_workloads(args: &Args) -> Result<Vec<GemmWorkload>, CliError> {
    let triples = parse_workloads(args.required("workloads")?)?;
    if triples.len() != 4 {
        return Err(CliError::Usage("case 3 needs exactly 4 workloads".into()));
    }
    triples
        .iter()
        .map(|&(m, n, k)| GemmWorkload::new(m, n, k).map_err(run_err))
        .collect()
}

fn parse_case(args: &Args) -> Result<CaseStudy, CliError> {
    match args.required("case")? {
        "1" => Ok(CaseStudy::ArrayDataflow),
        "2" => Ok(CaseStudy::BufferSizing),
        "3" => Ok(CaseStudy::MultiArrayScheduling),
        other => Err(CliError::Usage(format!(
            "`--case` must be 1, 2, or 3 (got `{other}`)"
        ))),
    }
}

/// `airchitect simulate` — analytical model, optional functional verify.
pub fn simulate(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv)?;
    args.expect_only(&[
        "m",
        "n",
        "k",
        "rows",
        "cols",
        "dataflow",
        "ifmap-kb",
        "filter-kb",
        "ofmap-kb",
        "bandwidth",
        "verify",
        "trace",
    ])?;
    let wl = parse_gemm(&args)?;
    let array = ArrayConfig::new(args.required_u64("rows")?, args.required_u64("cols")?)
        .map_err(run_err)?;
    let dataflow = parse_dataflow(&args)?;
    let buffers = BufferConfig::from_kb(
        args.u64_or("ifmap-kb", 256)?,
        args.u64_or("filter-kb", 256)?,
        args.u64_or("ofmap-kb", 128)?,
    )
    .map_err(run_err)?;
    let bandwidth = args.u64_or("bandwidth", 16)?;

    let r = report::simulate(&wl, array, dataflow, buffers, bandwidth).map_err(run_err)?;
    println!("{wl} on {array} ({dataflow}), {bandwidth} B/cycle");
    println!("  compute cycles : {}", r.compute_cycles);
    println!("  stall cycles   : {}", r.stall_cycles);
    println!("  total cycles   : {}", r.total_cycles);
    println!("  utilization    : {:.4}", r.utilization);
    println!(
        "  DRAM traffic   : ifmap {} B, filter {} B, ofmap {} B",
        r.traffic.ifmap, r.traffic.filter, r.traffic.ofmap
    );
    println!("  energy         : {:.3e} units", r.energy);

    if args.flag("trace") {
        let t = airchitect_sim::trace::trace(&wl, array, dataflow);
        println!(
            "  trace          : {} phases, peak bandwidth demand {:.2} B/cycle",
            t.phases().len(),
            t.peak_bandwidth()
        );
        println!(
            "    {:>5} {:>7} {:>8} {:>10} {:>10} {:>10}",
            "fold", "phase", "cycles", "ifmap B", "filter B", "ofmap B"
        );
        for p in t.phases().iter().take(12) {
            println!(
                "    {:>5} {:>7} {:>8} {:>10} {:>10} {:>10}",
                p.fold,
                p.kind.to_string(),
                p.cycles,
                p.ifmap_bytes,
                p.filter_bytes,
                p.ofmap_bytes
            );
        }
        if t.phases().len() > 12 {
            println!("    ... ({} more phases)", t.phases().len() - 12);
        }
    }

    if args.flag("verify") {
        let (m, n, k) = (wl.m() as usize, wl.n() as usize, wl.k() as usize);
        if m * k + k * n > 4_000_000 {
            return Err(CliError::Run(
                "--verify is for small GEMMs (operands over 4M elements)".into(),
            ));
        }
        let mut rng = StdRng::seed_from_u64(0);
        let mut fill = |rows: usize, cols: usize| {
            SimMatrix::from_vec(
                rows,
                cols,
                (0..rows * cols)
                    .map(|_| (rng.random_range(-8i32..=8)) as f32)
                    .collect(),
            )
        };
        let a = fill(m, k);
        let b = fill(k, n);
        let result = FunctionalArray::new(array)
            .execute(&wl, &a, &b, dataflow)
            .map_err(run_err)?;
        let ok_product = result.output == a.matmul_reference(&b);
        let ok_cycles = result.cycles == r.compute_cycles;
        println!(
            "  verify         : product {}  cycles {} ({} functional vs {} analytical)",
            if ok_product { "OK" } else { "MISMATCH" },
            if ok_cycles { "OK" } else { "MISMATCH" },
            result.cycles,
            r.compute_cycles
        );
        if !(ok_product && ok_cycles) {
            return Err(CliError::Run("functional verification failed".into()));
        }
    }
    Ok(())
}

/// `airchitect search` — the conventional exhaustive flow.
pub fn search(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv)?;
    match args.required("case")? {
        "1" => {
            args.expect_only(&["case", "m", "n", "k", "budget-log2", "method"])?;
            let wl = parse_gemm(&args)?;
            let budget_log2 = args.budget_log2(18, 2)?;
            let problem = Case1Problem::new(1u64 << budget_log2);
            let t0 = std::time::Instant::now();
            let r = match args.optional("method").unwrap_or("exhaustive") {
                "exhaustive" => problem.search(&wl, 1u64 << budget_log2),
                "random" => airchitect_dse::search_algos::RandomSearch {
                    evaluations: 30,
                    seed: 0,
                }
                .search(&problem, &wl, 1u64 << budget_log2),
                "hill-climb" => airchitect_dse::search_algos::HillClimb {
                    restarts: 3,
                    seed: 0,
                }
                .search(&problem, &wl, 1u64 << budget_log2),
                "genetic" => airchitect_dse::search_algos::GeneticSearch::default().search(
                    &problem,
                    &wl,
                    1u64 << budget_log2,
                ),
                other => {
                    return Err(CliError::Usage(format!(
                        "unknown method `{other}` (exhaustive|random|hill-climb|genetic)"
                    )))
                }
            };
            let (array, df) = problem.space().decode(r.label).expect("label in space");
            println!("{wl}, budget 2^{budget_log2} MACs");
            println!(
                "  result: {array} with {df} — {} cycles (label {}, {} evals in {:?})",
                r.cost,
                r.label,
                r.evaluations,
                t0.elapsed()
            );
        }
        "2" => {
            args.expect_only(&[
                "case",
                "m",
                "n",
                "k",
                "rows",
                "cols",
                "dataflow",
                "bandwidth",
                "limit-kb",
            ])?;
            let query = parse_case2_query(&args)?;
            let problem = Case2Problem::new();
            let r = problem.search(&query);
            let (i, f, o) = problem.space().decode(r.label).expect("label in space");
            println!(
                "optimum buffers: IFMAP {i} KB, Filter {f} KB, OFMAP {o} KB — {} stall cycles (label {})",
                r.cost, r.label
            );
        }
        "3" => {
            args.expect_only(&["case", "workloads"])?;
            let workloads = parse_case3_workloads(&args)?;
            let problem = Case3Problem::new();
            let r = problem.search(&workloads);
            let (perm, dfs) = problem.space().decode(r.label).expect("label in space");
            println!(
                "optimum schedule (label {}): makespan {} cycles",
                r.label, r.cost
            );
            for (array_idx, (wl_idx, df)) in perm.iter().zip(&dfs).enumerate() {
                println!(
                    "  array {array_idx} ({}) <- workload {wl_idx} {} with {df}",
                    problem.system().instances()[array_idx].config,
                    workloads[*wl_idx]
                );
            }
        }
        other => {
            return Err(CliError::Usage(format!(
                "`--case` must be 1, 2, or 3 (got `{other}`)"
            )))
        }
    }
    Ok(())
}

/// `airchitect spaces` — inspect the output spaces.
pub fn spaces(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv)?;
    args.expect_only(&["budget-log2"])?;
    let budget_log2 = args.budget_log2(18, 2)?;
    let s1 = Case1Space::new(1u64 << budget_log2);
    let s2 = Case2Space::paper();
    let s3 = Case3Space::paper();
    println!("case 1 (budget 2^{budget_log2}): {} labels", s1.len());
    println!("case 2 (buffers 100..1000 KB):   {} labels", s2.len());
    println!("case 3 (4 arrays):               {} labels", s3.len());
    Ok(())
}

/// `airchitect generate` — labeled dataset to a `.aids` file.
pub fn generate(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv)?;
    args.expect_only(&[
        "case",
        "samples",
        "out",
        "seed",
        "budget-log2",
        "threads",
        "checkpoint-dir",
        "resume",
        "trace",
        "metrics-out",
    ])?;
    let tele = telemetry_begin(&args, "generate")?;
    tele.finish(generate_inner(&args))
}

fn generate_inner(args: &Args) -> Result<(), CliError> {
    let case = parse_case(args)?;
    let samples = args.required_u64("samples")? as usize;
    let out = args.required("out")?;
    let seed = args.u64_or("seed", 0)?;
    let threads = args.threads(1)?;
    // `--checkpoint-dir` and `--resume` differ only in intent: checkpointed
    // generation always reuses intact shards (the spec manifest catches
    // directory misuse).
    let dir = checkpoint_args(args)?.map(|(dir, _)| dir);
    let t0 = std::time::Instant::now();
    let mut datagen_span = airchitect_telemetry::span::Span::enter("pipeline.datagen");
    datagen_span.field_u64("samples", samples as u64);
    let run_step = |step: &dyn Step| {
        let checkpoint = dir.as_deref().map(std::path::Path::new);
        parallel::generate(step, samples, seed, threads, checkpoint)
    };
    let run = match case {
        CaseStudy::ArrayDataflow => {
            datagen_span.field_str("case", "cs1");
            let budget_log2 = args.budget_log2(15, 5)?;
            let spec = Case1DatasetSpec {
                samples,
                budget_log2_range: (5, budget_log2),
                seed,
            };
            run_step(&(&Case1Problem::new(1u64 << budget_log2), &spec))
        }
        CaseStudy::BufferSizing => {
            datagen_span.field_str("case", "cs2");
            let spec = Case2DatasetSpec {
                samples,
                seed,
                ..Default::default()
            };
            run_step(&(&Case2Problem::new(), &spec))
        }
        CaseStudy::MultiArrayScheduling => {
            datagen_span.field_str("case", "cs3");
            run_step(&(&Case3Problem::new(), &Case3DatasetSpec { samples, seed }))
        }
    }
    .map_err(|e| match e {
        ParallelError::Data(de) => data_err(dir.as_deref().unwrap_or(out))(de),
        other => run_err(other),
    })?;
    drop(datagen_span);
    let ds = &run.dataset;
    codec::save(ds, out).map_err(data_err(out))?;
    let resumed_shards = run.shards.iter().filter(|s| s.resumed).count();
    if resumed_shards > 0 {
        println!("resumed: reused {resumed_shards} checkpointed shard(s)");
    }
    println!(
        "wrote {} samples ({} classes, {} features) to {out} in {:?}",
        ds.len(),
        ds.num_classes(),
        ds.feature_dim(),
        t0.elapsed()
    );
    Ok(())
}

/// `airchitect train` — fit a model on a `.aids` dataset, or (with
/// `--quick`) run a self-contained CS1 smoke pipeline.
pub fn train(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv)?;
    args.expect_only(&[
        "case",
        "data",
        "out",
        "epochs",
        "batch",
        "seed",
        "threads",
        "checkpoint-dir",
        "resume",
        "every-epochs",
        "quick",
        "samples",
        "trace",
        "metrics-out",
        "from-log",
        "model",
        "model-dir",
        "lr",
    ])?;
    let tele = telemetry_begin(&args, "train")?;
    let result = if args.optional("from-log").is_some() {
        train_from_log(&args)
    } else if args.flag("quick") {
        train_quick(&args)
    } else {
        train_inner(&args)
    };
    tele.finish(result)
}

/// `train --from-log`: replay a shadow-oracle misprediction log and
/// fine-tune the current checkpoint on the disagreements, continuing from
/// its existing weights with a reduced learning rate. The checksummed
/// output artifact is what an operator (or the online soak) pushes through
/// `POST /v1/reload`.
fn train_from_log(args: &Args) -> Result<(), CliError> {
    for forbidden in ["case", "data", "quick", "samples", "checkpoint-dir", "resume"] {
        if args.optional(forbidden).is_some() || args.flag(forbidden) {
            return Err(CliError::Usage(format!(
                "`--from-log` fine-tunes an existing model; drop `--{forbidden}`"
            )));
        }
    }
    let dir = args.required("from-log")?;
    let model_path = args.required("model")?;
    let out = args.optional("out");
    let model_dir = args.optional("model-dir");
    match (out, model_dir) {
        (None, None) => {
            return Err(CliError::Usage(
                "`--from-log` needs `--out <path>` or `--model-dir <registry>`".into(),
            ))
        }
        (Some(_), Some(_)) => {
            return Err(CliError::Usage(
                "`--out` and `--model-dir` are exclusive; the registry names its own artifacts"
                    .into(),
            ))
        }
        _ => {}
    }
    let threads = args.threads(1)?;
    let lr = match args.optional("lr") {
        None => 1e-4f32,
        Some(raw) => {
            let lr: f32 = raw
                .parse()
                .ok()
                .filter(|lr: &f32| lr.is_finite() && *lr > 0.0)
                .ok_or_else(|| {
                    CliError::Usage(format!(
                        "`--lr` must be a positive learning rate (got `{raw}`)"
                    ))
                })?;
            lr
        }
    };
    let opts = online::FineTuneOptions {
        epochs: args.u64_or("epochs", 4)? as usize,
        lr,
        batch_size: args.u64_or("batch", 64)? as usize,
        threads,
        seed: args.u64_or("seed", 0)?,
    };
    if opts.epochs == 0 {
        return Err(CliError::Usage("`--epochs` must be at least 1".into()));
    }

    let mut model = persist::load(model_path).map_err(persist_err(model_path))?;
    let scan = online::read_dir(std::path::Path::new(dir)).map_err(|e| CliError::Io {
        path: dir.to_string(),
        message: format!("read misprediction log: {e}"),
    })?;
    println!(
        "misprediction log: {} record(s) across {} segment(s) ({} torn, {} skipped line(s))",
        scan.records.len(),
        scan.segments,
        scan.torn_segments,
        scan.skipped_lines
    );
    let t0 = std::time::Instant::now();
    let outcome = online::fine_tune(&mut model, &scan.records, &opts).map_err(run_err)?;
    println!(
        "replayed {} record(s) for {}: {} disagreement(s), {} row(s) trained \
         (skipped: {} cross-version, {} other-case, {} out-of-space)",
        outcome.records_seen,
        model.case_study().name(),
        outcome.disagreements,
        outcome.used_rows,
        outcome.skipped_cross_version,
        outcome.skipped_other_case,
        outcome.skipped_out_of_space,
    );
    match &outcome.report {
        Some(report) => {
            for e in &report.history.epochs {
                println!(
                    "epoch {:>3}: loss {:.4}  accuracy {:.4}",
                    e.epoch, e.train_loss, e.train_accuracy
                );
            }
            let written = emit_artifact(&model, out, model_dir)?;
            println!(
                "fine-tuned against model version {} in {:?}; model written to {written}",
                outcome.target_version,
                t0.elapsed()
            );
        }
        None => {
            // Nothing to learn from — still emit the artifact so callers
            // can reload unconditionally.
            let written = emit_artifact(&model, out, model_dir)?;
            println!("no usable disagreements; model copied unchanged to {written}");
        }
    }
    Ok(())
}

/// Writes the fine-tuned artifact either to a plain `--out` path or into
/// the `--model-dir` registry as a new staged version. Registration
/// refuses any artifact whose fingerprint matches a quarantined
/// (rolled-back) version — re-emitting known-bad weights must not re-enter
/// the rollout pipeline.
fn emit_artifact(
    model: &AirchitectModel,
    out: Option<&str>,
    model_dir: Option<&str>,
) -> Result<String, CliError> {
    use airchitect_serve::registry::{Registry, RegistryError, DEFAULT_RETAIN};
    if let Some(out) = out {
        persist::save(model, out).map_err(persist_err(out))?;
        return Ok(out.to_string());
    }
    let dir = model_dir.expect("caller validated out|model-dir");
    let bytes = persist::to_bytes(model);
    let mut reg = Registry::open(dir, DEFAULT_RETAIN)
        .map_err(|e| CliError::Run(format!("--model-dir {dir}: {e}")))?;
    match reg.add_version(&bytes) {
        Ok(version) => Ok(format!(
            "{} (staged version {version}; promote via POST /v1/reload)",
            reg.version_path(version).display()
        )),
        Err(RegistryError::Quarantined {
            version,
            fingerprint,
        }) => Err(CliError::Run(format!(
            "artifact fingerprint 0x{fingerprint:08x} matches quarantined version {version}; \
             refusing to re-register rolled-back weights"
        ))),
        Err(e) => Err(CliError::Run(format!("register artifact in {dir}: {e}"))),
    }
}

/// `train --quick`: generate → checkpointed train → evaluate, a small CS1
/// pipeline sized for seconds. No dataset file is needed, and a traced run
/// exercises every span kind (datagen, epochs, checkpoint saves, eval).
fn train_quick(args: &Args) -> Result<(), CliError> {
    let threads = args.threads(1)?;
    if args.optional("data").is_some() {
        return Err(CliError::Usage(
            "`--quick` generates its own data; drop `--data`".into(),
        ));
    }
    let config = pipeline::PipelineConfig {
        samples: args.u64_or("samples", 600)? as usize,
        epochs: args.u64_or("epochs", 6)? as usize,
        batch_size: args.u64_or("batch", 64)? as usize,
        seed: args.u64_or("seed", 7)?,
        stratify: false,
        threads,
    };
    let checkpoint = checkpoint_args(args)?;
    let (dir, resume, ephemeral) = match &checkpoint {
        Some((dir, resume)) => (std::path::PathBuf::from(dir), *resume, false),
        None => (
            std::env::temp_dir().join(format!("airchitect-quick-{}", std::process::id())),
            false,
            true,
        ),
    };
    let ckpt = CheckpointConfig {
        every_epochs: args.u64_or("every-epochs", 1)? as usize,
        ..CheckpointConfig::new(&dir)
    };
    let t0 = std::time::Instant::now();
    let run = pipeline::run_case1_checkpointed(&config, (5, 9), &ckpt, resume)
        .map_err(pipeline_err(&dir.display().to_string()))?;
    if ephemeral {
        let _ = std::fs::remove_dir_all(&dir);
    }
    for e in &run.report.history.epochs {
        println!(
            "epoch {:>3}: loss {:.4}  accuracy {:.4}",
            e.epoch, e.train_loss, e.train_accuracy
        );
    }
    println!(
        "quick cs1 pipeline: {} samples, test accuracy {:.4}, penalty geomean {:.4} ({:?})",
        config.samples,
        run.test_accuracy,
        run.penalty.geomean,
        t0.elapsed()
    );
    if let Some(out) = args.optional("out") {
        persist::save(&run.model, out).map_err(persist_err(out))?;
        println!("model written to {out}");
    }
    Ok(())
}

fn train_inner(args: &Args) -> Result<(), CliError> {
    if args.optional("samples").is_some() {
        return Err(CliError::Usage("`--samples` needs `--quick`".into()));
    }
    let case = parse_case(args)?;
    let threads = args.threads(1)?;
    let data_path = args.required("data")?;
    let ds = codec::load(data_path).map_err(data_err(data_path))?;
    if ds.feature_dim() != case.input_dim() {
        return Err(CliError::Run(format!(
            "dataset has {} features but {} expects {}",
            ds.feature_dim(),
            case.name(),
            case.input_dim()
        )));
    }
    let checkpoint = checkpoint_args(args)?;
    let every_epochs = args.u64_or("every-epochs", 1)? as usize;
    if every_epochs == 0 {
        return Err(CliError::Usage(
            "`--every-epochs` must be at least 1".into(),
        ));
    }
    if args.optional("every-epochs").is_some() && checkpoint.is_none() {
        return Err(CliError::Usage(
            "`--every-epochs` needs `--checkpoint-dir` or `--resume`".into(),
        ));
    }
    let config = AirchitectConfig {
        num_classes: ds.num_classes(),
        train: TrainConfig {
            epochs: args.u64_or("epochs", 15)? as usize,
            batch_size: args.u64_or("batch", 256)? as usize,
            optimizer: Optimizer::adam(1e-3),
            seed: args.u64_or("seed", 0)?,
            lr_decay: 1.0,
            threads,
        },
        seed: args.u64_or("seed", 0)?,
        ..Default::default()
    };
    let fresh = AirchitectModel::new(case, &config);
    let t0 = std::time::Instant::now();
    let (model, report) = match &checkpoint {
        Some((dir, resume)) => {
            let ckpt = CheckpointConfig {
                every_epochs,
                ..CheckpointConfig::new(dir.as_str())
            };
            let (model, report) = pipeline::train_checkpointed(fresh, &ds, None, &ckpt, *resume)
                .map_err(pipeline_err(dir))?;
            if report.history.epochs.len() < config.train.epochs {
                println!(
                    "resumed: {} epoch(s) restored from {dir}, {} to go",
                    config.train.epochs - report.history.epochs.len(),
                    report.history.epochs.len()
                );
            }
            (model, report)
        }
        None => {
            let mut model = fresh;
            let report = model.train(&ds).map_err(run_err)?;
            (model, report)
        }
    };
    for e in &report.history.epochs {
        println!(
            "epoch {:>3}: loss {:.4}  accuracy {:.4}",
            e.epoch, e.train_loss, e.train_accuracy
        );
    }
    let out = args.required("out")?;
    persist::save(&model, out).map_err(persist_err(out))?;
    match report.history.epochs.last() {
        Some(last) => println!(
            "trained in {:?}, final accuracy {:.4}; model written to {out}",
            t0.elapsed(),
            last.train_accuracy
        ),
        // A resume that found the run already complete trains no epochs.
        None => println!("nothing left to train; checkpointed model written to {out}"),
    }
    Ok(())
}

/// `airchitect evaluate` — score a trained model against a labeled dataset.
pub fn evaluate(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv)?;
    args.expect_only(&[
        "model",
        "data",
        "penalty",
        "calibration",
        "threads",
        "trace",
        "metrics-out",
    ])?;
    let tele = telemetry_begin(&args, "evaluate")?;
    tele.finish(evaluate_inner(&args))
}

fn evaluate_inner(args: &Args) -> Result<(), CliError> {
    let threads = args.threads(1)?;
    airchitect_tensor::gemm::set_num_threads(threads);
    let model_path = args.required("model")?;
    let model = persist::load(model_path).map_err(persist_err(model_path))?;
    let data_path = args.required("data")?;
    let ds = codec::load(data_path).map_err(data_err(data_path))?;
    if ds.feature_dim() != model.case_study().input_dim() {
        return Err(CliError::Run(format!(
            "dataset has {} features but the model expects {}",
            ds.feature_dim(),
            model.case_study().input_dim()
        )));
    }
    let t0 = std::time::Instant::now();
    let mut eval_span = airchitect_telemetry::span::Span::enter("pipeline.eval");
    eval_span.field_u64("test_rows", ds.len() as u64);
    let predictions = model.predict(&ds);
    let accuracy = airchitect_nn::metrics::accuracy(&predictions, ds.labels());
    eval_span.field_f64("test_accuracy", accuracy);
    drop(eval_span);
    println!(
        "{}: accuracy {:.4} over {} rows ({:.1} us/inference)",
        model.case_study().name(),
        accuracy,
        ds.len(),
        t0.elapsed().as_secs_f64() * 1e6 / ds.len().max(1) as f64
    );
    if args.flag("calibration") {
        let bins = airchitect::eval::calibration(&model, &ds, 10);
        let ece = airchitect::eval::expected_calibration_error(&bins);
        println!("calibration (ECE {ece:.4}):");
        println!(
            "  {:>12} {:>10} {:>10} {:>8}",
            "confidence", "mean conf", "accuracy", "count"
        );
        for b in bins.iter().filter(|b| b.count > 0) {
            println!(
                "  [{:.1}, {:.1}) {:>10.3} {:>10.3} {:>8}",
                b.lo, b.hi, b.mean_confidence, b.accuracy, b.count
            );
        }
    }
    if args.flag("penalty") {
        let penalty = match model.case_study() {
            CaseStudy::ArrayDataflow => {
                let space = airchitect_dse::space::Case1Space::from_len(model.network().out_dim())
                    .ok_or_else(|| CliError::Run("class count matches no CS1 space".into()))?;
                let problem = Case1Problem::new(space.mac_budget());
                airchitect::eval::case1_penalty(&problem, &ds, &predictions)
            }
            CaseStudy::BufferSizing => {
                airchitect::eval::case2_penalty(&Case2Problem::new(), &ds, &predictions)
            }
            CaseStudy::MultiArrayScheduling => {
                airchitect::eval::case3_penalty(&Case3Problem::new(), &ds, &predictions)
            }
        };
        println!(
            "penalty: geomean performance {:.4}, catastrophic (<20%) {:.4}",
            penalty.geomean, penalty.catastrophic_fraction
        );
    }
    Ok(())
}

/// `airchitect report` — validate and pretty-print a telemetry JSONL file
/// produced by `--metrics-out`.
///
/// Accepts the file as a positional argument (`report run.jsonl`) or via
/// `--in run.jsonl`.
pub fn report_file(argv: &[String]) -> Result<(), CliError> {
    let path = match argv.split_first() {
        Some((first, rest)) if !first.starts_with("--") => {
            if !rest.is_empty() {
                return Err(CliError::Usage(
                    "`report` takes exactly one telemetry file".into(),
                ));
            }
            first.clone()
        }
        _ => {
            let args = Args::parse(argv)?;
            args.expect_only(&["in"])?;
            args.required("in")?.to_string()
        }
    };
    let text = std::fs::read_to_string(&path).map_err(|e| CliError::Io {
        path: path.clone(),
        message: e.to_string(),
    })?;
    let report =
        airchitect_telemetry::report::parse_report(&text).map_err(|message| CliError::Corrupt {
            path: path.clone(),
            message,
        })?;
    print!("{}", report.render());
    Ok(())
}

/// `airchitect recommend` — constant-time query against a trained model.
pub fn recommend(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv)?;
    let model_path = args.required("model")?;
    let model = persist::load(model_path).map_err(persist_err(model_path))?;
    let case = model.case_study();
    let recommender = Recommender::new(model).map_err(run_err)?;
    match case {
        CaseStudy::ArrayDataflow => {
            args.expect_only(&["model", "m", "n", "k", "budget-log2"])?;
            let wl = parse_gemm(&args)?;
            let budget_log2 = args.budget_log2(15, 2)?;
            // Labels are only meaningful in the training-time space; rebuild
            // it from the model's class count.
            let classes = recommender.model().network().out_dim();
            let space = airchitect_dse::space::Case1Space::from_len(classes).ok_or_else(|| {
                CliError::Run(format!(
                    "model has {classes} classes, which matches no CS1 output space"
                ))
            })?;
            let problem = Case1Problem::new(space.mac_budget());
            let t0 = std::time::Instant::now();
            let (array, df) = recommender
                .recommend_array(&problem, &wl, 1u64 << budget_log2)
                .map_err(run_err)?;
            println!(
                "recommended: {array} with {df} (inference {:?})",
                t0.elapsed()
            );
        }
        CaseStudy::BufferSizing => {
            args.expect_only(&[
                "model",
                "m",
                "n",
                "k",
                "rows",
                "cols",
                "dataflow",
                "bandwidth",
                "limit-kb",
            ])?;
            let query = parse_case2_query(&args)?;
            let problem = Case2Problem::new();
            let (i, f, o) = recommender
                .recommend_buffers(&problem, &query)
                .map_err(run_err)?;
            println!("recommended buffers: IFMAP {i} KB, Filter {f} KB, OFMAP {o} KB");
        }
        CaseStudy::MultiArrayScheduling => {
            args.expect_only(&["model", "workloads"])?;
            let workloads = parse_case3_workloads(&args)?;
            let problem = Case3Problem::new();
            let schedule = recommender
                .recommend_schedule(&problem, &workloads)
                .map_err(run_err)?;
            let cost = problem
                .system()
                .evaluate(&workloads, &schedule)
                .map_err(run_err)?;
            println!("recommended schedule (makespan {} cycles):", cost.makespan);
            for (array_idx, asn) in schedule.assignments.iter().enumerate() {
                println!(
                    "  array {array_idx} <- workload {} with {}",
                    asn.workload, asn.dataflow
                );
            }
        }
    }
    Ok(())
}
