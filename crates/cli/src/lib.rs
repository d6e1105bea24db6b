//! Implementation of the `airchitect` command-line tool.
//!
//! Subcommands (see `airchitect help`):
//!
//! * `simulate`  — run the analytical model for one configuration, with
//!   optional register-level verification,
//! * `search`    — exhaustive optimum for one query (the conventional flow),
//! * `spaces`    — inspect the quantized output spaces,
//! * `generate`  — produce a labeled dataset file (`.aids`),
//! * `train`     — train an AIrchitect model on a dataset (`.airm` output),
//! * `recommend` — constant-time recommendation from a trained model,
//! * `bench`     — the training-speedup and c10k suites (`BENCH_*.json`),
//! * `serve`     — batched, hot-reloadable HTTP inference server,
//! * `report`    — validate and pretty-print a telemetry JSONL file.
//!
//! `generate`, `train`, `evaluate`, and `bench` accept `--trace` (print a
//! span/metric summary on exit) and `--metrics-out FILE` (stream telemetry
//! to a versioned JSON-lines file).
//!
//! Argument parsing is hand-rolled (`--key value` pairs) to stay within the
//! approved dependency set.

#![warn(missing_docs)]

pub mod args;
pub mod bench;
pub mod commands;
pub mod serve;

use std::fmt;

/// Error produced by the CLI layer.
///
/// Each variant maps to a distinct process exit code (see
/// [`CliError::exit_code`]), so scripts can tell a typo from a missing
/// file from a corrupt artifact without parsing stderr.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Bad or missing command-line arguments (exit code 2).
    Usage(String),
    /// A file could not be read or written (exit code 3).
    Io {
        /// The offending file or directory.
        path: String,
        /// The underlying error.
        message: String,
    },
    /// An artifact file exists but is damaged: truncated, bit-flipped, or
    /// failing its checksum (exit code 4).
    Corrupt {
        /// The offending file.
        path: String,
        /// What the codec rejected.
        message: String,
    },
    /// Any other downstream failure, stringified with context (exit
    /// code 1).
    Run(String),
}

impl CliError {
    /// The process exit code for this error: usage 2, I/O 3, corrupt
    /// artifact 4, anything else 1.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Io { .. } => 3,
            CliError::Corrupt { .. } => 4,
            CliError::Run(_) => 1,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Io { path, message } => write!(f, "cannot access `{path}`: {message}"),
            CliError::Corrupt { path, message } => {
                write!(f, "corrupt artifact `{path}`: {message}")
            }
            CliError::Run(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Top-level dispatch: runs the subcommand named by `argv[0]`.
///
/// # Errors
///
/// Returns [`CliError`] for unknown commands, bad arguments, or downstream
/// failures.
pub fn run(argv: &[String]) -> Result<(), CliError> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err(CliError::Usage(HELP.trim_start().to_string()));
    };
    match cmd.as_str() {
        "simulate" => commands::simulate(rest),
        "search" => commands::search(rest),
        "spaces" => commands::spaces(rest),
        "generate" => commands::generate(rest),
        "train" => commands::train(rest),
        "recommend" => commands::recommend(rest),
        "evaluate" => commands::evaluate(rest),
        "report" => commands::report_file(rest),
        "bench" => bench::bench(rest),
        "serve" => serve::serve(rest),
        "help" | "--help" | "-h" => {
            println!("{}", HELP.trim_start());
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown command `{other}` (try `airchitect help`)"
        ))),
    }
}

/// The top-level help text.
pub const HELP: &str = r#"
airchitect — learned constant-time architecture & mapping optimization

USAGE:
  airchitect <command> [--key value ...]

COMMANDS:
  simulate   --m M --n N --k K --rows R --cols C [--dataflow OS|WS|IS]
             [--ifmap-kb X --filter-kb X --ofmap-kb X --bandwidth B] [--verify]
             Run the analytical model for one configuration. With --verify,
             also execute the GEMM on the register-level array and check both
             the product and the cycle count.

  search     --case 1 --m M --n N --k K [--budget-log2 B]
             --case 2 --m M --n N --k K --rows R --cols C
                      [--dataflow OS] [--bandwidth B] [--limit-kb L]
             --case 3 --workloads M,N,K;M,N,K;M,N,K;M,N,K
             Exhaustive search for the optimal configuration.

  spaces     [--budget-log2 B]
             Print the three quantized output spaces and their sizes.

  generate   --case 1|2|3 --samples N --out data.aids [--seed S] [--threads T]
             [--budget-log2 B] [--checkpoint-dir DIR | --resume DIR]
             Generate a labeled dataset with the conventional search flow, on
             T panic-isolated shards, one thread each (the bytes depend on
             the seed and T only). --checkpoint-dir persists finished shards;
             --resume DIR reuses the intact ones and regenerates the rest, to
             the same bytes. Case 1 samples budgets 2^5..=2^B (B <= 63).

  train      --case 1|2|3 --data data.aids --out model.airm
             [--epochs E] [--batch B] [--seed S] [--threads T]
             [--checkpoint-dir DIR | --resume DIR] [--every-epochs N]
             Train an AIrchitect model on a generated dataset. --threads runs
             the compute kernels on T threads; any value produces the same
             model, bit for bit. With --checkpoint-dir, the model + optimizer
             state is snapshotted every N epochs (default 1); --resume DIR
             continues a killed run bit-identically to an uninterrupted one.
             --quick instead runs a self-contained CS1 smoke pipeline
             (generate -> checkpointed train -> evaluate; --samples N sizes
             it, --data is not needed, --out is optional).
             --from-log DIR --model base.airm --out tuned.airm
             [--epochs E] [--batch B] [--lr LR] [--seed S] [--threads T]
             instead fine-tunes an existing model on a shadow-oracle
             misprediction log (see `serve --shadow-oracle`): replays the
             log, keeps disagreements scored against the newest model
             version, and continues training from the current weights with
             a reduced learning rate (default 1e-4) under the usual
             divergence guards. Push the output through POST /v1/reload.

  evaluate   --model model.airm --data data.aids [--penalty] [--calibration]
             [--threads T]
             Accuracy (and optionally the misprediction penalty) of a trained
             model on a labeled dataset.

  recommend  --model model.airm  plus the same query flags as `search`
             Constant-time recommendation from a trained model.

  bench      --suite train|c10k [--out-dir DIR] [--quick]
             [--threads T] [--samples N] [--epochs E]
             Suite `train` times CS1 training epochs on the packed engine
             against the naive reference loop (--threads, --samples and
             --epochs size it). Suite `c10k` (Linux only) holds thousands
             of keep-alive connections through the evented listener and
             gates on zero failed connects, zero starved connections and
             a core-scaled QPS floor; a `--features chaos` build also
             injects accept faults. Each writes BENCH_<suite>.json;
             --quick shrinks it for smoke runs. Serving latency and search
             throughput are measured by the seeded benchmark
             (benchmark/, BENCHMARK.json); the online, rollout, cluster
             and chaos soaks run as `cargo test -p airchitect-cli --test
             soaks`.

  serve      --model model.airm[,model2.airm...] [--host H] [--port P]
             [--cluster] [--replicas N]
             [--workers W] [--queue-depth D] [--batch-max B] [--cache-cap C]
             [--read-timeout-secs S] [--write-timeout-secs S]
             [--deadline-ms MS] [--breaker-threshold N]
             [--breaker-cooldown-ms MS] [--fallback search|none]
             Serve recommendations over HTTP: POST /v1/recommend/{array|
             buffers|schedule} (JSON bodies mirroring the `recommend` flags,
             plus "topk"), GET /healthz, GET /metrics, POST /v1/reload
             (atomic model hot-swap), POST /v1/shutdown (graceful drain).
             --port 0 binds an ephemeral port (printed on stdout). Requests
             beyond --queue-depth are rejected with 429 + Retry-After.
             --deadline-ms caps end-to-end request time (clients can tighten
             per request with X-Deadline-Ms; over-budget answers 504).
             --breaker-threshold N opens a circuit after N consecutive
             failures (0 disables; probes again after the cooldown).
             --fallback search answers from exhaustive DSE search (stamped
             "source":"search" + a Warning header) when a circuit is open or
             a model failed to load, instead of 5xx.
             --shadow-oracle RATE --shadow-log-dir DIR
             [--shadow-queue-depth D] [--shadow-threads T]
             samples RATE (0..=1, deterministic per query) of admitted
             recommend requests, re-scores them against the exact DSE
             oracle on a low-priority background pool, and appends
             versioned records to a rotating JSONL misprediction log in
             DIR for `train --from-log`. A full shadow queue drops samples
             (serve.shadow.dropped) instead of delaying requests.
             --cluster [--replicas N] [--probe-interval-ms MS]
             [--probe-timeout-ms MS] [--hedge-ms MS] [--max-inflight N]
             [--backend-timeout-ms MS]
             Cluster mode: supervise N replica child processes (health
             probes, exponential-backoff restarts with a restart-storm cap)
             behind a consistent-hashing router that retries idempotent
             recommends on the next replica, hedges tail-latent requests
             (--hedge-ms 0 derives the delay from the rolling p99), and
             aggregates /healthz + /metrics across the fleet.

  report     FILE (or --in FILE)
             Validate a telemetry JSON-lines file against the versioned
             schema and pretty-print its spans, events, and metrics.

  help       Show this message.

TELEMETRY (generate | train | evaluate | bench):
  --trace            print a span/metric summary when the command finishes
  --metrics-out F    stream spans, events, and a final metrics snapshot to
                     F as versioned JSON lines (read back with `report`)

EXIT CODES:
  0  success        2  usage error
  1  other failure  3  file I/O error   4  corrupt artifact
"#;
