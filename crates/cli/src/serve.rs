//! `airchitect serve` — run the hot-reloadable inference server,
//! or (with `--cluster`) a supervised fleet of replica processes behind a
//! consistent-hashing router.

use std::path::PathBuf;

use airchitect_serve::{Cluster, ClusterConfig, ServeConfig, ServeError, Server};

use crate::args::Args;
use crate::CliError;

fn serve_err(e: ServeError) -> CliError {
    match e {
        ServeError::Config(msg) => CliError::Usage(msg),
        other => CliError::Run(other.to_string()),
    }
}

/// Entry point for `airchitect serve`. Blocks until `POST /v1/shutdown`.
///
/// # Errors
///
/// Returns [`CliError`] for bad arguments, model load failures, or socket
/// failures.
pub fn serve(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv)?;
    args.expect_only(&[
        "model",
        "host",
        "port",
        "workers",
        "queue-depth",
        "cache-cap",
        "read-timeout-secs",
        "write-timeout-secs",
        "deadline-ms",
        "breaker-threshold",
        "breaker-cooldown-ms",
        "fallback",
        "event-loops",
        "shadow-oracle",
        "shadow-log-dir",
        "shadow-queue-depth",
        "shadow-threads",
        "model-dir",
        "canary-split",
        "canary-min-samples",
        "canary-min-agreement",
        "canary-max-p99-ratio",
        "rollout-timeout-ms",
        "cluster",
        "replicas",
        "probe-interval-ms",
        "probe-timeout-ms",
        "max-inflight",
        "backend-timeout-ms",
    ])?;
    let model_dir = args.optional("model-dir").map(PathBuf::from);
    let model_paths: Vec<PathBuf> = match args.optional("model") {
        Some(raw) => raw
            .split(',')
            .filter(|s| !s.is_empty())
            .map(PathBuf::from)
            .collect(),
        // A registry with an active version can boot without --model.
        None if model_dir.is_some() => Vec::new(),
        None => return Err(CliError::Usage("missing required `--model`".into())),
    };
    if model_paths.is_empty() && model_dir.is_none() {
        return Err(CliError::Usage(
            "`--model` needs at least one .airm path (comma-separated for several)".into(),
        ));
    }
    if model_dir.is_some() && model_paths.len() > 1 {
        return Err(CliError::Usage(
            "`--model-dir` manages a single model; pass at most one `--model` to seed it".into(),
        ));
    }
    let workers = args.u64_or("workers", 4)? as usize;
    if workers == 0 {
        return Err(CliError::Usage("`--workers` must be at least 1".into()));
    }
    let host = args.optional("host").unwrap_or("127.0.0.1");
    let port = args.u64_or("port", 8080)?;
    if port > u64::from(u16::MAX) {
        return Err(CliError::Usage(format!("`--port` must be <= 65535 (got {port})")));
    }
    let fallback_search = match args.optional("fallback") {
        None | Some("none") => false,
        Some("search") => true,
        Some(other) => {
            return Err(CliError::Usage(format!(
                "`--fallback` must be `search` or `none` (got `{other}`)"
            )))
        }
    };
    let shadow_rate = match args.optional("shadow-oracle") {
        None => 0.0,
        Some(raw) => {
            let rate: f64 = raw.parse().map_err(|_| {
                CliError::Usage(format!(
                    "`--shadow-oracle` must be a sampling rate in 0..=1 (got `{raw}`)"
                ))
            })?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(CliError::Usage(format!(
                    "`--shadow-oracle` must be a sampling rate in 0..=1 (got `{raw}`)"
                )));
            }
            if rate > 0.0 && args.optional("shadow-log-dir").is_none() {
                return Err(CliError::Usage(
                    "`--shadow-oracle` needs `--shadow-log-dir` for the misprediction log"
                        .into(),
                ));
            }
            rate
        }
    };
    let canary_split = match args.optional("canary-split") {
        None => 0.0,
        Some(raw) => {
            let rate: f64 = raw.parse().map_err(|_| {
                CliError::Usage(format!(
                    "`--canary-split` must be a sampling rate in 0..=1 (got `{raw}`)"
                ))
            })?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(CliError::Usage(format!(
                    "`--canary-split` must be a sampling rate in 0..=1 (got `{raw}`)"
                )));
            }
            rate
        }
    };
    let canary_min_agreement = match args.optional("canary-min-agreement") {
        None => 0.9,
        Some(raw) => {
            let rate: f64 = raw.parse().map_err(|_| {
                CliError::Usage(format!(
                    "`--canary-min-agreement` must be a fraction in 0..=1 (got `{raw}`)"
                ))
            })?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(CliError::Usage(format!(
                    "`--canary-min-agreement` must be a fraction in 0..=1 (got `{raw}`)"
                )));
            }
            rate
        }
    };
    let canary_max_p99_ratio = match args.optional("canary-max-p99-ratio") {
        None => 4.0,
        Some(raw) => {
            let ratio: f64 = raw.parse().map_err(|_| {
                CliError::Usage(format!(
                    "`--canary-max-p99-ratio` must be a positive number (got `{raw}`)"
                ))
            })?;
            if !ratio.is_finite() || ratio <= 0.0 {
                return Err(CliError::Usage(format!(
                    "`--canary-max-p99-ratio` must be a positive number (got `{raw}`)"
                )));
            }
            ratio
        }
    };
    let breaker_threshold = args.u64_or("breaker-threshold", 5)?;
    if breaker_threshold > u64::from(u32::MAX) {
        return Err(CliError::Usage(format!(
            "`--breaker-threshold` must fit in a u32 (got {breaker_threshold})"
        )));
    }
    let config = ServeConfig {
        addr: format!("{host}:{port}"),
        model_paths,
        workers,
        queue_depth: args.u64_or("queue-depth", 256)? as usize,
        cache_capacity: args.u64_or("cache-cap", 4096)? as usize,
        read_timeout_secs: args.u64_or("read-timeout-secs", 5)?,
        write_timeout_secs: args.u64_or("write-timeout-secs", 5)?,
        deadline_ms: args.u64_or("deadline-ms", 0)?,
        breaker_threshold: breaker_threshold as u32,
        breaker_cooldown_ms: args.u64_or("breaker-cooldown-ms", 1000)?,
        fallback_search,
        event_loops: args.u64_or("event-loops", 0)? as usize,
        shadow_rate,
        shadow_dir: args.optional("shadow-log-dir").map(PathBuf::from),
        shadow_queue_depth: args.u64_or("shadow-queue-depth", 64)? as usize,
        shadow_threads: args.u64_or("shadow-threads", 1)? as usize,
        model_dir: model_dir.clone(),
        canary_split,
        canary_min_samples: args.u64_or("canary-min-samples", 50)?,
        canary_min_agreement,
        canary_max_p99_ratio,
        rollout_timeout_ms: args.u64_or("rollout-timeout-ms", 30_000)?,
        ..ServeConfig::default()
    };

    if args.flag("cluster") {
        let replicas = args.u64_or("replicas", 3)? as usize;
        if replicas == 0 {
            return Err(CliError::Usage("`--replicas` must be at least 1".into()));
        }
        let mut config = config;
        if let Some(dir) = &model_dir {
            // The router owns the registry; replicas only ever see the
            // promoted `current.airm` path, so seed it before they spawn.
            use airchitect_serve::registry::{Registry, DEFAULT_RETAIN};
            let mut reg = Registry::open(dir, DEFAULT_RETAIN)
                .map_err(|e| CliError::Usage(format!("--model-dir: {e}")))?;
            if reg.manifest().active.is_none() {
                let Some(seed) = config.model_paths.first() else {
                    return Err(CliError::Usage(format!(
                        "registry at {} has no active version; seed it with --model or \
                         `train --model-dir`",
                        dir.display()
                    )));
                };
                let bytes = std::fs::read(seed).map_err(|e| {
                    CliError::Run(format!("read seed model {}: {e}", seed.display()))
                })?;
                let version = reg
                    .add_version(&bytes)
                    .map_err(|e| CliError::Run(format!("seed registry: {e}")))?;
                reg.promote(version)
                    .map_err(|e| CliError::Run(format!("seed registry: {e}")))?;
            }
            config.model_paths = vec![reg.current_path()];
        }
        let program = std::env::current_exe()
            .map_err(|e| CliError::Run(format!("cannot locate own binary for replicas: {e}")))?;
        let cluster_cfg = ClusterConfig {
            addr: config.addr.clone(),
            replica_argv: Cluster::replica_argv(&program.display().to_string(), &config),
            replicas,
            probe_interval_ms: args.u64_or("probe-interval-ms", 200)?,
            probe_timeout_ms: args.u64_or("probe-timeout-ms", 1000)?,
            max_inflight: args.u64_or("max-inflight", ClusterConfig::default().max_inflight)?,
            backend_timeout_ms: args.u64_or("backend-timeout-ms", 10_000)?,
            read_timeout_secs: config.read_timeout_secs,
            write_timeout_secs: config.write_timeout_secs,
            model_dir: model_dir.clone(),
            rollout_timeout_ms: config.rollout_timeout_ms,
            ..ClusterConfig::default()
        };
        let cluster = Cluster::start(cluster_cfg).map_err(serve_err)?;
        // Same parseable line the replicas print, so scripts can treat a
        // router exactly like a single server.
        println!("listening on http://{}", cluster.local_addr());
        println!("cluster: {replicas} replicas, supervised with health probes and restarts");
        cluster.run().map_err(serve_err)?;
        println!("shutdown complete");
        return Ok(());
    }

    let server = Server::bind(&config).map_err(serve_err)?;
    // Parseable by scripts: `--port 0` binds an ephemeral port, and this
    // line is the only way to learn which one.
    println!("listening on http://{}", server.local_addr());
    println!("listener: evented, {} event loop(s)", server.event_loops());
    println!(
        "routes: POST /v1/recommend/{{array|buffers|schedule}} | POST /v1/reload | \
         POST /v1/rollback | POST /v1/shutdown | GET /healthz | GET /metrics"
    );
    server.run().map_err(serve_err)?;
    println!("shutdown complete");
    Ok(())
}
