//! `airchitect-benchmark --workload <name|all> --seed <n> [--seconds S]
//! [--trace [0|1]] [--runs N] [--out DIR]`
//!
//! One run prints every metric by name with its unit, writes a result file,
//! and ends with one JSON line. `--runs N` runs the workloads N times each
//! as child processes (order alternating, seed incremented per round) and
//! prints each metric's median and quartiles.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use airchitect_benchmark::report::{Obj, END_TO_END, PER_LAYER};
use airchitect_benchmark::stats::quartiles;
use airchitect_benchmark::workload::Workload;
use airchitect_telemetry::json;

const USAGE: &str =
    "usage: airchitect-benchmark --workload <serve_hot|serve_cold|serve_churn|all|a,b> \
--seed <n> [--seconds S] [--trace [0|1]] [--runs N] [--out DIR]";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: Option<usize>,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1).peekable();
    let mut workloads = None;
    let mut seed = None;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut runs = None;
    let mut out = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let names = value()?;
                workloads = Some(if names == "all" {
                    Workload::ALL.to_vec()
                } else {
                    names
                        .split(',')
                        .map(|n| Workload::from_name(n).ok_or(format!("unknown workload `{n}`")))
                        .collect::<Result<_, _>>()?
                });
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds must be a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                // `--trace` alone, or `--trace 0|1` as BENCHMARK.json runs pass it.
                trace = argv
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1");
            }
            "--runs" => {
                runs = Some(
                    value()?
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n >= 1)
                        .ok_or("--runs must be a positive integer")?,
                );
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        runs,
        out,
    })
}

/// Runs one workload in this process and prints the result line.
fn single(args: &Args) -> ExitCode {
    let [workload] = args.workloads[..] else {
        eprintln!("one run takes one workload; use --runs N with `all`");
        return ExitCode::from(2);
    };
    match airchitect_benchmark::execute(
        workload,
        args.seed,
        args.seconds,
        1.0,
        args.trace,
        &args.out,
    ) {
        Ok(outcome) => {
            println!("{}", outcome.result_line());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("wrong answers: see {}", outcome.result_file.display());
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs `--runs` rounds of every workload as child processes and
/// summarises each metric's median and quartiles.
fn repeated(args: &Args, rounds: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("current_exe: {e}");
            return ExitCode::FAILURE;
        }
    };
    let table = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    // values[workload][metric] over rounds
    let mut values = vec![vec![Vec::new(); table.len()]; args.workloads.len()];
    let mut ok = true;
    for round in 0..rounds {
        let seed = args.seed + round as u64;
        let order: Vec<usize> = if round % 2 == 0 {
            (0..args.workloads.len()).collect()
        } else {
            (0..args.workloads.len()).rev().collect()
        };
        for w in order {
            let workload = args.workloads[w];
            let output = Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&args.out)
                .output();
            let line = output.as_ref().ok().and_then(|o| {
                String::from_utf8_lossy(&o.stdout)
                    .lines()
                    .last()
                    .and_then(|l| json::parse(l).ok())
            });
            let Some(result) = line.filter(|_| output.as_ref().is_ok_and(|o| o.status.success()))
            else {
                eprintln!("round {round} {}: run failed", workload.name());
                if let Ok(o) = &output {
                    eprintln!("{}", String::from_utf8_lossy(&o.stderr));
                }
                ok = false;
                continue;
            };
            for (m, (name, _)) in table.iter().enumerate() {
                if let Some(v) = result
                    .get("metrics")
                    .and_then(|ms| ms.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(json::Value::as_f64)
                {
                    values[w][m].push(v);
                }
            }
            println!(
                "round {round} {} seed {seed}: {}",
                workload.name(),
                result
                    .get("failed")
                    .and_then(json::Value::as_u64)
                    .map_or("no failure count".to_string(), |f| format!("{f} failed"))
            );
        }
    }
    let mut summary = Obj::new()
        .num("runs", rounds as f64)
        .num("first_seed", args.seed as f64)
        .num("seconds", args.seconds);
    for (w, workload) in args.workloads.iter().enumerate() {
        println!(
            "{} over {rounds} runs: median [q1, q3] spread",
            workload.name()
        );
        let mut per_metric = Obj::new();
        for (m, (name, unit)) in table.iter().enumerate() {
            let v = &values[w][m];
            let Some([q1, med, q3]) = quartiles(v) else {
                continue;
            };
            let spread = (q3 - q1) / med.abs();
            println!(
                "  {name:<36} {med:>14.4} [{q1:.4}, {q3:.4}] {unit}  spread {:.2}%",
                100.0 * spread
            );
            let runs = v.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
            per_metric = per_metric.raw(
                name,
                &Obj::new()
                    .str("unit", unit)
                    .num("median", med)
                    .num("q1", q1)
                    .num("q3", q3)
                    .num("spread", spread)
                    .raw("values", &format!("[{runs}]"))
                    .finish(),
            );
        }
        summary = summary.raw(workload.name(), &per_metric.finish());
    }
    let names: Vec<&str> = args.workloads.iter().map(|w| w.name()).collect();
    let file = args.out.join(format!(
        "summary-{}-seed{}-runs{rounds}-trace{}.json",
        names.join("+"),
        args.seed,
        u8::from(args.trace)
    ));
    match std::fs::write(&file, summary.finish() + "\n") {
        Ok(()) => println!("summary: {}", file.display()),
        Err(e) => {
            eprintln!("{}: {e}", file.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("{}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    match args.runs {
        Some(rounds) => repeated(&args, rounds),
        None => single(&args),
    }
}
