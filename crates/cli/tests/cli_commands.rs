//! Integration tests driving the CLI command functions end to end with
//! temp files (no subprocess spawning needed — the binary is a thin shim).

use airchitect_cli::run;
use std::path::PathBuf;
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

fn argv(s: &[&str]) -> Vec<String> {
    s.iter().map(|v| v.to_string()).collect()
}

/// A fresh directory for one test: tests run in parallel, and each removes
/// its own directory when done, so none may share one.
fn tmpdir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("airchitect-cli-{}-{test}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Telemetry (the recorder, its span aggregates and the JSONL sink) is
/// process-global, and `--trace` resets it when a command starts. A traced
/// test therefore holds this lock exclusively, so no other test's training
/// or generation records into its window; every test that does such work
/// holds it shared.
static RECORDING: RwLock<()> = RwLock::new(());

fn recording_shared() -> RwLockReadGuard<'static, ()> {
    RECORDING.read().unwrap_or_else(|e| e.into_inner())
}

fn recording_exclusive() -> RwLockWriteGuard<'static, ()> {
    RECORDING.write().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn help_and_unknown_commands() {
    assert!(run(&argv(&["help"])).is_ok());
    assert!(run(&argv(&["frobnicate"])).is_err());
    assert!(run(&[]).is_err());
}

#[test]
fn simulate_with_verification() {
    let _shared = recording_shared();
    assert!(run(&argv(&[
        "simulate",
        "--m",
        "16",
        "--n",
        "16",
        "--k",
        "32",
        "--rows",
        "4",
        "--cols",
        "8",
        "--dataflow",
        "IS",
        "--verify",
    ]))
    .is_ok());
    // Bad dataflow is a run error, not a panic.
    assert!(run(&argv(&[
        "simulate",
        "--m",
        "4",
        "--n",
        "4",
        "--k",
        "4",
        "--rows",
        "2",
        "--cols",
        "2",
        "--dataflow",
        "XX",
    ]))
    .is_err());
    // Typo protection.
    assert!(run(&argv(&[
        "simulate", "--m", "4", "--n", "4", "--k", "4", "--rows", "2", "--cols", "2", "--bogus",
        "1",
    ]))
    .is_err());
}

#[test]
fn search_all_cases() {
    let _shared = recording_shared();
    assert!(run(&argv(&[
        "search",
        "--case",
        "1",
        "--m",
        "100",
        "--n",
        "200",
        "--k",
        "300",
        "--budget-log2",
        "9",
    ]))
    .is_ok());
    assert!(run(&argv(&[
        "search",
        "--case",
        "2",
        "--m",
        "100",
        "--n",
        "200",
        "--k",
        "300",
        "--rows",
        "8",
        "--cols",
        "8",
        "--limit-kb",
        "900",
    ]))
    .is_ok());
    assert!(run(&argv(&[
        "search",
        "--case",
        "3",
        "--workloads",
        "64,64,64;128,32,16;8,8,8;256,16,32",
    ]))
    .is_ok());
    // Wrong workload count for case 3.
    assert!(run(&argv(&["search", "--case", "3", "--workloads", "1,2,3"])).is_err());
}

#[test]
fn spaces_prints() {
    assert!(run(&argv(&["spaces"])).is_ok());
    assert!(run(&argv(&["spaces", "--budget-log2", "10"])).is_ok());
}

#[test]
fn generate_train_recommend_cycle() {
    let _shared = recording_shared();
    let dir = tmpdir("cycle");
    let data = dir.join("cs1.aids");
    let model = dir.join("cs1.airm");
    assert!(run(&argv(&[
        "generate",
        "--case",
        "1",
        "--samples",
        "300",
        "--budget-log2",
        "9",
        "--out",
        data.to_str().expect("utf8 path"),
    ]))
    .is_ok());
    assert!(run(&argv(&[
        "train",
        "--case",
        "1",
        "--data",
        data.to_str().expect("utf8 path"),
        "--out",
        model.to_str().expect("utf8 path"),
        "--epochs",
        "2",
        "--batch",
        "64",
    ]))
    .is_ok());
    assert!(run(&argv(&[
        "recommend",
        "--model",
        model.to_str().expect("utf8 path"),
        "--m",
        "64",
        "--n",
        "64",
        "--k",
        "64",
        "--budget-log2",
        "8",
    ]))
    .is_ok());
    assert!(run(&argv(&[
        "evaluate",
        "--model",
        model.to_str().expect("utf8 path"),
        "--data",
        data.to_str().expect("utf8 path"),
        "--penalty",
        "--calibration",
    ]))
    .is_ok());
    // Training a case-2 model on case-1 data is rejected with a clear error.
    assert!(run(&argv(&[
        "train",
        "--case",
        "2",
        "--data",
        data.to_str().expect("utf8 path"),
        "--out",
        model.to_str().expect("utf8 path"),
    ]))
    .is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn traced_quick_train_emits_schema_valid_telemetry() {
    let _exclusive = recording_exclusive();
    let dir = tmpdir("traced");
    let jsonl = dir.join("quick.jsonl");
    assert!(run(&argv(&[
        "train",
        "--quick",
        "--samples",
        "300",
        "--epochs",
        "2",
        "--trace",
        "--metrics-out",
        jsonl.to_str().expect("utf8 path"),
    ]))
    .is_ok());

    let text = std::fs::read_to_string(&jsonl).expect("telemetry file exists");
    let report = airchitect_telemetry::report::parse_report(&text).expect("schema-valid JSONL");
    assert_eq!(report.command, "train");
    for required in [
        "pipeline.datagen",
        "pipeline.train",
        "pipeline.eval",
        "train.epoch",
        "checkpoint.save",
    ] {
        assert!(
            report.spans.iter().any(|(name, _)| name == required),
            "span `{required}` missing from {:?}",
            report.spans.iter().map(|(n, _)| n).collect::<Vec<_>>()
        );
    }
    let epochs = &report.spans.iter().find(|(n, _)| n == "train.epoch").unwrap().1;
    assert_eq!(epochs.count, 2);
    assert!(report
        .counters
        .iter()
        .any(|(name, value)| name == "train.epochs" && *value == 2));

    // The command switched recording off on its way out: later work moves
    // no counter.
    let before = airchitect_telemetry::metrics::snapshot().counters;
    assert!(run(&argv(&[
        "search",
        "--case",
        "3",
        "--workloads",
        "64,64,64;8,8,8;32,16,8;4,4,4"
    ]))
    .is_ok());
    assert_eq!(airchitect_telemetry::metrics::snapshot().counters, before);

    // The `report` subcommand accepts the file both ways.
    assert!(run(&argv(&["report", jsonl.to_str().expect("utf8 path")])).is_ok());
    assert!(run(&argv(&["report", "--in", jsonl.to_str().expect("utf8 path")])).is_ok());

    // A truncated file (no end line) is rejected as corrupt.
    let truncated: String = text.lines().take(3).map(|l| format!("{l}\n")).collect();
    let bad = dir.join("truncated.jsonl");
    std::fs::write(&bad, truncated).expect("write truncated file");
    assert!(run(&argv(&["report", bad.to_str().expect("utf8 path")])).is_err());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_flag_validation() {
    // The missing-model bind below must leave recording as it found it:
    // off, so the untraced commands of other tests record nothing.
    let _exclusive = recording_exclusive();
    airchitect_telemetry::disable();
    // Every bad-flag case is a usage error (exit code 2), not a crash.
    for bad in [
        vec!["serve"],                                        // no --model
        vec!["serve", "--model", ""],                         // empty path list
        vec!["serve", "--model", "x.airm", "--workers", "0"], // no workers
        // Retired flags: every top-1 request answers inline, so there is
        // no micro-batch to size and no bypass to switch off.
        vec!["serve", "--model", "x.airm", "--batch-max", "16"],
        vec!["serve", "--model", "x.airm", "--no-bypass"],
        vec!["serve", "--model", "x.airm", "--port", "99999"],
        vec!["serve", "--model", "x.airm", "--bogus", "1"], // typo protection
    ] {
        let err = run(&argv(&bad)).expect_err(&format!("{bad:?} must be rejected"));
        assert_eq!(err.exit_code(), 2, "{bad:?}: {err}");
    }
    // A missing model file is a run error (exit code 1), not a usage error.
    let err = run(&argv(&["serve", "--model", "/nonexistent/x.airm", "--port", "0"]))
        .expect_err("missing model file must fail");
    assert_eq!(err.exit_code(), 1, "{err}");
    assert!(
        !airchitect_telemetry::enabled(),
        "a failed bind left telemetry recording"
    );
}

#[test]
fn bench_takes_only_the_train_and_c10k_suites() {
    // Every retired suite, `all`, and a missing `--suite` are usage
    // errors (exit code 2) that name the two suites left.
    for suite in ["all", "infer", "dse", "serve", "chaos", "cluster", "online", "rollout"] {
        let err = run(&argv(&["bench", "--suite", suite])).expect_err(suite);
        assert_eq!(err.exit_code(), 2, "{suite}: {err}");
        assert!(err.to_string().contains("train|c10k"), "{suite}: {err}");
    }
    let err = run(&argv(&["bench"])).expect_err("`--suite` is required");
    assert_eq!(err.exit_code(), 2, "{err}");
    assert!(err.to_string().contains("train|c10k"), "{err}");
}

#[test]
fn quick_train_rejects_contradictory_flags() {
    assert!(run(&argv(&["train", "--quick", "--data", "x.aids"])).is_err());
    assert!(run(&argv(&["train", "--case", "1", "--samples", "10", "--data", "x.aids"])).is_err());
}

#[test]
fn serve_shadow_flag_validation() {
    // Shadow flags are validated before any socket is touched.
    for bad in [
        vec!["serve", "--model", "x.airm", "--shadow-oracle", "2.0"], // rate > 1
        vec!["serve", "--model", "x.airm", "--shadow-oracle", "nan"], // not a number
        vec!["serve", "--model", "x.airm", "--shadow-oracle", "0.5"], // no log dir
    ] {
        let err = run(&argv(&bad)).expect_err(&format!("{bad:?} must be rejected"));
        assert_eq!(err.exit_code(), 2, "{bad:?}: {err}");
    }
}

#[test]
fn train_from_log_fine_tunes_an_existing_model() {
    use airchitect_cli as _;
    use airchitect_online::{MispredLog, MispredRecord};
    use airchitect_repro_imports::*;

    let _shared = recording_shared();
    let dir = tmpdir("from-log");
    let log_dir = dir.join("log");

    // A tiny CS1 model (30 classes over the 2^5-budget space).
    let (dim, classes) = (4usize, 30u32);
    let mut ds = Dataset::new(dim, classes).unwrap();
    let mut row = vec![0f32; dim];
    for i in 0..120usize {
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
                epochs: 1,
                batch_size: 32,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    model.train(&ds).unwrap();
    let base = dir.join("base.airm");
    persist::save(&model, &base).unwrap();

    // A misprediction log with two current-version disagreements and one
    // stale record the replay must skip.
    let mut log = MispredLog::create(
        &log_dir,
        "shadow-test",
        airchitect_telemetry::rotate::RotateConfig::default(),
    )
    .unwrap();
    for (features, version) in [
        (vec![1.0f32, 2.0, 3.0, 4.0], 2u64),
        (vec![5.0f32, 6.0, 7.0, 8.0], 2),
        (vec![9.0f32, 1.0, 1.0, 1.0], 1), // stale: skipped
    ] {
        log.append(&MispredRecord {
            case: CaseStudy::ArrayDataflow,
            features,
            model_label: 3,
            oracle_label: 7,
            model_version: version,
            oracle_us: 40,
        })
        .unwrap();
    }
    log.close().unwrap();

    let base_s = base.to_str().unwrap();
    let log_s = log_dir.to_str().unwrap();
    let tuned = dir.join("tuned.airm");
    let tuned_s = tuned.to_str().unwrap();

    // Contradictory or malformed flags are usage errors.
    for bad in [
        vec!["train", "--from-log", log_s], // no --model / --out
        vec!["train", "--from-log", log_s, "--model", base_s, "--out", tuned_s, "--quick"],
        vec!["train", "--from-log", log_s, "--model", base_s, "--out", tuned_s, "--data", "x"],
        vec!["train", "--from-log", log_s, "--model", base_s, "--out", tuned_s, "--lr", "-1"],
    ] {
        let err = run(&argv(&bad)).expect_err(&format!("{bad:?} must be rejected"));
        assert_eq!(err.exit_code(), 2, "{bad:?}: {err}");
    }

    // The happy path writes a loadable fine-tuned artifact, and an
    // untraced command records no telemetry.
    let before = airchitect_telemetry::metrics::snapshot().counters;
    assert!(run(&argv(&[
        "train", "--from-log", log_s, "--model", base_s, "--out", tuned_s, "--epochs", "2",
        "--lr", "1e-3",
    ]))
    .is_ok());
    assert_eq!(airchitect_telemetry::metrics::snapshot().counters, before);
    let tuned_model = persist::load(&tuned).expect("fine-tuned artifact loads");
    assert_eq!(tuned_model.config().num_classes, classes);

    std::fs::remove_dir_all(&dir).ok();
}

/// The imports the from-log test needs, grouped so the test body reads
/// like the others.
mod airchitect_repro_imports {
    pub use airchitect::model::{AirchitectConfig, AirchitectModel, CaseStudy};
    pub use airchitect::persist;
    pub use airchitect_data::Dataset;
    pub use airchitect_nn::train::TrainConfig;
}
