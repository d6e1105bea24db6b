//! End-to-end fault-tolerance tests against the real `airchitect` binary:
//! the exit-code taxonomy (usage 2, I/O 3, corrupt artifact 4), corrupted
//! artifact files yielding typed errors instead of panics, and
//! checkpointed generate/train runs resuming to byte-identical outputs.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn airchitect(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_airchitect"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("airchitect-cli-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Generates a tiny case-1 dataset into `dir/data.aids` and returns its path.
fn small_dataset(dir: &Path) -> PathBuf {
    let data = dir.join("data.aids");
    let out = airchitect(&[
        "generate",
        "--case",
        "1",
        "--samples",
        "30",
        "--budget-log2",
        "8",
        "--seed",
        "1",
        "--out",
        data.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "generate failed: {}", stderr(&out));
    data
}

/// Trains a tiny model on `data` into `dir/model.airm` and returns its path.
fn small_model(dir: &Path, data: &Path) -> PathBuf {
    let model = dir.join("model.airm");
    let out = airchitect(&[
        "train",
        "--case",
        "1",
        "--data",
        data.to_str().unwrap(),
        "--epochs",
        "1",
        "--batch",
        "16",
        "--out",
        model.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "train failed: {}", stderr(&out));
    model
}

#[test]
fn usage_errors_exit_with_code_2() {
    for args in [
        vec!["frobnicate"],
        vec!["train", "--case", "1"], // missing --data
        vec![
            "generate",
            "--case",
            "1",
            "--samples",
            "5",
            "--out",
            "/tmp/x.aids",
            "--bogus",
            "1",
        ],
        // Budgets below the smallest array (2×2), below generation's
        // 2^5 floor, or past `u64`.
        vec![
            "generate",
            "--case",
            "1",
            "--samples",
            "5",
            "--out",
            "/tmp/x.aids",
            "--budget-log2",
            "3",
        ],
        vec![
            "generate",
            "--case",
            "1",
            "--samples",
            "5",
            "--out",
            "/tmp/x.aids",
            "--budget-log2",
            "64",
        ],
        vec![
            "search",
            "--case",
            "1",
            "--m",
            "64",
            "--n",
            "64",
            "--k",
            "64",
            "--budget-log2",
            "1",
        ],
        vec![
            "search",
            "--case",
            "1",
            "--m",
            "64",
            "--n",
            "64",
            "--k",
            "64",
            "--budget-log2",
            "64",
        ],
        vec!["spaces", "--budget-log2", "200"],
        // Zero threads, with and without a checkpoint directory.
        vec![
            "generate",
            "--case",
            "1",
            "--samples",
            "5",
            "--out",
            "/tmp/x.aids",
            "--threads",
            "0",
        ],
        vec![
            "generate",
            "--case",
            "2",
            "--samples",
            "5",
            "--out",
            "/tmp/x.aids",
            "--threads",
            "0",
            "--checkpoint-dir",
            "/tmp/x-ckpt",
        ],
        vec![
            "train",
            "--case",
            "1",
            "--data",
            "/tmp/x.aids",
            "--out",
            "/tmp/x.airm",
            "--threads",
            "0",
        ],
        vec!["serve", "--model", "/tmp/x.airm", "--nodelay"],
    ] {
        let out = airchitect(&args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {args:?}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn missing_files_exit_with_code_3_and_name_the_path() {
    let out = airchitect(&[
        "train",
        "--case",
        "1",
        "--data",
        "/nonexistent/nope.aids",
        "--out",
        "/tmp/never.airm",
    ]);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    assert!(stderr(&out).contains("/nonexistent/nope.aids"));

    let out = airchitect(&[
        "evaluate",
        "--model",
        "/nonexistent/nope.airm",
        "--data",
        "/nonexistent/nope.aids",
    ]);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    assert!(stderr(&out).contains("/nonexistent/nope.airm"));
}

#[test]
fn corrupt_artifacts_exit_with_code_4_and_never_panic() {
    let dir = temp_dir("corrupt");
    let data = small_dataset(&dir);
    let model = small_model(&dir, &data);

    type Corrupt = fn(&[u8]) -> Vec<u8>;
    let corruptions: [(&str, Corrupt); 3] = [
        ("zero-length", |_| Vec::new()),
        ("truncated", |b| b[..b.len() / 2].to_vec()),
        ("bit-flipped", |b| {
            let mut v = b.to_vec();
            let mid = v.len() / 2;
            v[mid] ^= 0x40;
            v
        }),
    ];

    for (what, corrupt) in corruptions {
        for (original, flag_pair) in [(&data, "--data"), (&model, "--model")] {
            let bytes = std::fs::read(original).unwrap();
            let damaged = dir.join(format!(
                "damaged-{what}-{}",
                original.file_name().unwrap().to_str().unwrap()
            ));
            std::fs::write(&damaged, corrupt(&bytes)).unwrap();

            // Point one flag at the damaged copy, the other at a good file.
            let (m, d) = if flag_pair == "--model" {
                (damaged.clone(), data.clone())
            } else {
                (model.clone(), damaged.clone())
            };
            let out = airchitect(&[
                "evaluate",
                "--model",
                m.to_str().unwrap(),
                "--data",
                d.to_str().unwrap(),
            ]);
            let err = stderr(&out);
            assert_eq!(
                out.status.code(),
                Some(4),
                "{what} {flag_pair} should be a corrupt-artifact error: {err}"
            );
            assert!(
                err.contains(damaged.to_str().unwrap()),
                "{what}: stderr must name the offending file, got: {err}"
            );
            assert!(!err.contains("panicked"), "{what}: {err}");
        }
    }

    // `train` on a damaged dataset takes the same typed path.
    let mut bytes = std::fs::read(&data).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    let damaged = dir.join("train-input.aids");
    std::fs::write(&damaged, &bytes).unwrap();
    let out = airchitect(&[
        "train",
        "--case",
        "1",
        "--data",
        damaged.to_str().unwrap(),
        "--out",
        dir.join("never.airm").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(4), "{}", stderr(&out));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpointed_generate_resumes_to_identical_bytes() {
    let dir = temp_dir("gen-resume");
    for (case, extra) in [("1", &["--budget-log2", "8"][..]), ("2", &[]), ("3", &[])] {
        let ckpt = dir.join(format!("ckpt{case}"));
        let first = dir.join(format!("first{case}.aids"));
        let second = dir.join(format!("second{case}.aids"));
        let mut base = vec![
            "generate",
            "--case",
            case,
            "--samples",
            "40",
            "--seed",
            "3",
            "--threads",
            "4",
        ];
        base.extend_from_slice(extra);

        let mut args = base.clone();
        let ckpt_s = ckpt.to_str().unwrap().to_string();
        let first_s = first.to_str().unwrap().to_string();
        args.extend_from_slice(&["--checkpoint-dir", &ckpt_s, "--out", &first_s]);
        let out = airchitect(&args);
        assert!(out.status.success(), "case {case}: {}", stderr(&out));

        // Simulate a crash that lost one shard and the final output.
        std::fs::remove_file(ckpt.join("shard-0002.aids")).unwrap();

        let mut args = base.clone();
        let second_s = second.to_str().unwrap().to_string();
        args.extend_from_slice(&["--resume", &ckpt_s, "--out", &second_s]);
        let out = airchitect(&args);
        assert!(out.status.success(), "case {case}: {}", stderr(&out));
        assert!(
            stdout(&out).contains("reused 3 checkpointed shard(s)"),
            "case {case}: {}",
            stdout(&out)
        );

        assert_eq!(
            std::fs::read(&first).unwrap(),
            std::fs::read(&second).unwrap(),
            "case {case}: resumed generation must be byte-identical"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpointed_train_resumes_to_identical_bytes() {
    let dir = temp_dir("train-resume");
    let data = small_dataset(&dir);
    let ckpt = dir.join("ckpt");
    let first = dir.join("first.airm");
    let second = dir.join("second.airm");
    let base = [
        "train",
        "--case",
        "1",
        "--data",
        data.to_str().unwrap(),
        "--epochs",
        "3",
        "--batch",
        "16",
        "--seed",
        "9",
    ];

    let mut args: Vec<&str> = base.to_vec();
    let ckpt_s = ckpt.to_str().unwrap().to_string();
    let first_s = first.to_str().unwrap().to_string();
    args.extend_from_slice(&["--checkpoint-dir", &ckpt_s, "--out", &first_s]);
    let out = airchitect(&args);
    assert!(out.status.success(), "{}", stderr(&out));

    // Re-running with --resume finds the completed checkpoint, trains zero
    // further epochs, and writes the identical model.
    let mut args: Vec<&str> = base.to_vec();
    let second_s = second.to_str().unwrap().to_string();
    args.extend_from_slice(&["--resume", &ckpt_s, "--out", &second_s]);
    let out = airchitect(&args);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("resumed: 3 epoch(s) restored"),
        "{}",
        stdout(&out)
    );
    assert_eq!(
        std::fs::read(&first).unwrap(),
        std::fs::read(&second).unwrap(),
        "resumed training must produce a byte-identical model"
    );

    // A different schedule must be refused, not silently retrained.
    let out = airchitect(&[
        "train",
        "--case",
        "1",
        "--data",
        data.to_str().unwrap(),
        "--epochs",
        "5",
        "--batch",
        "16",
        "--seed",
        "9",
        "--resume",
        &ckpt_s,
        "--out",
        second_s.as_str(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("different run"), "{}", stderr(&out));

    std::fs::remove_dir_all(&dir).ok();
}
