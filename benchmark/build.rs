//! Records the compiler version and the git revision in the binary, for
//! the environment block of every result file.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={version}");

    // Read the revision from the repository's `.git` directly (a plain
    // source checkout has none and records `unknown`), and rerun only when
    // the files read change.
    println!("cargo:rerun-if-changed=build.rs");
    let git =
        Path::new(&std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo")).join("../.git");
    let read = |path: &Path| {
        let text = std::fs::read_to_string(path).ok()?;
        println!("cargo:rerun-if-changed={}", path.display());
        Some(text.trim().to_string())
    };
    let rev = read(&git.join("HEAD"))
        .and_then(|head| match head.strip_prefix("ref: ") {
            Some(name) => read(&git.join(name)),
            None => Some(head),
        })
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=BENCH_GIT_REV={rev}");
}
