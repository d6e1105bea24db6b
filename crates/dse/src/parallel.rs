//! The one dataset generator: a sharded, panic-isolated, checkpointed
//! driver over a per-case labelling [`Step`].
//!
//! Search-labeling is embarrassingly parallel: every sample is an
//! independent (draw a query → exhaustive search) task. Each case study's
//! `(&problem, &spec)` pair is a [`Step`], and [`generate`] splits the
//! sample budget into shards, runs each shard's loop on its own thread and
//! concatenates the shards in order.
//!
//! Fault tolerance:
//!
//! * Shard bodies run under [`std::panic::catch_unwind`]; a panicking
//!   shard is retried up to [`DEFAULT_MAX_RETRIES`] times with a fresh
//!   derived seed (recorded in the shard's audit record), then retried
//!   sequentially on the calling thread before the whole generation gives
//!   up with a typed [`ParallelError::ShardFailed`].
//! * With a checkpoint directory, every shard is persisted as soon as it
//!   finishes (checksummed, atomically written `.aids` files plus a
//!   manifest that pins the case, its spec and the shard count);
//!   re-running after a crash reuses every intact shard and regenerates
//!   only what is missing or corrupt, producing a byte-identical final
//!   dataset.
//!
//! Determinism: shard `i` draws its fixed slice of the sample budget from
//! an RNG seeded from `(seed, i)`, and shards are concatenated in shard
//! order, so output is a pure function of `(step, samples, seed, shards)`.
//! Shard 0's seed is the run seed, so a one-shard run is exactly what the
//! sequential `case*::generate_dataset` returns: it runs the same shard
//! loop on the calling thread.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use airchitect_data::{codec, DataError, Dataset, Integrity};
use airchitect_telemetry::span::Field;
use airchitect_telemetry::{metrics, sink};
use airchitect_workload::distribution::CnnWorkloadSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How many times a panicking shard is re-attempted (with fresh derived
/// seeds) in its worker thread, and again in the sequential fallback.
pub const DEFAULT_MAX_RETRIES: u32 = 2;

/// Error produced by dataset generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParallelError {
    /// `threads` was zero.
    ZeroThreads,
    /// A dataset spec's range is inverted or outside what its case can
    /// label.
    BadRange {
        /// The spec field.
        field: &'static str,
        /// Its lower bound.
        lo: u64,
        /// Its upper bound.
        hi: u64,
    },
    /// One shard kept panicking through every parallel and sequential
    /// retry.
    ShardFailed {
        /// Index of the failing shard.
        shard: usize,
        /// Total attempts spent on it.
        attempts: u32,
        /// Panic message of the last attempt.
        last_error: String,
    },
    /// A checkpoint directory's manifest is not this generation's: another
    /// case, spec, seed or shard count (or not a manifest at all).
    ManifestMismatch {
        /// Why the directory was refused.
        what: &'static str,
    },
    /// Shard persistence failed, or the step's schema is invalid.
    Data(DataError),
}

impl std::fmt::Display for ParallelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParallelError::ZeroThreads => write!(f, "need at least one thread"),
            ParallelError::BadRange { field, lo, hi } => write!(f, "bad {field} range {lo}..={hi}"),
            ParallelError::ShardFailed {
                shard,
                attempts,
                last_error,
            } => {
                write!(
                    f,
                    "shard {shard} failed after {attempts} attempts: {last_error}"
                )
            }
            ParallelError::ManifestMismatch { what } => {
                write!(f, "checkpoint manifest mismatch: {what}")
            }
            ParallelError::Data(e) => write!(f, "shard i/o: {e}"),
        }
    }
}

impl std::error::Error for ParallelError {}

impl From<DataError> for ParallelError {
    fn from(e: DataError) -> Self {
        ParallelError::Data(e)
    }
}

/// Checks `min <= lo <= hi <= max` for the spec range `field`.
pub(crate) fn check_range(
    field: &'static str,
    (lo, hi): (u64, u64),
    min: u64,
    max: u64,
) -> Result<(), ParallelError> {
    if min <= lo && lo <= hi && hi <= max {
        Ok(())
    } else {
        Err(ParallelError::BadRange { field, lo, hi })
    }
}

/// One case study's labelling step, implemented by its
/// `(&problem, &dataset spec)` pair: what [`generate`] runs once per sample.
pub trait Step: Sync {
    /// Checks the spec's ranges, so a bad one is a typed error before any
    /// shard starts.
    fn check(&self) -> Result<(), ParallelError>;
    /// Features per sample and the size of the output space.
    fn schema(&self) -> (usize, u32);
    /// The case, its spec and whatever of the problem the output-space size
    /// does not pin, as text a checkpoint manifest stores and compares.
    fn describe(&self) -> String;
    /// Draws one query from `rng` (its workloads from `sampler`), labels it
    /// by exhaustive search and appends features and label to `out`.
    fn label_one(&self, sampler: &CnnWorkloadSampler, rng: &mut StdRng, out: &mut Dataset);
}

/// One shard's body: `count` steps on an RNG seeded with `seed` (panics on
/// an empty output space).
fn label_shard<S: Step + ?Sized>(step: &S, seed: u64, count: usize) -> Dataset {
    let sampler = CnnWorkloadSampler::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let (features, classes) = step.schema();
    let mut shard = Dataset::new(features, classes).expect("output space is non-empty");
    for _ in 0..count {
        step.label_one(&sampler, &mut rng, &mut shard);
    }
    shard
}

/// Each case's `generate_dataset`: checks `step`, then runs one shard of
/// [`generate`] on the calling thread, with no thread, retry or copy.
/// Panics if the spec is invalid or the output space is empty.
pub(crate) fn generate_here<S: Step>(step: &S, samples: usize, seed: u64) -> Dataset {
    step.check().unwrap_or_else(|e| panic!("{e}"));
    label_shard(step, seed, samples)
}

/// Audit record for one generated (or resumed) shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardAudit {
    /// Shard index (shards are concatenated in this order).
    pub shard: usize,
    /// RNG seed the successful attempt actually used.
    pub seed: u64,
    /// Attempts spent (1 = first try succeeded).
    pub attempts: u32,
    /// Whether the shard was loaded from a checkpoint instead of computed.
    pub resumed: bool,
}

/// Result of a generation run.
#[derive(Debug, Clone)]
pub struct Generation {
    /// The complete dataset; a resumed run's is identical to an
    /// uninterrupted one's.
    pub dataset: Dataset,
    /// Per-shard provenance, in shard order.
    pub shards: Vec<ShardAudit>,
}

/// Seed for `(base, shard, attempt)`: attempt 0 reproduces the historical
/// per-worker stream; retries derive a fresh, recorded seed.
fn attempt_seed(base: u64, shard: usize, attempt: u32) -> u64 {
    let s = base ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    if attempt == 0 {
        s
    } else {
        s ^ (attempt as u64).wrapping_mul(0xA076_1D64_78BD_642F)
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// `(dataset, seed_used, attempts_spent)` from a successful attempt, or
/// `(attempts_spent, last_panic_message)` when every attempt panicked.
type ShardOutcome = Result<(Dataset, u64, u32), (u32, String)>;

/// Runs `worker(shard, seed, count)` under `catch_unwind` for attempts
/// `first..=last`, returning `(dataset, seed_used, attempts_spent)` on the
/// first success.
fn run_one_shard<F>(
    shard: usize,
    count: usize,
    base_seed: u64,
    first: u32,
    last: u32,
    worker: &F,
) -> ShardOutcome
where
    F: Fn(usize, u64, usize) -> Dataset,
{
    let mut last_error = String::new();
    for attempt in first..=last {
        let seed = attempt_seed(base_seed, shard, attempt);
        match catch_unwind(AssertUnwindSafe(|| {
            airchitect_chaos::fail_point!("dse.shard");
            worker(shard, seed, count)
        })) {
            Ok(ds) => {
                metrics::DSE_SHARDS_COMPLETED.inc();
                sink::event(
                    "dse.shard_done",
                    &[
                        ("shard", Field::U64(shard as u64)),
                        ("attempts", Field::U64(u64::from(attempt) + 1)),
                        ("samples", Field::U64(count as u64)),
                    ],
                );
                return Ok((ds, seed, attempt + 1));
            }
            Err(p) => {
                last_error = panic_message(p);
                metrics::DSE_SHARD_RETRIES.inc();
                sink::event(
                    "dse.shard_panic",
                    &[
                        ("shard", Field::U64(shard as u64)),
                        ("attempt", Field::U64(u64::from(attempt))),
                    ],
                );
            }
        }
    }
    Err((last + 1, last_error))
}

/// Fault-isolated fan-out: one thread per `(shard, count)` work item, each
/// retried in place on panic, with a final sequential retry round on the
/// calling thread for shards that failed every parallel attempt. `done`
/// runs on the thread that finished a shard, as soon as it finishes; its
/// error ends the run once every thread has joined.
///
/// Results come back in `work` order.
fn run_shards<F, D>(
    work: &[(usize, usize)],
    base_seed: u64,
    max_retries: u32,
    worker: &F,
    done: &D,
) -> Result<Vec<(usize, Dataset, u64, u32)>, ParallelError>
where
    F: Fn(usize, u64, usize) -> Dataset + Sync,
    D: Fn(usize, &Dataset, u64, u32) -> Result<(), ParallelError> + Sync,
{
    let attempt = |shard, count, first, last| -> Result<ShardOutcome, ParallelError> {
        let outcome = run_one_shard(shard, count, base_seed, first, last, worker);
        if let Ok((ds, seed, attempts)) = &outcome {
            done(shard, ds, *seed, *attempts)?;
        }
        Ok(outcome)
    };
    let parallel: Vec<Result<ShardOutcome, ParallelError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = work
            .iter()
            .map(|&(shard, count)| scope.spawn(move || attempt(shard, count, 0, max_retries)))
            .collect();
        // The worker itself is panic-proofed; a join error means the retry
        // loop machinery (or `done`) died, which we fold into the same
        // sequential-fallback path.
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|p| Ok(Err((max_retries + 1, panic_message(p)))))
            })
            .collect()
    });

    let mut out = Vec::with_capacity(work.len());
    for (&(shard, count), result) in work.iter().zip(parallel) {
        // Sequential fallback: same shard, fresh attempt numbers, on this
        // thread.
        let outcome = match result? {
            Err((spent, _)) => attempt(shard, count, spent, spent + max_retries)?,
            finished => finished,
        };
        match outcome {
            Ok((ds, seed, attempts)) => out.push((shard, ds, seed, attempts)),
            Err((attempts, last_error)) => {
                return Err(ParallelError::ShardFailed {
                    shard,
                    attempts,
                    last_error,
                })
            }
        }
    }
    Ok(out)
}

fn shard_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:04}.aids"))
}

fn meta_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:04}.meta"))
}

fn io_err(e: std::io::Error) -> ParallelError {
    ParallelError::Data(DataError::Io(e.to_string()))
}

/// Pins the generation in `dir`'s manifest: writes it on first use and
/// refuses a directory whose manifest text differs (another case, spec,
/// seed or shard count).
fn claim_dir<S: Step + ?Sized>(
    dir: &Path,
    step: &S,
    samples: usize,
    seed: u64,
    shards: usize,
) -> Result<(), ParallelError> {
    std::fs::create_dir_all(dir).map_err(io_err)?;
    let (features, classes) = step.schema();
    let manifest = format!(
        "airchitect-gen v2\n{}\nsamples {samples}\nseed {seed}\nshards {shards}\nfeatures {features}\nclasses {classes}\n",
        step.describe()
    );
    let path = dir.join("manifest.txt");
    match std::fs::read_to_string(&path) {
        Ok(existing) if existing == manifest => Ok(()),
        Ok(_) => Err(ParallelError::ManifestMismatch {
            what: "directory was checkpointed for a different case or spec",
        }),
        Err(_) => {
            airchitect_data::integrity::atomic_write(&path, manifest.as_bytes()).map_err(io_err)
        }
    }
}

/// Reads a shard's `seed`/`attempts` audit sidecar; falls back to
/// "first-try seed" defaults when it is missing or unreadable (it is
/// advisory).
fn read_meta(dir: &Path, shard: usize, base_seed: u64) -> (u64, u32) {
    let text = std::fs::read_to_string(meta_path(dir, shard)).unwrap_or_default();
    let mut lines = text.lines();
    let seed = lines
        .next()
        .and_then(|l| l.strip_prefix("seed ")?.parse().ok());
    let attempts = lines
        .next()
        .and_then(|l| l.strip_prefix("attempts ")?.parse().ok());
    seed.zip(attempts)
        .unwrap_or((attempt_seed(base_seed, shard, 0), 1))
}

/// Loads shard `shard` from `dir` if it is present, checksum-verified and
/// the shape of `schema` with `count` rows.
fn resume_shard(
    dir: &Path,
    shard: usize,
    count: usize,
    schema: &Dataset,
    base_seed: u64,
) -> Option<(Dataset, ShardAudit)> {
    let Ok((ds, Integrity::Verified)) = codec::load_integrity(shard_path(dir, shard)) else {
        return None;
    };
    if ds.len() != count
        || ds.num_classes() != schema.num_classes()
        || ds.feature_dim() != schema.feature_dim()
    {
        return None;
    }
    let (seed, attempts) = read_meta(dir, shard, base_seed);
    metrics::DSE_SHARDS_RESUMED.inc();
    sink::event(
        "dse.shard_resumed",
        &[
            ("shard", Field::U64(shard as u64)),
            ("samples", Field::U64(count as u64)),
        ],
    );
    let audit = ShardAudit {
        shard,
        seed,
        attempts,
        resumed: true,
    };
    Some((ds, audit))
}

/// Generates `samples` labeled samples with `step` over `shards` shards,
/// one worker thread each, seeded from `seed` (see the module docs for
/// retries and determinism).
///
/// With `checkpoint`, each finished shard is written atomically into that
/// directory (checksummed `.aids` plus a `seed`/`attempts` sidecar) under a
/// manifest that pins the generation. Re-running the same call after a
/// crash reuses every intact shard and regenerates the rest, corrupt ones
/// included (their checksum fails), to the same bytes.
///
/// # Errors
///
/// [`ParallelError::ZeroThreads`] for zero shards, [`ParallelError::BadRange`]
/// for an invalid spec, [`ParallelError::ShardFailed`] if a shard exhausts
/// every retry, [`ParallelError::ManifestMismatch`] when `checkpoint` holds
/// another generation, and [`ParallelError::Data`] on shard I/O failures or
/// an empty output space.
pub fn generate<S: Step + ?Sized>(
    step: &S,
    samples: usize,
    seed: u64,
    shards: usize,
    checkpoint: Option<&Path>,
) -> Result<Generation, ParallelError> {
    if shards == 0 {
        return Err(ParallelError::ZeroThreads);
    }
    step.check()?;
    let (features, classes) = step.schema();
    let schema = Dataset::new(features, classes)?;
    let counts = split_evenly(samples, shards);
    let mut slots: Vec<Option<(Dataset, ShardAudit)>> = (0..shards).map(|_| None).collect();
    if let Some(dir) = checkpoint {
        claim_dir(dir, step, samples, seed, shards)?;
        for (shard, &count) in counts.iter().enumerate() {
            slots[shard] = resume_shard(dir, shard, count, &schema, seed);
        }
    }

    let missing: Vec<(usize, usize)> = counts
        .into_iter()
        .enumerate()
        .filter(|&(shard, _)| slots[shard].is_none())
        .collect();
    let worker = |_shard, seed, count| label_shard(step, seed, count);
    // Each shard is saved by the thread that finished it, so a run killed
    // midway keeps every shard done so far.
    let save = |shard, ds: &Dataset, seed, attempts| -> Result<(), ParallelError> {
        let Some(dir) = checkpoint else { return Ok(()) };
        airchitect_chaos::fail_point!("dse.shard.save", |e: std::io::Error| Err(io_err(e)));
        codec::save(ds, shard_path(dir, shard))?;
        let meta = format!("seed {seed}\nattempts {attempts}\n");
        airchitect_data::integrity::atomic_write(meta_path(dir, shard), meta.as_bytes())
            .map_err(io_err)
    };
    for (shard, ds, seed, attempts) in
        run_shards(&missing, seed, DEFAULT_MAX_RETRIES, &worker, &save)?
    {
        let audit = ShardAudit {
            shard,
            seed,
            attempts,
            resumed: false,
        };
        slots[shard] = Some((ds, audit));
    }

    let (datasets, audits): (Vec<Dataset>, Vec<ShardAudit>) = slots
        .into_iter()
        .map(|slot| slot.expect("every shard filled"))
        .unzip();
    // Shards share the schema, so the first one is the base; one shard is
    // returned as is.
    let mut datasets = datasets.into_iter();
    let mut dataset = datasets.next().unwrap_or(schema);
    for shard in datasets {
        for i in 0..shard.len() {
            dataset
                .push(shard.row(i), shard.label(i))
                .expect("shards share the schema");
        }
    }
    Ok(Generation {
        dataset,
        shards: audits,
    })
}

/// Splits `total` into `parts` chunks whose sizes differ by at most one.
fn split_evenly(total: usize, parts: usize) -> Vec<usize> {
    let base = total / parts;
    let extra = total % parts;
    (0..parts).map(|i| base + usize::from(i < extra)).collect()
}

#[cfg(test)]
mod tests {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    use super::*;
    use crate::case1::{self, Case1DatasetSpec, Case1Problem};
    use crate::case2::{self, Case2DatasetSpec, Case2Problem};
    use crate::case3::{self, Case3DatasetSpec, Case3Problem};

    /// Serializes every test that runs shards: the `dse.shard` failpoint
    /// the chaos tests arm is process-global, so a sibling generating on
    /// another thread would take their injected panics.
    static SHARDS: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        SHARDS.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    fn problem() -> Case1Problem {
        Case1Problem::new(1 << 9)
    }

    fn spec(samples: usize, seed: u64) -> Case1DatasetSpec {
        Case1DatasetSpec {
            samples,
            budget_log2_range: (5, 9),
            seed,
        }
    }

    fn no_save(_: usize, _: &Dataset, _: u64, _: u32) -> Result<(), ParallelError> {
        Ok(())
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("airchitect-ckpt-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn split_evenly_is_fair_and_complete() {
        assert_eq!(split_evenly(10, 3), vec![4, 3, 3]);
        assert_eq!(split_evenly(2, 4), vec![1, 1, 0, 0]);
        assert_eq!(split_evenly(0, 2), vec![0, 0]);
        for (t, p) in [(17usize, 5usize), (100, 7), (3, 3)] {
            let s = split_evenly(t, p);
            assert_eq!(s.iter().sum::<usize>(), t);
            assert!(s.iter().max().unwrap() - s.iter().min().unwrap() <= 1);
        }
    }

    #[test]
    fn one_shard_equals_generate_dataset_for_every_case() {
        let _serial = serial();
        let one = |step: &dyn Step, samples, seed| {
            codec::to_bytes(&generate(step, samples, seed, 1, None).unwrap().dataset)
        };
        let (p1, s1) = (problem(), spec(50, 3));
        assert_eq!(
            one(&(&p1, &s1), 50, 3),
            codec::to_bytes(&case1::generate_dataset(&p1, &s1))
        );
        let p2 = Case2Problem::new();
        let s2 = Case2DatasetSpec {
            samples: 40,
            seed: 4,
            ..Default::default()
        };
        assert_eq!(
            one(&(&p2, &s2), 40, 4),
            codec::to_bytes(&case2::generate_dataset(&p2, &s2))
        );
        let p3 = Case3Problem::new();
        let s3 = Case3DatasetSpec {
            samples: 20,
            seed: 5,
        };
        assert_eq!(
            one(&(&p3, &s3), 20, 5),
            codec::to_bytes(&case3::generate_dataset(&p3, &s3))
        );
    }

    /// Recorded before the per-case steps replaced the case-1-only
    /// driver: the same `(spec, threads)` must keep giving the same bytes,
    /// with and without a checkpoint directory.
    #[test]
    fn case1_output_at_three_threads_is_pinned() {
        let _serial = serial();
        let problem = Case1Problem::new(1 << 10);
        let spec = Case1DatasetSpec {
            samples: 400,
            budget_log2_range: (5, 10),
            seed: 21,
        };
        let dir = temp_dir("pin");
        for checkpoint in [None, Some(dir.as_path())] {
            let run = generate(&(&problem, &spec), 400, 21, 3, checkpoint).unwrap();
            let bytes = codec::to_bytes(&run.dataset);
            assert_eq!(
                (bytes.len(), fnv1a(&bytes)),
                (8_028, 0xd7bb_281a_9b37_5342),
                "checkpoint {checkpoint:?}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parallel_generation_is_deterministic_per_thread_count() {
        let _serial = serial();
        let (p, s) = (problem(), spec(60, 5));
        let a = generate(&(&p, &s), 60, 5, 3, None).unwrap();
        let b = generate(&(&p, &s), 60, 5, 3, None).unwrap();
        assert_eq!(a.dataset, b.dataset);
        assert_eq!(a.dataset.len(), 60);
        assert!(a.shards.iter().all(|s| s.attempts == 1 && !s.resumed));
    }

    #[test]
    fn parallel_labels_match_fresh_searches() {
        let _serial = serial();
        let (p, s) = (problem(), spec(20, 8));
        let ds = generate(&(&p, &s), 20, 8, 2, None).unwrap().dataset;
        for i in 0..ds.len() {
            let (wl, budget) = Case1Problem::from_features(ds.row(i));
            assert_eq!(ds.label(i), p.search(&wl, budget).label);
        }
    }

    #[test]
    fn invalid_arguments_are_typed_errors() {
        let _serial = serial();
        let (p, s) = (problem(), spec(10, 0));
        assert_eq!(
            generate(&(&p, &s), 10, 0, 0, None).unwrap_err(),
            ParallelError::ZeroThreads
        );
        for (lo, hi) in [(1, 9), (9, 5), (5, 64)] {
            let bad = Case1DatasetSpec {
                budget_log2_range: (lo, hi),
                ..spec(10, 0)
            };
            assert_eq!(
                generate(&(&p, &bad), 10, 0, 2, None).unwrap_err(),
                ParallelError::BadRange {
                    field: "budget_log2",
                    lo: lo.into(),
                    hi: hi.into()
                }
            );
        }
        let p2 = Case2Problem::new();
        for (bad, field) in [
            (
                Case2DatasetSpec {
                    bandwidth_range: (0, 100),
                    ..Default::default()
                },
                "bandwidth",
            ),
            (
                Case2DatasetSpec {
                    dim_log2_range: (9, 2),
                    ..Default::default()
                },
                "dim_log2",
            ),
            (
                Case2DatasetSpec {
                    limit_kb_range: (3000, 300),
                    ..Default::default()
                },
                "limit_kb",
            ),
        ] {
            assert!(matches!(
                generate(&(&p2, &bad), 10, 0, 2, None).unwrap_err(),
                ParallelError::BadRange { field: f, .. } if f == field
            ));
        }
        // A budget below 4 MACs enumerates no shapes: the schema check
        // refuses it before any shard runs.
        let empty = Case1Problem::new(2);
        assert!(matches!(
            generate(&(&empty, &s), 10, 0, 2, None).unwrap_err(),
            ParallelError::Data(DataError::BadLabel { classes: 0, .. })
        ));
    }

    #[test]
    fn panicking_shard_is_retried_with_fresh_seed() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let _serial = serial();
        let failures = AtomicU32::new(0);
        let worker = |shard: usize, seed: u64, count: usize| -> Dataset {
            // Shard 1 panics on its first two attempts.
            if shard == 1 && failures.fetch_add(1, Ordering::SeqCst) < 2 {
                panic!("injected shard failure");
            }
            let mut ds = Dataset::new(1, 2).unwrap();
            for _ in 0..count {
                ds.push(&[seed as f32], 0).unwrap();
            }
            ds
        };
        let work = vec![(0usize, 3usize), (1, 3), (2, 3)];
        let out = run_shards(&work, 7, DEFAULT_MAX_RETRIES, &worker, &no_save).unwrap();
        assert_eq!(out.len(), 3);
        let (shard, ds, seed, attempts) = &out[1];
        assert_eq!(*shard, 1);
        assert_eq!(*attempts, 3);
        assert_eq!(*seed, attempt_seed(7, 1, 2));
        assert_ne!(
            *seed,
            attempt_seed(7, 1, 0),
            "retry must derive a fresh seed"
        );
        assert_eq!(ds.len(), 3);
        // Healthy shards succeed on their first try with the base seed.
        assert_eq!(out[0].3, 1);
        assert_eq!(out[0].2, attempt_seed(7, 0, 0));
    }

    #[test]
    fn persistently_failing_shard_reaches_sequential_fallback_then_errors() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let _serial = serial();
        let attempts_seen = AtomicU32::new(0);
        let always_fail = |shard: usize, _seed: u64, _count: usize| -> Dataset {
            if shard == 0 {
                attempts_seen.fetch_add(1, Ordering::SeqCst);
                panic!("this shard never succeeds");
            }
            Dataset::new(1, 2).unwrap()
        };
        let err = run_shards(&[(0, 1)], 3, 1, &always_fail, &no_save).unwrap_err();
        match err {
            ParallelError::ShardFailed {
                shard,
                attempts,
                last_error,
            } => {
                assert_eq!(shard, 0);
                assert_eq!(attempts, 4); // 2 parallel + 2 sequential-fallback
                assert!(last_error.contains("never succeeds"));
            }
            other => panic!("expected ShardFailed, got {other:?}"),
        }
        assert_eq!(attempts_seen.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn sequential_fallback_rescues_a_shard_that_fails_in_parallel_phase() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let _serial = serial();
        let calls = AtomicU32::new(0);
        // Fails the first 3 attempts (the whole parallel phase at
        // max_retries=2), succeeds on the 4th — i.e. only in the fallback.
        let worker = |_shard: usize, _seed: u64, _count: usize| -> Dataset {
            if calls.fetch_add(1, Ordering::SeqCst) < 3 {
                panic!("flaky");
            }
            Dataset::new(1, 2).unwrap()
        };
        let out = run_shards(&[(0, 0)], 11, DEFAULT_MAX_RETRIES, &worker, &no_save).unwrap();
        assert_eq!(out[0].3, 4);
    }

    #[test]
    fn a_finished_shard_is_saved_while_others_still_run() {
        let _serial = serial();
        let (saved, shard0_saved) = std::sync::mpsc::channel();
        let shard0_saved = Mutex::new(shard0_saved);
        // Shard 1 finishes only once shard 0 has been saved.
        let worker = |shard: usize, _seed: u64, _count: usize| -> Dataset {
            if shard == 1 {
                shard0_saved
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .recv_timeout(std::time::Duration::from_secs(10))
                    .expect("shard 0 is saved while shard 1 still runs");
            }
            Dataset::new(1, 2).unwrap()
        };
        let save = |shard: usize, _: &Dataset, _: u64, _: u32| {
            if shard == 0 {
                saved.send(()).expect("shard 1 is waiting");
            }
            Ok(())
        };
        let out = run_shards(&[(0, 0), (1, 0)], 1, 0, &worker, &save).unwrap();
        assert_eq!((out[0].3, out[1].3), (1, 1), "both first tries succeed");
    }

    /// Checkpoints `step` over 3 shards, loses shard 1 as a crash
    /// mid-write would, and resumes.
    fn resume_after_losing_a_shard(step: &dyn Step, tag: &str) {
        let dir = temp_dir(tag);
        let plain = generate(step, 30, 22, 3, None).unwrap();
        let first = generate(step, 30, 22, 3, Some(&dir)).unwrap();
        assert_eq!(first.dataset, plain.dataset);
        assert!(first.shards.iter().all(|a| !a.resumed && a.attempts == 1));
        std::fs::remove_file(shard_path(&dir, 1)).unwrap();
        let second = generate(step, 30, 22, 3, Some(&dir)).unwrap();
        assert_eq!(
            codec::to_bytes(&second.dataset),
            codec::to_bytes(&first.dataset)
        );
        let resumed: Vec<bool> = second.shards.iter().map(|a| a.resumed).collect();
        assert_eq!(resumed, [true, false, true], "{tag}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_reuses_intact_shards_and_is_identical() {
        let _serial = serial();
        let (p1, s1) = (problem(), spec(30, 22));
        resume_after_losing_a_shard(&(&p1, &s1), "resume1");
        let (p2, s2) = (Case2Problem::new(), Case2DatasetSpec::default());
        resume_after_losing_a_shard(&(&p2, &s2), "resume2");
        let (p3, s3) = (Case3Problem::new(), Case3DatasetSpec::default());
        resume_after_losing_a_shard(&(&p3, &s3), "resume3");
    }

    #[test]
    fn corrupt_shard_is_regenerated_not_trusted() {
        let _serial = serial();
        let (p, s) = (Case3Problem::new(), Case3DatasetSpec::default());
        let dir = temp_dir("corrupt");
        let first = generate(&(&p, &s), 30, 23, 3, Some(&dir)).unwrap();
        // Bit-flip shard 2 on disk.
        let path = shard_path(&dir, 2);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let second = generate(&(&p, &s), 30, 23, 3, Some(&dir)).unwrap();
        assert_eq!(first.dataset, second.dataset);
        assert!(second.shards[0].resumed && second.shards[1].resumed);
        assert!(
            !second.shards[2].resumed,
            "corrupt shard must be regenerated"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn another_case_or_spec_is_refused() {
        let _serial = serial();
        let (p1, s1) = (problem(), spec(30, 24));
        let (p2, s2) = (Case2Problem::new(), Case2DatasetSpec::default());
        let (p3, s3) = (Case3Problem::new(), Case3DatasetSpec::default());
        let other_range = Case1DatasetSpec {
            budget_log2_range: (6, 9),
            ..spec(30, 24)
        };
        let dir = temp_dir("mismatch");
        generate(&(&p1, &s1), 30, 24, 3, Some(&dir)).unwrap();
        let refused: [(&dyn Step, usize, u64, usize); 6] = [
            (&(&p3, &s3), 30, 24, 3),
            (&(&p2, &s2), 30, 24, 3),
            (&(&p1, &other_range), 30, 24, 3),
            (&(&p1, &s1), 40, 24, 3),
            (&(&p1, &s1), 30, 25, 3),
            (&(&p1, &s1), 30, 24, 2),
        ];
        for (i, (step, samples, seed, shards)) in refused.into_iter().enumerate() {
            let err = generate(step, samples, seed, shards, Some(&dir)).unwrap_err();
            assert!(
                matches!(err, ParallelError::ManifestMismatch { .. }),
                "case {i}: {err}"
            );
        }
        // The refusals left the directory as it was.
        let again = generate(&(&p1, &s1), 30, 24, 3, Some(&dir)).unwrap();
        assert!(again.shards.iter().all(|a| a.resumed));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Only meaningful with the failpoint framework compiled in
    /// (`cargo test -p airchitect-dse --features chaos`).
    #[cfg(feature = "chaos")]
    #[test]
    fn injected_shard_panics_are_retried_with_recorded_seeds() {
        let _serial = serial();
        let (p1, s1) = (problem(), spec(30, 5));
        let (p3, s3) = (Case3Problem::new(), Case3DatasetSpec::default());
        for (step, samples) in [(&(&p1, &s1) as &dyn Step, 30), (&(&p3, &s3), 12)] {
            let fired_before = airchitect_chaos::fired("dse.shard");
            airchitect_chaos::configure_str("dse.shard=panic:1:2").unwrap();
            let run = generate(step, samples, 5, 2, None);
            airchitect_chaos::remove("dse.shard");
            let run = run.unwrap();
            assert_eq!(airchitect_chaos::fired("dse.shard") - fired_before, 2);
            // Which shard takes the panics depends on scheduling, but
            // every one is paid for by a retry on a recorded fresh seed...
            let attempts: u32 = run.shards.iter().map(|a| a.attempts).sum();
            assert_eq!(attempts, 2 + 2);
            // ...and each shard holds exactly the samples that seed labels.
            let (features, classes) = step.schema();
            let mut expected = Dataset::new(features, classes).unwrap();
            for (audit, count) in run.shards.iter().zip(split_evenly(samples, 2)) {
                assert_eq!(audit.seed, attempt_seed(5, audit.shard, audit.attempts - 1));
                let shard = label_shard(step, audit.seed, count);
                for i in 0..shard.len() {
                    expected.push(shard.row(i), shard.label(i)).unwrap();
                }
            }
            assert_eq!(run.dataset.len(), samples);
            assert_eq!(run.dataset, expected);
        }
    }

    #[cfg(feature = "chaos")]
    #[test]
    fn injected_save_errors_surface_as_data_errors() {
        let _serial = serial();
        let (p, s) = (problem(), spec(10, 6));
        let dir = temp_dir("save-fault");
        airchitect_chaos::configure_str("dse.shard.save=err(other):1:1").unwrap();
        let err = generate(&(&p, &s), 10, 6, 2, Some(&dir)).unwrap_err();
        airchitect_chaos::remove("dse.shard.save");
        assert!(
            matches!(err, ParallelError::Data(DataError::Io(_))),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
