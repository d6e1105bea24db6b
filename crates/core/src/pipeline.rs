//! End-to-end pipelines: dataset generation → 80:10:10 split → training →
//! test-set evaluation, for each case study.
//!
//! These are the flows the figure-regeneration binaries in
//! `airchitect-bench` drive; they are also the highest-level public API for
//! users who want a trained recommender in one call.

use std::path::PathBuf;

use airchitect_data::{split, Dataset};
use airchitect_dse::case1::{self, Case1DatasetSpec, Case1Problem};
use airchitect_dse::case2::{self, Case2DatasetSpec, Case2Problem};
use airchitect_dse::case3::{self, Case3DatasetSpec, Case3Problem};
use airchitect_dse::parallel::{self, ParallelError};
use airchitect_nn::optim::Optimizer;
use airchitect_nn::train::{TrainConfig, TrainError};
use airchitect_telemetry::span::Span;

use crate::checkpoint::{self, CheckpointError, RunFingerprint};
use crate::eval::{self, PenaltyReport};
use crate::model::{AirchitectConfig, AirchitectModel, CaseStudy, TrainReport};

/// Shared pipeline knobs.
///
/// Defaults are sized for a single CPU core (see DESIGN.md §3): they
/// reproduce each figure's *shape* at reduced scale. Scale `samples` and
/// `epochs` up on bigger machines to approach the paper's absolute numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Labeled samples to generate (paper: up to 4.5 M).
    pub samples: usize,
    /// Training epochs (paper: 15–22).
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Seed for generation, splitting, initialization, and shuffling.
    pub seed: u64,
    /// Use a class-stratified split instead of the paper's plain random
    /// 80:10:10 — reduces evaluation noise on the long-tailed CS2/CS3 label
    /// distributions (off by default for paper fidelity).
    pub stratify: bool,
    /// Kernel threads for training's forward/backward products. Results
    /// are byte-identical for any value (the compute engine's partition is
    /// fixed); this only changes wall-clock time. Must be at least 1.
    pub threads: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            samples: 20_000,
            epochs: 15,
            batch_size: 256,
            seed: 0,
            stratify: false,
            threads: 1,
        }
    }
}

impl PipelineConfig {
    fn train_config(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            batch_size: self.batch_size,
            optimizer: Optimizer::adam(1e-3),
            seed: self.seed,
            lr_decay: 1.0,
            threads: self.threads,
        }
    }
}

/// Fault-tolerance knobs for a checkpointed pipeline run.
///
/// All checkpoint artifacts live under `dir`: the training snapshot
/// (`checkpoint.airc`) at the top level and per-shard dataset-generation
/// files under `dir/generation`. A run killed at any point — even
/// `SIGKILL` mid-write — can be resumed from the same directory and
/// finishes bit-identical to an uninterrupted run.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointConfig {
    /// Directory for checkpoint artifacts (created if absent).
    pub dir: PathBuf,
    /// Snapshot training state every N completed epochs (the final epoch
    /// is always snapshotted). Must be at least 1.
    pub every_epochs: usize,
    /// Dataset-generation checkpoint granularity: target samples per
    /// persisted shard. Smaller values lose less work on a crash but write
    /// more files. Must be at least 1.
    pub every_samples: usize,
}

impl CheckpointConfig {
    /// Checkpoints into `dir` after every epoch and every ~5000 generated
    /// samples.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            every_epochs: 1,
            every_samples: 5_000,
        }
    }
}

/// Error from a fault-tolerant pipeline run.
#[derive(Debug)]
pub enum PipelineError {
    /// A [`CheckpointConfig`] cadence was zero.
    Config(&'static str),
    /// Dataset generation failed (a shard exhausted its retries, or the
    /// checkpoint directory belongs to a different generation spec).
    Generation(ParallelError),
    /// The training checkpoint could not be read, or belongs to a
    /// different run.
    Checkpoint(CheckpointError),
    /// Training diverged (NaN/Inf loss or exploding gradients).
    Diverged {
        /// Epoch (0-based) in which divergence was detected.
        epoch: usize,
        /// Batch index within that epoch.
        batch: usize,
        /// The last good checkpoint to restart from, if one was written.
        last_checkpoint: Option<PathBuf>,
    },
    /// Any other training failure.
    Train(TrainError),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Config(what) => write!(f, "bad checkpoint config: {what}"),
            PipelineError::Generation(e) => write!(f, "dataset generation failed: {e}"),
            PipelineError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            PipelineError::Diverged {
                epoch,
                batch,
                last_checkpoint,
            } => {
                write!(f, "training diverged at epoch {epoch}, batch {batch}")?;
                match last_checkpoint {
                    Some(p) => write!(
                        f,
                        "; restart with a gentler schedule from the last good checkpoint at {}",
                        p.display()
                    ),
                    None => write!(f, "; no checkpoint had been written yet"),
                }
            }
            PipelineError::Train(e) => write!(f, "training failed: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<ParallelError> for PipelineError {
    fn from(e: ParallelError) -> Self {
        PipelineError::Generation(e)
    }
}

impl From<CheckpointError> for PipelineError {
    fn from(e: CheckpointError) -> Self {
        PipelineError::Checkpoint(e)
    }
}

/// Everything a pipeline run produces.
#[derive(Debug, Clone)]
pub struct CaseStudyRun {
    /// Which case study ran.
    pub case: CaseStudy,
    /// The trained model.
    pub model: AirchitectModel,
    /// Training curves (paper Fig. 10a-c).
    pub report: TrainReport,
    /// Accuracy on the held-out test split.
    pub test_accuracy: f64,
    /// Misprediction-penalty analysis on the test split (paper Fig. 10g-h).
    pub penalty: PenaltyReport,
    /// Actual-vs-predicted label histograms on the test split
    /// (paper Fig. 10d-f).
    pub label_distributions: (Vec<usize>, Vec<usize>),
    /// The held-out test split (raw features), for further analysis.
    pub test_set: Dataset,
}

fn run_common(
    case: CaseStudy,
    dataset: Dataset,
    num_classes: u32,
    config: &PipelineConfig,
    penalty: impl FnOnce(&Dataset, &[u32]) -> PenaltyReport,
) -> CaseStudyRun {
    let split = if config.stratify {
        split::stratified(&dataset, 0.8, 0.1, 0.1, config.seed)
            .expect("80:10:10 fractions are valid")
    } else {
        split::paper_split(&dataset, config.seed).expect("80:10:10 fractions are valid")
    };
    let mut model = AirchitectModel::new(
        case,
        &AirchitectConfig {
            num_classes,
            train: config.train_config(),
            seed: config.seed,
            ..Default::default()
        },
    );
    let report = {
        let mut span = Span::enter("pipeline.train");
        span.field_u64("train_rows", split.train.len() as u64);
        model
            .train_with_validation(&split.train, Some(&split.validation))
            .expect("generated datasets are valid")
    };
    finish_run(case, model, report, split.test, penalty)
}

/// Evaluates a trained model on the test split and assembles the run record.
fn finish_run(
    case: CaseStudy,
    model: AirchitectModel,
    report: TrainReport,
    test: Dataset,
    penalty: impl FnOnce(&Dataset, &[u32]) -> PenaltyReport,
) -> CaseStudyRun {
    let mut span = Span::enter("pipeline.eval");
    span.field_u64("test_rows", test.len() as u64);
    let predictions = model.predict(&test);
    let test_accuracy = airchitect_nn::metrics::accuracy(&predictions, test.labels());
    let penalty = penalty(&test, &predictions);
    let label_distributions = eval::label_distributions(&test, &predictions);
    span.field_f64("test_accuracy", test_accuracy);
    drop(span);
    CaseStudyRun {
        case,
        model,
        report,
        test_accuracy,
        penalty,
        label_distributions,
        test_set: test,
    }
}

/// Runs the full case-study-1 pipeline for a given maximum MAC budget.
///
/// `budget_log2_range` is the range of budgets sampled into the dataset;
/// the output space is enumerated at its upper end.
pub fn run_case1(config: &PipelineConfig, budget_log2_range: (u32, u32)) -> CaseStudyRun {
    let problem = Case1Problem::new(1u64 << budget_log2_range.1);
    let dataset = {
        let mut span = Span::enter("pipeline.datagen");
        span.field_u64("samples", config.samples as u64);
        span.field_str("case", "cs1");
        case1::generate_dataset(
            &problem,
            &Case1DatasetSpec {
                samples: config.samples,
                budget_log2_range,
                seed: config.seed,
            },
        )
    };
    let classes = problem.space().len() as u32;
    run_common(
        CaseStudy::ArrayDataflow,
        dataset,
        classes,
        config,
        |test, preds| eval::case1_penalty(&problem, test, preds),
    )
}

/// Runs the case-study-1 pipeline with crash-safe checkpointing.
///
/// Generation runs `samples / every_samples` shards (rounded up), one
/// thread each, and persists each under `ckpt.dir/generation`; at one
/// shard the dataset is [`run_case1`]'s. Training snapshots the model +
/// optimizer state into `ckpt.dir/checkpoint.airc` every
/// [`CheckpointConfig::every_epochs`] epochs. With `resume` set, an
/// existing matching checkpoint is picked up and the run finishes
/// bit-identical to an uninterrupted one; without it (or when no
/// checkpoint exists yet) training starts fresh, though intact generation
/// shards are still reused.
///
/// # Errors
///
/// [`PipelineError::Generation`] for a bad budget range, a shard that
/// fails every retry or a directory checkpointed with another spec;
/// [`PipelineError::Checkpoint`] when `resume` finds a damaged or
/// mismatched training checkpoint; and [`PipelineError::Diverged`] — with
/// the last good checkpoint path — when training blows up.
pub fn run_case1_checkpointed(
    config: &PipelineConfig,
    budget_log2_range: (u32, u32),
    ckpt: &CheckpointConfig,
    resume: bool,
) -> Result<CaseStudyRun, PipelineError> {
    run_case1_checkpointed_impl(config, budget_log2_range, ckpt, resume, None, None)
}

/// The body of [`run_case1_checkpointed`], with test hooks: an optional
/// simulated crash after N epochs and an optimizer override.
fn run_case1_checkpointed_impl(
    config: &PipelineConfig,
    budget_log2_range: (u32, u32),
    ckpt: &CheckpointConfig,
    resume: bool,
    interrupt_after: Option<usize>,
    optimizer_override: Option<Optimizer>,
) -> Result<CaseStudyRun, PipelineError> {
    if ckpt.every_epochs == 0 {
        return Err(PipelineError::Config("every_epochs must be at least 1"));
    }
    if ckpt.every_samples == 0 {
        return Err(PipelineError::Config("every_samples must be at least 1"));
    }

    let problem = Case1Problem::new(1u64 << budget_log2_range.1);
    let spec = Case1DatasetSpec {
        samples: config.samples,
        budget_log2_range,
        seed: config.seed,
    };
    let shards = config.samples.div_ceil(ckpt.every_samples).max(1);
    let generated = {
        let mut span = Span::enter("pipeline.datagen");
        span.field_u64("samples", config.samples as u64);
        span.field_u64("shards", shards as u64);
        span.field_str("case", "cs1");
        let (step, dir) = ((&problem, &spec), ckpt.dir.join("generation"));
        parallel::generate(&step, config.samples, config.seed, shards, Some(&dir))?
    };

    let split = if config.stratify {
        split::stratified(&generated.dataset, 0.8, 0.1, 0.1, config.seed)
            .expect("80:10:10 fractions are valid")
    } else {
        split::paper_split(&generated.dataset, config.seed).expect("80:10:10 fractions are valid")
    };

    let mut tc = config.train_config();
    if let Some(opt) = optimizer_override {
        tc.optimizer = opt;
    }
    let fresh = AirchitectModel::new(
        CaseStudy::ArrayDataflow,
        &AirchitectConfig {
            num_classes: problem.space().len() as u32,
            train: tc,
            seed: config.seed,
            ..Default::default()
        },
    );
    let (model, report) = train_checkpointed_impl(
        fresh,
        &split.train,
        Some(&split.validation),
        ckpt,
        resume,
        interrupt_after,
    )?;

    Ok(finish_run(
        CaseStudy::ArrayDataflow,
        model,
        report,
        split.test,
        |test, preds| eval::case1_penalty(&problem, test, preds),
    ))
}

/// Trains a model with crash-safe checkpointing into `ckpt.dir`.
///
/// The schedule comes from the fresh model's `config().train`. The model +
/// optimizer state is snapshotted atomically every
/// [`CheckpointConfig::every_epochs`] completed epochs (and always after
/// the final one). With `resume`, a checkpoint matching this exact
/// `(schedule, dataset)` is picked up, the remaining epochs run, and the
/// final model is bit-identical to an uninterrupted run; a missing
/// checkpoint file silently falls back to a fresh start, which is what
/// lets "rerun the same command after a crash" work unconditionally.
/// Damaged or mismatched checkpoints are NOT silently discarded —
/// retraining is expensive, so they are surfaced as errors.
///
/// Returns the trained model and the report covering the epochs that
/// actually ran.
///
/// # Errors
///
/// [`PipelineError::Checkpoint`] for unreadable/foreign checkpoints or a
/// failed snapshot write, [`PipelineError::Diverged`] (with the last good
/// checkpoint path) when training blows up, and [`PipelineError::Train`]
/// for other trainer failures.
pub fn train_checkpointed(
    fresh: AirchitectModel,
    train: &Dataset,
    validation: Option<&Dataset>,
    ckpt: &CheckpointConfig,
    resume: bool,
) -> Result<(AirchitectModel, TrainReport), PipelineError> {
    train_checkpointed_impl(fresh, train, validation, ckpt, resume, None)
}

/// Body of [`train_checkpointed`], with a test hook simulating a crash
/// after N completed epochs.
fn train_checkpointed_impl(
    fresh: AirchitectModel,
    train: &Dataset,
    validation: Option<&Dataset>,
    ckpt: &CheckpointConfig,
    resume: bool,
    interrupt_after: Option<usize>,
) -> Result<(AirchitectModel, TrainReport), PipelineError> {
    if ckpt.every_epochs == 0 {
        return Err(PipelineError::Config("every_epochs must be at least 1"));
    }
    let tc = fresh.config().train;
    let fingerprint = RunFingerprint::new(&tc, train);
    let case = fresh.case_study();

    let (mut model, resume_point) = if resume {
        match checkpoint::load(&ckpt.dir, Some(&fingerprint)) {
            Ok(c) => {
                let rp = c.resume_point();
                let mut m = c.model;
                m.set_train_config(tc);
                (m, Some(rp))
            }
            Err(CheckpointError::Io(_)) => (fresh, None),
            Err(e) => return Err(e.into()),
        }
    } else {
        (fresh, None)
    };

    let quantizer = model.quantizer().clone();
    let mut last_checkpoint = resume_point
        .as_ref()
        .map(|_| checkpoint::checkpoint_path(&ckpt.dir));
    let mut save_failure: Option<CheckpointError> = None;
    let mut train_span = Span::enter("pipeline.train");
    train_span.field_u64("train_rows", train.len() as u64);
    if resume_point.is_some() {
        train_span.field_str("resumed", "yes");
    }
    let result = model.train_resumable(train, validation, resume_point, |c| {
        let done = c.epoch + 1;
        if done % ckpt.every_epochs == 0 || done == tc.epochs {
            let snapshot =
                AirchitectModel::from_parts(case, quantizer.clone(), c.network.clone(), true);
            match checkpoint::save(&ckpt.dir, &snapshot, c.optimizer, done as u32, &fingerprint) {
                Ok(path) => last_checkpoint = Some(path),
                Err(e) => {
                    let msg = e.to_string();
                    save_failure = Some(e);
                    return Err(msg);
                }
            }
        }
        if interrupt_after == Some(done) {
            return Err("interrupted by test hook".to_string());
        }
        Ok(())
    });
    drop(train_span);
    match result {
        Ok(report) => Ok((model, report)),
        Err(TrainError::Diverged { epoch, batch }) => Err(PipelineError::Diverged {
            epoch,
            batch,
            last_checkpoint,
        }),
        Err(e) => Err(match save_failure {
            Some(ce) => PipelineError::Checkpoint(ce),
            None => PipelineError::Train(e),
        }),
    }
}

/// Runs the full case-study-2 pipeline.
pub fn run_case2(config: &PipelineConfig) -> CaseStudyRun {
    let problem = Case2Problem::new();
    let dataset = {
        let mut span = Span::enter("pipeline.datagen");
        span.field_u64("samples", config.samples as u64);
        span.field_str("case", "cs2");
        case2::generate_dataset(
            &problem,
            &Case2DatasetSpec {
                samples: config.samples,
                seed: config.seed,
                ..Default::default()
            },
        )
    };
    run_common(
        CaseStudy::BufferSizing,
        dataset,
        problem.space().len() as u32,
        config,
        |test, preds| eval::case2_penalty(&problem, test, preds),
    )
}

/// Runs the full case-study-3 pipeline.
pub fn run_case3(config: &PipelineConfig) -> CaseStudyRun {
    let problem = Case3Problem::new();
    let dataset = {
        let mut span = Span::enter("pipeline.datagen");
        span.field_u64("samples", config.samples as u64);
        span.field_str("case", "cs3");
        case3::generate_dataset(
            &problem,
            &Case3DatasetSpec {
                samples: config.samples,
                seed: config.seed,
            },
        )
    };
    run_common(
        CaseStudy::MultiArrayScheduling,
        dataset,
        problem.space().len() as u32,
        config,
        |test, preds| eval::case3_penalty(&problem, test, preds),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> PipelineConfig {
        PipelineConfig {
            samples: 600,
            epochs: 6,
            batch_size: 64,
            seed: 7,
            stratify: false,
            threads: 1,
        }
    }

    #[test]
    fn case1_pipeline_end_to_end() {
        let run = run_case1(&quick(), (5, 9));
        assert_eq!(run.case, CaseStudy::ArrayDataflow);
        assert!(run.model.is_trained());
        assert_eq!(run.report.history.epochs.len(), 6);
        // 10% test split of 600.
        assert_eq!(run.test_set.len(), 60);
        assert_eq!(run.penalty.performances.len(), 60);
        // Even a barely-trained model beats random (1/space) by a lot, and
        // its penalty geomean must be a valid fraction.
        assert!(run.penalty.geomean > 0.0 && run.penalty.geomean <= 1.0 + 1e-9);
        let (actual, predicted) = &run.label_distributions;
        assert_eq!(actual.iter().sum::<usize>(), 60);
        assert_eq!(predicted.iter().sum::<usize>(), 60);
    }

    #[test]
    fn case2_pipeline_end_to_end() {
        let run = run_case2(&quick());
        assert_eq!(run.case, CaseStudy::BufferSizing);
        assert_eq!(run.test_set.feature_dim(), 8);
        assert!(run.test_accuracy >= 0.0);
        assert!(run.penalty.geomean > 0.0);
    }

    #[test]
    fn case3_pipeline_end_to_end() {
        let cfg = PipelineConfig {
            samples: 200,
            epochs: 4,
            ..quick()
        };
        let run = run_case3(&cfg);
        assert_eq!(run.case, CaseStudy::MultiArrayScheduling);
        assert_eq!(run.test_set.feature_dim(), 12);
        assert!(run.penalty.geomean > 0.0);
    }

    #[test]
    fn pipelines_are_reproducible() {
        let a = run_case1(&quick(), (5, 8));
        let b = run_case1(&quick(), (5, 8));
        assert_eq!(a.test_accuracy, b.test_accuracy);
        assert_eq!(a.penalty.performances, b.penalty.performances);
    }

    fn temp_ckpt(tag: &str) -> CheckpointConfig {
        let dir =
            std::env::temp_dir().join(format!("airchitect-pipe-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        CheckpointConfig {
            every_epochs: 2,
            every_samples: 200,
            ..CheckpointConfig::new(dir)
        }
    }

    #[test]
    fn checkpointed_run_completes_and_writes_artifacts() {
        let ckpt = temp_ckpt("basic");
        let run = run_case1_checkpointed(&quick(), (5, 8), &ckpt, false).unwrap();
        assert!(run.model.is_trained());
        assert_eq!(run.report.history.epochs.len(), 6);
        assert!(checkpoint::checkpoint_path(&ckpt.dir).exists());
        assert!(ckpt.dir.join("generation").join("manifest.txt").exists());
        // 600 samples at 200/shard.
        assert!(ckpt.dir.join("generation").join("shard-0002.aids").exists());
        std::fs::remove_dir_all(&ckpt.dir).ok();
    }

    #[test]
    fn resume_after_simulated_crash_is_bit_identical() {
        let cfg = quick();
        let reference = temp_ckpt("ref");
        let interrupted = temp_ckpt("crash");

        let full =
            run_case1_checkpointed_impl(&cfg, (5, 8), &reference, false, None, None).unwrap();

        // Crash right after the epoch-4 snapshot (every_epochs = 2).
        let err = run_case1_checkpointed_impl(&cfg, (5, 8), &interrupted, false, Some(4), None)
            .unwrap_err();
        assert!(matches!(
            err,
            PipelineError::Train(TrainError::Checkpoint(_))
        ));

        let resumed =
            run_case1_checkpointed_impl(&cfg, (5, 8), &interrupted, true, None, None).unwrap();
        // Only the remaining epochs ran...
        assert_eq!(resumed.report.history.epochs.len(), 2);
        // ...and the result is bit-identical to the uninterrupted run.
        assert_eq!(
            crate::persist::to_bytes(&resumed.model),
            crate::persist::to_bytes(&full.model)
        );
        assert_eq!(resumed.test_accuracy, full.test_accuracy);
        assert_eq!(resumed.penalty.performances, full.penalty.performances);

        std::fs::remove_dir_all(&reference.dir).ok();
        std::fs::remove_dir_all(&interrupted.dir).ok();
    }

    #[test]
    fn resume_with_different_schedule_is_rejected() {
        let ckpt = temp_ckpt("sched");
        run_case1_checkpointed(&quick(), (5, 8), &ckpt, false).unwrap();
        let longer = PipelineConfig {
            epochs: 9,
            ..quick()
        };
        let err = run_case1_checkpointed(&longer, (5, 8), &ckpt, true).unwrap_err();
        assert!(matches!(
            err,
            PipelineError::Checkpoint(crate::checkpoint::CheckpointError::Mismatch(
                "epoch schedule"
            ))
        ));
        std::fs::remove_dir_all(&ckpt.dir).ok();
    }

    #[test]
    fn divergence_is_surfaced_with_checkpoint_context() {
        let ckpt = temp_ckpt("diverge");
        let err = run_case1_checkpointed_impl(
            &quick(),
            (5, 8),
            &ckpt,
            false,
            None,
            Some(Optimizer::sgd(1e30)),
        )
        .unwrap_err();
        match err {
            PipelineError::Diverged {
                epoch,
                last_checkpoint,
                ..
            } => {
                assert_eq!(epoch, 0, "sgd(1e30) must blow up immediately");
                assert!(last_checkpoint.is_none(), "no snapshot had been written");
                let msg = PipelineError::Diverged {
                    epoch,
                    batch: 1,
                    last_checkpoint: Some(ckpt.dir.join("checkpoint.airc")),
                }
                .to_string();
                assert!(msg.contains("diverged") && msg.contains("checkpoint.airc"));
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
        std::fs::remove_dir_all(&ckpt.dir).ok();
    }

    #[test]
    fn zero_cadence_is_a_config_error() {
        let mut ckpt = temp_ckpt("zero");
        ckpt.every_epochs = 0;
        assert!(matches!(
            run_case1_checkpointed(&quick(), (5, 8), &ckpt, false).unwrap_err(),
            PipelineError::Config(_)
        ));
        ckpt.every_epochs = 2;
        ckpt.every_samples = 0;
        assert!(matches!(
            run_case1_checkpointed(&quick(), (5, 8), &ckpt, false).unwrap_err(),
            PipelineError::Config(_)
        ));
    }
}
