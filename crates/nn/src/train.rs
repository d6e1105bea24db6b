//! Seeded minibatch trainer.
//!
//! Mirrors the paper's training setup: categorical cross-entropy loss with
//! accuracy as the tracked metric, returning per-epoch train/validation
//! accuracy curves (paper Fig. 10a-c).

use airchitect_data::Dataset;
use airchitect_telemetry as telemetry;
use airchitect_tensor::{gemm, ops, Matrix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::loss::softmax_cross_entropy_into;
use crate::metrics;
use crate::network::{Sequential, Workspace};
use crate::optim::Optimizer;

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Optimizer (the paper uses Keras defaults; Adam here).
    pub optimizer: Optimizer,
    /// Shuffling seed.
    pub seed: u64,
    /// Multiplicative learning-rate decay applied after each epoch
    /// (`1.0` disables it; e.g. `0.9` is a gentle step schedule).
    pub lr_decay: f32,
    /// Kernel threads for the forward/backward products. The compute
    /// engine's partition is fixed, so this never changes the trained
    /// model — any value produces byte-identical results; it only
    /// changes wall-clock time. Must be at least 1.
    pub threads: usize,
}

impl Default for TrainConfig {
    /// 15 epochs (the paper's CS1 budget), batch 256, Adam(1e-3), no decay,
    /// single-threaded kernels.
    fn default() -> Self {
        Self {
            epochs: 15,
            batch_size: 256,
            optimizer: Optimizer::adam(1e-3),
            seed: 0,
            lr_decay: 1.0,
            threads: 1,
        }
    }
}

/// Statistics of one training epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch's batches.
    pub train_loss: f64,
    /// Training accuracy measured over the epoch's batches (online).
    pub train_accuracy: f64,
    /// Validation accuracy after the epoch, if a validation set was given.
    pub val_accuracy: Option<f64>,
}

/// The accuracy/loss curves of a training run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct History {
    /// One entry per epoch, in order.
    pub epochs: Vec<EpochStats>,
}

impl History {
    /// Training accuracy of the last epoch.
    ///
    /// # Panics
    ///
    /// Panics if the history is empty.
    pub fn final_train_accuracy(&self) -> f64 {
        self.epochs
            .last()
            .expect("history is non-empty")
            .train_accuracy
    }

    /// Validation accuracy of the last epoch, if tracked.
    pub fn final_val_accuracy(&self) -> Option<f64> {
        self.epochs.last().and_then(|e| e.val_accuracy)
    }

    /// Best validation accuracy across epochs, if tracked.
    pub fn best_val_accuracy(&self) -> Option<f64> {
        self.epochs
            .iter()
            .filter_map(|e| e.val_accuracy)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }
}

/// Error returned when training is misconfigured or goes numerically wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// The training set is empty.
    EmptyDataset,
    /// The dataset width does not match the network input.
    DimMismatch {
        /// Width the network expects.
        expected: usize,
        /// Width the dataset provides.
        got: usize,
    },
    /// Zero epochs or zero batch size.
    BadConfig,
    /// Training diverged: the loss went NaN/Inf or the gradient norm
    /// exploded. The model is left in its (useless) post-divergence state;
    /// restart from a checkpoint with a gentler configuration.
    Diverged {
        /// Epoch (0-based) in which divergence was detected.
        epoch: usize,
        /// Batch index within that epoch.
        batch: usize,
    },
    /// A resume point is inconsistent with the configuration (e.g. more
    /// epochs completed than the schedule has).
    BadResume(&'static str),
    /// The per-epoch checkpoint observer failed (e.g. disk full while
    /// writing a snapshot).
    Checkpoint(String),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::EmptyDataset => write!(f, "training set is empty"),
            TrainError::DimMismatch { expected, got } => {
                write!(f, "network expects {expected} features, dataset has {got}")
            }
            TrainError::BadConfig => write!(f, "epochs and batch size must be positive"),
            TrainError::Diverged { epoch, batch } => {
                write!(f, "training diverged at epoch {epoch}, batch {batch} (NaN/Inf loss or exploding gradients)")
            }
            TrainError::BadResume(what) => write!(f, "cannot resume: {what}"),
            TrainError::Checkpoint(msg) => write!(f, "checkpoint observer failed: {msg}"),
        }
    }
}

impl std::error::Error for TrainError {}

/// Gradient-norm ceiling for the divergence guard: generous enough for any
/// healthy run of the paper's models, tripped quickly by a runaway one.
const GRAD_NORM_LIMIT: f32 = 1e6;

/// Where a resumed run picks up: the first epoch still to execute and the
/// optimizer exactly as it was after the last completed epoch (learning-rate
/// decay already applied — the trainer does not reapply it while catching
/// up).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResumePoint {
    /// The first epoch to run (= number of epochs already completed).
    pub next_epoch: usize,
    /// Optimizer state after the last completed epoch.
    pub optimizer: Optimizer,
}

/// Everything a checkpoint observer needs to snapshot one completed epoch.
#[derive(Debug)]
pub struct EpochCheckpoint<'a> {
    /// The epoch just completed (0-based).
    pub epoch: usize,
    /// Network after the epoch's updates.
    pub network: &'a Sequential,
    /// Optimizer after the epoch (learning-rate decay applied).
    pub optimizer: &'a Optimizer,
    /// The epoch's statistics.
    pub stats: &'a EpochStats,
}

/// Builds the feature matrix and label list for a batch of row indices,
/// reusing the caller's buffers.
///
/// `x` is resized to `indices.len() × feature_dim` (reusing its capacity)
/// and `labels` is cleared and refilled, so a persistent pair of buffers
/// makes batch assembly allocation-free after the first full-size batch.
pub fn gather_into(dataset: &Dataset, indices: &[usize], x: &mut Matrix, labels: &mut Vec<u32>) {
    let dim = dataset.feature_dim();
    x.resize(indices.len(), dim);
    labels.clear();
    for (r, &i) in indices.iter().enumerate() {
        x.row_mut(r).copy_from_slice(dataset.row(i));
        labels.push(dataset.label(i));
    }
}

/// Trains `network` on `train`, optionally tracking validation accuracy.
///
/// # Errors
///
/// Returns [`TrainError`] for empty datasets, width mismatches, a zero
/// epoch/batch configuration, or numerical divergence.
pub fn fit(
    network: &mut Sequential,
    train: &Dataset,
    validation: Option<&Dataset>,
    config: &TrainConfig,
) -> Result<History, TrainError> {
    fit_resumable(network, train, validation, config, None, |_| Ok(()))
}

/// Trains `network` on `train`, optionally resuming from a checkpoint and
/// invoking `observer` after every completed epoch.
///
/// When `resume` is given, the trainer fast-forwards its shuffle stream to
/// `next_epoch` (replaying the completed epochs' permutations against the
/// seeded RNG) and continues with the restored optimizer, so an interrupted
/// run that restarts from a snapshot of `(network, optimizer, next_epoch)`
/// produces bit-identical results to an uninterrupted one. Only the
/// remaining epochs appear in the returned [`History`].
///
/// Note: the guarantee covers the dropout-free architectures the pipelines
/// use; [`Sequential::embedding_mlp_dropout`]'s per-call mask counter is
/// not part of the snapshot.
///
/// The observer typically writes a checkpoint; an `Err(msg)` from it
/// surfaces as [`TrainError::Checkpoint`] and aborts training.
///
/// # Errors
///
/// Returns [`TrainError`] for invalid inputs/config, an inconsistent
/// resume point, divergence (NaN/Inf loss or exploding gradients), or an
/// observer failure.
pub fn fit_resumable<F>(
    network: &mut Sequential,
    train: &Dataset,
    validation: Option<&Dataset>,
    config: &TrainConfig,
    resume: Option<ResumePoint>,
    mut observer: F,
) -> Result<History, TrainError>
where
    F: FnMut(&EpochCheckpoint<'_>) -> Result<(), String>,
{
    if train.is_empty() {
        return Err(TrainError::EmptyDataset);
    }
    if train.feature_dim() != network.in_dim() {
        return Err(TrainError::DimMismatch {
            expected: network.in_dim(),
            got: train.feature_dim(),
        });
    }
    if config.epochs == 0 || config.batch_size == 0 || config.threads == 0 {
        return Err(TrainError::BadConfig);
    }
    if !(config.lr_decay > 0.0 && config.lr_decay <= 1.0) {
        return Err(TrainError::BadConfig);
    }
    let (start, mut optimizer) = match resume {
        Some(r) => {
            if r.next_epoch > config.epochs {
                return Err(TrainError::BadResume(
                    "checkpoint has more epochs than the schedule",
                ));
            }
            (r.next_epoch, r.optimizer)
        }
        None => (0, config.optimizer),
    };

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut indices: Vec<usize> = (0..train.len()).collect();
    let mut history = History::default();

    // Fast-forward the shuffle stream over the epochs a resumed run has
    // already completed.
    for _ in 0..start {
        indices.shuffle(&mut rng);
    }

    // Persistent buffers for the hot loop: after the first full-size batch
    // every iteration reuses these and the workspace, so a steady-state
    // batch performs zero heap allocations.
    let mut ws = Workspace::with_threads(config.threads);
    let mut batch_x = Matrix::zeros(1, 1);
    let mut labels: Vec<u32> = Vec::new();
    let mut loss_grad = Matrix::zeros(1, 1);
    let mut preds: Vec<u32> = Vec::new();

    for epoch in start..config.epochs {
        // Coarse telemetry: one span per epoch (closing after the observer,
        // so checkpoint writes nest inside it). The per-batch loop below
        // records only into atomic metrics — no locks, no allocations.
        let mut epoch_span = telemetry::span::Span::enter("train.epoch");
        indices.shuffle(&mut rng);
        let mut loss_sum = 0.0f64;
        let mut correct = 0usize;
        let mut batches = 0usize;
        for (batch, chunk) in indices.chunks(config.batch_size).enumerate() {
            let _batch_timer = telemetry::metrics::TRAIN_BATCH_US.start_timer();
            telemetry::metrics::TRAIN_BATCHES.inc();
            gather_into(train, chunk, &mut batch_x, &mut labels);
            let logits = network.forward_ws(&batch_x, &mut ws, true);
            let loss = softmax_cross_entropy_into(
                logits,
                &labels,
                &mut loss_grad,
                &mut preds,
                config.threads,
            );
            if !loss.is_finite() {
                return Err(TrainError::Diverged { epoch, batch });
            }
            correct += preds.iter().zip(&labels).filter(|(p, l)| p == l).count();
            network.backward_ws(&loss_grad, &mut ws);
            let mut grad_sq = 0.0f32;
            network.for_each_param(|p| {
                grad_sq += p.grad.iter().map(|g| g * g).sum::<f32>();
            });
            if !grad_sq.is_finite() || grad_sq.sqrt() > GRAD_NORM_LIMIT {
                return Err(TrainError::Diverged { epoch, batch });
            }
            let ctx = optimizer.prepare();
            network.for_each_param(|p| ctx.apply(p));
            loss_sum += loss as f64;
            batches += 1;
        }
        let val_accuracy = validation
            .map(|v| metrics::accuracy(&predict_on(network, v, config.threads), v.labels()));
        history.epochs.push(EpochStats {
            epoch,
            train_loss: loss_sum / batches as f64,
            train_accuracy: correct as f64 / train.len() as f64,
            val_accuracy,
        });
        let stats = history.epochs.last().expect("just pushed");
        telemetry::metrics::TRAIN_EPOCHS.inc();
        telemetry::metrics::TRAIN_LOSS.set(stats.train_loss);
        telemetry::metrics::TRAIN_ACCURACY.set(stats.train_accuracy);
        epoch_span.field_u64("epoch", epoch as u64);
        epoch_span.field_u64("batches", batches as u64);
        epoch_span.field_f64("loss", stats.train_loss);
        epoch_span.field_f64("accuracy", stats.train_accuracy);
        if let Some(v) = val_accuracy {
            epoch_span.field_f64("val_accuracy", v);
        }
        optimizer.scale_lr(config.lr_decay);
        observer(&EpochCheckpoint {
            epoch,
            network,
            optimizer: &optimizer,
            stats: history.epochs.last().expect("just pushed"),
        })
        .map_err(TrainError::Checkpoint)?;
    }
    Ok(history)
}

/// Classification accuracy of `network` on `dataset` (batched inference).
///
/// # Panics
///
/// Panics if `dataset` is empty or its width mismatches the network.
pub fn evaluate(network: &mut Sequential, dataset: &Dataset) -> f64 {
    let predictions = predict_dataset(network, dataset);
    metrics::accuracy(&predictions, dataset.labels())
}

/// Predicted labels for every row of `dataset`.
///
/// # Panics
///
/// Panics if the dataset width mismatches the network input.
pub fn predict_dataset(network: &mut Sequential, dataset: &Dataset) -> Vec<u32> {
    predict_dataset_infer(network, dataset)
}

/// [`predict_dataset`] over a shared network reference.
///
/// Runs batched inference through a local [`Workspace`] (kernel threads
/// from the process-wide setting), so callers that hold a model inside a
/// larger structure don't need `&mut` access — or a clone — to predict.
///
/// # Panics
///
/// Panics if the dataset width mismatches the network input.
pub fn predict_dataset_infer(network: &Sequential, dataset: &Dataset) -> Vec<u32> {
    predict_on(network, dataset, gemm::num_threads())
}

/// [`predict_dataset_infer`] on `threads` kernel threads.
fn predict_on(network: &Sequential, dataset: &Dataset, threads: usize) -> Vec<u32> {
    assert_eq!(
        dataset.feature_dim(),
        network.in_dim(),
        "dataset width mismatches network input"
    );
    let mut ws = Workspace::with_threads(threads);
    let mut x = Matrix::zeros(1, 1);
    let mut labels: Vec<u32> = Vec::new();
    let mut preds: Vec<u32> = Vec::new();
    let mut out = Vec::with_capacity(dataset.len());
    let indices: Vec<usize> = (0..dataset.len()).collect();
    for chunk in indices.chunks(1024) {
        gather_into(dataset, chunk, &mut x, &mut labels);
        let logits = network.infer_ws(&x, &mut ws);
        ops::argmax_rows_into(logits, &mut preds);
        out.extend_from_slice(&preds);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated Gaussian-ish blobs: trivially learnable.
    fn blobs(n: usize) -> Dataset {
        let mut ds = Dataset::new(2, 2).unwrap();
        for i in 0..n {
            let t = (i as f32 * 0.37).sin() * 0.1;
            if i % 2 == 0 {
                ds.push(&[1.0 + t, 1.0 - t], 0).unwrap();
            } else {
                ds.push(&[-1.0 - t, -1.0 + t], 1).unwrap();
            }
        }
        ds
    }

    #[test]
    fn fit_learns_separable_blobs() {
        let ds = blobs(200);
        let mut net = Sequential::mlp(2, &[8], 2, 3);
        let h = fit(
            &mut net,
            &ds,
            Some(&ds),
            &TrainConfig {
                epochs: 20,
                batch_size: 32,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(h.final_train_accuracy() > 0.95);
        assert!(h.final_val_accuracy().unwrap() > 0.95);
        assert_eq!(h.epochs.len(), 20);
    }

    #[test]
    fn loss_decreases_during_training() {
        let ds = blobs(200);
        let mut net = Sequential::mlp(2, &[8], 2, 3);
        let h = fit(
            &mut net,
            &ds,
            None,
            &TrainConfig {
                epochs: 10,
                batch_size: 32,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(h.epochs.last().unwrap().train_loss < h.epochs[0].train_loss);
    }

    #[test]
    fn fit_is_deterministic() {
        let ds = blobs(100);
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 16,
            ..Default::default()
        };
        let mut a = Sequential::mlp(2, &[4], 2, 7);
        let mut b = Sequential::mlp(2, &[4], 2, 7);
        let ha = fit(&mut a, &ds, None, &cfg).unwrap();
        let hb = fit(&mut b, &ds, None, &cfg).unwrap();
        assert_eq!(ha, hb);
        assert_eq!(predict_dataset(&mut a, &ds), predict_dataset(&mut b, &ds));
    }

    #[test]
    fn fit_validates_inputs() {
        let ds = blobs(10);
        let empty = Dataset::new(2, 2).unwrap();
        let mut net = Sequential::mlp(2, &[4], 2, 1);
        assert_eq!(
            fit(&mut net, &empty, None, &TrainConfig::default()),
            Err(TrainError::EmptyDataset)
        );
        let mut wrong = Sequential::mlp(3, &[4], 2, 1);
        assert!(matches!(
            fit(&mut wrong, &ds, None, &TrainConfig::default()),
            Err(TrainError::DimMismatch {
                expected: 3,
                got: 2
            })
        ));
        assert_eq!(
            fit(
                &mut net,
                &ds,
                None,
                &TrainConfig {
                    epochs: 0,
                    ..Default::default()
                }
            ),
            Err(TrainError::BadConfig)
        );
    }

    #[test]
    fn lr_decay_is_applied_and_validated() {
        let ds = blobs(100);
        let mut net = Sequential::mlp(2, &[4], 2, 1);
        // Invalid decay is rejected.
        assert_eq!(
            fit(
                &mut net,
                &ds,
                None,
                &TrainConfig {
                    lr_decay: 0.0,
                    ..Default::default()
                }
            ),
            Err(TrainError::BadConfig)
        );
        // Aggressive decay effectively freezes training after a few epochs:
        // late-epoch losses change far less than with a constant rate.
        let cfg = |decay: f32| TrainConfig {
            epochs: 12,
            batch_size: 32,
            lr_decay: decay,
            ..Default::default()
        };
        let mut frozen = Sequential::mlp(2, &[4], 2, 9);
        let hist_frozen = fit(&mut frozen, &ds, None, &cfg(0.1)).unwrap();
        let mut steady = Sequential::mlp(2, &[4], 2, 9);
        let hist_steady = fit(&mut steady, &ds, None, &cfg(1.0)).unwrap();
        let late_delta = |h: &History| (h.epochs[11].train_loss - h.epochs[6].train_loss).abs();
        assert!(
            late_delta(&hist_frozen) < late_delta(&hist_steady) + 1e-9,
            "decayed run should change less late in training"
        );
    }

    #[test]
    fn embedding_network_trains_on_binned_features() {
        // Labels depend on the bin of the single feature.
        let mut ds = Dataset::new(1, 3).unwrap();
        for i in 0..300 {
            let bin = i % 3;
            ds.push(&[bin as f32], bin as u32).unwrap();
        }
        let mut net = Sequential::embedding_mlp(1, 4, 8, 16, 3, 5);
        let h = fit(
            &mut net,
            &ds,
            None,
            &TrainConfig {
                epochs: 30,
                batch_size: 32,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            h.final_train_accuracy() > 0.99,
            "embedding net should nail a lookup task, got {}",
            h.final_train_accuracy()
        );
    }

    #[test]
    fn resume_is_bit_identical_to_uninterrupted() {
        let ds = blobs(200);
        let cfg = TrainConfig {
            epochs: 8,
            batch_size: 32,
            lr_decay: 0.9,
            ..Default::default()
        };
        // Uninterrupted reference run.
        let mut full = Sequential::mlp(2, &[8], 2, 3);
        fit(&mut full, &ds, None, &cfg).unwrap();
        // "Killed" run: stop after 5 epochs, snapshotting network +
        // optimizer from the observer (what a checkpoint stores).
        let mut snap: Option<(Sequential, Optimizer)> = None;
        let mut partial = Sequential::mlp(2, &[8], 2, 3);
        fit_resumable(
            &mut partial,
            &ds,
            None,
            &TrainConfig { epochs: 5, ..cfg },
            None,
            |c| {
                if c.epoch == 4 {
                    snap = Some((c.network.clone(), *c.optimizer));
                }
                Ok(())
            },
        )
        .unwrap();
        let (mut resumed, optimizer) = snap.unwrap();
        let history = fit_resumable(
            &mut resumed,
            &ds,
            None,
            &cfg,
            Some(ResumePoint {
                next_epoch: 5,
                optimizer,
            }),
            |_| Ok(()),
        )
        .unwrap();
        // Only the remaining epochs are reported…
        assert_eq!(history.epochs.len(), 3);
        assert_eq!(history.epochs[0].epoch, 5);
        // …and the final network (values AND moment buffers) is identical
        // to the uninterrupted run's.
        assert_eq!(resumed, full);
    }

    #[test]
    fn divergence_is_a_typed_error() {
        let ds = blobs(100);
        let mut net = Sequential::mlp(2, &[8], 2, 3);
        let cfg = TrainConfig {
            epochs: 50,
            batch_size: 16,
            optimizer: Optimizer::sgd(1e30),
            ..Default::default()
        };
        assert!(matches!(
            fit(&mut net, &ds, None, &cfg),
            Err(TrainError::Diverged { .. })
        ));
    }

    #[test]
    fn bad_resume_and_observer_failure_are_typed() {
        let ds = blobs(50);
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 16,
            ..Default::default()
        };
        let mut net = Sequential::mlp(2, &[4], 2, 1);
        assert_eq!(
            fit_resumable(
                &mut net,
                &ds,
                None,
                &cfg,
                Some(ResumePoint {
                    next_epoch: 3,
                    optimizer: cfg.optimizer,
                }),
                |_| Ok(()),
            ),
            Err(TrainError::BadResume(
                "checkpoint has more epochs than the schedule"
            ))
        );
        assert_eq!(
            fit_resumable(&mut net, &ds, None, &cfg, None, |_| Err("disk full".into())),
            Err(TrainError::Checkpoint("disk full".to_string()))
        );
    }

    #[test]
    fn history_best_val_accuracy() {
        let h = History {
            epochs: vec![
                EpochStats {
                    epoch: 0,
                    train_loss: 1.0,
                    train_accuracy: 0.5,
                    val_accuracy: Some(0.6),
                },
                EpochStats {
                    epoch: 1,
                    train_loss: 0.5,
                    train_accuracy: 0.7,
                    val_accuracy: Some(0.55),
                },
            ],
        };
        assert_eq!(h.best_val_accuracy(), Some(0.6));
        assert_eq!(h.final_val_accuracy(), Some(0.55));
    }
}
