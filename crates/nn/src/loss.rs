//! Fused softmax + categorical cross-entropy (the paper's loss function).

use std::cell::RefCell;
use std::sync::{Mutex, PoisonError};

use airchitect_tensor::{pool, Matrix};

/// Batch rows per task when the loss is split over threads.
const ROWS_PER_TASK: usize = 32;

/// Batches with fewer logits than this run on the calling thread alone.
const PARALLEL_MIN: usize = 1 << 12;

thread_local! {
    /// Per-row `ln p(label)` of the current batch, reused across calls.
    static ROW_LOG_P: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Computes mean categorical cross-entropy over a batch and the gradient of
/// the loss w.r.t. the logits.
///
/// The gradient of softmax-CE w.r.t. the logits has the famously simple form
/// `(softmax(logits) − onehot(labels)) / batch`, which is why the two are
/// fused.
///
/// # Panics
///
/// Panics if `labels.len() != logits.rows()` or a label is out of range.
///
/// # Example
///
/// ```
/// use airchitect_nn::loss::softmax_cross_entropy;
/// use airchitect_tensor::Matrix;
///
/// // Confident and correct: low loss.
/// let good = Matrix::from_rows(&[&[10.0, -10.0]]);
/// let (l_good, _) = softmax_cross_entropy(&good, &[0]);
/// // Confident and wrong: high loss.
/// let bad = Matrix::from_rows(&[&[-10.0, 10.0]]);
/// let (l_bad, _) = softmax_cross_entropy(&bad, &[0]);
/// assert!(l_good < 0.01 && l_bad > 5.0);
/// ```
pub fn softmax_cross_entropy(logits: &Matrix, labels: &[u32]) -> (f32, Matrix) {
    let mut grad = Matrix::zeros(logits.rows(), logits.cols());
    let mut preds = Vec::new();
    let loss = softmax_cross_entropy_into(logits, labels, &mut grad, &mut preds, 1);
    (loss, grad)
}

/// [`softmax_cross_entropy`] writing the gradient into a caller-owned
/// buffer and each row's predicted class into `preds`, returning the mean
/// loss.
///
/// Fully fused: each row makes one sweep that finds both its maximum and
/// its prediction (the first index of the strict maximum, the tie rule of
/// [`airchitect_tensor::ops::argmax_rows_into`]), one exponentiation sweep
/// straight into `grad`, and one normalization sweep. The probability
/// matrix of the two-step formulation is never materialized.
///
/// Rows are split over up to `threads` threads of
/// [`airchitect_tensor::pool`]. Each row is computed alone and the per-row
/// losses are summed in row order in `f64`, so the result is bit-identical
/// for every thread count. After warm-up the call performs zero heap
/// allocations.
///
/// # Panics
///
/// Panics if `labels.len() != logits.rows()` or a label is out of range.
pub fn softmax_cross_entropy_into(
    logits: &Matrix,
    labels: &[u32],
    grad: &mut Matrix,
    preds: &mut Vec<u32>,
    threads: usize,
) -> f32 {
    assert_eq!(
        labels.len(),
        logits.rows(),
        "one label per logits row required"
    );
    let batch = logits.rows();
    let classes = logits.cols();
    assert!(
        labels.iter().all(|&l| (l as usize) < classes),
        "label out of range"
    );
    grad.resize(batch, classes);
    preds.resize(batch, 0);
    let inv_batch = 1.0 / batch as f32;
    let threads = if batch * classes < PARALLEL_MIN {
        1
    } else {
        threads
    };
    ROW_LOG_P.with(|cell| {
        let mut log_p = cell.borrow_mut();
        log_p.resize(batch, 0.0);
        // Tasks take the next chunk of rows of every output, in order.
        let parts = Mutex::new(
            grad.as_mut_slice()
                .chunks_mut(ROWS_PER_TASK * classes.max(1))
                .zip(preds.chunks_mut(ROWS_PER_TASK))
                .zip(log_p.chunks_mut(ROWS_PER_TASK))
                .enumerate(),
        );
        pool::run(batch.div_ceil(ROWS_PER_TASK), threads, 0, &|claims, _| {
            for _ in claims {
                let next = parts.lock().unwrap_or_else(PoisonError::into_inner).next();
                let Some((t, ((grad, preds), log_p))) = next else {
                    break;
                };
                let first = t * ROWS_PER_TASK;
                for (r, ((grow, pred), lp)) in grad
                    .chunks_exact_mut(classes)
                    .zip(preds)
                    .zip(log_p)
                    .enumerate()
                {
                    let row = first + r;
                    (*pred, *lp) = row_loss(logits.row(row), labels[row] as usize, grow, inv_batch);
                }
            }
        });
        let mut loss = 0.0f64;
        for &lp in log_p.iter() {
            loss -= lp;
        }
        (loss / batch as f64) as f32
    })
}

/// One row of [`softmax_cross_entropy_into`]: writes the row's gradient
/// and returns its prediction and `ln p(label)`.
fn row_loss(logits: &[f32], label: usize, grad: &mut [f32], inv_batch: f32) -> (u32, f64) {
    let mut max = f32::NEG_INFINITY;
    let (mut best, mut best_v) = (0, logits[0]);
    for (j, &v) in logits.iter().enumerate() {
        if v > best_v {
            (best, best_v) = (j, v);
        }
        max = max.max(v);
    }
    let mut sum = 0.0f32;
    for (g, &v) in grad.iter_mut().zip(logits) {
        let e = (v - max).exp();
        *g = e;
        sum += e;
    }
    let p = (grad[label] / sum).max(1e-12);
    // grad = (softmax − onehot) / batch, folded into one sweep.
    let scale = inv_batch / sum;
    for g in grad.iter_mut() {
        *g *= scale;
    }
    grad[label] -= inv_batch;
    (best as u32, (p as f64).ln())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_c() {
        let logits = Matrix::zeros(3, 4);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 1, 2]);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let logits = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[0.0, 0.0, 1.0]]);
        let (_, grad) = softmax_cross_entropy(&logits, &[2, 0]);
        for r in 0..2 {
            let sum: f32 = grad.row(r).iter().sum();
            assert!(sum.abs() < 1e-6);
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let logits = Matrix::from_rows(&[&[0.3, -0.7, 1.1]]);
        let labels = [1u32];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3f32;
        for j in 0..3 {
            let mut plus = logits.clone();
            plus.set(0, j, plus.get(0, j) + eps);
            let mut minus = logits.clone();
            minus.set(0, j, minus.get(0, j) - eps);
            let (lp, _) = softmax_cross_entropy(&plus, &labels);
            let (lm, _) = softmax_cross_entropy(&minus, &labels);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - grad.get(0, j)).abs() < 1e-3,
                "logit {j}: fd {fd} vs analytic {}",
                grad.get(0, j)
            );
        }
    }

    #[test]
    fn predictions_and_loss_match_across_threads() {
        let rows: Vec<Vec<f32>> = (0..100)
            .map(|r| {
                (0..60)
                    .map(|c| ((r * 31 + c * 17) % 23) as f32 * 0.25 - 2.0)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let logits = Matrix::from_rows(&refs);
        let labels: Vec<u32> = (0..100).map(|r| (r * 7 % 60) as u32).collect();
        let mut grad = Matrix::zeros(1, 1);
        let mut preds = Vec::new();
        let loss = softmax_cross_entropy_into(&logits, &labels, &mut grad, &mut preds, 1);
        assert_eq!(preds, airchitect_tensor::ops::argmax_rows(&logits));
        for threads in [2, 3] {
            let mut g = Matrix::zeros(1, 1);
            let mut p = vec![9; 3];
            let l = softmax_cross_entropy_into(&logits, &labels, &mut g, &mut p, threads);
            assert_eq!((l.to_bits(), &g, &p), (loss.to_bits(), &grad, &preds));
        }
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_out_of_range_label() {
        let logits = Matrix::zeros(1, 2);
        let _ = softmax_cross_entropy(&logits, &[5]);
    }
}
