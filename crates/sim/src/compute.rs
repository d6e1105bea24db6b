//! Fold-based analytical runtime model (SCALE-Sim style).
//!
//! A GEMM is executed as a sequence of *folds*: the workload is tiled to the
//! array shape along the two spatial dimensions of the chosen dataflow, and
//! each fold pays a pipeline fill/drain skew (`2R + C − 2` cycles) plus one
//! cycle per element streamed through the temporal dimension.
//!
//! | dataflow | spatial dims (rows, cols) | temporal dim | folds |
//! |----------|---------------------------|--------------|-------|
//! | OS       | `M`, `N`                  | `K`          | `⌈M/R⌉·⌈N/C⌉` |
//! | WS       | `K`, `N`                  | `M`          | `⌈K/R⌉·⌈N/C⌉` |
//! | IS       | `K`, `M`                  | `N`          | `⌈K/R⌉·⌈M/C⌉` |
//!
//! The row skew is `2R` rather than `R` because operands enter skewed at the
//! top *and* results drain skewed at the bottom of each column; this mild
//! rows-vs-cols asymmetry is what makes wide (cols ≈ 2×rows) shapes optimal
//! for many workloads, reproducing the paper's Fig. 5 observation.

use airchitect_workload::GemmWorkload;

use crate::{ArrayConfig, Dataflow};

/// Ceiling division of two positive integers.
#[inline]
pub fn div_ceil(a: u64, b: u64) -> u64 {
    a.div_ceil(b)
}

/// The per-dataflow tiling: spatial extents, temporal extent, and fold count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tiling {
    /// Workload extent mapped onto array rows.
    pub row_extent: u64,
    /// Workload extent mapped onto array columns.
    pub col_extent: u64,
    /// Workload extent streamed through the array per fold.
    pub temporal_extent: u64,
    /// Folds along the row dimension: `⌈row_extent / R⌉`.
    pub row_folds: u64,
    /// Folds along the column dimension: `⌈col_extent / C⌉`.
    pub col_folds: u64,
}

impl Tiling {
    /// Total number of folds.
    pub fn folds(&self) -> u64 {
        self.row_folds * self.col_folds
    }
}

/// Computes the tiling of `workload` on `array` under `dataflow`.
pub fn tiling(workload: &GemmWorkload, array: ArrayConfig, dataflow: Dataflow) -> Tiling {
    let (row_extent, col_extent, temporal_extent) = match dataflow {
        Dataflow::Os => (workload.m(), workload.n(), workload.k()),
        Dataflow::Ws => (workload.k(), workload.n(), workload.m()),
        Dataflow::Is => (workload.k(), workload.m(), workload.n()),
    };
    Tiling {
        row_extent,
        col_extent,
        temporal_extent,
        row_folds: div_ceil(row_extent, array.rows()),
        col_folds: div_ceil(col_extent, array.cols()),
    }
}

/// Stall-free runtime in cycles:
/// `folds · (2R + C + temporal − 2)`.
///
/// # Example
///
/// ```
/// use airchitect_sim::{compute, ArrayConfig, Dataflow};
/// use airchitect_workload::GemmWorkload;
///
/// let wl = GemmWorkload::new(16, 16, 100)?;
/// let a = ArrayConfig::new(16, 16)?;
/// // Single fold: 2*16 + 16 + 100 - 2 = 146 cycles.
/// assert_eq!(compute::runtime_cycles(&wl, a, Dataflow::Os), 146);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn runtime_cycles(workload: &GemmWorkload, array: ArrayConfig, dataflow: Dataflow) -> u64 {
    airchitect_telemetry::metrics::SIM_EVALS.inc();
    let t = tiling(workload, array, dataflow);
    t.folds() * (2 * array.rows() + array.cols() + t.temporal_extent - 2)
}

/// The best (minimum) runtime across all three dataflows, with the winner.
pub fn best_dataflow(workload: &GemmWorkload, array: ArrayConfig) -> (Dataflow, u64) {
    Dataflow::ALL
        .iter()
        .map(|&df| (df, runtime_cycles(workload, array, df)))
        .min_by_key(|&(_, c)| c)
        .expect("Dataflow::ALL is non-empty")
}

/// Ideal cycles if every MAC unit were busy every cycle: `⌈MACs / (R·C)⌉`.
pub fn compute_lower_bound(workload: &GemmWorkload, array: ArrayConfig) -> u64 {
    div_ceil(workload.macs(), array.macs())
}

/// Fraction of MAC-cycles doing useful work: `MACs / (R·C·T)`, in `(0, 1]`.
pub fn utilization(workload: &GemmWorkload, array: ArrayConfig, dataflow: Dataflow) -> f64 {
    utilization_of(workload, array, runtime_cycles(workload, array, dataflow))
}

/// [`utilization`] from already computed runtime cycles.
pub(crate) fn utilization_of(workload: &GemmWorkload, array: ArrayConfig, cycles: u64) -> f64 {
    workload.macs() as f64 / (array.macs() as f64 * cycles as f64)
}

/// Volume of operand elements injected into the array edges, per dataflow.
///
/// This is the SRAM→array traffic used by the energy model: each fold streams
/// its two moving operands along the array edges and drains one result tile.
pub fn array_io_elems(workload: &GemmWorkload, array: ArrayConfig, dataflow: Dataflow) -> u64 {
    let t = tiling(workload, array, dataflow);
    let r = array.rows().min(t.row_extent);
    let c = array.cols().min(t.col_extent);
    match dataflow {
        // OS: per fold, stream an R x K slab of A and a K x C slab of B,
        // drain an R x C tile of C.
        Dataflow::Os => t.folds() * (r * t.temporal_extent + t.temporal_extent * c + r * c),
        // WS/IS: per fold, load the R x C stationary tile, stream a
        // temporal x R moving-operand slab, drain a temporal x C result slab.
        Dataflow::Ws | Dataflow::Is => {
            t.folds() * (r * c + t.temporal_extent * r + t.temporal_extent * c)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wl(m: u64, n: u64, k: u64) -> GemmWorkload {
        GemmWorkload::new(m, n, k).unwrap()
    }

    fn arr(r: u64, c: u64) -> ArrayConfig {
        ArrayConfig::new(r, c).unwrap()
    }

    #[test]
    fn single_fold_runtime() {
        // Perfectly fitting OS: M=R, N=C.
        assert_eq!(
            runtime_cycles(&wl(8, 8, 32), arr(8, 8), Dataflow::Os),
            2 * 8 + 8 + 32 - 2
        );
    }

    #[test]
    fn folds_multiply_runtime() {
        let base = runtime_cycles(&wl(8, 8, 32), arr(8, 8), Dataflow::Os);
        // Doubling M doubles the row folds.
        assert_eq!(
            runtime_cycles(&wl(16, 8, 32), arr(8, 8), Dataflow::Os),
            2 * base
        );
        // Doubling both spatial dims quadruples folds.
        assert_eq!(
            runtime_cycles(&wl(16, 16, 32), arr(8, 8), Dataflow::Os),
            4 * base
        );
    }

    #[test]
    fn ceil_quantization_penalty() {
        // M = R + 1 forces two row folds: runtime jumps discontinuously.
        let fit = runtime_cycles(&wl(8, 8, 32), arr(8, 8), Dataflow::Os);
        let spill = runtime_cycles(&wl(9, 8, 32), arr(8, 8), Dataflow::Os);
        assert_eq!(spill, 2 * fit);
    }

    #[test]
    fn dataflow_temporal_dims_differ() {
        // Long-K workload: OS streams K once; WS folds over K.
        let w = wl(8, 8, 4096);
        let a = arr(8, 8);
        assert!(runtime_cycles(&w, a, Dataflow::Os) < runtime_cycles(&w, a, Dataflow::Ws));
        // Long-M workload: WS streams M; OS folds over M.
        let w = wl(4096, 8, 8);
        assert!(runtime_cycles(&w, a, Dataflow::Ws) < runtime_cycles(&w, a, Dataflow::Os));
        // Long-N workload: IS streams N.
        let w = wl(8, 4096, 8);
        assert!(runtime_cycles(&w, a, Dataflow::Is) < runtime_cycles(&w, a, Dataflow::Os));
    }

    #[test]
    fn best_dataflow_picks_minimum() {
        let w = wl(100, 300, 700);
        let a = arr(16, 32);
        let (df, c) = best_dataflow(&w, a);
        for other in Dataflow::ALL {
            assert!(c <= runtime_cycles(&w, a, other), "{df} not optimal");
        }
    }

    #[test]
    fn runtime_respects_lower_bound() {
        let w = wl(123, 456, 789);
        for a in [arr(4, 4), arr(8, 32), arr(64, 2)] {
            for df in Dataflow::ALL {
                assert!(runtime_cycles(&w, a, df) >= compute_lower_bound(&w, a));
            }
        }
    }

    #[test]
    fn utilization_bounded() {
        let w = wl(31, 77, 201);
        for a in [arr(4, 16), arr(32, 8)] {
            for df in Dataflow::ALL {
                let u = utilization(&w, a, df);
                assert!(u > 0.0 && u <= 1.0, "utilization {u} out of range");
            }
        }
    }

    #[test]
    fn array_io_at_least_operand_volume_once() {
        // Everything must enter the array at least once per fold touching it.
        let w = wl(64, 64, 64);
        let a = arr(8, 8);
        for df in Dataflow::ALL {
            assert!(array_io_elems(&w, a, df) >= w.ofmap_elems());
        }
    }
}
