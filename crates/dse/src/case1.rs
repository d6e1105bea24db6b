//! Case study 1: array shape and dataflow prediction.
//!
//! Input space (paper Fig. 8a): 4 integers — the MAC-unit budget (as a power
//! of two) and the GEMM dimensions `M`, `N`, `K`. Output space: the
//! [`Case1Space`] labels. Ground truth: exhaustive search minimizing the
//! analytical runtime, tie-broken by fewer MAC units (cheaper array), then by
//! lower label for determinism.

use airchitect_data::Dataset;
use airchitect_sim::{compute, Dataflow};
use airchitect_workload::distribution::CnnWorkloadSampler;
use airchitect_workload::GemmWorkload;
use rand::rngs::StdRng;
use rand::RngExt;

use crate::parallel::{self, ParallelError, Step};
use crate::space::Case1Space;
use crate::SearchResult;

/// The case-study-1 optimization problem over a fixed output space.
#[derive(Debug, Clone)]
pub struct Case1Problem {
    space: Case1Space,
}

impl Case1Problem {
    /// Creates the problem with an output space enumerated for
    /// `max_mac_budget` (the paper uses `2^18`).
    pub fn new(max_mac_budget: u64) -> Self {
        Self {
            space: Case1Space::new(max_mac_budget),
        }
    }

    /// The problem's output space.
    pub fn space(&self) -> &Case1Space {
        &self.space
    }

    /// Exhaustively searches the space for the runtime-optimal array shape
    /// and dataflow, considering only shapes within `mac_budget`.
    ///
    /// # Panics
    ///
    /// Panics if no shape fits `mac_budget` (budget below 4 MACs).
    pub fn search(&self, workload: &GemmWorkload, mac_budget: u64) -> SearchResult {
        let mut best: Option<(u32, u64, u64)> = None; // (label, cycles, macs)
        let mut evals = 0u64;
        for (label, array, df) in self.space.iter() {
            if array.macs() > mac_budget {
                continue;
            }
            evals += 1;
            let cycles = compute::runtime_cycles(workload, array, df);
            let cand = (label, cycles, array.macs());
            best = Some(match best {
                None => cand,
                Some(b) => {
                    if cycles < b.1 || (cycles == b.1 && array.macs() < b.2) {
                        cand
                    } else {
                        b
                    }
                }
            });
        }
        let (label, cost, _) = best.expect("mac_budget admits at least one shape");
        airchitect_telemetry::metrics::DSE_SEARCHES.inc();
        airchitect_telemetry::metrics::DSE_SEARCH_POINTS.add(evals);
        SearchResult {
            label,
            cost,
            evaluations: evals,
        }
    }

    /// Runtime of the configuration denoted by `label`, or `None` if the
    /// label is out of space or over `mac_budget` (an infeasible prediction).
    pub fn runtime_of(&self, workload: &GemmWorkload, mac_budget: u64, label: u32) -> Option<u64> {
        let (array, df) = self.space.decode(label)?;
        if array.macs() > mac_budget {
            return None;
        }
        Some(compute::runtime_cycles(workload, array, df))
    }

    /// Normalized performance of a predicted label:
    /// `optimal_runtime / predicted_runtime`, in `[0, 1]`.
    ///
    /// Infeasible predictions (over budget or out of space) score 0 — the
    /// "catastrophic" bucket of paper Fig. 10(g).
    pub fn normalized_performance(
        &self,
        workload: &GemmWorkload,
        mac_budget: u64,
        predicted: u32,
    ) -> f64 {
        let best = self.search(workload, mac_budget).cost;
        match self.runtime_of(workload, mac_budget, predicted) {
            Some(t) => best as f64 / t as f64,
            None => 0.0,
        }
    }

    /// Feature vector for one sample: `[log2(budget), M, N, K]`.
    pub fn features(workload: &GemmWorkload, mac_budget: u64) -> [f32; 4] {
        [
            (mac_budget as f64).log2() as f32,
            workload.m() as f32,
            workload.n() as f32,
            workload.k() as f32,
        ]
    }

    /// Reconstructs `(workload, mac_budget)` from a feature row produced by
    /// [`Case1Problem::features`].
    ///
    /// # Panics
    ///
    /// Panics if the row has fewer than 4 entries or encodes a zero
    /// dimension.
    pub fn from_features(row: &[f32]) -> (GemmWorkload, u64) {
        let budget = 1u64 << (row[0].round() as u32);
        let wl = GemmWorkload::new(row[1] as u64, row[2] as u64, row[3] as u64)
            .expect("feature rows encode valid workloads");
        (wl, budget)
    }
}

/// Configuration for [`generate_dataset`].
#[derive(Debug, Clone)]
pub struct Case1DatasetSpec {
    /// Number of labeled samples to generate.
    pub samples: usize,
    /// Inclusive range of `log2(MAC budget)` to sample uniformly.
    pub budget_log2_range: (u32, u32),
    /// RNG seed (datasets are fully reproducible).
    pub seed: u64,
}

impl Default for Case1DatasetSpec {
    /// 10^4 samples, budgets 2^5..2^15 (the Fig. 5d sweep), seed 0.
    fn default() -> Self {
        Self {
            samples: 10_000,
            budget_log2_range: (5, 15),
            seed: 0,
        }
    }
}

/// The CS1 labelling step: a CNN-layer GEMM and a MAC budget drawn
/// log-uniformly from `budget_log2_range`, which must satisfy
/// `2 <= lo <= hi <= 63` (a budget below 2^2 admits no shape, and 2^63 is
/// the largest `u64` power of two), labeled by [`Case1Problem::search`].
impl Step for (&Case1Problem, &Case1DatasetSpec) {
    fn check(&self) -> Result<(), ParallelError> {
        let (lo, hi) = self.1.budget_log2_range;
        parallel::check_range("budget_log2", (lo.into(), hi.into()), 2, 63)
    }

    fn schema(&self) -> (usize, u32) {
        (4, self.0.space().len() as u32)
    }

    fn describe(&self) -> String {
        format!("case 1\n{:?}", self.1)
    }

    fn label_one(&self, sampler: &CnnWorkloadSampler, rng: &mut StdRng, out: &mut Dataset) {
        let (lo, hi) = self.1.budget_log2_range;
        let wl = sampler.sample(rng);
        let budget = 1u64 << rng.random_range(lo..=hi);
        let result = self.0.search(&wl, budget);
        out.push(&Case1Problem::features(&wl, budget), result.label)
            .expect("search labels are within the space");
    }
}

/// Generates a labeled dataset by running the exhaustive search on sampled
/// workloads (paper Sec. IV-B, "the optimal parameter label is determined by
/// conventional search using simulations"): one shard of
/// [`parallel::generate`], run on the calling thread.
///
/// Features are the raw integers of [`Case1Problem::features`]; quantization
/// and normalization happen downstream in the model front-ends.
///
/// # Panics
///
/// Panics if the budget range is invalid.
pub fn generate_dataset(problem: &Case1Problem, spec: &Case1DatasetSpec) -> Dataset {
    parallel::generate_here(&(problem, spec), spec.samples, spec.seed)
}

/// Per-dataflow frequency table of optimal shapes (paper Fig. 5a-c): for
/// each `(rows, cols, dataflow)` that ever wins, how often it wins.
pub fn optimal_shape_frequencies(
    problem: &Case1Problem,
    workloads: &[GemmWorkload],
    mac_budget: u64,
) -> Vec<((u64, u64, Dataflow), usize)> {
    use std::collections::BTreeMap;
    let mut freq: BTreeMap<(u64, u64, usize), usize> = BTreeMap::new();
    for wl in workloads {
        let r = problem.search(wl, mac_budget);
        let (array, df) = problem.space().decode(r.label).expect("label in space");
        *freq
            .entry((array.rows(), array.cols(), df.index()))
            .or_insert(0) += 1;
    }
    freq.into_iter()
        .map(|((r, c, d), n)| {
            (
                (r, c, Dataflow::from_index(d).expect("stored index < 3")),
                n,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wl(m: u64, n: u64, k: u64) -> GemmWorkload {
        GemmWorkload::new(m, n, k).unwrap()
    }

    #[test]
    fn search_is_exhaustive_within_budget() {
        let p = Case1Problem::new(1 << 10);
        let w = wl(100, 200, 300);
        let r = p.search(&w, 1 << 8);
        // Check optimality against a brute re-scan.
        for (label, array, df) in p.space().iter() {
            if array.macs() > 1 << 8 {
                continue;
            }
            assert!(
                r.cost <= compute::runtime_cycles(&w, array, df),
                "label {label} beats search"
            );
        }
        let (arr, _) = p.space().decode(r.label).unwrap();
        assert!(arr.macs() <= 1 << 8);
    }

    #[test]
    fn search_counts_evaluations() {
        let p = Case1Problem::new(1 << 10);
        let r = p.search(&wl(8, 8, 8), 1 << 10);
        // Full space within budget: every (shape, dataflow) pair.
        assert_eq!(r.evaluations, p.space().len() as u64);
    }

    #[test]
    fn normalized_performance_of_optimum_is_one() {
        let p = Case1Problem::new(1 << 10);
        let w = wl(300, 70, 40);
        let r = p.search(&w, 1 << 9);
        assert!((p.normalized_performance(&w, 1 << 9, r.label) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn over_budget_prediction_scores_zero() {
        let p = Case1Problem::new(1 << 12);
        let w = wl(64, 64, 64);
        // Find a label whose shape exceeds a 2^4 budget.
        let big = p
            .space()
            .iter()
            .find(|(_, a, _)| a.macs() > 1 << 4)
            .unwrap()
            .0;
        assert_eq!(p.normalized_performance(&w, 1 << 4, big), 0.0);
    }

    #[test]
    fn features_roundtrip() {
        let w = wl(123, 456, 789);
        let f = Case1Problem::features(&w, 1 << 9);
        let (w2, b2) = Case1Problem::from_features(&f);
        assert_eq!(w, w2);
        assert_eq!(b2, 1 << 9);
    }

    #[test]
    fn dataset_generation_is_reproducible() {
        let p = Case1Problem::new(1 << 12);
        let spec = Case1DatasetSpec {
            samples: 100,
            budget_log2_range: (5, 12),
            seed: 11,
        };
        let a = generate_dataset(&p, &spec);
        let b = generate_dataset(&p, &spec);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        assert_eq!(a.num_classes(), p.space().len() as u32);
    }

    #[test]
    fn dataset_labels_are_feasible() {
        let p = Case1Problem::new(1 << 12);
        let spec = Case1DatasetSpec {
            samples: 50,
            budget_log2_range: (5, 12),
            seed: 3,
        };
        let ds = generate_dataset(&p, &spec);
        for i in 0..ds.len() {
            let (wl, budget) = Case1Problem::from_features(ds.row(i));
            let (array, _) = p.space().decode(ds.label(i)).unwrap();
            assert!(array.macs() <= budget, "label over budget for {wl}");
        }
    }

    #[test]
    fn shape_frequencies_sum_to_workload_count() {
        let p = Case1Problem::new(1 << 9);
        let wls: Vec<GemmWorkload> = (1..=20).map(|i| wl(i * 13, i * 7, i * 3)).collect();
        let freq = optimal_shape_frequencies(&p, &wls, 1 << 9);
        let total: usize = freq.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 20);
    }
}
