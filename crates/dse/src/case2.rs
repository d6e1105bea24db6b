//! Case study 2: SRAM buffer sizing.
//!
//! Input space (paper Fig. 8a): 8 integers — buffer size limit (KB), `M`,
//! `N`, `K`, array rows, array cols, dataflow index, and interface bandwidth
//! (bytes/cycle). Output space: the 1000 [`Case2Space`] labels. Ground
//! truth: the configuration with minimum stall cycles, tie-broken by minimum
//! cumulative capacity (paper Sec. III-B), then by lower label.

use airchitect_data::Dataset;
use airchitect_sim::memory::{self, BufferConfig, StallModel};
use airchitect_sim::{ArrayConfig, Dataflow};
use airchitect_workload::distribution::CnnWorkloadSampler;
use airchitect_workload::GemmWorkload;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::space::Case2Space;
use crate::SearchResult;

/// One fully-specified buffer-sizing query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Case2Query {
    /// The GEMM workload being run.
    pub workload: GemmWorkload,
    /// The (fixed) array shape.
    pub array: ArrayConfig,
    /// The (fixed) dataflow.
    pub dataflow: Dataflow,
    /// Interface bandwidth in bytes/cycle.
    pub bandwidth: u64,
    /// Total capacity limit across the three buffers, in KB.
    pub limit_kb: u64,
}

impl Case2Query {
    /// Feature vector: `[limit_kb, M, N, K, rows, cols, dataflow, bw]`.
    pub fn features(&self) -> [f32; 8] {
        [
            self.limit_kb as f32,
            self.workload.m() as f32,
            self.workload.n() as f32,
            self.workload.k() as f32,
            self.array.rows() as f32,
            self.array.cols() as f32,
            self.dataflow.index() as f32,
            self.bandwidth as f32,
        ]
    }

    /// Reconstructs a query from a feature row produced by
    /// [`Case2Query::features`].
    ///
    /// # Panics
    ///
    /// Panics if the row encodes an invalid workload, array, or dataflow.
    pub fn from_features(row: &[f32]) -> Self {
        Self {
            limit_kb: row[0] as u64,
            workload: GemmWorkload::new(row[1] as u64, row[2] as u64, row[3] as u64)
                .expect("feature rows encode valid workloads"),
            array: ArrayConfig::new(row[4] as u64, row[5] as u64)
                .expect("feature rows encode valid arrays"),
            dataflow: Dataflow::from_index(row[6] as usize)
                .expect("feature rows encode valid dataflows"),
            bandwidth: row[7] as u64,
        }
    }
}

/// The case-study-2 optimization problem.
#[derive(Debug, Clone, Copy)]
pub struct Case2Problem {
    space: Case2Space,
}

impl Case2Problem {
    /// Creates the problem over the paper's 1000-label space.
    pub fn new() -> Self {
        Self {
            space: Case2Space::paper(),
        }
    }

    /// Creates the problem over a custom space.
    pub fn with_space(space: Case2Space) -> Self {
        Self { space }
    }

    /// The problem's output space.
    pub fn space(&self) -> &Case2Space {
        &self.space
    }

    /// Stall cycles for the configuration denoted by `label`, or `None` if
    /// the label is out of space or its total capacity exceeds the limit.
    pub fn stalls_of(&self, query: &Case2Query, label: u32) -> Option<u64> {
        let (i, f, o) = self.space.decode(label)?;
        if i + f + o > query.limit_kb {
            return None;
        }
        let bufs = BufferConfig::from_kb(i, f, o).expect("space sizes are non-zero");
        memory::stall_cycles(
            &query.workload,
            query.array,
            query.dataflow,
            bufs,
            query.bandwidth,
        )
        .ok()
    }

    /// Exhaustively searches the space for the stall-minimal buffer split
    /// within the capacity limit.
    ///
    /// If the limit admits no configuration (below 3 steps), the smallest
    /// configuration (label 0) is returned — a real system would simply be
    /// built with the minimum buffers.
    ///
    /// The buffer-independent half of the stall model is computed once per
    /// query; each label only folds its own per-operand traffic.
    pub fn search(&self, query: &Case2Query) -> SearchResult {
        let model = StallModel::new(
            &query.workload,
            query.array,
            query.dataflow,
            query.bandwidth,
        )
        .expect("bandwidth validated by caller");
        let stalls_at = |i, f, o| {
            model.stall_cycles(BufferConfig::from_kb(i, f, o).expect("space sizes are non-zero"))
        };
        let mut best: Option<(u32, u64, u64)> = None; // (label, stalls, total_kb)
        let mut evals = 0u64;
        for (label, i, f, o) in self.space.iter() {
            let total = i + f + o;
            if total > query.limit_kb {
                continue;
            }
            evals += 1;
            let stalls = stalls_at(i, f, o);
            let cand = (label, stalls, total);
            best = Some(match best {
                None => cand,
                Some(b) => {
                    if stalls < b.1 || (stalls == b.1 && total < b.2) {
                        cand
                    } else {
                        b
                    }
                }
            });
        }
        airchitect_telemetry::metrics::DSE_SEARCHES.inc();
        airchitect_telemetry::metrics::DSE_SEARCH_POINTS.add(evals);
        match best {
            Some((label, cost, _)) => SearchResult {
                label,
                cost,
                evaluations: evals,
            },
            None => {
                let (i, f, o) = self.space.decode(0).expect("label 0 always decodes");
                SearchResult {
                    label: 0,
                    cost: stalls_at(i, f, o),
                    evaluations: evals,
                }
            }
        }
    }

    /// Normalized performance of a predicted label:
    /// `optimal_total_cycles / predicted_total_cycles`, in `[0, 1]`.
    ///
    /// Total cycles (compute + stalls) rather than raw stalls are compared so
    /// that zero-stall ties score 1.0. Infeasible predictions score 0.
    pub fn normalized_performance(&self, query: &Case2Query, predicted: u32) -> f64 {
        let compute =
            airchitect_sim::compute::runtime_cycles(&query.workload, query.array, query.dataflow);
        let best = self.search(query).cost + compute;
        match self.stalls_of(query, predicted) {
            Some(s) => best as f64 / (s + compute) as f64,
            None => 0.0,
        }
    }
}

impl Default for Case2Problem {
    fn default() -> Self {
        Self::new()
    }
}

/// Configuration for [`generate_dataset`].
#[derive(Debug, Clone)]
pub struct Case2DatasetSpec {
    /// Number of labeled samples.
    pub samples: usize,
    /// Inclusive range of `log2(array dim)` for rows and cols.
    pub dim_log2_range: (u32, u32),
    /// Inclusive bandwidth range in bytes/cycle (paper: 1..100).
    pub bandwidth_range: (u64, u64),
    /// Inclusive limit range in KB.
    pub limit_kb_range: (u64, u64),
    /// RNG seed.
    pub seed: u64,
}

impl Default for Case2DatasetSpec {
    /// Paper Sec. III-B: arrays 2^4..2^18 total MACs (dims 2^2..2^9),
    /// bandwidth 1..100, limits that sometimes bind (300..3000 KB).
    fn default() -> Self {
        Self {
            samples: 10_000,
            dim_log2_range: (2, 9),
            bandwidth_range: (1, 100),
            limit_kb_range: (300, 3000),
            seed: 0,
        }
    }
}

/// Generates a labeled dataset of buffer-sizing optima.
pub fn generate_dataset(problem: &Case2Problem, spec: &Case2DatasetSpec) -> Dataset {
    let sampler = CnnWorkloadSampler::new();
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut ds = Dataset::new(8, problem.space().len() as u32)
        .expect("space is non-empty and feature dim is 8");
    let (dlo, dhi) = spec.dim_log2_range;
    assert!(dhi >= dlo, "dim range is inverted");
    for _ in 0..spec.samples {
        let workload = sampler.sample(&mut rng);
        let array = ArrayConfig::new(
            1 << rng.random_range(dlo..=dhi),
            1 << rng.random_range(dlo..=dhi),
        )
        .expect("pow2 dims are non-zero");
        let dataflow = Dataflow::from_index(rng.random_range(0..3)).expect("index < 3");
        let bandwidth = rng.random_range(spec.bandwidth_range.0..=spec.bandwidth_range.1);
        let limit_kb = rng.random_range(spec.limit_kb_range.0..=spec.limit_kb_range.1);
        let query = Case2Query {
            workload,
            array,
            dataflow,
            bandwidth,
            limit_kb,
        };
        let result = problem.search(&query);
        ds.push(&query.features(), result.label)
            .expect("search labels are within the space");
    }
    ds
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query() -> Case2Query {
        Case2Query {
            workload: GemmWorkload::new(512, 256, 384).unwrap(),
            array: ArrayConfig::new(16, 16).unwrap(),
            dataflow: Dataflow::Os,
            bandwidth: 4,
            limit_kb: 1500,
        }
    }

    #[test]
    fn search_result_is_within_limit() {
        let p = Case2Problem::new();
        let q = query();
        let r = p.search(&q);
        let (i, f, o) = p.space().decode(r.label).unwrap();
        assert!(i + f + o <= q.limit_kb);
    }

    #[test]
    fn search_is_optimal() {
        let p = Case2Problem::new();
        let q = query();
        let r = p.search(&q);
        for (label, i, f, o) in p.space().iter() {
            if i + f + o > q.limit_kb {
                continue;
            }
            let stalls = p.stalls_of(&q, label).unwrap();
            assert!(r.cost <= stalls, "label {label} beats the search");
        }
    }

    #[test]
    fn tight_limit_falls_back_to_minimum() {
        let p = Case2Problem::new();
        let q = Case2Query {
            limit_kb: 100, // below the 300 KB minimum total
            ..query()
        };
        let r = p.search(&q);
        assert_eq!(r.label, 0);
        assert_eq!(r.evaluations, 0);
    }

    #[test]
    fn stationary_operand_gets_small_buffer() {
        // WS: the filter is stationary; its buffer should sit at the minimum
        // when capacity is scarce.
        let p = Case2Problem::new();
        let q = Case2Query {
            workload: GemmWorkload::new(2048, 512, 1024).unwrap(),
            array: ArrayConfig::new(32, 32).unwrap(),
            dataflow: Dataflow::Ws,
            bandwidth: 4,
            limit_kb: 1200,
        };
        let r = p.search(&q);
        let (_, filter_kb, _) = p.space().decode(r.label).unwrap();
        assert_eq!(filter_kb, 100, "WS should not waste capacity on filters");
    }

    #[test]
    fn normalized_performance_bounds() {
        let p = Case2Problem::new();
        let q = query();
        let r = p.search(&q);
        assert!((p.normalized_performance(&q, r.label) - 1.0).abs() < 1e-12);
        // Every feasible label scores in (0, 1].
        for label in [0u32, 500, 999] {
            let perf = p.normalized_performance(&q, label);
            if p.stalls_of(&q, label).is_some() {
                assert!(perf > 0.0 && perf <= 1.0 + 1e-12);
            } else {
                assert_eq!(perf, 0.0);
            }
        }
    }

    #[test]
    fn features_roundtrip() {
        let q = query();
        let q2 = Case2Query::from_features(&q.features());
        assert_eq!(q, q2);
    }

    #[test]
    fn dataset_generation_is_reproducible_and_valid() {
        let p = Case2Problem::new();
        let spec = Case2DatasetSpec {
            samples: 30,
            ..Default::default()
        };
        let a = generate_dataset(&p, &spec);
        let b = generate_dataset(&p, &spec);
        assert_eq!(a, b);
        assert_eq!(a.len(), 30);
        for i in 0..a.len() {
            let q = Case2Query::from_features(a.row(i));
            assert!(q.bandwidth >= 1 && q.bandwidth <= 100);
            assert!((2..=9).contains(&(q.array.rows().ilog2())));
        }
    }
}
