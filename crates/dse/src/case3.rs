//! Case study 3: multi-array scheduling.
//!
//! Input space (paper Fig. 8a): 12 integers — `M`, `N`, `K` for each of the
//! four workloads. Output space: the 1944 [`Case3Space`] labels (workload
//! permutation × per-array dataflow). Ground truth: minimum makespan on the
//! heterogeneous 4-array system, tie-broken by minimum energy (paper: "lowest
//! runtime and consumes least energy"), then by lower label.

use airchitect_data::Dataset;
use airchitect_sim::multi::{Assignment, CostTable, MultiArraySystem, Schedule, ScheduleCost};
use airchitect_sim::Dataflow;
use airchitect_workload::distribution::CnnWorkloadSampler;
use airchitect_workload::GemmWorkload;
use rand::rngs::StdRng;

use crate::parallel::{self, ParallelError, Step};
use crate::space::Case3Space;
use crate::SearchResult;

/// The case-study-3 optimization problem: a fixed heterogeneous system plus
/// the schedule output space.
#[derive(Debug, Clone)]
pub struct Case3Problem {
    system: MultiArraySystem,
    space: Case3Space,
}

impl Case3Problem {
    /// The paper's setup: the 4-array heterogeneous system and its
    /// 1944-label schedule space.
    pub fn new() -> Self {
        Self {
            system: MultiArraySystem::heterogeneous_4(),
            space: Case3Space::paper(),
        }
    }

    /// A custom system; the space is derived from the array count.
    pub fn with_system(system: MultiArraySystem) -> Self {
        let space = Case3Space::new(system.len());
        Self { system, space }
    }

    /// The system being scheduled.
    pub fn system(&self) -> &MultiArraySystem {
        &self.system
    }

    /// The problem's output space.
    pub fn space(&self) -> &Case3Space {
        &self.space
    }

    /// Cost of the schedule denoted by `label`, or `None` for out-of-space
    /// labels. Simulates the schedule from scratch; [`Case3Problem::search`]
    /// prices labels from a [`CostTable`] instead.
    pub fn cost_of(&self, workloads: &[GemmWorkload], label: u32) -> Option<ScheduleCost> {
        let (perm, dfs) = self.space.decode(label)?;
        let sched = Schedule::new(&perm, &dfs);
        self.system.evaluate(workloads, &sched).ok()
    }

    /// Exhaustively searches all schedules for the (makespan, energy)-optimal
    /// one.
    ///
    /// Every label is scored, but from one [`CostTable`] per query
    /// (`arrays² · 3` simulator evaluations) rather than by simulating each
    /// schedule; the result equals the lowest label among those no other
    /// label's [`Case3Problem::cost_of`] beats.
    ///
    /// # Panics
    ///
    /// Panics if `workloads.len()` differs from the system's array count.
    pub fn search(&self, workloads: &[GemmWorkload]) -> SearchResult {
        let (label, cost) = self.search_table(&self.table(workloads));
        SearchResult {
            label,
            cost: cost.makespan,
            evaluations: self.space.len() as u64,
        }
    }

    /// Normalized performance of a predicted label:
    /// `optimal_makespan / predicted_makespan`, in `[0, 1]`.
    pub fn normalized_performance(&self, workloads: &[GemmWorkload], predicted: u32) -> f64 {
        let table = self.table(workloads);
        let best = self.search_table(&table).1.makespan;
        match self.space.decode(predicted) {
            Some((perm, dfs)) => {
                let predicted = table.cost(
                    perm.iter()
                        .zip(dfs)
                        .map(|(&workload, dataflow)| Assignment { workload, dataflow }),
                );
                best as f64 / predicted.makespan as f64
            }
            None => 0.0,
        }
    }

    fn table(&self, workloads: &[GemmWorkload]) -> CostTable {
        self.system
            .cost_table(workloads)
            .expect("need exactly one workload per array")
    }

    /// Scores every label from `table` in label order, keeping the first
    /// strictly better one, so ties go to the lowest label.
    fn search_table(&self, table: &CostTable) -> (u32, ScheduleCost) {
        let arrays = self.space.arrays();
        let codes = self.space.dataflow_codes();
        let mut best: Option<(u32, ScheduleCost)> = None;
        let mut label = 0u32;
        for perm in self.space.permutations() {
            // Base-3 odometer over the per-array dataflows; the last array
            // is the least significant digit, matching `Case3Space`.
            let mut digits = [0usize; Case3Space::MAX_ARRAYS];
            for _ in 0..codes {
                let cost = table.cost(perm.iter().zip(&digits[..arrays]).map(|(&workload, &d)| {
                    Assignment {
                        workload,
                        dataflow: Dataflow::ALL[d],
                    }
                }));
                if best.is_none_or(|(_, b)| cost.better_than(&b)) {
                    best = Some((label, cost));
                }
                label += 1;
                for d in digits[..arrays].iter_mut().rev() {
                    *d += 1;
                    if *d < Dataflow::ALL.len() {
                        break;
                    }
                    *d = 0;
                }
            }
        }
        airchitect_telemetry::metrics::DSE_SEARCHES.inc();
        airchitect_telemetry::metrics::DSE_SEARCH_POINTS.add(u64::from(label));
        best.expect("space is non-empty")
    }

    /// Feature vector: the 12 workload dimensions in workload order.
    ///
    /// # Panics
    ///
    /// Panics if `workloads.len() != 4`.
    pub fn features(workloads: &[GemmWorkload]) -> [f32; 12] {
        assert_eq!(workloads.len(), 4, "the paper's CS3 uses 4 workloads");
        let mut f = [0f32; 12];
        for (i, wl) in workloads.iter().enumerate() {
            f[i * 3] = wl.m() as f32;
            f[i * 3 + 1] = wl.n() as f32;
            f[i * 3 + 2] = wl.k() as f32;
        }
        f
    }

    /// Reconstructs the workload list from a feature row produced by
    /// [`Case3Problem::features`].
    ///
    /// # Panics
    ///
    /// Panics if the row does not encode 4 valid workloads.
    pub fn from_features(row: &[f32]) -> Vec<GemmWorkload> {
        assert!(row.len() >= 12, "CS3 feature rows have 12 entries");
        (0..4)
            .map(|i| {
                GemmWorkload::new(
                    row[i * 3] as u64,
                    row[i * 3 + 1] as u64,
                    row[i * 3 + 2] as u64,
                )
                .expect("feature rows encode valid workloads")
            })
            .collect()
    }
}

impl Default for Case3Problem {
    fn default() -> Self {
        Self::new()
    }
}

/// Configuration for [`generate_dataset`].
#[derive(Debug, Clone)]
pub struct Case3DatasetSpec {
    /// Number of labeled samples.
    pub samples: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Case3DatasetSpec {
    fn default() -> Self {
        Self {
            samples: 10_000,
            seed: 0,
        }
    }
}

/// The CS3 labelling step: four CNN-layer GEMMs, labeled by
/// [`Case3Problem::search`]. The spec has no range to check.
impl Step for (&Case3Problem, &Case3DatasetSpec) {
    fn check(&self) -> Result<(), ParallelError> {
        Ok(())
    }

    fn schema(&self) -> (usize, u32) {
        (12, self.0.space().len() as u32)
    }

    fn describe(&self) -> String {
        format!("case 3\n{:?}\n{:?}", self.0.system(), self.1)
    }

    fn label_one(&self, sampler: &CnnWorkloadSampler, rng: &mut StdRng, out: &mut Dataset) {
        let workloads = sampler.sample_many(4, rng);
        let result = self.0.search(&workloads);
        out.push(&Case3Problem::features(&workloads), result.label)
            .expect("search labels are within the space");
    }
}

/// Generates a labeled dataset of scheduling optima: one shard of
/// [`parallel::generate`], run on the calling thread.
pub fn generate_dataset(problem: &Case3Problem, spec: &Case3DatasetSpec) -> Dataset {
    parallel::generate_here(&(problem, spec), spec.samples, spec.seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workloads() -> Vec<GemmWorkload> {
        vec![
            GemmWorkload::new(2048, 512, 1024).unwrap(),
            GemmWorkload::new(64, 64, 64).unwrap(),
            GemmWorkload::new(1024, 32, 512).unwrap(),
            GemmWorkload::new(196, 512, 256).unwrap(),
        ]
    }

    #[test]
    fn search_evaluates_full_space() {
        let p = Case3Problem::new();
        let r = p.search(&workloads());
        assert_eq!(r.evaluations, 1944);
    }

    #[test]
    fn search_is_optimal() {
        let p = Case3Problem::new();
        let wls = workloads();
        let r = p.search(&wls);
        for label in 0..p.space().len() as u32 {
            let c = p.cost_of(&wls, label).unwrap();
            assert!(
                !c.better_than(&p.cost_of(&wls, r.label).unwrap()),
                "label {label} beats the search"
            );
        }
    }

    #[test]
    fn normalized_performance_of_optimum_is_one() {
        let p = Case3Problem::new();
        let wls = workloads();
        let r = p.search(&wls);
        assert!((p.normalized_performance(&wls, r.label) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn worst_schedule_scores_below_one() {
        let p = Case3Problem::new();
        let wls = workloads();
        let mut worst = (0u32, 1.0f64);
        for label in (0..1944).step_by(97) {
            let perf = p.normalized_performance(&wls, label);
            if perf < worst.1 {
                worst = (label, perf);
            }
        }
        assert!(worst.1 < 1.0, "some schedule must be suboptimal");
    }

    #[test]
    fn features_roundtrip() {
        let wls = workloads();
        let f = Case3Problem::features(&wls);
        assert_eq!(Case3Problem::from_features(&f), wls);
    }

    #[test]
    fn three_array_system_searches_its_162_label_space() {
        // The paper's Fig. 4 sketch: 3 arrays => 3^3 · 3! = 162 schedules.
        let p =
            Case3Problem::with_system(airchitect_sim::multi::MultiArraySystem::heterogeneous_3());
        assert_eq!(p.space().len(), 162);
        let wls = vec![
            GemmWorkload::new(1024, 512, 256).unwrap(),
            GemmWorkload::new(64, 64, 64).unwrap(),
            GemmWorkload::new(8, 8, 8).unwrap(),
        ];
        let r = p.search(&wls);
        assert_eq!(r.evaluations, 162);
        // The big workload must land on the big (first) array.
        let (perm, _) = p.space().decode(r.label).unwrap();
        assert_eq!(perm[0], 0, "monolithic array should take the big GEMM");
    }

    #[test]
    fn dataset_generation_is_reproducible() {
        let p = Case3Problem::new();
        let spec = Case3DatasetSpec {
            samples: 5,
            seed: 2,
        };
        let a = generate_dataset(&p, &spec);
        let b = generate_dataset(&p, &spec);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        assert_eq!(a.num_classes(), 1944);
    }
}
