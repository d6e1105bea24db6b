//! Multi-array concurrent execution (paper case study 3).
//!
//! The paper's third case study schedules independent GEMM workloads onto a
//! set of heterogeneous systolic arrays "each with different size and
//! memory" (Fig. 4), minimizing execution time and energy. This module models
//! that system: each [`ArrayInstance`] owns its shape, buffers, and interface
//! bandwidth; a [`Schedule`] assigns one workload and one dataflow per array;
//! evaluation returns the makespan (arrays run concurrently) and total energy.

use airchitect_workload::GemmWorkload;
use serde::{Deserialize, Serialize};

use crate::energy::EnergyModel;
use crate::memory::{self, BufferConfig};
use crate::{ArrayConfig, Dataflow, SimError};

/// One array of a multi-array system: shape plus its private memory system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrayInstance {
    /// Physical shape of this array.
    pub config: ArrayConfig,
    /// Private SRAM buffer capacities.
    pub buffers: BufferConfig,
    /// DRAM interface bandwidth in bytes/cycle.
    pub bandwidth: u64,
}

impl ArrayInstance {
    /// Creates an array instance.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ZeroBandwidth`] if `bandwidth` is zero.
    pub fn new(
        config: ArrayConfig,
        buffers: BufferConfig,
        bandwidth: u64,
    ) -> Result<Self, SimError> {
        if bandwidth == 0 {
            return Err(SimError::ZeroBandwidth);
        }
        Ok(Self {
            config,
            buffers,
            bandwidth,
        })
    }

    /// Total cycles for `workload` under `dataflow` on this instance.
    pub fn cycles(&self, workload: &GemmWorkload, dataflow: Dataflow) -> u64 {
        memory::total_cycles(
            workload,
            self.config,
            dataflow,
            self.buffers,
            self.bandwidth,
        )
        .expect("bandwidth validated at construction")
    }
}

/// A heterogeneous collection of concurrently operating arrays.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiArraySystem {
    instances: Vec<ArrayInstance>,
    energy_model: EnergyModel,
}

impl MultiArraySystem {
    /// Creates a system from its array instances.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptySystem`] if `instances` is empty.
    pub fn new(instances: Vec<ArrayInstance>) -> Result<Self, SimError> {
        if instances.is_empty() {
            return Err(SimError::EmptySystem);
        }
        Ok(Self {
            instances,
            energy_model: EnergyModel::default(),
        })
    }

    /// The 4-array heterogeneous system used for the case study 3 dataset:
    /// a monolithic square array, two rectangular arrays, and a skinny one,
    /// with graded memory systems (paper Fig. 4 shows the 3-array sketch;
    /// the dataset in Fig. 8d uses four arrays).
    pub fn heterogeneous_4() -> Self {
        let mk = |r, c, ikb, fkb, okb, bw| ArrayInstance {
            config: ArrayConfig::new(r, c).expect("static dims are non-zero"),
            buffers: BufferConfig::from_kb(ikb, fkb, okb).expect("static sizes are non-zero"),
            bandwidth: bw,
        };
        Self::new(vec![
            mk(32, 32, 400, 400, 200, 32),
            mk(64, 16, 300, 300, 100, 16),
            mk(16, 64, 300, 300, 100, 16),
            mk(128, 4, 100, 100, 50, 8),
        ])
        .expect("static system is non-empty")
    }

    /// A 3-array system in the spirit of the paper's Fig. 4 sketch (one
    /// monolithic square array plus two smaller distributed configurations);
    /// its schedule space has the paper's quoted 162 entries.
    pub fn heterogeneous_3() -> Self {
        let mk = |r, c, ikb, fkb, okb, bw| ArrayInstance {
            config: ArrayConfig::new(r, c).expect("static dims are non-zero"),
            buffers: BufferConfig::from_kb(ikb, fkb, okb).expect("static sizes are non-zero"),
            bandwidth: bw,
        };
        Self::new(vec![
            mk(32, 32, 400, 400, 200, 32),
            mk(8, 8, 200, 200, 100, 8),
            mk(2, 2, 100, 100, 50, 2),
        ])
        .expect("static system is non-empty")
    }

    /// The arrays of this system.
    pub fn instances(&self) -> &[ArrayInstance] {
        &self.instances
    }

    /// Number of arrays.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Whether the system has no arrays (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Replaces the energy model used by [`MultiArraySystem::evaluate`].
    pub fn with_energy_model(mut self, model: EnergyModel) -> Self {
        self.energy_model = model;
        self
    }

    /// The one per-array cost model: cycles and energy of `workload` on
    /// `inst` under `dataflow`.
    fn array_cost(
        &self,
        inst: &ArrayInstance,
        workload: &GemmWorkload,
        dataflow: Dataflow,
    ) -> ArrayCost {
        ArrayCost {
            cycles: inst.cycles(workload, dataflow),
            energy: self
                .energy_model
                .energy(workload, inst.config, dataflow, inst.buffers),
        }
    }

    fn mismatch(&self, workloads: usize) -> SimError {
        SimError::ScheduleMismatch {
            arrays: self.instances.len(),
            workloads,
        }
    }

    /// Evaluates a schedule: every array runs its assigned workload
    /// concurrently.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ScheduleMismatch`] if the schedule's length differs
    /// from the number of arrays.
    pub fn evaluate(
        &self,
        workloads: &[GemmWorkload],
        schedule: &Schedule,
    ) -> Result<ScheduleCost, SimError> {
        if schedule.assignments.len() != self.instances.len()
            || workloads.len() != self.instances.len()
        {
            return Err(self.mismatch(workloads.len().max(schedule.assignments.len())));
        }
        if schedule
            .assignments
            .iter()
            .any(|asn| asn.workload >= workloads.len())
        {
            return Err(self.mismatch(workloads.len()));
        }
        Ok(ScheduleCost::fold(
            self.instances
                .iter()
                .zip(&schedule.assignments)
                .map(|(inst, asn)| self.array_cost(inst, &workloads[asn.workload], asn.dataflow)),
        ))
    }

    /// Prices every (array, workload, dataflow) triple of one workload set
    /// once, so any number of schedules over it can be costed by lookup
    /// alone: `arrays² · 3` simulator evaluations (48 for four arrays)
    /// instead of `arrays` per schedule.
    ///
    /// [`CostTable::cost`] equals [`MultiArraySystem::evaluate`] bit for
    /// bit: both use the same per-array model and the same fold.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ScheduleMismatch`] if there is not exactly one
    /// workload per array.
    pub fn cost_table(&self, workloads: &[GemmWorkload]) -> Result<CostTable, SimError> {
        if workloads.len() != self.instances.len() {
            return Err(self.mismatch(workloads.len()));
        }
        let entries = self
            .instances
            .iter()
            .flat_map(|inst| {
                workloads.iter().flat_map(move |wl| {
                    Dataflow::ALL
                        .iter()
                        .map(move |&df| self.array_cost(inst, wl, df))
                })
            })
            .collect();
        Ok(CostTable {
            workloads: workloads.len(),
            entries,
        })
    }
}

/// Cycles and energy of one workload on one array under one dataflow.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ArrayCost {
    cycles: u64,
    energy: f64,
}

/// Per-(array, workload, dataflow) costs of one workload set on one
/// system, built by [`MultiArraySystem::cost_table`].
#[derive(Debug, Clone, PartialEq)]
pub struct CostTable {
    workloads: usize,
    /// Indexed `(array · workloads + workload) · 3 + dataflow`.
    entries: Vec<ArrayCost>,
}

impl CostTable {
    /// Cost of a schedule given as one assignment per array, in array
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if an assignment names a workload or array outside the table.
    pub fn cost(&self, assignments: impl IntoIterator<Item = Assignment>) -> ScheduleCost {
        ScheduleCost::fold(assignments.into_iter().enumerate().map(|(array, asn)| {
            assert!(asn.workload < self.workloads, "workload index out of range");
            self.entries[(array * self.workloads + asn.workload) * 3 + asn.dataflow.index()]
        }))
    }
}

/// Assignment of one workload (by index) and one dataflow to one array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    /// Index into the workload list.
    pub workload: usize,
    /// Dataflow the array uses for that workload.
    pub dataflow: Dataflow,
}

/// A complete schedule: one [`Assignment`] per array, in array order.
///
/// A valid schedule is a *permutation*: every workload appears exactly once.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    /// Per-array assignments (index = array index).
    pub assignments: Vec<Assignment>,
}

impl Schedule {
    /// Builds a schedule from a workload permutation and per-array dataflows.
    ///
    /// # Panics
    ///
    /// Panics if the two slices have different lengths.
    pub fn new(permutation: &[usize], dataflows: &[Dataflow]) -> Self {
        assert_eq!(
            permutation.len(),
            dataflows.len(),
            "permutation and dataflow lists must have equal length"
        );
        Self {
            assignments: permutation
                .iter()
                .zip(dataflows)
                .map(|(&workload, &dataflow)| Assignment { workload, dataflow })
                .collect(),
        }
    }

    /// Whether the schedule assigns every workload index `0..len` exactly
    /// once.
    pub fn is_permutation(&self) -> bool {
        let mut seen = vec![false; self.assignments.len()];
        for a in &self.assignments {
            match seen.get_mut(a.workload) {
                Some(s) if !*s => *s = true,
                _ => return false,
            }
        }
        true
    }
}

/// Cost of a schedule: concurrent makespan and total energy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduleCost {
    /// Cycles until the slowest array finishes.
    pub makespan: u64,
    /// Sum of per-array energies.
    pub energy: f64,
}

impl ScheduleCost {
    /// Concurrent execution: the makespan is the slowest array's cycles,
    /// the energy the sum over arrays, added in array order so the result
    /// is reproducible to the bit.
    fn fold(per_array: impl Iterator<Item = ArrayCost>) -> Self {
        per_array.fold(
            ScheduleCost {
                makespan: 0,
                energy: 0.0,
            },
            |acc, c| ScheduleCost {
                makespan: acc.makespan.max(c.cycles),
                energy: acc.energy + c.energy,
            },
        )
    }

    /// Lexicographic comparison: makespan first, energy as tie-break —
    /// the paper's CS3 optimality criterion.
    pub fn better_than(&self, other: &ScheduleCost) -> bool {
        self.makespan < other.makespan
            || (self.makespan == other.makespan && self.energy < other.energy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workloads_4() -> Vec<GemmWorkload> {
        vec![
            GemmWorkload::new(1024, 1024, 512).unwrap(),
            GemmWorkload::new(64, 64, 64).unwrap(),
            GemmWorkload::new(2048, 32, 256).unwrap(),
            GemmWorkload::new(128, 512, 128).unwrap(),
        ]
    }

    #[test]
    fn empty_system_rejected() {
        assert_eq!(MultiArraySystem::new(vec![]), Err(SimError::EmptySystem));
    }

    #[test]
    fn heterogeneous_4_has_four_distinct_arrays() {
        let sys = MultiArraySystem::heterogeneous_4();
        assert_eq!(sys.len(), 4);
        let mut shapes: Vec<_> = sys.instances().iter().map(|i| i.config).collect();
        shapes.sort();
        shapes.dedup();
        assert_eq!(shapes.len(), 4);
    }

    #[test]
    fn makespan_is_max_of_per_array_cycles() {
        let sys = MultiArraySystem::heterogeneous_4();
        let wls = workloads_4();
        let sched = Schedule::new(&[0, 1, 2, 3], &[Dataflow::Os; 4]);
        let cost = sys.evaluate(&wls, &sched).unwrap();
        let per_array: Vec<u64> = sys
            .instances()
            .iter()
            .zip(&sched.assignments)
            .map(|(inst, a)| inst.cycles(&wls[a.workload], a.dataflow))
            .collect();
        assert_eq!(cost.makespan, *per_array.iter().max().unwrap());
    }

    #[test]
    fn schedule_length_mismatch_rejected() {
        let sys = MultiArraySystem::heterogeneous_4();
        let wls = workloads_4();
        let bad = Schedule::new(&[0, 1], &[Dataflow::Os; 2]);
        assert!(matches!(
            sys.evaluate(&wls, &bad),
            Err(SimError::ScheduleMismatch { .. })
        ));
    }

    #[test]
    fn cost_table_prices_schedules_like_evaluate() {
        let sys = MultiArraySystem::heterogeneous_4();
        let wls = workloads_4();
        let table = sys.cost_table(&wls).unwrap();
        for sched in [
            Schedule::new(&[0, 1, 2, 3], &[Dataflow::Os; 4]),
            Schedule::new(
                &[3, 1, 0, 2],
                &[Dataflow::Is, Dataflow::Ws, Dataflow::Os, Dataflow::Ws],
            ),
        ] {
            let simulated = sys.evaluate(&wls, &sched).unwrap();
            let looked_up = table.cost(sched.assignments.iter().copied());
            assert_eq!(looked_up.makespan, simulated.makespan);
            assert_eq!(looked_up.energy.to_bits(), simulated.energy.to_bits());
        }
        assert!(matches!(
            sys.cost_table(&wls[..3]),
            Err(SimError::ScheduleMismatch { .. })
        ));
    }

    #[test]
    fn permutation_check() {
        assert!(Schedule::new(&[2, 0, 1, 3], &[Dataflow::Os; 4]).is_permutation());
        assert!(!Schedule::new(&[0, 0, 1, 3], &[Dataflow::Os; 4]).is_permutation());
        assert!(!Schedule::new(&[0, 1, 2, 7], &[Dataflow::Os; 4]).is_permutation());
    }

    #[test]
    fn assignment_matters() {
        // Putting the big workload on the big array should beat putting it
        // on the skinny one.
        let sys = MultiArraySystem::heterogeneous_4();
        let wls = workloads_4();
        let good = Schedule::new(&[0, 1, 2, 3], &[Dataflow::Os; 4]);
        let bad = Schedule::new(&[3, 1, 2, 0], &[Dataflow::Os; 4]);
        let cg = sys.evaluate(&wls, &good).unwrap();
        let cb = sys.evaluate(&wls, &bad).unwrap();
        assert!(cg.makespan < cb.makespan);
    }

    #[test]
    fn cost_ordering_is_lexicographic() {
        let a = ScheduleCost {
            makespan: 10,
            energy: 100.0,
        };
        let b = ScheduleCost {
            makespan: 10,
            energy: 50.0,
        };
        let c = ScheduleCost {
            makespan: 5,
            energy: 1e9,
        };
        assert!(b.better_than(&a));
        assert!(c.better_than(&b));
        assert!(!a.better_than(&a));
    }
}
