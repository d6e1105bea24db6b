//! One-stop simulation report combining runtime, stalls, traffic, and energy.

use airchitect_workload::GemmWorkload;
use serde::{Deserialize, Serialize};

use crate::energy::EnergyModel;
use crate::memory::{BufferConfig, StallModel, TrafficReport};
use crate::{compute, ArrayConfig, Dataflow, SimError};

/// Full simulation result for one workload on one array configuration.
///
/// # Example
///
/// ```
/// use airchitect_sim::report::simulate;
/// use airchitect_sim::memory::BufferConfig;
/// use airchitect_sim::{ArrayConfig, Dataflow};
/// use airchitect_workload::GemmWorkload;
///
/// let report = simulate(
///     &GemmWorkload::new(256, 256, 256)?,
///     ArrayConfig::new(16, 16)?,
///     Dataflow::Os,
///     BufferConfig::from_kb(200, 200, 100)?,
///     16,
/// )?;
/// assert_eq!(report.total_cycles, report.compute_cycles + report.stall_cycles);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Stall-free compute cycles.
    pub compute_cycles: u64,
    /// Memory stall cycles.
    pub stall_cycles: u64,
    /// `compute_cycles + stall_cycles`.
    pub total_cycles: u64,
    /// MAC utilization over the compute phase, in `(0, 1]`.
    pub utilization: f64,
    /// Per-operand DRAM traffic.
    pub traffic: TrafficReport,
    /// Total energy under the default [`EnergyModel`].
    pub energy: f64,
}

/// Runs the full analytical model for one configuration.
///
/// # Errors
///
/// Returns [`SimError::ZeroBandwidth`] if `bandwidth` is zero.
pub fn simulate(
    workload: &GemmWorkload,
    array: ArrayConfig,
    dataflow: Dataflow,
    buffers: BufferConfig,
    bandwidth: u64,
) -> Result<SimReport, SimError> {
    let model = StallModel::new(workload, array, dataflow, bandwidth)?;
    let compute_cycles = model.compute_cycles();
    let stall_cycles = model.stall_cycles(buffers);
    let energy = EnergyModel::default().energy(workload, array, dataflow, buffers);
    Ok(SimReport {
        compute_cycles,
        stall_cycles,
        total_cycles: compute_cycles + stall_cycles,
        utilization: compute::utilization_of(workload, array, compute_cycles),
        traffic: model.traffic(buffers),
        energy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_fields_are_consistent() {
        let wl = GemmWorkload::new(100, 200, 300).unwrap();
        let r = simulate(
            &wl,
            ArrayConfig::new(8, 16).unwrap(),
            Dataflow::Ws,
            BufferConfig::from_kb(300, 100, 200).unwrap(),
            8,
        )
        .unwrap();
        assert_eq!(r.total_cycles, r.compute_cycles + r.stall_cycles);
        assert!(r.utilization > 0.0 && r.utilization <= 1.0);
        assert!(r.energy > 0.0);
        assert_eq!(
            r.traffic.total(),
            r.traffic.ifmap + r.traffic.filter + r.traffic.ofmap
        );
    }
}
