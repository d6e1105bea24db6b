//! SRAM buffer sizing model: DRAM traffic as a function of buffer capacity,
//! plus a double-buffering stall model.
//!
//! Each of the three operand buffers (IFMAP, Filter, OFMAP — paper Fig. 3)
//! filters DRAM traffic through tiling reuse:
//!
//! * every operand has a **minimum traffic** (its size — it must cross the
//!   interface at least once),
//! * a **reuse count** (how many times tiling would refetch it if nothing
//!   were buffered), and
//! * a **working set** (the buffer capacity at which refetches vanish).
//!
//! Traffic interpolates linearly in the buffered fraction of the working set:
//! `traffic = min · (1 + (reuse − 1) · (1 − min(1, buf / ws)))`.
//!
//! The *stationary* operand of a dataflow is pinned inside the PE array, so
//! its buffer only stages one array-sized tile — its working set is tiny and
//! tiny buffers are optimal for it. This reproduces the paper's Fig. 6(d-f):
//! IS wants a small IFMAP buffer, WS a small Filter buffer, and under a shared
//! capacity limit large workloads pull capacity away from the OFMAP buffer.
//!
//! Stalls: traffic whose operand has at least two per-fold tiles of buffer is
//! prefetched behind compute (double buffering) and only stalls if the
//! interface is oversubscribed; traffic without double-buffer room serializes.

use airchitect_workload::GemmWorkload;
use serde::{Deserialize, Serialize};

use crate::compute::{self, Tiling};
use crate::{ArrayConfig, Dataflow, SimError};

/// Bytes per operand element (int8 accelerator, as in SCALE-Sim's default).
pub const BYTES_PER_ELEM: u64 = 1;

/// Capacities of the three SRAM operand buffers, in bytes.
///
/// # Example
///
/// ```
/// use airchitect_sim::memory::BufferConfig;
///
/// let bufs = BufferConfig::from_kb(100, 200, 300)?;
/// assert_eq!(bufs.ifmap_bytes(), 100 * 1024);
/// assert_eq!(bufs.total_kb(), 600);
/// # Ok::<(), airchitect_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BufferConfig {
    ifmap: u64,
    filter: u64,
    ofmap: u64,
}

impl BufferConfig {
    /// Creates a buffer configuration from capacities in bytes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ZeroBuffer`] if any capacity is zero.
    pub fn new(ifmap: u64, filter: u64, ofmap: u64) -> Result<Self, SimError> {
        for (v, which) in [(ifmap, "ifmap"), (filter, "filter"), (ofmap, "ofmap")] {
            if v == 0 {
                return Err(SimError::ZeroBuffer { which });
            }
        }
        Ok(Self {
            ifmap,
            filter,
            ofmap,
        })
    }

    /// Creates a buffer configuration from capacities in KB (1 KB = 1024 B).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ZeroBuffer`] if any capacity is zero.
    pub fn from_kb(ifmap_kb: u64, filter_kb: u64, ofmap_kb: u64) -> Result<Self, SimError> {
        Self::new(ifmap_kb * 1024, filter_kb * 1024, ofmap_kb * 1024)
    }

    /// IFMAP buffer capacity in bytes.
    pub fn ifmap_bytes(&self) -> u64 {
        self.ifmap
    }

    /// Filter buffer capacity in bytes.
    pub fn filter_bytes(&self) -> u64 {
        self.filter
    }

    /// OFMAP buffer capacity in bytes.
    pub fn ofmap_bytes(&self) -> u64 {
        self.ofmap
    }

    /// Total capacity in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.ifmap + self.filter + self.ofmap
    }

    /// Total capacity in whole KB (rounded down).
    pub fn total_kb(&self) -> u64 {
        self.total_bytes() / 1024
    }
}

/// Reuse description of one operand under one dataflow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperandReuse {
    /// Minimum possible DRAM traffic, in bytes (the operand's footprint, or
    /// read+write footprint for spilled partial sums).
    pub min_traffic: u64,
    /// Worst-case refetch multiplier when nothing is buffered.
    pub reuse: u64,
    /// Buffer bytes needed to eliminate all refetches.
    pub working_set: u64,
    /// Per-fold tile size in bytes (double-buffer unit).
    pub fold_tile: u64,
}

impl OperandReuse {
    /// DRAM traffic in bytes for a buffer of `buf` bytes.
    pub fn traffic(&self, buf: u64) -> u64 {
        if self.reuse <= 1 || self.working_set == 0 {
            return self.min_traffic;
        }
        let frac = (buf as f64 / self.working_set as f64).min(1.0);
        let extra = (self.reuse - 1) as f64 * (1.0 - frac);
        (self.min_traffic as f64 * (1.0 + extra)).round() as u64
    }

    /// Whether `buf` bytes leave room to double-buffer the per-fold tile.
    pub fn double_buffered(&self, buf: u64) -> bool {
        buf >= 2 * self.fold_tile
    }
}

/// Reuse descriptors for the three operands of `workload` on `array` under
/// `dataflow`. Order: `[ifmap, filter, ofmap]`.
pub fn operand_reuse(
    workload: &GemmWorkload,
    array: ArrayConfig,
    dataflow: Dataflow,
) -> [OperandReuse; 3] {
    let t: Tiling = compute::tiling(workload, array, dataflow);
    let (m, n, k) = workload.as_tuple();
    let (r, c) = (array.rows(), array.cols());
    let e = BYTES_PER_ELEM;
    let stage = (r.min(t.row_extent) * c.min(t.col_extent)) * e;

    match dataflow {
        Dataflow::Os => {
            // A row-band (R x K) is reused across the column folds; B column
            // tiles (K x C) are refetched once per row band unless the whole
            // filter fits; outputs leave once.
            let ifmap = OperandReuse {
                min_traffic: m * k * e,
                reuse: t.col_folds,
                working_set: r.min(m) * k * e,
                fold_tile: r.min(m) * k * e,
            };
            let filter = OperandReuse {
                min_traffic: k * n * e,
                reuse: t.row_folds,
                working_set: k * n * e,
                fold_tile: k * c.min(n) * e,
            };
            let ofmap = OperandReuse {
                min_traffic: m * n * e,
                reuse: 1,
                working_set: stage,
                fold_tile: stage,
            };
            [ifmap, filter, ofmap]
        }
        Dataflow::Ws => {
            // Filter is stationary: fetched exactly once, buffer only stages
            // one array tile. IFMAP slabs (M x R) are reused across column
            // folds. Partial sums spill unless an M x C slab fits.
            let ifmap = OperandReuse {
                min_traffic: m * k * e,
                reuse: t.col_folds,
                working_set: m * r.min(k) * e,
                fold_tile: m * r.min(k) * e,
            };
            let filter = OperandReuse {
                min_traffic: k * n * e,
                reuse: 1,
                working_set: stage,
                fold_tile: stage,
            };
            let ofmap = OperandReuse {
                min_traffic: m * n * e,
                reuse: 2 * t.row_folds - 1,
                working_set: m * c.min(n) * e,
                fold_tile: m * c.min(n) * e,
            };
            [ifmap, filter, ofmap]
        }
        Dataflow::Is => {
            // IFMAP is stationary; filter slabs (N x R) stream and are reused
            // across the M (column) folds; partial sums spill unless an
            // N x C slab fits.
            let ifmap = OperandReuse {
                min_traffic: m * k * e,
                reuse: 1,
                working_set: stage,
                fold_tile: stage,
            };
            let filter = OperandReuse {
                min_traffic: k * n * e,
                reuse: t.col_folds,
                working_set: n * r.min(k) * e,
                fold_tile: n * r.min(k) * e,
            };
            let ofmap = OperandReuse {
                min_traffic: m * n * e,
                reuse: 2 * t.row_folds - 1,
                working_set: n * c.min(m) * e,
                fold_tile: n * c.min(m) * e,
            };
            [ifmap, filter, ofmap]
        }
    }
}

/// Per-operand DRAM traffic, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficReport {
    /// IFMAP operand bytes moved to/from DRAM.
    pub ifmap: u64,
    /// Filter operand bytes moved from DRAM.
    pub filter: u64,
    /// OFMAP bytes moved to/from DRAM (including partial-sum spills).
    pub ofmap: u64,
}

impl TrafficReport {
    /// Total bytes across all operands.
    pub fn total(&self) -> u64 {
        self.ifmap + self.filter + self.ofmap
    }
}

fn traffic_report(reuse: &[OperandReuse; 3], buffers: BufferConfig) -> TrafficReport {
    let [a, b, c] = reuse;
    TrafficReport {
        ifmap: a.traffic(buffers.ifmap_bytes()),
        filter: b.traffic(buffers.filter_bytes()),
        ofmap: c.traffic(buffers.ofmap_bytes()),
    }
}

/// DRAM traffic for `workload` with the given buffers.
pub fn dram_traffic(
    workload: &GemmWorkload,
    array: ArrayConfig,
    dataflow: Dataflow,
    buffers: BufferConfig,
) -> TrafficReport {
    traffic_report(&operand_reuse(workload, array, dataflow), buffers)
}

/// The buffer-independent half of the stall model for one (workload, array,
/// dataflow, bandwidth) point: the operand reuse descriptors and the
/// compute cycles. Build it once, then price any number of buffer splits
/// with [`StallModel::stall_cycles`]; each split only folds per-operand
/// traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallModel {
    reuse: [OperandReuse; 3],
    compute: u64,
    bandwidth: u64,
}

impl StallModel {
    /// Computes the reuse descriptors and compute cycles (one simulator
    /// evaluation).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ZeroBandwidth`] if `bandwidth` is zero.
    pub fn new(
        workload: &GemmWorkload,
        array: ArrayConfig,
        dataflow: Dataflow,
        bandwidth: u64,
    ) -> Result<Self, SimError> {
        if bandwidth == 0 {
            return Err(SimError::ZeroBandwidth);
        }
        Ok(Self {
            reuse: operand_reuse(workload, array, dataflow),
            compute: compute::runtime_cycles(workload, array, dataflow),
            bandwidth,
        })
    }

    /// Stall-free compute cycles.
    pub fn compute_cycles(&self) -> u64 {
        self.compute
    }

    /// Per-operand DRAM traffic with `buffers`.
    pub fn traffic(&self, buffers: BufferConfig) -> TrafficReport {
        traffic_report(&self.reuse, buffers)
    }

    /// Stall cycles with `buffers`; see [`stall_cycles`].
    pub fn stall_cycles(&self, buffers: BufferConfig) -> u64 {
        let bufs = [
            buffers.ifmap_bytes(),
            buffers.filter_bytes(),
            buffers.ofmap_bytes(),
        ];
        let mut overlapped = 0u64;
        let mut serialized = 0u64;
        for (op, &buf) in self.reuse.iter().zip(&bufs) {
            let traffic = op.traffic(buf);
            if op.double_buffered(buf) {
                overlapped += traffic;
            } else {
                serialized += traffic;
            }
        }
        // Overlapped traffic hides behind compute; whatever exceeds the
        // interface's compute-time budget spills into stall bytes, together
        // with all serialized traffic. A single final ceil keeps the model
        // monotone in buffer sizes and bandwidth.
        let hidden_bytes = self.compute.saturating_mul(self.bandwidth);
        let stall_bytes = overlapped.saturating_sub(hidden_bytes) + serialized;
        stall_bytes.div_ceil(self.bandwidth)
    }
}

/// Stall cycles for `workload` given buffers and an interface bandwidth of
/// `bandwidth` bytes/cycle.
///
/// Traffic of double-buffered operands overlaps with compute and only stalls
/// when the interface is oversubscribed; traffic of operands without
/// double-buffer headroom serializes in full.
///
/// # Errors
///
/// Returns [`SimError::ZeroBandwidth`] if `bandwidth` is zero.
pub fn stall_cycles(
    workload: &GemmWorkload,
    array: ArrayConfig,
    dataflow: Dataflow,
    buffers: BufferConfig,
    bandwidth: u64,
) -> Result<u64, SimError> {
    Ok(StallModel::new(workload, array, dataflow, bandwidth)?.stall_cycles(buffers))
}

/// Total cycles (compute + stalls).
///
/// # Errors
///
/// Returns [`SimError::ZeroBandwidth`] if `bandwidth` is zero.
pub fn total_cycles(
    workload: &GemmWorkload,
    array: ArrayConfig,
    dataflow: Dataflow,
    buffers: BufferConfig,
    bandwidth: u64,
) -> Result<u64, SimError> {
    let model = StallModel::new(workload, array, dataflow, bandwidth)?;
    Ok(model.compute_cycles() + model.stall_cycles(buffers))
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

    fn kb(i: u64, f: u64, o: u64) -> BufferConfig {
        BufferConfig::from_kb(i, f, o).unwrap()
    }

    #[test]
    fn buffer_config_validation() {
        assert!(matches!(
            BufferConfig::new(0, 1, 1),
            Err(SimError::ZeroBuffer { which: "ifmap" })
        ));
        assert_eq!(kb(1, 2, 3).total_kb(), 6);
    }

    #[test]
    fn traffic_is_monotone_in_buffer_size() {
        let w = wl(512, 512, 512);
        let a = arr(16, 16);
        for df in Dataflow::ALL {
            let small = dram_traffic(&w, a, df, kb(100, 100, 100)).total();
            let big = dram_traffic(&w, a, df, kb(1000, 1000, 1000)).total();
            assert!(big <= small, "{df}: bigger buffers must not add traffic");
        }
    }

    #[test]
    fn traffic_never_below_operand_footprint() {
        let w = wl(300, 200, 100);
        let a = arr(8, 32);
        for df in Dataflow::ALL {
            let t = dram_traffic(&w, a, df, kb(1000, 1000, 1000));
            assert!(t.ifmap >= w.ifmap_elems());
            assert!(t.filter >= w.filter_elems());
            assert!(t.ofmap >= w.ofmap_elems());
        }
    }

    #[test]
    fn stationary_operand_has_tiny_working_set() {
        let w = wl(1024, 1024, 1024);
        let a = arr(32, 32);
        // WS: filter stationary => its working set is just the array tile.
        let [_, filt, _] = operand_reuse(&w, a, Dataflow::Ws);
        assert_eq!(filt.working_set, 32 * 32 * BYTES_PER_ELEM);
        assert_eq!(filt.reuse, 1);
        // IS: ifmap stationary.
        let [ifm, _, _] = operand_reuse(&w, a, Dataflow::Is);
        assert_eq!(ifm.working_set, 32 * 32 * BYTES_PER_ELEM);
        assert_eq!(ifm.reuse, 1);
    }

    #[test]
    fn stalls_decrease_with_bandwidth() {
        let w = wl(512, 512, 512);
        let a = arr(16, 16);
        let b = kb(200, 200, 200);
        let s1 = stall_cycles(&w, a, Dataflow::Os, b, 1).unwrap();
        let s10 = stall_cycles(&w, a, Dataflow::Os, b, 10).unwrap();
        let s100 = stall_cycles(&w, a, Dataflow::Os, b, 100).unwrap();
        assert!(s1 >= s10 && s10 >= s100);
    }

    #[test]
    fn zero_bandwidth_is_rejected() {
        let w = wl(8, 8, 8);
        assert_eq!(
            stall_cycles(&w, arr(4, 4), Dataflow::Os, kb(1, 1, 1), 0),
            Err(SimError::ZeroBandwidth)
        );
    }

    #[test]
    fn ample_bandwidth_and_buffers_hide_memory() {
        // A small workload with large buffers and bandwidth: no stalls.
        let w = wl(32, 32, 32);
        let a = arr(8, 8);
        let s = stall_cycles(&w, a, Dataflow::Os, kb(900, 900, 900), 100).unwrap();
        assert_eq!(s, 0);
    }

    #[test]
    fn total_cycles_is_compute_plus_stalls() {
        let w = wl(256, 128, 64);
        let a = arr(8, 16);
        let b = kb(100, 100, 100);
        let total = total_cycles(&w, a, Dataflow::Ws, b, 4).unwrap();
        let compute = compute::runtime_cycles(&w, a, Dataflow::Ws);
        let stalls = stall_cycles(&w, a, Dataflow::Ws, b, 4).unwrap();
        assert_eq!(total, compute + stalls);
    }

    #[test]
    fn partial_sum_spill_grows_ofmap_traffic() {
        // WS with many K folds and a tiny OFMAP buffer: partial sums spill.
        let w = wl(2048, 64, 4096);
        let a = arr(16, 16);
        let spilled = dram_traffic(&w, a, Dataflow::Ws, kb(100, 100, 1)).ofmap;
        let held = dram_traffic(&w, a, Dataflow::Ws, kb(100, 100, 900)).ofmap;
        assert!(spilled > held);
        assert!(spilled > w.ofmap_elems());
    }
}
