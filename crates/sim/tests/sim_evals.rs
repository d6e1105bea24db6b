//! `sim.evals` counts one per simulator evaluation, however many derived
//! quantities that evaluation reports.
//!
//! The counter is process-global, so this file is its own test binary with
//! a single test: no parallel test can move the counter between the reads.

use airchitect_sim::memory::{self, BufferConfig};
use airchitect_sim::report;
use airchitect_sim::{ArrayConfig, Dataflow};
use airchitect_telemetry::metrics::SIM_EVALS;
use airchitect_workload::GemmWorkload;

#[test]
fn each_evaluation_adds_exactly_one_sim_eval() {
    airchitect_telemetry::enable();
    let wl = GemmWorkload::new(300, 200, 100).unwrap();
    let array = ArrayConfig::new(16, 32).unwrap();
    let buffers = BufferConfig::from_kb(200, 100, 50).unwrap();
    let evals = |f: &dyn Fn()| {
        let before = SIM_EVALS.get();
        f();
        SIM_EVALS.get() - before
    };
    for df in Dataflow::ALL {
        assert_eq!(
            evals(&|| {
                memory::total_cycles(&wl, array, df, buffers, 8).unwrap();
            }),
            1,
            "total_cycles under {df}"
        );
        assert_eq!(
            evals(&|| {
                memory::stall_cycles(&wl, array, df, buffers, 8).unwrap();
            }),
            1,
            "stall_cycles under {df}"
        );
        assert_eq!(
            evals(&|| {
                report::simulate(&wl, array, df, buffers, 8).unwrap();
            }),
            1,
            "simulate under {df}"
        );
    }
}
