//! Search-based design-space exploration for the three AIrchitect case
//! studies.
//!
//! This crate is the "conventional flow" of paper Fig. 1(a): for each
//! workload it evaluates every point of a quantized output space with the
//! analytical simulator and returns the optimal configuration ID. Those IDs
//! are both the *ground truth labels* for training the recommendation
//! network and the *baseline* the learned optimizer is compared against
//! (search time vs. constant-time inference, paper Fig. 1).
//!
//! * [`space`] — the quantized output spaces and their label codecs
//!   (paper Fig. 8: 459 / 1000 / 1944 labels),
//! * [`case1`] — array shape & dataflow prediction,
//! * [`case2`] — SRAM buffer sizing,
//! * [`case3`] — multi-array scheduling,
//! * [`parallel`] — the one dataset generator: each case's labelling step
//!   under a sharded, panic-isolated, checkpointed driver.
//!
//! # Example
//!
//! ```
//! use airchitect_dse::case1::Case1Problem;
//! use airchitect_workload::GemmWorkload;
//!
//! let problem = Case1Problem::new(1 << 18);
//! let wl = GemmWorkload::new(512, 64, 256)?;
//! let result = problem.search(&wl, 1 << 10);
//! let (array, dataflow) = problem.space().decode(result.label).expect("label in range");
//! assert!(array.macs() <= 1 << 10);
//! println!("optimal: {array} {dataflow} at {} cycles", result.cost);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod case1;
pub mod case2;
pub mod case3;
pub mod parallel;
pub mod search_algos;
pub mod space;

/// Outcome of one exhaustive search: the winning label and its cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchResult {
    /// Config ID of the optimum in the case study's output space.
    pub label: u32,
    /// Cost of the optimum (cycles for CS1/CS3 makespan, stall cycles for
    /// CS2).
    pub cost: u64,
    /// Number of candidate configurations evaluated.
    pub evaluations: u64,
}
