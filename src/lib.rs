//! Umbrella crate for the AIrchitect reproduction workspace.
//!
//! Re-exports every member crate under one roof so the examples and
//! integration tests (and downstream users who want a single dependency)
//! can reach the full API:
//!
//! * [`workload`] — GEMM workloads, CNN layer tables, samplers,
//! * [`sim`] — the analytical systolic-array simulator,
//! * [`data`] — dataset containers, splits, quantizers,
//! * [`dse`] — output spaces, exhaustive searchers, dataset generators,
//! * [`tensor`] / [`nn`] — the from-scratch ML substrate,
//! * [`classifiers`] — the Fig. 9 baseline model zoo,
//! * [`core`] — the AIrchitect model, pipelines, and recommendation API,
//! * [`serve`] — the hot-reloadable HTTP inference server.
//!
//! See the workspace README for the quickstart and DESIGN.md for the system
//! inventory.

#![warn(missing_docs)]

pub use airchitect as core;
pub use airchitect_classifiers as classifiers;
pub use airchitect_data as data;
pub use airchitect_dse as dse;
pub use airchitect_nn as nn;
pub use airchitect_serve as serve;
pub use airchitect_sim as sim;
pub use airchitect_tensor as tensor;
pub use airchitect_workload as workload;
