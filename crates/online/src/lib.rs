//! Closed-loop online learning for the AIrchitect recommender.
//!
//! The offline pipeline trains the recommendation network once, on
//! exhaustively-enumerated labels. At serve time the exact DSE oracle is
//! still available (it powers `--fallback search`), which means the serving
//! fleet sits on a free stream of ground truth. This crate closes the loop:
//!
//! 1. **Sampling** ([`sampler`]) — a deterministic hash over the request's
//!    canonical cache key admits a configurable fraction of live queries.
//! 2. **Shadow scoring** — the server (`airchitect-serve`'s `shadow`
//!    module) hands each sampled query to a bounded queue that never
//!    blocks the request path (a full queue drops the sample and counts
//!    it). A low-priority pool replays the query against both the served
//!    model and the exact DSE oracle, and appends a versioned record to
//!    the misprediction log. The same pool scores a staged rollout
//!    candidate against the incumbent.
//! 3. **Misprediction log** ([`record`], [`log`]) — rotating JSONL segments
//!    in the telemetry sink schema, each self-contained (meta line, shadow
//!    records, end line) so the `report` validator accepts every segment.
//! 4. **Drift monitor** ([`drift`]) — rolling top-1-agreement and
//!    oracle-latency gauges plus an [`drift::OnlinePolicy`] deciding when
//!    accumulated disagreement justifies a fine-tune cycle.
//! 5. **Fine-tuning** ([`tune`]) — `train --from-log` replays the log,
//!    filters to disagreements for the served model version, and continues
//!    training the existing checkpoint with a reduced learning rate under
//!    the usual divergence guards. The resulting artifact is pushed through
//!    the server's atomic `/v1/reload`.

#![warn(missing_docs)]

pub mod drift;
pub mod log;
pub mod record;
pub mod sampler;
pub mod tune;

pub use drift::{DriftMonitor, DriftStats, OnlinePolicy};
pub use log::{read_dir, LogScan, MispredLog};
pub use record::MispredRecord;
pub use sampler::sampled;
pub use tune::{fine_tune, FineTuneOptions, FineTuneOutcome};
