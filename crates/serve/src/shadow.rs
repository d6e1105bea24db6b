//! The sampling hook and its scoring pool: the one place where a sampled
//! request is scored.
//!
//! A deterministic hash over the request's canonical cache key admits a
//! configured fraction of recommendation requests, of every kind (cache
//! hit or miss, top-1 or ranked), into a bounded [`Queue`]. A
//! low-priority pool of dedicated threads (never borrowed from the ranked
//! pool) scores each sampled query in one or both of two ways:
//!
//! * **Shadow oracle** (`shadow_rate`): the served model's top-1 against
//!   the exact DSE oracle, appended as a versioned record to the rotating
//!   misprediction log.
//! * **Rollout canary** (`canary_split`, while a candidate is staged): the
//!   query answered by the incumbent and by the candidate, compared, and
//!   fed to [`Rollout::record_sample`], which applies a settling verdict —
//!   registry writes included — on this pool. Neither answer reaches a
//!   client, a breaker or the response cache: clients keep getting the
//!   incumbent's answer until promotion.
//!
//! Two properties matter for correctness under hot-reload:
//!
//! * The sampled task carries the `Arc<LoadedModel>` snapshot that was
//!   live at *admission*. Scoring may run seconds later, after any number
//!   of reloads, but the query is scored against — and an oracle record
//!   stamped with the generation of — exactly the model the request saw.
//! * Pushes never block the request path. A full queue drops the task (an
//!   oracle sample counts in `serve.shadow.dropped`); the serving latency
//!   budget is untouched by scoring backpressure.

use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use airchitect_dse::case1::Case1Problem;
use airchitect_dse::case3::Case3Problem;
use airchitect_online::drift::DriftMonitor;
use airchitect_online::log::MispredLog;
use airchitect_online::record::MispredRecord;
use airchitect_online::sampler;
use airchitect_telemetry::metrics;
use airchitect_telemetry::rotate::RotateConfig;

use crate::batch::{self, Outcome, Queue, RecQuery};
use crate::canary::{Candidate, Rollout};
use crate::reload::{CaseProblem, LoadedModel, ModelHub};
use crate::router::ParsedQuery;
use crate::{ServeConfig, ServeError};

/// Segment size of the misprediction log. Small enough that a long soak
/// rotates several times; large enough that rotation overhead is noise.
const SHADOW_LOG_MAX_BYTES: u64 = 8 * 1024 * 1024;

/// Observations kept by the rolling drift window.
const DRIFT_WINDOW: usize = 256;

/// One sampled request awaiting scoring. The model snapshot is the
/// incumbent that was live when the request was admitted.
pub(crate) struct ShadowTask {
    query: RecQuery,
    topk: usize,
    model: Arc<LoadedModel>,
    /// Score against the exact oracle (oracle-sampled).
    oracle: bool,
    /// The staged candidate, when canary-sampled.
    candidate: Option<Arc<Candidate>>,
}

/// The hook's state and the pool: sampling rates, queue, workers, the
/// misprediction log and the drift monitor feeding `serve.shadow.*`.
pub(crate) struct ShadowState {
    oracle_ppm: u32,
    hub: Arc<ModelHub>,
    rollout: Arc<Rollout>,
    queue: Queue<ShadowTask>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Open only when oracle sampling is on; taken (and closed) at
    /// shutdown.
    log: Mutex<Option<MispredLog>>,
    monitor: DriftMonitor,
}

impl ShadowState {
    /// Starts the pool, or returns `None` when neither the oracle rate
    /// nor the canary split samples anything.
    pub(crate) fn start(
        config: &ServeConfig,
        hub: &Arc<ModelHub>,
        rollout: &Arc<Rollout>,
    ) -> Result<Option<Arc<ShadowState>>, ServeError> {
        let oracle_ppm = sampler::rate_to_ppm(config.shadow_rate);
        if oracle_ppm == 0 && rollout.config().split_ppm == 0 {
            return Ok(None);
        }
        let log = if oracle_ppm > 0 {
            Some(open_log(config)?)
        } else {
            None
        };
        let state = Arc::new(ShadowState {
            oracle_ppm,
            hub: Arc::clone(hub),
            rollout: Arc::clone(rollout),
            queue: Queue::new(config.shadow_queue_depth.max(1)),
            workers: Mutex::new(Vec::new()),
            log: Mutex::new(log),
            monitor: DriftMonitor::new(DRIFT_WINDOW),
        });
        let workers = (0..config.shadow_threads.max(1))
            .map(|i| {
                let pool = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("shadow-{i}"))
                    .spawn(move || pool.drain())
                    .expect("spawn shadow worker")
            })
            .collect();
        *state.workers.lock().unwrap_or_else(|e| e.into_inner()) = workers;
        Ok(Some(state))
    }

    /// The hook: deterministically samples one admitted request for the
    /// oracle, the staged canary, or both. Never blocks: a full queue
    /// drops the task.
    pub(crate) fn maybe_sample(&self, parsed: &ParsedQuery) {
        let oracle = sampler::sampled(&parsed.cache_key, self.oracle_ppm);
        let candidate = if sampler::sampled(&parsed.cache_key, self.rollout.config().split_ppm) {
            self.rollout.active()
        } else {
            None
        };
        if !oracle && candidate.is_none() {
            return;
        }
        let Some(model) = self.hub.get(parsed.query.case()) else {
            return;
        };
        if oracle {
            metrics::SERVE_SHADOW_SAMPLED.inc();
        }
        let task = ShadowTask {
            query: parsed.query.clone(),
            topk: parsed.topk,
            model,
            oracle,
            candidate,
        };
        if self.queue.push(task).is_err() && oracle {
            metrics::SERVE_SHADOW_DROPPED.inc();
        }
    }

    /// Drains the queue, joins the pool, and closes the log (writing its
    /// end line). Called once during server shutdown, after the ranked
    /// pool has exited.
    pub(crate) fn finish(&self) {
        self.queue.shutdown();
        let workers = std::mem::take(&mut *self.workers.lock().unwrap_or_else(|e| e.into_inner()));
        for handle in workers {
            let _ = handle.join();
        }
        let log = self.log.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(log) = log {
            let _ = log.close();
        }
    }

    /// One pool thread: score tasks until the queue is shut down and
    /// empty, yielding the CPU after each so scoring only soaks up cycles
    /// the request path isn't using.
    fn drain(&self) {
        while let Some(task) = self.queue.pop() {
            // A panic (an oracle slip, a poisoned lock) costs this task,
            // not a pool thread.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.score(&task);
            }));
            std::thread::yield_now();
        }
    }

    fn score(&self, task: &ShadowTask) {
        if let Some(candidate) = &task.candidate {
            self.compare(task, candidate);
        }
        if task.oracle {
            self.record_oracle(task);
        }
    }

    /// Answers a canary-sampled query with the incumbent snapshot and the
    /// candidate, and records the comparison. A candidate set that does
    /// not cover the query's case study has nothing to compare.
    fn compare(&self, task: &ShadowTask, candidate: &Arc<Candidate>) {
        let Some(staged) = candidate.model(task.query.case()) else {
            return;
        };
        let (incumbent, incumbent_us) = timed(&task.model, task);
        let (answer, candidate_us) = timed(staged, task);
        let failed = matches!(&answer, Outcome::Err { status, .. } if *status >= 500);
        let agreed = !failed && same_answer(&incumbent, &answer);
        self.rollout
            .record_sample(candidate, agreed, failed, candidate_us, incumbent_us);
    }

    /// Scores an oracle-sampled query and logs the record.
    fn record_oracle(&self, task: &ShadowTask) {
        let Some(record) = oracle_record(task) else {
            return;
        };
        metrics::SERVE_SHADOW_ORACLE_US.record(record.oracle_us);
        metrics::SERVE_SHADOW_RECORDS.inc();
        if record.is_disagreement() {
            metrics::SERVE_SHADOW_DISAGREEMENTS.inc();
        }
        self.monitor
            .observe(!record.is_disagreement(), record.oracle_us);
        if let Some(log) = self.log.lock().unwrap_or_else(|e| e.into_inner()).as_mut() {
            let _ = log.append(&record);
        }
    }
}

/// Opens the misprediction log `shadow_rate > 0` writes to.
fn open_log(config: &ServeConfig) -> Result<MispredLog, ServeError> {
    if !(0.0..=1.0).contains(&config.shadow_rate) {
        return Err(ServeError::Config(format!(
            "shadow-oracle rate must be in 0..=1, got {}",
            config.shadow_rate
        )));
    }
    let dir = config.shadow_dir.as_ref().ok_or_else(|| {
        ServeError::Config("shadow-oracle sampling needs a log directory".into())
    })?;
    // Pid-scoped prefix: cluster replicas share a directory without ever
    // sharing a file.
    let prefix = format!("shadow-{}", std::process::id());
    MispredLog::create(
        dir,
        &prefix,
        RotateConfig {
            max_bytes: SHADOW_LOG_MAX_BYTES,
            max_age: None,
        },
    )
    .map_err(|e| ServeError::Io(format!("open misprediction log: {e}")))
}

/// One side's panic-isolated answer to the task's query and its latency
/// in µs.
fn timed(model: &LoadedModel, task: &ShadowTask) -> (Outcome, u64) {
    let started = Instant::now();
    let outcome = batch::guarded(model, &task.query, task.topk);
    (outcome, started.elapsed().as_micros() as u64)
}

/// Whether two outcomes give a client the same answer: everything but the
/// producing generation (a success tail's first field) and each ranked
/// result's `"score"` (the model's own probability, on which any two
/// models with different weights differ even when they rank every
/// configuration alike).
fn same_answer(a: &Outcome, b: &Outcome) -> bool {
    match (a, b) {
        (Outcome::Ok { body_tail: x, .. }, Outcome::Ok { body_tail: y, .. }) => {
            configurations(x).eq(configurations(y))
        }
        _ => a == b,
    }
}

/// A success tail after its generation, in pieces that leave out every
/// score (rendered as the last field of its result object).
fn configurations(tail: &str) -> impl Iterator<Item = &str> {
    let answer = tail.find(',').map_or(tail, |i| &tail[i..]);
    answer.split(",\"score\":").enumerate().map(|(i, piece)| {
        if i == 0 {
            piece
        } else {
            piece.find('}').map_or("", |end| &piece[end..])
        }
    })
}

/// The snapshot model's top-1 answer to a sampled query vs the exact DSE
/// oracle over the snapshot's own (space-matched) problem.
fn oracle_record(task: &ShadowTask) -> Option<MispredRecord> {
    let model = &task.model;
    let (features, oracle_label, oracle_us) = match (&task.query, &model.problem) {
        (
            RecQuery::Array {
                workload,
                mac_budget,
            },
            CaseProblem::Array(problem),
        ) => {
            let features = Case1Problem::features(workload, *mac_budget).to_vec();
            let t = Instant::now();
            let result = problem.search(workload, *mac_budget);
            (features, result.label, t.elapsed().as_micros() as u64)
        }
        (RecQuery::Buffers { query }, CaseProblem::Buffers(problem)) => {
            let features = query.features().to_vec();
            let t = Instant::now();
            let result = problem.search(query);
            (features, result.label, t.elapsed().as_micros() as u64)
        }
        (RecQuery::Schedule { workloads }, CaseProblem::Schedule(problem)) => {
            let features = Case3Problem::features(workloads).to_vec();
            let t = Instant::now();
            let result = problem.search(workloads);
            (features, result.label, t.elapsed().as_micros() as u64)
        }
        // Query/model case mismatch can't happen (the hub keyed the model
        // by the query's case), but don't let a logic slip panic a worker.
        _ => return None,
    };
    let model_label = model.recommender.model().predict_row(&features);
    Some(MispredRecord {
        case: model.case,
        features,
        model_label,
        oracle_label,
        model_version: model.generation,
        oracle_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(tail: &str) -> Outcome {
        Outcome::Ok {
            body_tail: tail.into(),
            generation: 1,
            source: batch::Source::Model,
        }
    }

    fn err(status: u16, code: &'static str) -> Outcome {
        Outcome::Err {
            status,
            code,
            message: "m".into(),
        }
    }

    #[test]
    fn answers_agree_on_everything_but_the_generation_and_scores() {
        let result = ",\"case\":\"array\",\"result\":{\"rows\":8}}\n";
        assert!(same_answer(
            &ok(&format!("\"generation\":1{result}")),
            &ok(&format!("\"generation\":2{result}"))
        ));
        assert!(!same_answer(
            &ok("\"generation\":1,\"result\":{\"rows\":8}}\n"),
            &ok("\"generation\":1,\"result\":{\"rows\":16}}\n")
        ));
        // Ranked answers agree on their configurations in order, whatever
        // the scores.
        let ranked = |generation: u32, first: u32, second: u32, scores: (f32, f32)| {
            ok(&format!(
                "\"generation\":{generation},\"results\":[{{\"rows\":{first},\"score\":{}}},\
                 {{\"rows\":{second},\"score\":{}}}]}}\n",
                scores.0, scores.1
            ))
        };
        assert!(same_answer(&ranked(1, 8, 16, (0.6, 0.3)), &ranked(2, 8, 16, (0.9, 0.05))));
        assert!(!same_answer(&ranked(1, 8, 16, (0.6, 0.3)), &ranked(2, 16, 8, (0.6, 0.3))));
        assert!(!same_answer(&ranked(1, 8, 16, (0.6, 0.3)), &ranked(1, 8, 32, (0.6, 0.3))));
        assert!(same_answer(&err(422, "infeasible"), &err(422, "infeasible")));
        assert!(!same_answer(&err(422, "infeasible"), &ok(result)));
        assert!(!same_answer(&err(500, "inference_panic"), &err(503, "model_mismatch")));
    }
}
