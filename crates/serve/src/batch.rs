//! Request answering and the bounded queues behind the off-loop pools.
//!
//! A shard answers every top-1 query inline with the int8 pass
//! ([`execute_fast`]); a ranked query runs the f32 pass ([`execute`]) on
//! the ranked pool, an [`OffLoop`] sized by `workers` and `queue_depth`.
//! Both go through the listener's one `answer` function, which snapshots
//! the current model once per request: an answer started before a
//! hot-reload finishes entirely on the old model, so no response ever
//! mixes two models.
//!
//! Admission control is reject-on-full rather than block-on-full: when a
//! pool's queue holds `depth` jobs the push fails immediately and the
//! connection answers `429` with `Retry-After`, keeping queue latency
//! bounded for the requests that *are* admitted.
//!
//! Other work that may block — a replica's reloads and rollbacks, the
//! cluster router's forwarded requests and control calls — runs on an
//! [`OffLoop`] too, answering through the shard's [`CompletionQueue`]. The
//! shadow pool (`crate::shadow`) drains one more [`Queue`], of sampled
//! requests.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use airchitect_telemetry::metrics::SERVE_WAKEUPS;

use airchitect::model::CaseStudy;
use airchitect::recommend::RecommendError;
use airchitect_dse::case2::Case2Query;
use airchitect_telemetry::json::write_f64;
use airchitect_workload::GemmWorkload;

use crate::http::Response;
use crate::reload::{case_name, CaseProblem, LoadedModel};

/// A decoded, validated recommendation query.
#[derive(Debug, Clone)]
pub enum RecQuery {
    /// CS1: array shape + dataflow under a MAC budget.
    Array {
        /// The GEMM workload.
        workload: GemmWorkload,
        /// Hard MAC-unit budget.
        mac_budget: u64,
    },
    /// CS2: SRAM buffer split.
    Buffers {
        /// The full CS2 query (workload, array, dataflow, bandwidth, limit).
        query: Case2Query,
    },
    /// CS3: schedule for four concurrent workloads.
    Schedule {
        /// Exactly four workloads (validated by the router).
        workloads: Vec<GemmWorkload>,
    },
}

impl RecQuery {
    /// The case study this query targets.
    pub fn case(&self) -> CaseStudy {
        match self {
            RecQuery::Array { .. } => CaseStudy::ArrayDataflow,
            RecQuery::Buffers { .. } => CaseStudy::BufferSizing,
            RecQuery::Schedule { .. } => CaseStudy::MultiArrayScheduling,
        }
    }
}

/// Who produced a successful answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The trained recommendation model (cacheable).
    Model,
    /// The exhaustive-search fallback oracle (degraded mode; never cached,
    /// stamped with a `Warning` header).
    Search,
}

/// An answer, ready for HTTP framing by the owning shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Success: the rendered response JSON minus its leading `{` (the
    /// shard prepends `{"cached":...,`), plus the generation of
    /// the model that produced it (for cache stamping).
    Ok {
        /// Rendered JSON tail.
        body_tail: String,
        /// Producing model's generation.
        generation: u64,
        /// Model or degraded-mode search.
        source: Source,
    },
    /// Failure mapped to an HTTP status. Never a 5xx for domain errors —
    /// infeasible budgets are 422, missing models 503.
    Err {
        /// HTTP status code.
        status: u16,
        /// Stable machine-readable code.
        code: &'static str,
        /// Human-readable message.
        message: String,
    },
}

/// What an off-loop step hands back to the shard that queued it.
#[derive(Debug)]
pub enum Done {
    /// A ranked-pool answer; the shard frames (and caches) it.
    Outcome(Outcome),
    /// A finished response.
    Response(Response),
}

impl From<Outcome> for Done {
    fn from(outcome: Outcome) -> Self {
        Done::Outcome(outcome)
    }
}

impl From<Response> for Done {
    fn from(response: Response) -> Self {
        Done::Response(response)
    }
}

/// Where an off-loop step delivers its result: the shard that queued it
/// never blocks on it, so the reply lands on that shard's
/// [`CompletionQueue`] and an eventfd wake re-arms the connection inside
/// the loop.
#[derive(Debug)]
pub struct Reply {
    /// The owning shard's completion queue.
    pub queue: Arc<CompletionQueue>,
    /// Connection token (slot index + generation) on that shard.
    pub conn: u64,
    /// Per-connection request sequence number, so a late reply for an
    /// already-504'd request is discarded instead of misdelivered.
    pub req: u64,
}

/// A completion delivered to an evented shard: `(connection token,
/// request sequence, result)`.
pub type Completion = (u64, u64, Done);

/// Mailbox between the off-loop pools and one evented shard. Pool threads
/// push finished work; the shard drains after an eventfd wake. The wake is
/// only issued on the empty→non-empty transition, so a burst of
/// completions costs one syscall, not one per job.
#[derive(Debug)]
pub struct CompletionQueue {
    entries: Mutex<Vec<Completion>>,
    #[cfg(target_os = "linux")]
    waker: crate::reactor::Waker,
}

impl CompletionQueue {
    /// Creates the queue and its waker eventfd.
    ///
    /// # Errors
    ///
    /// Fails only if the eventfd cannot be created (fd exhaustion).
    pub fn new() -> std::io::Result<Self> {
        Ok(Self {
            entries: Mutex::new(Vec::new()),
            #[cfg(target_os = "linux")]
            waker: crate::reactor::Waker::new()?,
        })
    }

    /// Pushes one completion and wakes the owning loop if it was idle.
    pub fn push(&self, conn: u64, req: u64, done: Done) {
        let was_empty = {
            let mut entries = self.entries.lock().expect("completions poisoned");
            let was_empty = entries.is_empty();
            entries.push((conn, req, done));
            was_empty
        };
        if was_empty {
            self.wake();
        }
    }

    /// Drains every pending completion into `out` (which is cleared
    /// first).
    pub fn drain_into(&self, out: &mut Vec<Completion>) {
        out.clear();
        let mut entries = self.entries.lock().expect("completions poisoned");
        std::mem::swap(out, &mut entries);
    }

    /// Number of undelivered completions (the shard's ready-queue depth
    /// gauge).
    pub fn len(&self) -> usize {
        self.entries.lock().expect("completions poisoned").len()
    }

    /// Whether no completions are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Wakes the owning loop without queueing anything (shutdown nudges).
    pub fn wake(&self) {
        SERVE_WAKEUPS.inc();
        #[cfg(target_os = "linux")]
        self.waker.wake();
    }

    /// The waker fd to register for read-readiness in the shard's poller.
    #[cfg(target_os = "linux")]
    pub fn waker_fd(&self) -> std::os::fd::RawFd {
        self.waker.as_raw_fd()
    }

    /// Consumes pending wakes after the poller reported readiness.
    #[cfg(target_os = "linux")]
    pub fn drain_wakes(&self) {
        self.waker.drain();
    }
}

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity; client should retry later (429).
    Full,
    /// The server is draining; no new work is admitted (503).
    ShuttingDown,
}

struct State<T> {
    jobs: VecDeque<T>,
    shutdown: bool,
}

/// The bounded MPMC job queue (mutex + condvar; std has no native MPMC
/// channel with try-push semantics). A refused push is the caller's to
/// count: a refused request is `serve.rejected`, a dropped shadow sample
/// is not.
pub struct Queue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    depth: usize,
}

impl<T> Queue<T> {
    /// Creates a queue admitting at most `depth` waiting jobs.
    pub fn new(depth: usize) -> Self {
        Self {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
            depth,
        }
    }

    /// Tries to admit a job without blocking.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::ShuttingDown`] once
    /// [`Queue::shutdown`] has been called.
    pub fn push(&self, job: T) -> Result<(), PushError> {
        let mut state = self.state.lock().expect("queue poisoned");
        if state.shutdown {
            return Err(PushError::ShuttingDown);
        }
        if state.jobs.len() >= self.depth {
            return Err(PushError::Full);
        }
        state.jobs.push_back(job);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until a job is available and takes it. Returns `None` only
    /// when the queue is shut down *and* drained — the worker-exit signal.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.shutdown {
                return None;
            }
            state = self.ready.wait(state).expect("queue poisoned");
        }
    }

    /// Stops admission and wakes every worker; already-queued jobs are
    /// still drained before the workers exit.
    pub fn shutdown(&self) {
        self.state.lock().expect("queue poisoned").shutdown = true;
        self.ready.notify_all();
    }
}

/// One unit of blocking work and where its result goes.
struct Task<S> {
    reply: Reply,
    work: Box<dyn FnOnce(&mut S) -> Done + Send>,
}

/// The off-loop step: a bounded queue of blocking work drained by a fixed
/// set of threads, each owning one `S` for its whole life (the router's
/// keep-alive backend connections), so that state needs no lock. The
/// shard that submits a step parks the connection; the thread answers
/// through the [`Reply`]. A full queue refuses the step
/// ([`PushError::Full`]) instead of blocking the loop.
pub(crate) struct OffLoop<S> {
    queue: Queue<Task<S>>,
}

impl<S: Default + 'static> OffLoop<S> {
    /// An empty step admitting at most `depth` waiting jobs; no thread
    /// runs until [`OffLoop::spawn`].
    pub(crate) fn new(depth: usize) -> Arc<Self> {
        Arc::new(Self {
            queue: Queue::new(depth),
        })
    }

    /// Starts `threads` threads draining the queue; they exit (joinable)
    /// after [`OffLoop::shutdown`] once it is empty.
    pub(crate) fn spawn(self: &Arc<Self>, name: &str, threads: usize) -> Vec<JoinHandle<()>> {
        (0..threads.max(1))
            .map(|i| {
                let pool = Arc::clone(self);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || pool.drain())
                    .expect("spawn off-loop thread")
            })
            .collect()
    }

    /// Queues `work`; its result (a finished [`Response`], or an
    /// [`Outcome`] for the shard to frame) reaches the connection through
    /// `reply`.
    pub(crate) fn submit<R: Into<Done>>(
        &self,
        reply: Reply,
        work: impl FnOnce(&mut S) -> R + Send + 'static,
    ) -> Result<(), PushError> {
        self.queue.push(Task {
            reply,
            work: Box::new(move |state| work(state).into()),
        })
    }

    /// Stops admission; queued work still runs before the threads exit.
    pub(crate) fn shutdown(&self) {
        self.queue.shutdown();
    }

    fn drain(&self) {
        let mut state = S::default();
        while let Some(task) = self.queue.pop() {
            // A panicking step costs its request one 500; the thread,
            // and the connection waiting on it, carry on.
            let done =
                catch_unwind(AssertUnwindSafe(|| (task.work)(&mut state))).unwrap_or_else(|_| {
                    Response::error(500, "internal_panic", "the request handler panicked").into()
                });
            // If the client has gone, the shard discards it by token.
            let Reply { queue, conn, req } = task.reply;
            queue.push(conn, req, done);
        }
    }
}

fn domain_error(err: &RecommendError) -> Outcome {
    let (status, code) = match err {
        RecommendError::NoFeasibleConfig { .. } => (422, "infeasible"),
        RecommendError::LabelOutOfSpace { .. } => (422, "label_out_of_space"),
        RecommendError::WrongCaseStudy { .. } => (503, "wrong_model"),
        RecommendError::Untrained => (503, "untrained_model"),
    };
    Outcome::Err {
        status,
        code,
        message: err.to_string(),
    }
}

/// Runs one query against one model snapshot and renders the result.
pub fn execute(model: &LoadedModel, query: &RecQuery, topk: usize) -> Outcome {
    let mut tail = String::with_capacity(128);
    tail.push_str("\"generation\":");
    tail.push_str(&model.generation.to_string());
    tail.push_str(",\"case\":\"");
    tail.push_str(case_name(model.case));
    tail.push_str("\",\"source\":\"model\"");

    let rec = &model.recommender;
    let rendered = match (&model.problem, query) {
        (CaseProblem::Array(problem), RecQuery::Array { workload, mac_budget }) => {
            if topk == 0 {
                rec.recommend_array(problem, workload, *mac_budget).map(
                    |(array, dataflow)| {
                        tail.push_str(",\"result\":");
                        render_array(&mut tail, array.rows(), array.cols(), dataflow, None);
                    },
                )
            } else {
                rec.recommend_array_topk(problem, workload, *mac_budget, topk)
                    .map(|ranked| {
                        tail.push_str(",\"results\":[");
                        for (i, (array, dataflow, score)) in ranked.iter().enumerate() {
                            if i > 0 {
                                tail.push(',');
                            }
                            render_array(
                                &mut tail,
                                array.rows(),
                                array.cols(),
                                *dataflow,
                                Some(*score),
                            );
                        }
                        tail.push(']');
                    })
            }
        }
        (CaseProblem::Buffers(problem), RecQuery::Buffers { query }) => {
            if topk == 0 {
                rec.recommend_buffers(problem, query).map(|(i, f, o)| {
                    tail.push_str(",\"result\":");
                    render_buffers(&mut tail, i, f, o, None);
                })
            } else {
                rec.recommend_buffers_topk(problem, query, topk).map(|ranked| {
                    tail.push_str(",\"results\":[");
                    for (n, (i, f, o, score)) in ranked.iter().enumerate() {
                        if n > 0 {
                            tail.push(',');
                        }
                        render_buffers(&mut tail, *i, *f, *o, Some(*score));
                    }
                    tail.push(']');
                })
            }
        }
        (CaseProblem::Schedule(problem), RecQuery::Schedule { workloads }) => {
            if topk == 0 {
                rec.recommend_schedule(problem, workloads).map(|schedule| {
                    tail.push_str(",\"result\":");
                    render_schedule(&mut tail, &schedule, None);
                })
            } else {
                rec.recommend_schedule_topk(problem, workloads, topk)
                    .map(|ranked| {
                        tail.push_str(",\"results\":[");
                        for (i, (schedule, score)) in ranked.iter().enumerate() {
                            if i > 0 {
                                tail.push(',');
                            }
                            render_schedule(&mut tail, schedule, Some(*score));
                        }
                        tail.push(']');
                    })
            }
        }
        // Unreachable by construction (the hub slot and the query share the
        // case study), but a wrong answer must never escape as a 5xx.
        _ => {
            return Outcome::Err {
                status: 503,
                code: "model_mismatch",
                message: "loaded model does not match the query's case study".into(),
            }
        }
    };

    match rendered {
        Ok(()) => {
            tail.push_str("}\n");
            Outcome::Ok {
                body_tail: tail,
                generation: model.generation,
                source: Source::Model,
            }
        }
        Err(err) => domain_error(&err),
    }
}

/// Runs one top-1 query on the int8-quantized hot path and renders
/// exactly the body [`execute`] produces for `topk == 0`. A shard answers
/// every top-1 request with it, inline: no queue hop, no worker thread. A
/// model the quantizer rejected answers from its f32 network here.
///
/// The `serve.infer` failpoint fires here as on the ranked path, so
/// injected inference faults (and the breaker accounting the caller does
/// on them) behave identically on both paths.
pub fn execute_fast(model: &LoadedModel, query: &RecQuery) -> Outcome {
    airchitect_chaos::fail_point!("serve.infer", |e: std::io::Error| Outcome::Err {
        status: 500,
        code: "inference_failed",
        message: e.to_string(),
    });
    let mut tail = String::with_capacity(128);
    tail.push_str("\"generation\":");
    tail.push_str(&model.generation.to_string());
    tail.push_str(",\"case\":\"");
    tail.push_str(case_name(model.case));
    tail.push_str("\",\"source\":\"model\"");

    let rec = &model.recommender;
    let rendered = match (&model.problem, query) {
        (CaseProblem::Array(problem), RecQuery::Array { workload, mac_budget }) => rec
            .recommend_array_fast(problem, workload, *mac_budget)
            .map(|(array, dataflow)| {
                tail.push_str(",\"result\":");
                render_array(&mut tail, array.rows(), array.cols(), dataflow, None);
            }),
        (CaseProblem::Buffers(problem), RecQuery::Buffers { query }) => {
            rec.recommend_buffers_fast(problem, query).map(|(i, f, o)| {
                tail.push_str(",\"result\":");
                render_buffers(&mut tail, i, f, o, None);
            })
        }
        (CaseProblem::Schedule(problem), RecQuery::Schedule { workloads }) => {
            rec.recommend_schedule_fast(problem, workloads).map(|schedule| {
                tail.push_str(",\"result\":");
                render_schedule(&mut tail, &schedule, None);
            })
        }
        _ => {
            return Outcome::Err {
                status: 503,
                code: "model_mismatch",
                message: "loaded model does not match the query's case study".into(),
            }
        }
    };

    match rendered {
        Ok(()) => {
            tail.push_str("}\n");
            Outcome::Ok {
                body_tail: tail,
                generation: model.generation,
                source: Source::Model,
            }
        }
        Err(err) => domain_error(&err),
    }
}

/// Panic-isolated answer on one snapshot: [`execute_fast`] for a top-1
/// query, [`execute`] for a ranked one. A poisoned model costs one 500,
/// never the thread that hit it (a shard, a ranked-pool or a shadow-pool
/// thread). A ranked query fires the `serve.batch.dispatch` and
/// `serve.infer` failpoints first: it only ever runs off the event loops,
/// so a stall injected there holds a pool thread, never a shard.
pub(crate) fn guarded(model: &LoadedModel, query: &RecQuery, topk: usize) -> Outcome {
    catch_unwind(AssertUnwindSafe(|| {
        if topk == 0 {
            return execute_fast(model, query);
        }
        airchitect_chaos::fail_point!("serve.batch.dispatch");
        airchitect_chaos::fail_point!("serve.infer", |e: std::io::Error| Outcome::Err {
            status: 500,
            code: "inference_failed",
            message: e.to_string(),
        });
        execute(model, query, topk)
    }))
    .unwrap_or_else(|_| Outcome::Err {
        status: 500,
        code: "inference_panic",
        message: "inference panicked; the request was isolated".into(),
    })
}

fn render_score(out: &mut String, score: Option<f32>) {
    if let Some(s) = score {
        out.push_str(",\"score\":");
        write_f64(out, f64::from(s));
    }
}

pub(crate) fn render_array(
    out: &mut String,
    rows: u64,
    cols: u64,
    dataflow: airchitect_sim::Dataflow,
    score: Option<f32>,
) {
    out.push_str("{\"rows\":");
    out.push_str(&rows.to_string());
    out.push_str(",\"cols\":");
    out.push_str(&cols.to_string());
    out.push_str(",\"macs\":");
    out.push_str(&(rows * cols).to_string());
    out.push_str(",\"dataflow\":\"");
    out.push_str(&dataflow.to_string());
    out.push('"');
    render_score(out, score);
    out.push('}');
}

pub(crate) fn render_buffers(out: &mut String, ifmap: u64, filter: u64, ofmap: u64, score: Option<f32>) {
    out.push_str("{\"ifmap_kb\":");
    out.push_str(&ifmap.to_string());
    out.push_str(",\"filter_kb\":");
    out.push_str(&filter.to_string());
    out.push_str(",\"ofmap_kb\":");
    out.push_str(&ofmap.to_string());
    out.push_str(",\"total_kb\":");
    out.push_str(&(ifmap + filter + ofmap).to_string());
    render_score(out, score);
    out.push('}');
}

pub(crate) fn render_schedule(
    out: &mut String,
    schedule: &airchitect_sim::multi::Schedule,
    score: Option<f32>,
) {
    out.push_str("{\"assignments\":[");
    for (array, assignment) in schedule.assignments.iter().enumerate() {
        if array > 0 {
            out.push(',');
        }
        out.push_str("{\"array\":");
        out.push_str(&array.to_string());
        out.push_str(",\"workload\":");
        out.push_str(&assignment.workload.to_string());
        out.push_str(",\"dataflow\":\"");
        out.push_str(&assignment.dataflow.to_string());
        out.push_str("\"}");
    }
    out.push(']');
    render_score(out, score);
    out.push('}');
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use super::*;

    /// Every job left in a shut-down queue, in pop order.
    fn drained(q: &Queue<u64>) -> Vec<u64> {
        q.shutdown();
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn full_queue_rejects_immediately() {
        let q = Queue::new(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.push(3).unwrap_err(), PushError::Full);
        assert_eq!(drained(&q), [1, 2]);
    }

    #[test]
    fn zero_depth_rejects_everything() {
        let q = Queue::new(0);
        assert_eq!(q.push(1).unwrap_err(), PushError::Full);
    }

    #[test]
    fn shutdown_refuses_new_work_but_drains_old() {
        let q = Queue::new(8);
        q.push(1).unwrap();
        q.shutdown();
        assert_eq!(q.push(2).unwrap_err(), PushError::ShuttingDown);
        assert_eq!(q.pop(), Some(1), "queued job survives shutdown");
        assert_eq!(q.pop(), None, "then the exit signal");
    }

    #[test]
    fn completion_queue_drains_in_push_order() {
        let q = CompletionQueue::new().unwrap();
        let outcome = || {
            Done::Outcome(Outcome::Err {
                status: 504,
                code: "deadline_exceeded",
                message: String::new(),
            })
        };
        q.push(1, 10, outcome());
        q.push(2, 20, outcome());
        assert_eq!(q.len(), 2);
        let mut out = Vec::new();
        q.drain_into(&mut out);
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].0, out[0].1), (1, 10));
        assert_eq!((out[1].0, out[1].1), (2, 20));
        assert!(q.is_empty());
    }

    #[test]
    fn off_loop_answers_through_the_completion_queue_and_isolates_panics() {
        let pool: Arc<OffLoop<u32>> = OffLoop::new(1);
        let completions = Arc::new(CompletionQueue::new().unwrap());
        let reply = |req| Reply {
            queue: Arc::clone(&completions),
            conn: 7,
            req,
        };
        let count = |calls: &mut u32| {
            *calls += 1;
            Response::json(200, calls.to_string())
        };
        let wait_for = |n: usize| {
            let deadline = Instant::now() + std::time::Duration::from_secs(10);
            while completions.len() < n {
                assert!(Instant::now() < deadline, "no completion");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        };
        // No thread drains yet: one step fits, the next is refused.
        pool.submit(reply(1), count).unwrap();
        assert_eq!(pool.submit(reply(2), count).unwrap_err(), PushError::Full);
        let threads = pool.spawn("offloop-test", 1);
        wait_for(1);
        pool.submit(reply(3), |_| -> Response { panic!("injected") })
            .unwrap();
        wait_for(2);
        // The thread survived the panic and kept its state.
        pool.submit(reply(4), count).unwrap();
        pool.shutdown();
        for t in threads {
            t.join().unwrap();
        }
        let mut out = Vec::new();
        completions.drain_into(&mut out);
        let answers: Vec<(u64, u16, String)> = out
            .into_iter()
            .map(|(conn, req, done)| match done {
                Done::Response(r) => {
                    assert_eq!(conn, 7);
                    (req, r.status, r.body)
                }
                Done::Outcome(o) => panic!("unexpected outcome {o:?}"),
            })
            .collect();
        assert_eq!(answers[0], (1, 200, "1".to_string()));
        assert_eq!((answers[1].0, answers[1].1), (3, 500));
        assert_eq!(answers[2], (4, 200, "2".to_string()));
    }

    #[test]
    fn blocked_pop_wakes_on_shutdown() {
        let q = Arc::new(Queue::<u64>::new(4));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.shutdown();
        assert_eq!(h.join().unwrap(), None);
    }
}
