//! A process-wide pool of parked worker threads for data-parallel loops.
//!
//! [`run`] splits a loop into numbered tasks. The caller and up to
//! `threads - 1` helpers claim task indices from one atomic counter until
//! none are left, then `run` returns. Helpers are spawned lazily, the first
//! time a call asks for them, and then park on a condition variable: an
//! idle pool never spins and costs nothing but its threads' stacks.
//!
//! The pool runs one loop at a time. A call that finds it busy (another
//! thread's loop, or a loop started from inside a task) runs every task on
//! the calling thread instead, so concurrent and nested callers stay
//! correct. Which thread runs a task is never visible in its result: the
//! callers in this workspace make each task's output a pure function of
//! its index.
//!
//! Each participant gets a private scratch buffer of the length the call
//! asks for. The buffers of pooled participants are sized by the caller
//! before any helper starts, so once a shape has been seen, a loop over it
//! makes no heap allocation, whichever helpers happen to join.
//!
//! A panic in a task stops further claims and is re-raised on the caller
//! once every participant has left the loop.

use std::any::Any;
use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Most threads one loop can use: the caller plus `MAX_THREADS - 1`
/// helpers. Larger requests are clamped (results never depend on it).
const MAX_THREADS: usize = 32;

/// The task indices one participant claims, in the order it claims them.
///
/// Every index in `0..tasks` is yielded exactly once across all the
/// participants of a loop.
#[derive(Debug)]
pub struct Claims<'a> {
    next: &'a AtomicUsize,
    tasks: usize,
}

impl Iterator for Claims<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        // Relaxed: the counter publishes nothing but indices. What tasks
        // write reaches the caller through the pool's state mutex, which a
        // helper takes after its last task and the caller before returning.
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.tasks).then_some(i)
    }
}

/// The body of a loop: drains its [`Claims`] using the scratch buffer.
pub type Job<'a> = dyn Fn(&mut Claims<'_>, &mut [f32]) + Sync + 'a;

/// Runs `job` over `tasks` numbered tasks on up to `threads` threads and
/// returns once all of them have finished.
///
/// `job` is entered once per participating thread with that thread's
/// [`Claims`] and a scratch buffer of at least `scratch_len` floats
/// (contents unspecified). It should process every index its claims
/// yield. With `threads <= 1`, one task, or a busy pool, the calling
/// thread runs everything itself.
///
/// # Panics
///
/// Re-raises the first panic of any task, after every participant has
/// stopped.
pub fn run(tasks: usize, threads: usize, scratch_len: usize, job: &Job<'_>) {
    let wanted = threads.min(tasks).min(MAX_THREADS).saturating_sub(1);
    match POOL.acquire(wanted) {
        0 => run_inline(tasks, scratch_len, job),
        helpers => POOL.run_owned(tasks, helpers, scratch_len, job),
    }
}

thread_local! {
    /// Scratch of a thread that runs a whole loop by itself.
    static LOCAL: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

fn run_inline(tasks: usize, scratch_len: usize, job: &Job<'_>) {
    let next = AtomicUsize::new(0);
    let mut claims = Claims { next: &next, tasks };
    LOCAL.with(|cell| match cell.try_borrow_mut() {
        Ok(mut buf) => job(&mut claims, grown(&mut buf, scratch_len)),
        // A loop started from inside a task of this thread's own inline
        // loop: its buffer is in use, so this rare case gets its own.
        Err(_) => job(&mut claims, &mut vec![0.0; scratch_len]),
    });
}

/// `buf`'s first `len` floats, growing it if needed. Never shrinks, so
/// the steady state never reallocates.
fn grown(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// One published loop. It lives on the owning caller's stack; helpers
/// reach it through [`LoopPtr`] only while the pool's state says it is
/// open, and the owner waits for them all to leave before it returns.
struct Loop<'a> {
    job: &'a Job<'a>,
    next: AtomicUsize,
    tasks: usize,
    scratch_len: usize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Loop<'_> {
    /// Runs the job as participant `slot`, catching (and recording) a
    /// panic so the loop always winds down through the owner.
    fn participate(&self, slot: usize) {
        let mut scratch = lock(&SCRATCH[slot]);
        let mut claims = Claims {
            next: &self.next,
            tasks: self.tasks,
        };
        let buf = &mut scratch[..self.scratch_len];
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| (self.job)(&mut claims, buf)))
        {
            self.next.store(self.tasks, Ordering::Relaxed);
            lock(&self.panic).get_or_insert(payload);
        }
    }
}

/// A lifetime-erased pointer to the owner's [`Loop`].
#[derive(Clone, Copy)]
struct LoopPtr(*const Loop<'static>);

// SAFETY: the pointee is `Sync` (its job is `Sync`, the rest is atomics
// and a mutex), and the owner keeps it alive until every helper that
// copied the pointer has finished with it (see `Pool::run_owned`).
unsafe impl Send for LoopPtr {}

struct State {
    /// The open loop, if any.
    open: Option<LoopPtr>,
    /// Bumped per published loop, so a helper joins each loop at most once.
    epoch: u64,
    /// Helpers the open loop may take, and how many have joined it.
    wanted: usize,
    joined: usize,
    /// Helpers still inside the current loop.
    running: usize,
    /// Helper threads spawned so far.
    spawned: usize,
    /// Whether some caller owns the pool (from acquire to return).
    busy: bool,
}

struct Pool {
    state: Mutex<State>,
    /// Parked helpers wait here for a loop to open.
    wake: Condvar,
    /// The owner waits here for its helpers to leave.
    done: Condvar,
}

static POOL: Pool = Pool {
    state: Mutex::new(State {
        open: None,
        epoch: 0,
        wanted: 0,
        joined: 0,
        running: 0,
        spawned: 0,
        busy: false,
    }),
    wake: Condvar::new(),
    done: Condvar::new(),
};

/// Scratch of the pooled participants: slot 0 is the owner's, slot `i`
/// the `i`-th helper to join. Only the pool's owner hands them out.
static SCRATCH: [Mutex<Vec<f32>>; MAX_THREADS] = [const { Mutex::new(Vec::new()) }; MAX_THREADS];

/// Locks a mutex, ignoring poison: every panic that could poison one is
/// caught inside a task, before any guard of the pool is dropped.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Pool {
    /// Takes ownership of the pool if it is free, spawning helpers until
    /// `wanted` exist, and returns how many the loop may use. Returns 0,
    /// owning nothing, when none are wanted, the pool is busy, or no
    /// helper could be spawned: the caller then runs the loop alone.
    fn acquire(&'static self, wanted: usize) -> usize {
        if wanted == 0 {
            return 0;
        }
        let mut st = lock(&self.state);
        if st.busy {
            return 0;
        }
        while st.spawned < wanted {
            // Helpers are never joined: they park for the life of the
            // process, and a task's panic is caught and re-raised on its
            // caller, so no panic is lost with a detached handle.
            let spawned = std::thread::Builder::new()
                .name("airchitect-pool".into())
                .spawn(move || self.helper());
            if spawned.is_err() {
                break;
            }
            st.spawned += 1;
        }
        let helpers = wanted.min(st.spawned);
        st.busy = helpers > 0;
        helpers
    }

    /// Runs one loop as the pool's owner: sizes the scratch, publishes
    /// the loop, takes part as slot 0, closes it, waits for the helpers.
    fn run_owned(&self, tasks: usize, helpers: usize, scratch_len: usize, job: &Job<'_>) {
        for slot in &SCRATCH[..=helpers] {
            grown(&mut lock(slot), scratch_len);
        }
        let lp = Loop {
            job,
            next: AtomicUsize::new(0),
            tasks,
            scratch_len,
            panic: Mutex::new(None),
        };
        {
            let mut st = lock(&self.state);
            // SAFETY (lifetime erasure): the pointer is withdrawn below,
            // and this frame outlives every helper that copied it.
            st.open = Some(LoopPtr((&lp as *const Loop<'_>).cast()));
            st.epoch += 1;
            st.wanted = helpers;
            st.joined = 0;
        }
        for _ in 0..helpers {
            self.wake.notify_one();
        }
        lp.participate(0);
        {
            let mut st = lock(&self.state);
            st.open = None;
            while st.running > 0 {
                st = self.done.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            st.busy = false;
        }
        if let Some(payload) = lp
            .panic
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            panic::resume_unwind(payload);
        }
    }

    /// A helper thread's life: park until a loop opens that still wants
    /// helpers, take part in it, report back, park again.
    fn helper(&self) {
        let mut seen = 0u64;
        loop {
            let (ptr, slot) = {
                let mut st = lock(&self.state);
                loop {
                    if let Some(ptr) = st.open {
                        if st.epoch != seen && st.joined < st.wanted {
                            seen = st.epoch;
                            st.joined += 1;
                            st.running += 1;
                            break (ptr, st.joined);
                        }
                    }
                    st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
            };
            // SAFETY: `running` was raised while the loop was open, so the
            // owner is still waiting in `run_owned` and the loop is alive.
            unsafe { (*ptr.0).participate(slot) };
            let mut st = lock(&self.state);
            st.running -= 1;
            if st.running == 0 {
                self.done.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn every_task_runs_exactly_once() {
        for threads in [1, 2, 3, 8, 100] {
            for tasks in [0, 1, 2, 7, 64] {
                let hits: Vec<AtomicU64> = (0..tasks).map(|_| AtomicU64::new(0)).collect();
                run(tasks, threads, 4, &|claims, scratch| {
                    assert!(scratch.len() >= 4);
                    for t in claims {
                        hits[t].fetch_add(1, Ordering::Relaxed);
                    }
                });
                assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            }
        }
    }

    #[test]
    fn nested_loops_run_inline() {
        let total = AtomicU64::new(0);
        run(4, 2, 0, &|claims, _| {
            for _ in claims {
                run(3, 2, 8, &|inner, _| {
                    for _ in inner {
                        total.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 12);
    }
}
