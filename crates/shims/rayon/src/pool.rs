//! The shim's one executor: a lazily started, persistent pool of helper
//! threads behind [`join`].
//!
//! A caller of [`join`] only ever waits on a `b` a helper is already
//! running, never on a queued one, so nested joins cannot deadlock
//! however many helpers are busy.
//!
//! Helpers are spawned on demand, up to the largest thread budget a
//! `join` has asked for minus one (the caller is the other lane), and
//! live for the rest of the process. After that first start, a `join`
//! neither spawns nor allocates: the job sits on the caller's stack and
//! the queue keeps its capacity.
//!
//! A helper runs `b` under the caller's thread budget, so stages nested
//! inside `b` see the same budget as stages nested inside `a`. Helpers
//! are never joined: they run until the process exits and catch every
//! job's panic, so none can end unseen.
//!
//! ## Safety
//!
//! This module is the shim's audited unsafe island. The queue is a
//! `static`, so it holds each offered `b` as a [`JobRef`]: a pointer to a
//! [`StackJob`] on the frame of the [`join`] that offered it, with the
//! borrow's lifetime erased. The pointer is dereferenced only by
//! [`JobRef::execute`], on a helper that popped it from the queue, and
//! `join` does not return or unwind until no helper can reach the job:
//!
//! * it takes the `JobRef` back out of the queue itself, under the queue
//!   lock, so no helper ever saw it; or
//! * a helper popped it, and `join` waits on the job's condvar until the
//!   helper has stored the result. The helper stores the result and
//!   signals inside the job's lock; releasing that lock is its last
//!   access to the job.
//!
//! `a` runs under `catch_unwind`, so a panic in `a` cannot unwind past
//! the job either.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

use crate::{current_num_threads, THREAD_OVERRIDE};

/// A type-erased job a helper can run.
trait Job: Sync {
    /// Run the job and publish its result to the waiting caller.
    fn execute(&self);
}

/// A lifetime-erased `&dyn Job` (see the module's safety notes).
#[derive(Clone, Copy)]
struct JobRef(*const (dyn Job + 'static));

// SAFETY: the one field points at a `Sync` job, so using it from another
// thread is sound while the job lives, and the protocol in the module
// docs keeps every dereference inside the job's life.
unsafe impl Send for JobRef {}

impl JobRef {
    fn new<'a>(job: &'a (dyn Job + 'a)) -> Self {
        let job: *const (dyn Job + 'a) = job;
        // SAFETY: the two raw pointer types differ only in the trait
        // object's lifetime bound, so they have one layout; a raw pointer
        // carries no obligation until it is dereferenced (in `execute`).
        Self(unsafe {
            std::mem::transmute::<*const (dyn Job + 'a), *const (dyn Job + 'static)>(job)
        })
    }

    /// The job's address, to find it in the queue.
    fn addr(self) -> *const () {
        self.0 as *const ()
    }

    /// Run the job.
    ///
    /// # Safety
    ///
    /// The job must still be alive: call this once, on a reference popped
    /// from the queue, whose offering `join` waits for the result.
    unsafe fn execute(self) {
        // SAFETY: the caller guarantees the job is alive.
        unsafe { (*self.0).execute() }
    }
}

/// Offered jobs, oldest first, and the helpers that serve them.
struct Queue {
    jobs: VecDeque<JobRef>,
    /// Helpers spawned so far.
    helpers: usize,
    /// Helpers not running a job.
    idle: usize,
}

static QUEUE: Mutex<Queue> = Mutex::new(Queue {
    jobs: VecDeque::new(),
    helpers: 0,
    idle: 0,
});

/// Idle helpers wait here for a job.
static WORK: Condvar = Condvar::new();

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // Jobs run outside both kinds of lock, and the one panic under the
    // queue lock (a failed spawn) comes before any update, so a poisoned
    // guard still holds consistent state.
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The state of `b` in a [`join`].
enum Slot<F, R> {
    /// Offered, not started.
    Pending(F),
    /// Taken by a helper.
    Running,
    /// Run by a helper: its result, or its panic.
    Done(thread::Result<R>),
}

/// `b` of a [`join`], on the caller's stack.
struct StackJob<F, R> {
    slot: Mutex<Slot<F, R>>,
    /// Signalled when a helper stores `Done`.
    done: Condvar,
    /// The caller's thread budget, applied while a helper runs `b`.
    threads: usize,
}

impl<F: FnOnce() -> R + Send, R: Send> StackJob<F, R> {
    /// Run `b` on the calling thread: no helper took it.
    fn run_here(self) -> R {
        match self
            .slot
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            Slot::Pending(f) => f(),
            _ => unreachable!("a job the caller took back was started elsewhere"),
        }
    }

    /// Wait for the helper running `b` and take its result.
    fn wait(&self) -> thread::Result<R> {
        let mut slot = (self.done)
            .wait_while(lock(&self.slot), |slot| !matches!(slot, Slot::Done(_)))
            .unwrap_or_else(PoisonError::into_inner);
        match std::mem::replace(&mut *slot, Slot::Running) {
            Slot::Done(result) => result,
            _ => unreachable!("waited for a result"),
        }
    }
}

impl<F: FnOnce() -> R + Send, R: Send> Job for StackJob<F, R> {
    fn execute(&self) {
        let Slot::Pending(f) = std::mem::replace(&mut *lock(&self.slot), Slot::Running) else {
            unreachable!("a helper popped a job twice")
        };
        // A helper runs nothing but jobs, each under its caller's budget.
        THREAD_OVERRIDE.with(|o| o.set(Some(self.threads)));
        let result = panic::catch_unwind(AssertUnwindSafe(f));
        let mut slot = lock(&self.slot);
        *slot = Slot::Done(result);
        self.done.notify_one();
    }
}

/// Run `a` and `b`, possibly in parallel, and return both results — the
/// signature of `rayon::join`.
///
/// The caller runs `a`. `b` goes to an idle pool helper if one exists
/// when `join` is called; otherwise, or if no helper has started it by
/// the time `a` returns, the caller runs `b` after `a`. Under a thread
/// budget of one ([`current_num_threads`] is 1, for instance inside
/// `ThreadPoolBuilder::new().num_threads(1)`'s `install`) both run on
/// the caller and no helper is started.
///
/// A panic in either closure is re-raised on the caller once both have
/// finished; a panic in `b` on a helper leaves the helper serving.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let threads = current_num_threads();
    if threads <= 1 {
        return (a(), b());
    }
    let job = StackJob {
        slot: Mutex::new(Slot::Pending(b)),
        done: Condvar::new(),
        threads,
    };
    let job_ref = JobRef::new(&job);
    if !offer(job_ref, threads - 1) {
        return (a(), job.run_here());
    }
    let ra = panic::catch_unwind(AssertUnwindSafe(a));
    // From here on no helper can reach `job`: either it was never taken,
    // or its helper has finished with it.
    let helped = (!take_back(job_ref)).then(|| job.wait());
    let ra = ra.unwrap_or_else(|payload| panic::resume_unwind(payload));
    let rb = match helped {
        None => job.run_here(),
        Some(result) => result.unwrap_or_else(|payload| panic::resume_unwind(payload)),
    };
    (ra, rb)
}

/// Queue `job` for an idle helper, first growing the pool to `helpers`.
/// Returns `false`, queueing nothing, when every helper is busy or
/// already has a queued job to take.
fn offer(job: JobRef, helpers: usize) -> bool {
    let mut queue = lock(&QUEUE);
    if queue.helpers < helpers {
        // At most one queued job per idle helper: this capacity is final.
        queue.jobs.reserve(helpers);
    }
    while queue.helpers < helpers {
        thread::Builder::new()
            .name(format!("rayon-shim-{}", queue.helpers))
            .spawn(serve)
            .expect("spawning a pool helper failed");
        queue.helpers += 1;
        queue.idle += 1;
    }
    if queue.jobs.len() >= queue.idle {
        return false;
    }
    queue.jobs.push_back(job);
    drop(queue);
    WORK.notify_one();
    true
}

/// Remove `job` from the queue if no helper has taken it yet.
fn take_back(job: JobRef) -> bool {
    let mut queue = lock(&QUEUE);
    match queue.jobs.iter().rposition(|j| j.addr() == job.addr()) {
        Some(index) => {
            queue.jobs.remove(index);
            true
        }
        None => false,
    }
}

/// A helper's life: run the oldest offered job, or sleep until one comes.
fn serve() {
    let mut queue = lock(&QUEUE);
    loop {
        match queue.jobs.pop_front() {
            Some(job) => {
                queue.idle -= 1;
                drop(queue);
                // SAFETY: popped under the queue lock, so its `join` can no
                // longer take it back and waits until `execute` has stored
                // the result.
                unsafe { job.execute() };
                queue = lock(&QUEUE);
                queue.idle += 1;
            }
            None => queue = WORK.wait(queue).unwrap_or_else(PoisonError::into_inner),
        }
    }
}
