//! An offline, API-compatible shim for the subset of [rayon] this workspace
//! uses.
//!
//! The build environment has no network access, so the real `rayon` cannot be
//! fetched from crates.io. This crate implements the same surface — [`join`],
//! parallel iterators over slice chunks (`par_chunks`, `par_chunks_mut`) and
//! `usize` ranges with `map` / `enumerate` / `reduce` / `try_reduce` /
//! `collect`, plus a [`ThreadPoolBuilder`] whose `num_threads` is honoured —
//! on one lazily started, persistent pool of helper threads (see [`join`]).
//! Its callers are the bid kernel's chunked arg-max, `lrb_core::batch`'s
//! chunk fills and the ant colony's tour constructions (parallel
//! iterators), and `lrb-service`'s batch planner (`join`); an item no
//! workspace crate calls is deleted rather than kept for rayon parity.
//!
//! Semantics match rayon where the workspace depends on them:
//!
//! * item order is preserved through every combinator, so `collect` returns
//!   the same vector a sequential iterator would;
//! * `reduce` assumes an associative operator (as rayon does) and combines
//!   per-chunk partials left-to-right, so results are deterministic for
//!   associative, order-insensitive operators (all uses in this workspace);
//! * closures must be `Sync` and items `Send`, mirroring rayon's bounds.
//!
//! Work is only fanned out when an iterator stage has at least
//! [`PARALLEL_THRESHOLD`] items; below that, the hand-off overhead dominates
//! and the stage runs inline. A stage splits into one chunk per thread of
//! the budget and runs the chunks through nested [`join`]s.
//!
//! The thread budget is `LRB_THREADS` when it holds a positive integer
//! (read once per process, as rayon reads `RAYON_NUM_THREADS`), else the
//! core count; [`ThreadPool::install`] overrides it for the closure it runs.
//! A budget of one runs everything on the calling thread.
//!
//! [rayon]: https://docs.rs/rayon

#![deny(unsafe_code)]

use std::cell::Cell;
use std::sync::OnceLock;

// The pool's job hand-off is the shim's one audited unsafe island (see
// its safety notes); everything else stays safe Rust.
#[allow(unsafe_code)]
mod pool;

pub use pool::join;

/// Minimum number of items per stage before work is handed to the pool.
pub const PARALLEL_THRESHOLD: usize = 1024;

thread_local! {
    /// The budget `ThreadPool::install` (or a pool helper running a job)
    /// applies on this thread.
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// An `LRB_THREADS` value as a thread budget: a positive integer,
/// surrounding whitespace allowed.
fn parse_threads(value: Option<&str>) -> Option<usize> {
    value?.trim().parse().ok().filter(|&n| n > 0)
}

/// The process-wide default budget, read once.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        parse_threads(std::env::var("LRB_THREADS").ok().as_deref()).unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    })
}

/// The number of threads parallel stages may use on this thread.
pub fn current_num_threads() -> usize {
    THREAD_OVERRIDE
        .with(Cell::get)
        .unwrap_or_else(default_threads)
}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
///
/// The builder records a thread budget and [`ThreadPool::install`] applies
/// it for the duration of a closure; the threads themselves come from the
/// shim's one shared pool.
#[derive(Debug, Default, Clone)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

/// Error type returned by [`ThreadPoolBuilder::build`] (never constructed).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    /// Create a builder with the default thread budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the number of threads stages run under `install` may use.
    /// `0` means "use the default" (as in rayon).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = if n == 0 { None } else { Some(n) };
        self
    }

    /// Build the (virtual) pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }
}

/// A thread budget for the shim's shared pool, applied by
/// [`install`](ThreadPool::install).
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: Option<usize>,
}

impl ThreadPool {
    /// Run `op` with this pool's thread budget applied to every parallel
    /// stage reached from the current thread.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        let previous = THREAD_OVERRIDE.with(|o| o.replace(self.num_threads));
        let result = op();
        THREAD_OVERRIDE.with(|o| o.set(previous));
        result
    }

    /// The pool's thread budget.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads.unwrap_or_else(default_threads)
    }
}

/// Split `items` into at most `parts` contiguous chunks, preserving order.
fn split_chunks<T>(mut items: Vec<T>, parts: usize) -> Vec<Vec<T>> {
    let n = items.len();
    let parts = parts.clamp(1, n.max(1));
    let chunk = n.div_ceil(parts);
    let mut out = Vec::with_capacity(parts);
    while items.len() > chunk {
        let tail = items.split_off(chunk);
        out.push(items);
        items = tail;
    }
    out.push(items);
    out
}

/// Apply `f` to every part through nested [`join`]s; results in part
/// order.
fn join_map<P: Send, R: Send>(mut parts: Vec<P>, f: &(impl Fn(P) -> R + Sync)) -> Vec<R> {
    if parts.len() <= 1 {
        return parts.into_iter().map(f).collect();
    }
    let right = parts.split_off(parts.len() / 2);
    let (mut left, right) = join(|| join_map(parts, f), || join_map(right, f));
    left.extend(right);
    left
}

fn parallel_map<T: Send, R: Send, F: Fn(T) -> R + Sync>(
    items: Vec<T>,
    f: &F,
    min_len: usize,
) -> Vec<R> {
    let threads = current_num_threads();
    if threads <= 1 || items.len() < min_len.max(2) {
        return items.into_iter().map(f).collect();
    }
    let chunks = split_chunks(items, threads);
    join_map(chunks, &|chunk: Vec<T>| {
        chunk.into_iter().map(f).collect::<Vec<R>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

fn parallel_fold<T: Send, A: Send>(
    items: Vec<T>,
    identity: &(impl Fn() -> A + Sync),
    fold: &(impl Fn(A, T) -> A + Sync),
    combine: impl Fn(A, A) -> A,
    min_len: usize,
) -> A {
    let threads = current_num_threads();
    if threads <= 1 || items.len() < min_len.max(2) {
        return items.into_iter().fold(identity(), fold);
    }
    let chunks = split_chunks(items, threads);
    join_map(chunks, &|chunk: Vec<T>| {
        chunk.into_iter().fold(identity(), fold)
    })
    .into_iter()
    .fold(identity(), combine)
}

/// A materialised parallel iterator: combinators apply eagerly, fanning the
/// work out across the pool when the stage is large enough.
pub struct ParIter<T> {
    items: Vec<T>,
    /// Stage size below which work runs inline (see [`PARALLEL_THRESHOLD`]).
    min_len: usize,
}

impl<T: Send> ParIter<T> {
    /// Override the stage size below which work runs inline, mirroring
    /// rayon's `IndexedParallelIterator::with_min_len`. The default
    /// ([`PARALLEL_THRESHOLD`]) assumes cheap per-item work; stages with
    /// expensive items (whole tour constructions, batch chunks) should
    /// lower it — `with_min_len(1)` forces fan-out whenever more than one
    /// item and one thread are available.
    pub fn with_min_len(mut self, min_len: usize) -> ParIter<T> {
        self.min_len = min_len;
        self
    }

    /// Apply `f` to every item (in parallel for large stages).
    pub fn map<R: Send, F: Fn(T) -> R + Sync>(self, f: F) -> ParIter<R> {
        let min_len = self.min_len;
        ParIter {
            items: parallel_map(self.items, &f, min_len),
            min_len,
        }
    }

    /// Pair every item with its index.
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        let items = self.items.into_iter().enumerate().collect();
        ParIter {
            items,
            min_len: self.min_len,
        }
    }

    /// Reduce with an associative operator, as `rayon`'s `reduce`.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> T
    where
        ID: Fn() -> T + Sync,
        OP: Fn(T, T) -> T + Sync,
    {
        let min_len = self.min_len;
        parallel_fold(self.items, &identity, &|a, t| op(a, t), &op, min_len)
    }

    /// Collect into any [`FromParallelIterator`] target (order preserved).
    pub fn collect<C: FromParallelIterator<T>>(self) -> C {
        C::from_par_iter_items(self.items)
    }
}

impl<U: Send, E: Send> ParIter<Result<U, E>> {
    /// Short-circuiting reduce over `Result` items, as `rayon`'s
    /// `try_reduce`: the first `Err` wins, otherwise partials are combined
    /// with `op`.
    pub fn try_reduce<ID, OP>(self, identity: ID, op: OP) -> Result<U, E>
    where
        ID: Fn() -> U + Sync,
        OP: Fn(U, U) -> Result<U, E> + Sync,
    {
        let mut acc = identity();
        for item in self.items {
            acc = op(acc, item?)?;
        }
        Ok(acc)
    }
}

/// Conversion from a materialised parallel stage, mirroring rayon's
/// `FromParallelIterator`.
pub trait FromParallelIterator<T>: Sized {
    /// Build the collection from the stage's items (already in order).
    fn from_par_iter_items(items: Vec<T>) -> Self;
}

impl<T> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter_items(items: Vec<T>) -> Self {
        items
    }
}

impl<T, E> FromParallelIterator<Result<T, E>> for Result<Vec<T>, E> {
    fn from_par_iter_items(items: Vec<Result<T, E>>) -> Self {
        items.into_iter().collect()
    }
}

/// Types convertible into a [`ParIter`], mirroring rayon's
/// `IntoParallelIterator`.
pub trait IntoParallelIterator {
    /// Item type of the resulting stage.
    type Item: Send;
    /// Convert into a parallel stage.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
            min_len: PARALLEL_THRESHOLD,
        }
    }
}

/// Borrowing chunking, mirroring rayon's `ParallelSlice` (`par_chunks`).
pub trait ParallelSliceExt<T: Sync> {
    /// Parallel iterator over `chunk_size`-sized sub-slices.
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]>;
}

impl<T: Sync> ParallelSliceExt<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParIter {
            items: self.chunks(chunk_size).collect(),
            min_len: PARALLEL_THRESHOLD,
        }
    }
}

/// Mutable chunking, mirroring rayon's `ParallelSliceMut`
/// (`par_chunks_mut`). The sub-slices are disjoint, so handing one to each
/// pool thread is safe without any locking — exactly what a batch driver
/// filling one output buffer needs.
pub trait ParallelSliceMutExt<T: Send> {
    /// Parallel iterator over disjoint `chunk_size`-sized mutable sub-slices.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMutExt<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParIter {
            items: self.chunks_mut(chunk_size).collect(),
            min_len: PARALLEL_THRESHOLD,
        }
    }
}

/// The rayon prelude: everything call sites need in scope.
pub mod prelude {
    pub use crate::{
        FromParallelIterator, IntoParallelIterator, ParallelSliceExt, ParallelSliceMutExt,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..10_000usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v.len(), 10_000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == 2 * i));
    }

    #[test]
    fn reduce_matches_sequential_fold() {
        let par_sum = (0..5_000usize)
            .into_par_iter()
            .map(|i| i as f64)
            .reduce(|| 0.0, |a, b| a + b);
        let seq_sum: f64 = (0..5_000).map(|i| i as f64).sum();
        assert!((par_sum - seq_sum).abs() < 1e-6);
    }

    #[test]
    fn try_reduce_short_circuits_on_err() {
        let r: Result<usize, &'static str> = (0..100usize)
            .into_par_iter()
            .map(|i| if i == 57 { Err("boom") } else { Ok(i) })
            .try_reduce(|| 0, |a, b| Ok(a + b));
        assert_eq!(r, Err("boom"));
    }

    #[test]
    fn collect_into_result_vec() {
        let ok: Result<Vec<usize>, ()> = (0..10usize).into_par_iter().map(Ok).collect();
        assert_eq!(ok.unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunks_covers_every_element() {
        let values: Vec<f64> = (0..4_321).map(|i| i as f64).collect();
        let sums: Vec<f64> = values.par_chunks(100).map(|c| c.iter().sum()).collect();
        assert_eq!(sums.len(), 44);
        let total: f64 = sums.iter().sum();
        assert_eq!(total, values.iter().sum::<f64>());
    }

    #[test]
    fn par_chunks_mut_fills_disjoint_sub_slices() {
        let mut out = vec![0usize; 4_321];
        out.par_chunks_mut(100)
            .with_min_len(1)
            .enumerate()
            .map(|(c, slice)| {
                for (i, slot) in slice.iter_mut().enumerate() {
                    *slot = c * 100 + i;
                }
            })
            .collect::<Vec<()>>();
        assert!(out.iter().enumerate().all(|(i, &x)| x == i));
    }

    #[test]
    fn with_min_len_fans_out_small_expensive_stages() {
        // 8 items is far below the default threshold; with_min_len(1) must
        // still produce the same ordered result through the threaded path.
        let expensive = |i: usize| -> u64 {
            let mut acc = i as u64;
            for _ in 0..1_000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        let fanned: Vec<u64> = (0..8usize)
            .into_par_iter()
            .with_min_len(1)
            .map(expensive)
            .collect();
        let inline: Vec<u64> = (0..8usize).map(expensive).collect();
        assert_eq!(fanned, inline);
    }

    #[test]
    fn install_overrides_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.current_num_threads(), 3);
        pool.install(|| assert_eq!(current_num_threads(), 3));
    }

    #[test]
    fn lrb_threads_env_sets_the_default_but_loses_to_install() {
        // The default is read once per process, so a test cannot move it;
        // it is whatever the environment said at the first read.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let env = parse_threads(std::env::var("LRB_THREADS").ok().as_deref());
        assert_eq!(current_num_threads(), env.unwrap_or(cores));
        let pool = ThreadPoolBuilder::new().num_threads(5).build().unwrap();
        pool.install(|| assert_eq!(current_num_threads(), 5));
        assert_eq!(current_num_threads(), env.unwrap_or(cores));
    }

    #[test]
    fn lrb_threads_parse_trims_and_rejects_zero_and_garbage() {
        assert_eq!(parse_threads(Some("2")), Some(2));
        assert_eq!(parse_threads(Some(" 2 ")), Some(2));
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("x")), None);
        assert_eq!(parse_threads(None), None);
    }

    #[test]
    fn nested_joins_return_both_results_in_order() {
        fn sum(range: std::ops::Range<u64>) -> u64 {
            if range.end - range.start <= 64 {
                return range.sum();
            }
            let mid = range.start + (range.end - range.start) / 2;
            let (left, right) = join(|| sum(range.start..mid), || sum(mid..range.end));
            left + right
        }
        for threads in [2, 4, 8] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            assert_eq!(pool.install(|| sum(0..100_000)), (0..100_000u64).sum());
            let (a, b) = pool.install(|| join(|| "a", || vec![1, 2, 3]));
            assert_eq!((a, b), ("a", vec![1, 2, 3]));
        }
    }

    #[test]
    fn a_panic_in_b_is_reraised_after_a_finishes_and_the_pool_survives() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let a_finished = AtomicBool::new(false);
        let caught = pool.install(|| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                join(
                    || {
                        // Time for an idle helper to take `b`, so its
                        // panic crosses threads.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        a_finished.store(true, Ordering::SeqCst);
                    },
                    || panic!("b failed"),
                )
            }))
        });
        let payload = caught.expect_err("b's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"b failed"));
        assert!(
            a_finished.load(Ordering::SeqCst),
            "re-raised before a finished"
        );
        // The helper that caught the panic still serves.
        let squares: Vec<usize> =
            pool.install(|| (0..10_000usize).into_par_iter().map(|i| i * i).collect());
        assert!(squares.iter().enumerate().all(|(i, &x)| x == i * i));
        assert_eq!(pool.install(|| join(|| 1, || 2)), (1, 2));
    }

    #[test]
    fn a_budget_of_one_runs_both_sides_on_the_caller() {
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let caller = std::thread::current().id();
        let (a, b) = pool.install(|| {
            join(
                || std::thread::current().id(),
                || std::thread::current().id(),
            )
        });
        assert_eq!((a, b), (caller, caller));
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        let run = |threads: usize| -> Vec<u64> {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                (0..50_000usize)
                    .into_par_iter()
                    .map(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .collect()
            })
        };
        let one = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(one, run(threads));
        }
    }
}
