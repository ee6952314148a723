//! A persistent worker pool for the measurement stack.
//!
//! Every parallel consumer in the crate — the slot-sharded fluid engine,
//! packet replications, the sweep driver and the bench
//! bins — used to spawn fresh threads per call. [`WorkerPool`] replaces that
//! with long-lived workers fed from a shared queue: threads are spawned once,
//! jobs are boxed closures, and batch results come back tagged with their
//! input index so callers always see outputs in submission order regardless
//! of which worker ran what.
//!
//! Determinism contract: the pool itself never reorders *data*. Batch APIs
//! ([`WorkerPool::run`], [`WorkerPool::map`]) return `Vec`s indexed exactly
//! like their inputs; any reduction a caller performs over that `Vec` in
//! index order is therefore independent of thread count and scheduling.
//! [`WorkerPool::threads`] reports the *configured* parallelism — constant
//! for the life of the pool even across worker deaths — so chunk layouts
//! derived from it ([`chunk_ranges`]) stay reproducible.
//!
//! Crash-safety contract: one bad job must not take the pool down with it.
//! Every task — fallible or not — runs under `catch_unwind` on its worker,
//! so a panicking job never kills the thread that ran it. The fallible
//! batch APIs ([`WorkerPool::try_run`], [`WorkerPool::try_map`]) report the
//! caught panic as a per-index [`JobPanic`] while every other task
//! completes normally; the infallible APIs re-raise it on the submitting
//! thread once the batch is collected. All internal locking recovers from
//! mutex poisoning (a poisoned queue only means some thread died
//! mid-`push`/`pop` of plain data; the queue itself is still structurally
//! sound), and each batch submission reaps genuinely dead threads and
//! respawns replacements up to the construction count.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A task submitted through [`WorkerPool::try_run`] / [`WorkerPool::try_map`]
/// panicked on its worker. Carries the batch index and the rendered panic
/// payload; the rest of the batch is unaffected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    index: usize,
    message: String,
}

impl JobPanic {
    /// Index of the failed task within its batch.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The panic payload, when it was a string (the common
    /// `panic!("...")`), or a placeholder otherwise.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "batch task {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for JobPanic {}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Recovers the guard from a poisoned lock. Pool mutexes only protect plain
/// owned data (a job deque, a handle list); a panic while holding them
/// cannot leave the data structurally broken, so poisoning carries no
/// information worth propagating.
fn recover<'a, T>(
    result: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    result.unwrap_or_else(PoisonError::into_inner)
}

struct PoolQueue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct PoolState {
    queue: Mutex<PoolQueue>,
    work_ready: Condvar,
}

/// A fixed-size pool of long-lived worker threads.
///
/// Dropping the pool shuts the workers down and joins them. Jobs must not
/// block on other jobs submitted to the same pool (the pool has no nested
/// scheduling); every caller in this crate submits independent leaf tasks.
///
/// ```
/// use hycap_sim::WorkerPool;
///
/// let pool = WorkerPool::new(4);
/// let squares = pool.map((0..8usize).collect(), |x| x * x);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub struct WorkerPool {
    state: Arc<PoolState>,
    /// Configured parallelism; constant even when workers die and respawn.
    configured: usize,
    /// Worker count the pool maintains: what construction managed to spawn.
    target: usize,
    workers: Mutex<Vec<JoinHandle<()>>>,
    next_worker_id: AtomicUsize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.configured)
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool with `threads` workers (clamped to at least 1).
    ///
    /// Thread-spawn failure (an OS resource limit) is not fatal: the pool
    /// falls back to however many workers did spawn, warning on stderr, and
    /// in the worst case of zero workers runs batches inline on the
    /// submitting thread.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let state = Arc::new(PoolState {
            queue: Mutex::new(PoolQueue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let mut workers = Vec::with_capacity(threads);
        for i in 0..threads {
            match spawn_worker(&state, i) {
                Ok(handle) => workers.push(handle),
                Err(err) => {
                    eprintln!(
                        "hycap: warning: failed to spawn pool worker {i}: {err}; \
                         continuing with {} of {threads} workers",
                        workers.len()
                    );
                    break;
                }
            }
        }
        let target = workers.len();
        WorkerPool {
            state,
            configured: threads,
            target,
            workers: Mutex::new(workers),
            next_worker_id: AtomicUsize::new(target),
        }
    }

    /// The machine's available parallelism (1 when it cannot be queried),
    /// the default for CLI `--threads` and the bench drivers.
    pub fn default_threads() -> usize {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    }

    /// Configured parallelism. Deliberately *not* the live worker count:
    /// chunk layouts keyed off this value must not shift when a worker dies
    /// and respawns mid-sweep.
    pub fn threads(&self) -> usize {
        self.configured
    }

    /// Reaps workers whose threads terminated (job panics are caught on
    /// the worker, so this only catches genuine thread death) and respawns
    /// replacements up to the construction count. Returns the number of
    /// live workers afterwards.
    fn ensure_workers(&self) -> usize {
        let mut workers = recover(self.workers.lock());
        let handles = std::mem::take(&mut *workers);
        let mut alive = Vec::with_capacity(handles.len());
        for handle in handles {
            if handle.is_finished() {
                // The panic was already reported through the batch channel;
                // joining the remains must not re-raise it here.
                let _ = handle.join();
            } else {
                alive.push(handle);
            }
        }
        while alive.len() < self.target {
            let id = self.next_worker_id.fetch_add(1, Ordering::Relaxed);
            match spawn_worker(&self.state, id) {
                Ok(handle) => alive.push(handle),
                Err(err) => {
                    eprintln!(
                        "hycap: warning: failed to respawn pool worker {id}: {err}; \
                         continuing with {} of {} workers",
                        alive.len(),
                        self.target
                    );
                    break;
                }
            }
        }
        let count = alive.len();
        *workers = alive;
        count
    }

    /// Queues `jobs` for the workers, or runs them inline on the calling
    /// thread when the pool has no live workers (spawn failure fallback).
    fn dispatch(&self, jobs: Vec<Job>) {
        if self.ensure_workers() == 0 {
            for job in jobs {
                job();
            }
            return;
        }
        {
            let mut queue = recover(self.state.queue.lock());
            queue.jobs.extend(jobs);
        }
        self.state.work_ready.notify_all();
    }

    /// Runs every task on the pool and returns the results in task order.
    ///
    /// # Panics
    ///
    /// Panics if any task panicked on a worker (the batch cannot be
    /// completed deterministically). The panic is caught on the worker —
    /// which survives to serve the next batch — and re-raised here on the
    /// submitting thread; use [`WorkerPool::try_run`] to keep the rest of
    /// the batch's results instead.
    pub fn run<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.try_run(tasks)
            .into_iter()
            .map(|result| {
                result.unwrap_or_else(|err| {
                    panic!("pool worker panicked while running a batch task: {err}")
                })
            })
            .collect()
    }

    /// Runs every task on the pool, catching per-task panics: slot `i` of
    /// the result is `Err(JobPanic)` exactly when task `i` panicked, and
    /// every other slot is its task's value. The workers survive — panics
    /// are caught inside the job — so the same pool serves the next batch.
    pub fn try_run<T, F>(&self, tasks: Vec<F>) -> Vec<Result<T, JobPanic>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let total = tasks.len();
        let mut out: Vec<Option<Result<T, JobPanic>>> = Vec::with_capacity(total);
        out.resize_with(total, || None);
        let (tx, rx) = mpsc::channel::<(usize, Result<T, JobPanic>)>();
        let jobs: Vec<Job> = tasks
            .into_iter()
            .enumerate()
            .map(|(index, task)| {
                let tx = tx.clone();
                Box::new(move || {
                    // The task is consumed either way; AssertUnwindSafe is
                    // sound because a panicking task's captures are dropped
                    // with it and never observed again.
                    let result = catch_unwind(AssertUnwindSafe(task)).map_err(|payload| JobPanic {
                        index,
                        message: panic_message(payload.as_ref()),
                    });
                    let _ = tx.send((index, result));
                }) as Job
            })
            .collect();
        drop(tx);
        self.dispatch(jobs);
        for _ in 0..total {
            match rx.recv() {
                Ok((index, result)) => out[index] = Some(result),
                // Defensive: jobs self-catch, so a dead channel means a
                // worker died outside the task. Report what is missing.
                Err(_) => break,
            }
        }
        out.into_iter()
            .enumerate()
            .map(|(index, slot)| {
                slot.unwrap_or(Err(JobPanic {
                    index,
                    message: "worker terminated before reporting".to_string(),
                }))
            })
            .collect()
    }

    /// Maps `f` over owned `inputs` on the pool, preserving input order.
    ///
    /// # Panics
    ///
    /// Panics if `f` panicked for any input; see [`WorkerPool::run`].
    pub fn map<I, O, F>(&self, inputs: Vec<I>, f: F) -> Vec<O>
    where
        I: Send + 'static,
        O: Send + 'static,
        F: Fn(I) -> O + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        self.run(
            inputs
                .into_iter()
                .map(|input| {
                    let f = Arc::clone(&f);
                    move || f(input)
                })
                .collect(),
        )
    }

    /// Maps `f` over owned `inputs`, catching per-input panics; see
    /// [`WorkerPool::try_run`].
    pub fn try_map<I, O, F>(&self, inputs: Vec<I>, f: F) -> Vec<Result<O, JobPanic>>
    where
        I: Send + 'static,
        O: Send + 'static,
        F: Fn(I) -> O + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        self.try_run(
            inputs
                .into_iter()
                .map(|input| {
                    let f = Arc::clone(&f);
                    move || f(input)
                })
                .collect(),
        )
    }
}

fn spawn_worker(state: &Arc<PoolState>, id: usize) -> std::io::Result<JoinHandle<()>> {
    let state = Arc::clone(state);
    std::thread::Builder::new()
        .name(format!("hycap-worker-{id}"))
        .spawn(move || worker_loop(&state))
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut queue = recover(self.state.queue.lock());
            queue.shutdown = true;
        }
        self.state.work_ready.notify_all();
        let mut workers = recover(self.workers.lock());
        for handle in workers.drain(..) {
            // A worker that panicked already reported through the batch
            // channel; joining its remains must not double-panic the drop.
            let _ = handle.join();
        }
    }
}

fn worker_loop(state: &PoolState) {
    loop {
        let job = {
            let mut queue = recover(state.queue.lock());
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                if queue.shutdown {
                    return;
                }
                queue = recover(state.work_ready.wait(queue));
            }
        };
        // Jobs from try_run/run already self-catch; this guard keeps the
        // worker alive even if a raw job slips a panic through, so the
        // thread never has to be reaped and respawned for a bad task.
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

/// Splits `total` items into at most `chunks` contiguous, maximally balanced
/// ranges (first remainder chunks get one extra item). Empty ranges are
/// omitted, so fewer than `chunks` ranges come back when `total < chunks`.
///
/// The fluid engine keys its per-chunk accumulators off these ranges; since
/// they are a function of `(total, chunks)` only, the partition — and hence
/// the chunk-ordered reduction — is reproducible.
pub(crate) fn chunk_ranges(total: usize, chunks: usize) -> Vec<std::ops::Range<usize>> {
    let chunks = chunks.max(1);
    let base = total / chunks;
    let remainder = total % chunks;
    let mut ranges = Vec::new();
    let mut start = 0;
    for i in 0..chunks {
        let len = base + usize::from(i < remainder);
        if len == 0 {
            break;
        }
        ranges.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, total);
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static TEST_DROPS: AtomicUsize = AtomicUsize::new(0);

    #[test]
    fn run_preserves_task_order() {
        let pool = WorkerPool::new(4);
        let tasks: Vec<_> = (0..32usize)
            .map(|i| {
                move || {
                    // Stagger so completion order differs from submission.
                    std::thread::sleep(std::time::Duration::from_micros(
                        ((32 - i) % 5) as u64 * 50,
                    ));
                    i * 10
                }
            })
            .collect();
        let out = pool.run(tasks);
        assert_eq!(out, (0..32usize).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn map_preserves_input_order() {
        let pool = WorkerPool::new(3);
        let out = pool.map((0..17usize).collect(), |x| x + 1);
        assert_eq!(out, (1..18usize).collect::<Vec<_>>());
    }

    #[test]
    fn pool_survives_multiple_batches() {
        let pool = WorkerPool::new(2);
        for round in 0..5usize {
            let out = pool.map(vec![round; 8], |x| x * 2);
            assert_eq!(out, vec![round * 2; 8]);
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.map(vec![5usize], |x| x), vec![5]);
    }

    #[test]
    fn empty_batch_returns_immediately() {
        let pool = WorkerPool::new(2);
        let out: Vec<usize> = pool.run(Vec::<fn() -> usize>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn drop_joins_workers_with_queued_work_done() {
        struct Bump;
        impl Drop for Bump {
            fn drop(&mut self) {
                TEST_DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        TEST_DROPS.store(0, Ordering::SeqCst);
        {
            let pool = WorkerPool::new(2);
            let _ = pool.map(vec![Bump, Bump, Bump], drop);
        }
        assert_eq!(TEST_DROPS.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn try_run_isolates_the_panicking_index() {
        let pool = WorkerPool::new(3);
        let results = pool.try_map((0..16usize).collect(), |x| {
            assert!(x != 11, "task eleven goes down");
            x * 3
        });
        for (i, result) in results.iter().enumerate() {
            if i == 11 {
                let err = result.as_ref().unwrap_err();
                assert_eq!(err.index(), 11);
                assert!(err.message().contains("task eleven goes down"), "{err}");
            } else {
                assert_eq!(*result.as_ref().unwrap(), i * 3);
            }
        }
        // The workers caught the panic in-job, so the same pool serves a
        // clean follow-up batch.
        assert_eq!(pool.map(vec![1usize, 2, 3], |x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn pool_recovers_after_infallible_run_panic() {
        // One worker so any lingering damage from the panicking task would
        // be visible: if the panic killed the only worker, the follow-up
        // batch could only complete through reap-and-respawn.
        let pool = WorkerPool::new(1);
        let batch = catch_unwind(AssertUnwindSafe(|| {
            pool.run(vec![
                Box::new(|| -> usize { panic!("boom") }) as Box<dyn FnOnce() -> usize + Send>
            ])
        }));
        let err = batch.unwrap_err();
        let msg = panic_message(err.as_ref());
        assert!(msg.contains("pool worker panicked while running a batch task"));
        assert!(msg.contains("boom"), "original payload lost: {msg}");
        // The worker caught the panic and survives to serve the next batch.
        assert_eq!(pool.map(vec![7usize, 8], |x| x * 2), vec![14, 16]);
        assert_eq!(pool.threads(), 1);
    }

    #[test]
    fn try_run_on_empty_batch_is_empty() {
        let pool = WorkerPool::new(2);
        let out: Vec<Result<usize, JobPanic>> = pool.try_run(Vec::<fn() -> usize>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn job_panic_formats_index_and_message() {
        let err = JobPanic {
            index: 4,
            message: "bad seed".to_string(),
        };
        assert_eq!(err.to_string(), "batch task 4 panicked: bad seed");
        let boxed: Box<dyn std::error::Error> = Box::new(err);
        assert!(boxed.to_string().contains("task 4"));
    }

    #[test]
    fn chunk_ranges_cover_contiguously() {
        for total in [0usize, 1, 5, 7, 60, 61] {
            for chunks in [1usize, 2, 4, 7, 64] {
                let ranges = chunk_ranges(total, chunks);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    assert!(!r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, total);
                assert!(ranges.len() <= chunks.max(1));
                // Balanced: lengths differ by at most one.
                if let (Some(min), Some(max)) = (
                    ranges.iter().map(|r| r.len()).min(),
                    ranges.iter().map(|r| r.len()).max(),
                ) {
                    assert!(max - min <= 1);
                }
            }
        }
    }
}
