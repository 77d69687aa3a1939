//! Data-parallel helpers shared by every crate in the workspace, run on one
//! persistent worker pool.
//!
//! The workspace must build with no registry access, so instead of rayon
//! the pool is hand-rolled on `std::thread`. It starts on first use with
//! `available_parallelism() - 1` workers, and the calling thread works
//! too. A call splits its work into tasks that the participants claim one
//! at a time, and its results merge in index order, so the thread count
//! changes scheduling only, never results.
//!
//! A call runs inline on the calling thread instead when
//! - its work is too small to pay for waking a worker: [`map_indexed`]
//!   and [`for_each_item`] run inline below [`MIN_POOLED_ITEMS`] items,
//!   while callers of [`map_tasks`] and [`for_each_task`] apply their own
//!   size rule before calling;
//! - the pool is already serving a call, so nested calls and concurrent
//!   callers never wait on each other and cannot deadlock;
//! - the host has a single core.
//!
//! A task that panics makes the call panic on its caller with the task's
//! original payload, once every participant has left the call.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Below this many items [`map_indexed`] and [`for_each_item`] run inline.
pub const MIN_POOLED_ITEMS: usize = 1024;

/// Tasks per participant when the per-item helpers split their range, so
/// that claiming evens out items of uneven cost.
const TASKS_PER_THREAD: usize = 4;

/// Number of threads that work on a pooled call: the pool's workers plus
/// the caller. Read once, because the query reads the host's CPU quota.
pub fn num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Maps `f` over `0..n` and collects the results in index order, on the
/// pool when `n` reaches [`MIN_POOLED_ITEMS`].
pub fn map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n < MIN_POOLED_ITEMS {
        return (0..n).map(f).collect();
    }
    let tasks = (num_threads() * TASKS_PER_THREAD).min(n);
    let parts =
        map_tasks(tasks, |t| (n * t / tasks..n * (t + 1) / tasks).map(&f).collect::<Vec<T>>());
    let mut out = Vec::with_capacity(n);
    for part in parts {
        out.extend(part);
    }
    out
}

/// Consumes `items`, calling `f(index, item)` for each, on the pool when
/// there are at least [`MIN_POOLED_ITEMS`]. The items are typically
/// disjoint `&mut` slices produced by `split_at_mut`, so the pooled version
/// is race-free by construction.
pub fn for_each_item<I, F>(items: Vec<I>, f: F)
where
    I: Send,
    F: Fn(usize, I) + Sync,
{
    let n = items.len();
    if n < MIN_POOLED_ITEMS {
        for (i, item) in items.into_iter().enumerate() {
            f(i, item);
        }
        return;
    }
    // Split into contiguous runs, remembering each run's base index.
    let tasks = (num_threads() * TASKS_PER_THREAD).min(n);
    let mut rest = items;
    let mut runs: Vec<(usize, Vec<I>)> = Vec::with_capacity(tasks);
    for t in (1..tasks).rev() {
        let lo = n * t / tasks;
        runs.push((lo, rest.split_off(lo)));
    }
    runs.push((0, rest));
    for_each_task(runs, |_, (base, run)| {
        for (i, item) in run.into_iter().enumerate() {
            f(base + i, item);
        }
    });
}

/// Maps `f` over `0..n` with each index as one pool task, whatever `n` is,
/// and collects the results in index order. For callers whose few indices
/// each carry a lot of work, and that have decided from their own size
/// rule that the work is worth the pool.
pub fn map_tasks<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let Some(claim) = Claim::take(n) else {
        return (0..n).map(f).collect();
    };
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    claim.run(n, &|i| *lock(&slots[i]) = Some(f(i)));
    slots
        .into_iter()
        .map(|s| s.into_inner().unwrap_or_else(PoisonError::into_inner).expect("every task ran"))
        .collect()
}

/// Consumes `items` with each item as one pool task, calling
/// `f(index, item)`; the counterpart of [`map_tasks`] for
/// [`for_each_item`].
pub fn for_each_task<I, F>(items: Vec<I>, f: F)
where
    I: Send,
    F: Fn(usize, I) + Sync,
{
    let Some(claim) = Claim::take(items.len()) else {
        for (i, item) in items.into_iter().enumerate() {
            f(i, item);
        }
        return;
    };
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    claim.run(slots.len(), &|i| {
        let item = lock(&slots[i]).take().expect("each task runs once");
        f(i, item)
    });
}

// Every mutex here guards data that each update leaves valid (a slot set
// once, a counter stepped once), and no code panics while holding one, so
// a poisoned lock is still safe to use.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The persistent pool: workers sleep on `wake` until a call publishes a
/// job, join it at most once, and leave it when no task is left to claim.
struct Pool {
    /// Set while one call is using the pool; a call that finds it set runs
    /// inline.
    busy: AtomicBool,
    state: Mutex<State>,
    /// Workers wait here for a job.
    wake: Condvar,
    /// The caller waits here for workers to leave its job.
    left: Condvar,
}

struct State {
    job: Option<Job>,
    /// Bumped per job, so a worker that finished one job does not rejoin
    /// it while the caller has yet to withdraw it.
    epoch: u64,
    /// Workers currently running the job.
    inside: usize,
}

/// A published job: claims and runs tasks until none is left, and never
/// unwinds. Its lifetime is erased; see [`Claim::run`].
#[derive(Clone, Copy)]
struct Job(&'static (dyn Fn() + Sync));

/// The pool, started on first use; `None` on a single-core host.
fn pool() -> Option<&'static Pool> {
    static POOL: OnceLock<Option<&'static Pool>> = OnceLock::new();
    *POOL.get_or_init(|| {
        let workers = num_threads() - 1;
        if workers == 0 {
            return None;
        }
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            busy: AtomicBool::new(false),
            state: Mutex::new(State { job: None, epoch: 0, inside: 0 }),
            wake: Condvar::new(),
            left: Condvar::new(),
        }));
        // The workers live as long as the process and are never joined:
        // they sleep between calls, and a job never unwinds.
        let started = (0..workers)
            .filter(|w| {
                std::thread::Builder::new()
                    .name(format!("spaden-par-{w}"))
                    .spawn(move || pool.work())
                    .is_ok()
            })
            .count();
        (started > 0).then_some(pool)
    })
}

impl Pool {
    fn work(&self) {
        let mut seen = 0;
        let mut st = lock(&self.state);
        loop {
            match st.job {
                Some(job) if st.epoch != seen => {
                    seen = st.epoch;
                    st.inside += 1;
                    drop(st);
                    (job.0)();
                    st = lock(&self.state);
                    st.inside -= 1;
                    if st.inside == 0 {
                        self.left.notify_all();
                    }
                }
                _ => st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner),
            }
        }
    }
}

/// Exclusive use of the pool for one call; releases it when dropped.
struct Claim(&'static Pool);

impl Claim {
    /// Claims the pool for `ntasks` tasks, or `None` when the call should
    /// run inline: one task, no pool, or the pool already busy.
    fn take(ntasks: usize) -> Option<Claim> {
        let pool = pool().filter(|_| ntasks > 1)?;
        // Acquire pairs with the Release in `drop`: this call sees the
        // previous call's withdrawal of its job.
        pool.busy.compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed).ok()?;
        Some(Claim(pool))
    }

    /// Runs `task(i)` for every `i` in `0..n` on the workers and the
    /// calling thread, then resumes the first task panic, if any, on the
    /// caller.
    fn run(&self, n: usize, task: &(dyn Fn(usize) + Sync)) {
        // Task claims publish nothing: results travel through their slots'
        // mutexes and the join below.
        let next = AtomicUsize::new(0);
        let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let job = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| task(i))) {
                // Leave the remaining tasks unclaimed, as a serial loop
                // would have stopped at the panic.
                next.store(n, Ordering::Relaxed);
                lock(&panicked).get_or_insert(payload);
            }
        };
        let job: &(dyn Fn() + Sync) = &job;
        // SAFETY: only the lifetime changes. Workers copy the reference
        // out of `State::job` under the state lock, and count themselves
        // in `inside` in the same critical section. `Withdraw` (dropped
        // on every exit from this function, unwinding included) clears
        // `State::job` under that lock and then waits until `inside` is 0.
        // So no worker holds the reference once this function returns,
        // and `job`, `next`, `panicked` and `task` outlive every use.
        let erased =
            unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(job) };
        let withdraw = Withdraw(self.0);
        {
            let mut st = lock(&self.0.state);
            st.job = Some(Job(erased));
            st.epoch += 1;
        }
        self.0.wake.notify_all();
        job();
        drop(withdraw);
        if let Some(payload) = panicked.into_inner().unwrap_or_else(PoisonError::into_inner) {
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        self.0.busy.store(false, Ordering::Release);
    }
}

/// Withdraws the published job and waits for every worker to leave it.
struct Withdraw(&'static Pool);

impl Drop for Withdraw {
    fn drop(&mut self) {
        let mut st = lock(&self.0.state);
        st.job = None;
        while st.inside > 0 {
            st = self.0.left.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn map_indexed_preserves_order() {
        for n in [1000, MIN_POOLED_ITEMS, 5 * MIN_POOLED_ITEMS + 3] {
            let v = map_indexed(n, |i| i * 3);
            assert_eq!(v, (0..n).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_indexed_empty() {
        let v: Vec<u32> = map_indexed(0, |_| unreachable!());
        assert!(v.is_empty());
    }

    #[test]
    fn for_each_item_visits_all_with_correct_indices() {
        for n in [257, 3 * MIN_POOLED_ITEMS + 1] {
            let mut data = vec![0u32; n];
            {
                let slices: Vec<&mut u32> = data.iter_mut().collect();
                for_each_item(slices, |i, slot| *slot = i as u32 + 1);
            }
            for (i, &v) in data.iter().enumerate() {
                assert_eq!(v, i as u32 + 1);
            }
        }
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn nested_and_concurrent_calls_complete_in_order() {
        // Four callers start together, each running a pooled call whose
        // tasks make pooled calls of their own: whoever finds the pool
        // busy runs inline, and nobody waits on anybody.
        let start = Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4usize {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    let sums = map_tasks(8, |i| {
                        map_indexed(MIN_POOLED_ITEMS, |j| t + i * j).iter().sum::<usize>()
                    });
                    let want: Vec<usize> =
                        (0..8).map(|i| (0..MIN_POOLED_ITEMS).map(|j| t + i * j).sum()).collect();
                    assert_eq!(sums, want);
                });
            }
        });
    }

    #[test]
    fn a_task_panic_reaches_the_caller_and_the_pool_recovers() {
        let err = panic::catch_unwind(|| {
            map_tasks(16, |i| {
                if i == 11 {
                    panic!("task {i} failed");
                }
                i
            })
        })
        .expect_err("the panic must reach the caller");
        assert_eq!(err.downcast_ref::<String>().map(String::as_str), Some("task 11 failed"));
        assert_eq!(map_tasks(16, |i| i * 2), (0..16).map(|i| i * 2).collect::<Vec<_>>());
    }
}
