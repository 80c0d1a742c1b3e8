//! [`scope_map`]: the one parallel map every parallel layer of the
//! workspace shares.
//!
//! The approximation flow is embarrassingly parallel at the task level:
//! the design-space sweeps run hundreds of independent `(distribution ×
//! threshold × run)` tasks, and the library and statistics passes score
//! one candidate per task. [`scope_map`] runs such a batch on scoped
//! threads:
//!
//! * **One-task claims**: an atomic cursor hands out one task index per
//!   claim, so fast workers absorb the slack of slow ones down to the
//!   last task and no thread finishes a batch alone on a claimed backlog.
//! * **Per-slot result writes**: every task writes its result into its own
//!   slot — no shared lock on the result vector, and results come back in
//!   task order regardless of scheduling (deterministic output).
//! * **Panic capture**: a panicking task is caught, recorded as a
//!   [`TaskPanic`] naming the failing task, and surfaced to the caller;
//!   other tasks complete normally and no lock is poisoned.
//!
//! The crate is std-only (every dependency of the workspace is in-tree, so
//! rayon is not an option) and safe-only.
//!
//! # Examples
//!
//! ```
//! let squares = apx_pool::scope_map(4, (0u64..100).collect(), |_, x| x * x).unwrap();
//! assert_eq!(squares[7], 49);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A task panicked inside [`scope_map`].
///
/// The panic is captured at the task boundary, so sibling tasks finish and
/// no lock is poisoned; the caller receives the failing task's index and
/// panic message instead of an opaque poisoning error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// Index of the failing task in the submitted batch.
    pub index: usize,
    /// The panic payload, stringified.
    pub message: String,
}

impl fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for TaskPanic {}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Maps `worker` over `tasks` on `threads` threads and returns the results
/// **in task order**. `worker` receives `(task index, task)`.
///
/// The calling thread works alongside `threads − 1` scoped workers (at
/// most one thread per task); with `threads <= 1` no thread is spawned
/// and every task runs on the caller, in index order.
///
/// # Errors
///
/// Returns the [`TaskPanic`] of the lowest-indexed panicking task (all
/// other tasks still run to completion).
pub fn scope_map<T, R, W>(threads: usize, tasks: Vec<T>, worker: W) -> Result<Vec<R>, TaskPanic>
where
    T: Send,
    R: Send,
    W: Fn(usize, T) -> R + Sync,
{
    let n = tasks.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let threads = threads.clamp(1, n);
    // Each task and each result sits behind its own lock, taken once by
    // the one thread that claimed the index, so no lock is ever contended.
    let tasks: Vec<Mutex<Option<T>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<Result<R, TaskPanic>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    // The cursor only hands out indices: tasks and results travel through
    // their locks and the scope's join, so `Relaxed` suffices.
    let cursor = AtomicUsize::new(0);
    let drain = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            return;
        }
        let task = tasks[i]
            .lock()
            .expect("a task lock is never held across a panic")
            .take()
            .expect("each task index is claimed exactly once");
        let result = catch_unwind(AssertUnwindSafe(|| worker(i, task)))
            .map_err(|payload| TaskPanic { index: i, message: panic_message(payload) });
        *slots[i].lock().expect("a result lock is never held across a panic") = Some(result);
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(drain);
        }
        drain();
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("a result lock is never held across a panic")
                .expect("every claimed task fills its slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_come_back_in_task_order() {
        for threads in [1, 2, 4, 7] {
            let out = scope_map(threads, (0..100usize).collect(), |i, x| {
                assert_eq!(i, x, "index matches task position");
                x * 3
            })
            .unwrap();
            assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn one_thread_runs_every_task_on_the_caller_in_index_order() {
        let caller = std::thread::current().id();
        for threads in [0, 1] {
            let seen = Mutex::new(Vec::new());
            scope_map(threads, (0..20usize).collect(), |i, _| {
                seen.lock().unwrap().push((i, std::thread::current().id()));
            })
            .unwrap();
            let seen = seen.into_inner().unwrap();
            assert_eq!(seen, (0..20).map(|i| (i, caller)).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn empty_and_single_task_batches_work() {
        for threads in [1, 3] {
            assert_eq!(
                scope_map(threads, Vec::<u32>::new(), |_, x| x + 1).unwrap(),
                Vec::<u32>::new()
            );
            assert_eq!(scope_map(threads, vec![9u32], |_, x| x + 1).unwrap(), vec![10]);
        }
    }

    #[test]
    fn panic_surfaces_the_failing_task_not_a_poisoned_lock() {
        let err = scope_map(4, (0..32usize).collect(), |_, x| {
            assert!(x != 13, "task 13 exploded");
            x
        })
        .unwrap_err();
        assert_eq!(err.index, 13);
        assert!(err.message.contains("task 13 exploded"), "message was: {}", err.message);
        assert!(err.to_string().contains("task 13"), "display names the task");
    }

    #[test]
    fn lowest_indexed_panic_wins_and_siblings_complete() {
        let completed = AtomicU64::new(0);
        let err = scope_map(4, (0..64usize).collect(), |_, x| {
            if x == 50 || x == 7 {
                panic!("boom {x}");
            }
            completed.fetch_add(1, Ordering::Relaxed);
            x
        })
        .unwrap_err();
        assert_eq!(err.index, 7);
        assert_eq!(completed.load(Ordering::Relaxed), 62, "non-panicking tasks all ran");
    }

    #[test]
    fn work_stealing_covers_unbalanced_tasks() {
        // A few heavy tasks among many light ones; every index must still
        // be produced exactly once.
        let out = scope_map(4, (0..200u64).collect(), |_, x| {
            if x % 50 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x
        })
        .unwrap();
        assert_eq!(out, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn more_threads_than_tasks_is_fine() {
        let out = scope_map(16, vec![1u8, 2], |_, x| x * 2).unwrap();
        assert_eq!(out, vec![2, 4]);
    }

    #[test]
    fn task_panic_is_a_std_error() {
        fn assert_error<E: std::error::Error + Send + Sync + 'static>(_: &E) {}
        assert_error(&TaskPanic { index: 0, message: "x".into() });
    }
}
