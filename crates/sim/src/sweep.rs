//! Parallel parameter sweeps.
//!
//! Regenerating a BNF figure means running one independent simulation per
//! (algorithm, injection-rate) pair — dozens of embarrassingly parallel
//! jobs. [`parallel_map`] fans a job list across worker threads through an
//! atomically-claimed work list and returns results in input order, so
//! figure output is deterministic regardless of scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maps `f` over `inputs` using up to `workers` OS threads.
///
/// Results come back in input order. `workers == 0` means "use available
/// parallelism". `f` must be `Sync` because multiple workers call it
/// concurrently (each call gets a distinct input).
///
/// # Example
///
/// ```
/// let squares = simcore::sweep::parallel_map(0, (0u64..8).collect(), |x| x * x);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub fn parallel_map<T, R, F>(workers: usize, inputs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = effective_workers(workers, n);
    if workers <= 1 {
        return inputs.into_iter().map(f).collect();
    }

    // Each job slot is claimed exactly once via the shared cursor; workers
    // take the item out of its slot without contending on a queue lock.
    let slots: Vec<Mutex<Option<T>>> = inputs.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let cursor = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<R>>> =
        Mutex::new((0..n).map(|_| None).collect::<Vec<Option<R>>>());

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                if idx >= n {
                    break;
                }
                let item = slots[idx]
                    .lock()
                    .expect("worker panicked")
                    .take()
                    .expect("each slot is claimed once");
                let r = f(item);
                results
                    .lock()
                    .expect("worker panicked")
                    .insert_result(idx, r);
            });
        }
    });

    results
        .into_inner()
        .expect("worker panicked")
        .into_iter()
        .map(|r| r.expect("every input produces a result"))
        .collect()
}

/// Resolves a worker-count request: `requested`, or the machine's
/// available parallelism for `0`, clamped to `1..=jobs`.
pub fn effective_workers(requested: usize, jobs: usize) -> usize {
    let w = if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    };
    w.min(jobs).max(1)
}

trait InsertResult<R> {
    fn insert_result(&mut self, idx: usize, r: R);
}

impl<R> InsertResult<R> for Vec<Option<R>> {
    fn insert_result(&mut self, idx: usize, r: R) {
        self[idx] = Some(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_order() {
        let out = parallel_map(4, (0..100).collect::<Vec<i32>>(), |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map(4, Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_worker_is_sequential() {
        let order = Mutex::new(Vec::new());
        let _ = parallel_map(1, vec![1, 2, 3], |x| {
            order.lock().unwrap().push(x);
            x
        });
        assert_eq!(*order.lock().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn all_inputs_processed_once() {
        let calls = AtomicUsize::new(0);
        let out = parallel_map(8, (0..1000).collect::<Vec<usize>>(), |x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1000);
        assert_eq!(out.len(), 1000);
    }

    #[test]
    fn effective_worker_resolution() {
        assert_eq!(effective_workers(3, 10), 3);
        assert_eq!(effective_workers(16, 2), 2);
        assert!(effective_workers(0, 100) >= 1);
        assert_eq!(effective_workers(5, 0).max(1), 1);
    }
}
