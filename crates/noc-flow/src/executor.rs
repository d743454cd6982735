//! Scoped-thread scatter/gather: the one worker loop behind every parallel
//! path of the suite.
//!
//! [`parallel_map_streaming`] maps a slice on a pool of scoped worker
//! threads: workers claim item indices from a shared atomic counter, compute
//! them, and send `(index, result)` back over a channel; the coordinating
//! thread hands each result to an observer as it arrives and slots it into
//! its input position, so the returned vector is in input order no matter
//! how the workers interleave.  [`parallel_map_ordered`] is the same loop
//! without the observer.  [`FlowSweep::run`](crate::FlowSweep::run) maps its
//! grid points through it, and the `noc-jobs` runner streams its task
//! records through it.
//!
//! Built on `std::thread::scope` + `std::sync::mpsc` only — the offline
//! build environment has no external dependencies (no rayon/crossbeam).
//!
//! A traced run sees the loop's own cost in `executor` spans: `start`
//! (sizing the pool and spawning the workers) and `join` on the calling
//! thread, one `wait` per blocking receive there (each result's and the
//! last one, which ends when every worker has finished), one `hand_off`
//! per result the calling thread takes in, and one `worker` span per
//! worker thread around everything it runs.  Every worker thread the
//! process starts gets its own label (`worker-0`, `worker-1`, … counted
//! across maps), so a trace's per-thread rows never merge two threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Worker threads started so far in this process; the next worker is
/// labelled `worker-<this count>`.
static WORKERS_SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// Maps every item through `f` on a pool of scoped worker threads and
/// returns the results in input order: [`parallel_map_streaming`] without
/// the observer.  `threads == 0` auto-sizes to the machine's available
/// parallelism; the pool never exceeds the item count.
///
/// This is the scatter/gather primitive behind [`FlowSweep::run`] and the
/// `--threads` knob of harness entry points that are not sweep grids
/// (per-benchmark simulation sharding, timed-design preparation,
/// equivalence-test grids).  A panic in `f` propagates when the scope joins
/// its workers.
///
/// [`FlowSweep::run`]: crate::FlowSweep::run
///
/// # Example
///
/// ```
/// let squares = noc_flow::executor::parallel_map_ordered(&[1, 2, 3], 2, |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9]);
/// ```
pub fn parallel_map_ordered<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    parallel_map_streaming(items, threads, |_, item| f(item), |_, _| {})
}

/// Maps every item through `f` on a pool of scoped worker threads, hands
/// each result to `on_complete` on the coordinating thread *as it arrives*
/// (completion order, not input order), and returns the full vector in
/// input order.  `threads == 0` auto-sizes to the machine's available
/// parallelism; the pool never exceeds the item count.
///
/// This is the seam the `noc-jobs` runner needs: a resumable job must
/// append each task's completion record to its on-disk log the moment the
/// task finishes — batching records until the whole map returns would lose
/// every in-flight result on a crash.  `on_complete` runs on the
/// coordinator, so it may hold `&mut` state (an open log file) without
/// synchronization.
///
/// # Example
///
/// ```
/// let mut seen = Vec::new();
/// let doubled = noc_flow::executor::parallel_map_streaming(
///     &[1, 2, 3],
///     2,
///     |_, &x| x * 2,
///     |index, result| seen.push((index, *result)),
/// );
/// assert_eq!(doubled, vec![2, 4, 6]);
/// seen.sort_unstable();
/// assert_eq!(seen, vec![(0, 2), (1, 4), (2, 6)]);
/// ```
pub fn parallel_map_streaming<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(usize, &T) -> R + Sync,
    mut on_complete: impl FnMut(usize, &R),
) -> Vec<R> {
    let start = noc_telemetry::span("executor", "start");
    let workers = worker_count(threads, items.len());
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut slots: Vec<Option<R>> = Vec::new();
    slots.resize_with(items.len(), || None);
    let first_label = WORKERS_SPAWNED.fetch_add(workers, Ordering::Relaxed);
    let join = std::thread::scope(|scope| {
        for worker in first_label..first_label + workers {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || {
                // The worker's whole life: each item's own spans nest
                // inside, so what is left is claiming items and sending
                // results.
                let _span = noc_telemetry::span("executor", "worker");
                noc_telemetry::set_thread_label(format!("worker-{worker}"));
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(index) else {
                        break;
                    };
                    if tx.send((index, f(index, item))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        drop(start);
        loop {
            // Blocked until a worker sends: the calling thread waits, it
            // does not work.
            let wait = noc_telemetry::span("executor", "wait");
            let Ok((index, result)) = rx.recv() else {
                break;
            };
            drop(wait);
            let _span = noc_telemetry::span("executor", "hand_off");
            on_complete(index, &result);
            slots[index] = Some(result);
        }
        // Every worker has sent its last result; the scope joins them as
        // it returns, inside this span.
        noc_telemetry::span("executor", "join")
    });
    drop(join);
    slots
        .into_iter()
        .map(|slot| slot.expect("every item was mapped exactly once"))
        .collect()
}

/// Resolves the configured thread count: `0` auto-sizes to the machine's
/// available parallelism; the pool never exceeds the grid size and is at
/// least one thread.
fn worker_count(requested: usize, grid_len: usize) -> usize {
    let threads = if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    };
    threads.clamp(1, grid_len.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_count_auto_sizes_and_clamps() {
        assert_eq!(worker_count(4, 2), 2, "never more workers than points");
        assert_eq!(worker_count(4, 100), 4);
        assert_eq!(worker_count(1, 0), 1, "empty grids still get one worker");
        assert!(worker_count(0, 100) >= 1, "auto mode is at least one");
    }

    #[test]
    fn streaming_map_sees_every_result_before_return() {
        let items: Vec<usize> = (0..32).collect();
        let mut streamed = Vec::new();
        let results = parallel_map_streaming(
            &items,
            4,
            |index, &x| (index, x * x),
            |index, result| streamed.push((index, *result)),
        );
        assert_eq!(results.len(), 32);
        for (i, &(index, square)) in results.iter().enumerate() {
            assert_eq!(index, i, "results come back in input order");
            assert_eq!(square, i * i);
        }
        streamed.sort_unstable();
        let expected: Vec<_> = (0..32).map(|i| (i, (i, i * i))).collect();
        assert_eq!(streamed, expected, "every result streamed exactly once");
    }
}
