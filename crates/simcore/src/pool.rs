//! Order-preserving scoped worker pool.
//!
//! The shared work-queue pattern every parallel consumer in the workspace
//! uses (the suite runner and the registered figures): workers claim
//! items from an [`AtomicUsize`] cursor over a claim-order permutation and
//! deliver `(original_index, result)` over an [`mpsc`] channel, so no locks
//! are held anywhere (clippy.toml bans `std::sync::Mutex`, and the
//! claim/deliver pattern does not want one anyway). Results are re-ordered
//! by input index before returning, which is what makes the pool safe for
//! byte-identity guarantees: claim order changes *which worker* runs an
//! item and *when* — never the item's private computation or its slot in
//! the output.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// Why [`run_with_deadline`] failed to produce a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineError {
    /// The closure was still running when the deadline expired. The worker
    /// thread is abandoned (detached), not killed — the caller must treat
    /// any state it shares with the closure as lost.
    TimedOut,
    /// The closure panicked before producing a result.
    Panicked,
}

/// Run `f` on a detached thread, waiting at most `timeout` for its result.
///
/// This is the pool's hung-work containment primitive: a simulation stuck
/// in an infinite loop cannot be interrupted cooperatively, so the only
/// portable containment is to run it on its own thread and abandon that
/// thread on expiry. The abandoned thread keeps running (and keeps its
/// memory) until the process exits — acceptable for a batch runner that
/// reports the failure and moves on, not for anything long-lived.
///
/// Timing uses [`mpsc::Receiver::recv_timeout`], so no wall-clock reads
/// happen here (clippy.toml bans `Instant::now`).
#[expect(
    clippy::disallowed_methods,
    reason = "this module is the one home of threads and channels; results are re-ordered by input index, so callers stay deterministic"
)]
pub fn run_with_deadline<R, F>(f: F, timeout: Duration) -> Result<R, DeadlineError>
where
    R: Send + 'static,
    F: FnOnce() -> R + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        // A send failure means the caller already gave up; nothing to do.
        let _ = tx.send(f());
    });
    rx.recv_timeout(timeout).map_err(|e| match e {
        mpsc::RecvTimeoutError::Timeout => DeadlineError::TimedOut,
        // The sender dropped without sending: the closure panicked.
        mpsc::RecvTimeoutError::Disconnected => DeadlineError::Panicked,
    })
}

/// The machine's available parallelism (1 if it cannot be determined):
/// the default worker count for [`parallel_map`] callers.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Order-preserving parallel map over `items` with up to `jobs` worker
/// threads. `f(index, item)` runs exactly once per item; results come
/// back in input order. `jobs <= 1` degenerates to a plain serial map on
/// the calling thread (no pool, identical results by construction).
///
/// A panicking worker propagates its panic out of this call after the
/// scope joins — no result is silently dropped.
pub fn parallel_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let order: Vec<usize> = (0..items.len()).collect();
    parallel_map_in_claim_order(items, jobs, &order, f)
}

/// Like [`parallel_map`], but with priorities: workers claim items in
/// descending `priority` order (ties break toward the earlier index).
/// Results still come back in *input* order — the priority only decides
/// when each item starts, which is what makes longest-first scheduling
/// safe for byte-identity guarantees.
pub fn parallel_map_prioritized<T, R, F>(items: &[T], jobs: usize, priority: &[u64], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    assert_eq!(
        priority.len(),
        items.len(),
        "one priority per item required"
    );
    let mut order: Vec<usize> = (0..items.len()).collect();
    // Stable sort: equal priorities keep their input order.
    order.sort_by_key(|&i| std::cmp::Reverse(priority[i]));
    parallel_map_in_claim_order(items, jobs, &order, f)
}

/// The shared work queue underneath both maps: `claim_order` is the queue
/// content (a permutation of the item indices); workers steal the next
/// unclaimed position with a single `fetch_add` on the cursor. `jobs <= 1`
/// degenerates to a plain serial map over `items` in input order (no pool,
/// identical results by construction — per-item work is independent, so
/// claim order cannot change any result).
///
/// A panicking worker propagates its panic out of this call after the
/// scope joins — no result is silently dropped.
#[expect(
    clippy::disallowed_methods,
    reason = "this module is the one home of threads and channels; results are re-ordered by input index, so callers stay deterministic"
)]
fn parallel_map_in_claim_order<T, R, F>(
    items: &[T],
    jobs: usize,
    claim_order: &[usize],
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    debug_assert_eq!(claim_order.len(), items.len());
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    std::thread::scope(|s| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            s.spawn(move || loop {
                let pos = cursor.fetch_add(1, Ordering::Relaxed);
                if pos >= claim_order.len() {
                    break;
                }
                let i = claim_order[pos];
                // The receiver outlives the scope, so send only fails if
                // the parent already panicked; stopping is then correct.
                if tx.send((i, f(i, &items[i]))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, r) in &rx {
            slots[i] = Some(r);
        }
    });
    // Reached only if every worker exited cleanly (a worker panic
    // re-raises when the scope joins, before this line).
    slots
        .into_iter()
        .map(|s| s.expect("every claimed index delivered a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_input_order_at_any_job_count() {
        let items: Vec<u64> = (0..100).collect();
        for jobs in [1, 2, 4, 16] {
            let out = parallel_map(&items, jobs, |i, &x| x * 2 + i as u64);
            let expect: Vec<u64> = items.iter().enumerate().map(|(i, x)| x * 2 + i as u64).collect();
            assert_eq!(out, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn prioritized_results_ignore_claim_order() {
        let items: Vec<u64> = (0..50).collect();
        let priority: Vec<u64> = items.iter().map(|x| 1000 - x).collect();
        let serial = parallel_map(&items, 1, |_, &x| x + 1);
        let parallel = parallel_map_prioritized(&items, 8, &priority, |_, &x| x + 1);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_input_is_fine() {
        let items: Vec<u64> = Vec::new();
        assert!(parallel_map(&items, 4, |_, &x| x).is_empty());
    }

    #[test]
    fn deadline_returns_fast_results_and_flags_hangs() {
        let ok = run_with_deadline(|| 42u32, Duration::from_secs(10));
        assert_eq!(ok, Ok(42));
        // A worker that sleeps past the deadline is reported as timed out
        // (and abandoned; it exits on its own shortly after).
        let hung = run_with_deadline(
            || std::thread::sleep(Duration::from_millis(500)),
            Duration::from_millis(20),
        );
        assert_eq!(hung, Err(DeadlineError::TimedOut));
        let boom: Result<u32, _> =
            run_with_deadline(|| panic!("boom"), Duration::from_secs(10));
        assert_eq!(boom, Err(DeadlineError::Panicked));
    }
}
