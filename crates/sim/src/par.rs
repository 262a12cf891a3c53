//! The workspace's one worker pool.
//!
//! Every campaign, corpus, suite and sweep runner fans its cells out
//! through [`par_map`]. Each cell owns a private simulated world, so the
//! cells are independent; the pool only has to keep the output order
//! fixed for the results to be byte-identical at any thread count.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Maps `f` over `items` on up to `threads` scoped worker threads.
///
/// An atomic cursor hands out indices and each result lands in its
/// input's slot, so the output order — and, since the items are
/// independent, every byte of every result — does not depend on
/// `threads`. A panic in `f` propagates to the caller.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let cursor = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            done.push((i, f(item)));
        }
        done
    };
    let mut slotted: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.clamp(1, items.len().max(1)))
            .map(|_| scope.spawn(worker))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| {
                w.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    slotted.sort_unstable_by_key(|&(i, _)| i);
    slotted.into_iter().map(|(_, r)| r).collect()
}

/// The default worker count for the bench binaries: the machine's
/// available parallelism, capped at 8 so that a big host does not hold
/// dozens of simulated worlds in memory at once. No output depends on
/// it.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(8))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_order_is_input_order_at_any_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [0, 1, 3, 64] {
            assert_eq!(
                par_map(&items, threads, |x| x * x),
                expect,
                "{threads} threads"
            );
        }
        assert!(par_map(&[] as &[u64], 4, |x| *x).is_empty());
    }
}
