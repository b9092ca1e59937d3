//! Thread-pool-free data parallelism for the figure sweeps.
//!
//! The build environment is offline, so `rayon` is unavailable; the sweeps use
//! `std::thread::scope` directly. [`par_map`] preserves input order, balances
//! load with an atomic work index (configurations differ wildly in cost — a
//! conventional-baseline run is orders of magnitude cheaper than a point-SAM
//! run), and degrades to a serial loop for tiny inputs or single-core hosts.
//!
//! Every generator maps its points through here: fig13, fig14, fig15 and
//! hybrid-migrate map their cells, headline its four points, and ablation
//! the three points of each arm. A sweep whose workloads compile on their
//! first point hands [`par_map_issued`] an issue order from
//! [`leaders_first`], so every workload's first point (and with it every
//! compile) starts before any workload's second point, and no thread idles
//! behind one long compile while other compiles wait in the queue.
//!
//! Thread count can be capped with the `LSQCA_THREADS` environment variable
//! (`LSQCA_THREADS=1` forces serial execution, useful when benchmarking the
//! harness itself).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads to use for `n` independent jobs.
fn thread_count(jobs: usize) -> usize {
    let hardware = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cap = std::env::var("LSQCA_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(hardware);
    cap.min(hardware).min(jobs.max(1))
}

/// Applies `f` to every item, in parallel, returning results in input order.
///
/// `f` runs on multiple threads concurrently, so it must be `Sync`; panics in
/// a worker propagate to the caller.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let issue: Vec<usize> = (0..items.len()).collect();
    par_map_issued(items, &issue, f)
}

/// [`par_map`], with the jobs started in `issue` order: `issue[k]` is the
/// index of the `k`-th item to start, on whichever thread is free. The
/// results still come back in input order, so the output never depends on
/// the issue order or the thread count.
///
/// # Panics
///
/// Panics if `issue` is not a permutation of `0..items.len()`.
pub fn par_map_issued<T: Sync, R: Send>(
    items: &[T],
    issue: &[usize],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    // Equal lengths plus every slot filled below make `issue` a permutation.
    assert_eq!(
        issue.len(),
        items.len(),
        "issue order must cover every item"
    );

    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let run = |i: usize| {
        let result = f(&items[i]);
        *slots[i].lock().expect("result slot poisoned") = Some(result);
    };
    let threads = thread_count(items.len());
    if threads <= 1 || items.len() <= 1 {
        issue.iter().for_each(|&i| run(i));
    } else {
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    while let Some(&i) = issue.get(next.fetch_add(1, Ordering::Relaxed)) {
                        run(i);
                    }
                });
            }
        });
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every job index was claimed by a worker")
        })
        .collect()
}

/// The issue order for `groups` consecutive runs of `group_len` jobs each
/// (one run per workload): the first job of every group, in group order,
/// then every other job in index order.
pub fn leaders_first(groups: usize, group_len: usize) -> Vec<usize> {
    if group_len == 0 {
        return Vec::new();
    }
    let leaders = (0..groups).map(|g| g * group_len);
    let rest = (0..groups).flat_map(|g| g * group_len + 1..(g + 1) * group_len);
    leaders.chain(rest).collect()
}

/// Applies `f` to every item in parallel and concatenates the resulting
/// vectors in input order.
pub fn par_flat_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> Vec<R> + Sync) -> Vec<R> {
    par_map(items, f).into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_input_order() {
        let items: Vec<u64> = (0..200).collect();
        let doubled = par_map(&items, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs_work() {
        assert_eq!(par_map::<u32, u32>(&[], |&x| x), Vec::<u32>::new());
        assert_eq!(par_map(&[7], |&x| x + 1), vec![8]);
    }

    #[test]
    fn issued_results_keep_input_order() {
        let items: Vec<u64> = (0..12).collect();
        let issue = leaders_first(3, 4);
        assert_eq!(issue, vec![0, 4, 8, 1, 2, 3, 5, 6, 7, 9, 10, 11]);
        let out = par_map_issued(&items, &issue, |&x| x * 3);
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        assert_eq!(leaders_first(0, 5), Vec::<usize>::new());
        assert_eq!(leaders_first(4, 0), Vec::<usize>::new());
        assert_eq!(leaders_first(2, 1), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "claimed")]
    fn issue_order_must_not_repeat_an_item() {
        let _ = par_map_issued(&[1u32, 2, 3], &[0, 0, 2], |&x| x);
    }

    #[test]
    fn flat_map_concatenates_in_order() {
        let out = par_flat_map(&[1usize, 2, 3], |&n| vec![n; n]);
        assert_eq!(out, vec![1, 2, 2, 3, 3, 3]);
    }

    #[test]
    fn uneven_workloads_are_balanced() {
        // Jobs with wildly different costs still land in the right slots.
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(&items, |&x| {
            if x % 7 == 0 {
                // Simulate an expensive configuration.
                (0..20_000u64).fold(x, |acc, i| acc.wrapping_add(i))
            } else {
                x
            }
        });
        for (i, &x) in items.iter().enumerate() {
            if x % 7 != 0 {
                assert_eq!(out[i], x);
            }
        }
    }
}
