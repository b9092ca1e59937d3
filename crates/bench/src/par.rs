//! Thread-pool-free data parallelism for the figure sweeps.
//!
//! The build environment is offline, so `rayon` is unavailable; the sweeps use
//! `std::thread::scope` directly. [`par_map`] preserves input order, balances
//! load with an atomic work index (configurations differ wildly in cost — a
//! conventional-baseline run is orders of magnitude cheaper than a point-SAM
//! run), and degrades to a serial loop for tiny inputs or single-core hosts.
//! Jobs start in input order, on whichever thread is free.
//!
//! The sweep executor ([`crate::Plan::run`]) maps every store-backed
//! generator's cells through here, in the issue order it derives from the
//! plan.
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
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let run = |i: usize| {
        let result = f(&items[i]);
        *slots[i].lock().expect("result slot poisoned") = Some(result);
    };
    let threads = thread_count(items.len());
    if threads <= 1 || items.len() <= 1 {
        (0..items.len()).for_each(run);
    } else {
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    run(i);
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
