//! Property tests for the crash-safety contract: under any seeded fault
//! schedule or kill-point the store returns correct payloads, and what it
//! leaves on disk is either fully consistent or cleanly quarantined — never a
//! silently wrong record — and a torn tail never costs a later record.

use lsqca_json::Json;
use lsqca_store::{FaultPlan, FaultyIo, ResultStore, StoreEvent, StoreIo};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

const POINTS: u64 = 10;

fn key(n: u64) -> String {
    format!("workload-{n}|experiment=point-{n}|isa=v1")
}

/// Ground-truth payload for point `n` — what an uninterrupted run computes.
fn truth(n: u64) -> Json {
    Json::obj([
        ("point", Json::U64(n)),
        ("total_beats", Json::U64(1000 + 7 * n)),
        ("cpi", Json::F64(1.25 + n as f64 / 8.0)),
    ])
}

fn store_over(io: Arc<FaultyIo>) -> ResultStore {
    ResultStore::with_io(Some(PathBuf::from("/store")), io)
}

/// Render the merged report the way the experiments CLI does: every point's
/// payload pretty-printed in sweep order.
fn merged_report(store: &ResultStore) -> String {
    (0..POINTS)
        .map(|n| store.load_or_compute(&key(n), || truth(n)).0.pretty())
        .collect::<Vec<_>>()
        .join("\n")
}

proptest! {
    /// A sweep killed at a random operation and resumed over the surviving
    /// image produces a byte-identical merged report versus an uninterrupted
    /// run, without recomputing the surviving prefix.
    #[test]
    fn kill_at_any_point_then_resume_is_byte_identical(kill_op in 1u64..120) {
        let clean = merged_report(&store_over(Arc::new(FaultyIo::reliable())));

        let io = Arc::new(FaultyIo::with_plan(FaultPlan {
            kill_at_op: Some(kill_op),
            ..FaultPlan::default()
        }));
        // First pass: the process dies at `kill_op`; whatever it computed
        // after that point never became durable.
        merged_report(&store_over(io.clone()));
        io.revive();

        let resumed = store_over(io);
        prop_assert_eq!(merged_report(&resumed), clean);
        let stats = resumed.stats();
        prop_assert_eq!(stats.hits + stats.computed, POINTS);
        prop_assert_eq!(stats.quarantined, 0);
    }

    /// Every seeded fault-injection schedule (short writes, ENOSPC, EIO)
    /// yields correct results during the faulty run, and leaves the
    /// store either consistent or cleanly quarantined: a later clean run over
    /// the same image never observes a wrong payload.
    #[test]
    fn fault_schedules_never_corrupt_served_results(
        seed in 0u64..1_000_000,
        permille in 50u32..450,
        crash_after in proptest::bool::ANY,
    ) {
        let io = Arc::new(FaultyIo::seeded(seed, permille));
        let store = store_over(io.clone());
        for n in 0..POINTS {
            let (value, event) = store.load_or_compute(&key(n), || truth(n));
            prop_assert_eq!(value, truth(n), "faulty run served a wrong payload");
            prop_assert_ne!(
                event,
                StoreEvent::Hit,
                "a fresh store has nothing to hit on the first pass"
            );
        }
        if crash_after {
            io.crash();
        }

        // Clean pass over whatever the faulty run left behind: every key is
        // either a verified hit with the true payload, a recomputation, or a
        // quarantine-and-recompute — never a silent wrong value.
        io.set_plan(FaultPlan::default());
        let clean = store_over(io);
        for n in 0..POINTS {
            let (value, _event) = clean.load_or_compute(&key(n), || truth(n));
            prop_assert_eq!(value, truth(n), "surviving store image served a wrong payload");
        }
        let stats = clean.stats();
        prop_assert_eq!(stats.hits + stats.computed + stats.quarantined, POINTS);
    }

    /// The resume report over a faulted image accounts for every key it
    /// found: verified keys are exactly the resumed run's hits, and
    /// quarantined keys exactly its quarantine-and-recompute misses.
    #[test]
    fn resume_verification_is_conservative(seed in 0u64..1_000_000, permille in 50u32..450) {
        let io = Arc::new(FaultyIo::seeded(seed, permille));
        merged_report(&store_over(io.clone()));
        io.crash();
        io.set_plan(FaultPlan::default());

        let resumed = store_over(io.clone());
        let report = resumed.verify_resume();
        prop_assert_eq!(report.verified + report.quarantined, report.journaled);
        prop_assert!(report.journaled as u64 <= POINTS);

        // After verification, a full resume still reconstructs ground truth.
        for n in 0..POINTS {
            let (value, _) = resumed.load_or_compute(&key(n), || truth(n));
            prop_assert_eq!(value, truth(n));
        }
        let stats = resumed.stats();
        prop_assert_eq!(stats.hits, report.verified as u64);
        prop_assert_eq!(stats.quarantined, report.quarantined as u64);
    }

    /// A kill can tear the line in flight (the process dies mid-`write`, and
    /// the page cache keeps part of it). The first resume appends after the
    /// torn tail on a fresh line, so a second resume finds every record:
    /// none is lost by concatenation.
    #[test]
    fn resuming_twice_after_a_torn_kill_is_all_hits(
        kill_op in 1u64..30,
        tear_permille in 1usize..1000,
    ) {
        let clean_io = Arc::new(FaultyIo::reliable());
        let clean = merged_report(&store_over(clean_io.clone()));
        let (log, full) = clean_io
            .files_snapshot()
            .into_iter()
            .next()
            .expect("the clean run wrote its log");

        let io = Arc::new(FaultyIo::with_plan(FaultPlan {
            kill_at_op: Some(kill_op),
            ..FaultPlan::default()
        }));
        merged_report(&store_over(io.clone()));
        io.revive();
        let durable = io.files_snapshot().remove(&log).unwrap_or_default();
        prop_assert!(full.starts_with(&durable), "the killed log is a prefix");
        if let Some(line_len) = full[durable.len()..].iter().position(|&b| b == b'\n') {
            // Tear the next line somewhere short of its newline.
            let cut = (line_len * tear_permille / 1000).max(1);
            io.append(&log, &full[durable.len()..durable.len() + cut]).unwrap();
        }

        let first = store_over(io.clone());
        prop_assert_eq!(merged_report(&first), clean.clone());
        let second = store_over(io);
        prop_assert_eq!(merged_report(&second), clean);
        prop_assert_eq!(second.stats().hits, POINTS);
    }
}
