//! End-to-end tests of the crash-safe result store: a warm store serves a full
//! sweep with zero simulation, a sweep killed mid-run resumes to a byte-
//! identical report, and tampered records are quarantined, never served.

use lsqca::experiment::ExperimentConfig;
use lsqca::prelude::*;
use lsqca::sim::simulation_count;
use lsqca_bench::{stored_run_in, Scale, WorkloadHandle};
use lsqca_json::ToJson;
use lsqca_store::{FaultPlan, FaultyIo, ResultStore, StoreEvent};
use std::sync::{Arc, Mutex, MutexGuard};

/// `simulation_count()` is process-global, so tests that assert on its deltas
/// must not interleave with other simulating tests in this binary.
static SIMS: Mutex<()> = Mutex::new(());

fn sim_lock() -> MutexGuard<'static, ()> {
    SIMS.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_store(tag: &str) -> ResultStore {
    let dir = std::env::temp_dir().join(format!("lsqca-itest-store-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ResultStore::at(dir)
}

fn sweep_workloads() -> Vec<WorkloadHandle> {
    [Benchmark::Ghz, Benchmark::Cat]
        .iter()
        .map(|&b| WorkloadHandle::benchmark(b, Scale::Quick))
        .collect()
}

fn sweep_configs() -> Vec<ExperimentConfig> {
    vec![
        ExperimentConfig::baseline(1),
        ExperimentConfig::new(FloorplanKind::PointSam { banks: 1 }, 1),
        ExperimentConfig::new(FloorplanKind::LineSam { banks: 1 }, 2),
    ]
}

/// The report a sweep driver would merge: every point's rendered result, in
/// sweep order. Byte-compared across interrupted/resumed/clean runs.
fn merged_report(store: &ResultStore, workloads: &[WorkloadHandle]) -> String {
    let mut report = String::new();
    for workload in workloads {
        for config in sweep_configs() {
            let stats = stored_run_in(store, workload, &config);
            report.push_str(&format!(
                "{} beats={} cpi={:.6} density={:.6}\n",
                workload.result_key(&config),
                stats.total_beats.as_u64(),
                stats.cpi(),
                stats.memory_density,
            ));
        }
    }
    report
}

/// The acceptance criterion of the result store: once the store is warm,
/// re-running a whole sweep simulates nothing — the simulation counter stays
/// exactly flat while every point is still reported identically.
#[test]
fn warm_store_sweep_performs_zero_simulation() {
    let _serial = sim_lock();
    let store = temp_store("sweep");
    let workloads = sweep_workloads();

    let cold = merged_report(&store, &workloads);
    let sims_after_cold = simulation_count();

    // Same directory, fresh process state: everything must come off disk.
    let warm_store = ResultStore::at(store.dir().unwrap());
    let warm = merged_report(&warm_store, &workloads);
    assert_eq!(
        simulation_count(),
        sims_after_cold,
        "the warm-store sweep must perform zero simulation"
    );
    assert_eq!(cold, warm, "store-served results must render identically");
    let stats = warm_store.stats();
    assert_eq!(stats.hits, 6);
    assert_eq!(stats.computed, 0);
    assert_eq!(stats.quarantined, 0);
}

/// A sweep killed at an arbitrary backend operation and then resumed over the
/// surviving (durable) image produces the same merged report as a never-
/// interrupted run, and the resume audit accounts for every journaled point.
#[test]
fn killed_sweep_resumes_to_an_identical_report() {
    let _serial = sim_lock();
    let workloads = sweep_workloads();

    // Reference: clean, uninterrupted, store-free run.
    let clean = merged_report(&ResultStore::disabled(), &workloads);

    for kill_at_op in [3, 7, 13, 29] {
        let io = Arc::new(FaultyIo::with_plan(FaultPlan {
            kill_at_op: Some(kill_at_op),
            ..FaultPlan::default()
        }));
        let dir = std::path::PathBuf::from("/store");
        let store = ResultStore::with_io(Some(dir.clone()), io.clone());

        // The killed process: backend ops start failing mid-sweep, the store
        // degrades to memory, and the report still comes out right.
        let interrupted = merged_report(&store, &workloads);
        assert_eq!(interrupted, clean, "kill at op {kill_at_op}");

        // SIGKILL: volatile state is gone, only synced records survive.
        io.crash();
        io.revive();

        let resumed_store = ResultStore::with_io(Some(dir), io.clone());
        let audit = resumed_store.verify_resume();
        assert_eq!(
            (audit.verified, audit.quarantined, audit.torn_lines),
            (audit.journaled, 0, 0),
            "a kill leaves only whole, verifying lines (kill at op {kill_at_op})"
        );
        let resumed = merged_report(&resumed_store, &workloads);
        assert_eq!(
            resumed, clean,
            "resumed report must be byte-identical (kill at op {kill_at_op})"
        );
        let stats = resumed_store.stats();
        assert_eq!(
            stats.hits, audit.verified as u64,
            "every synced record must survive the crash as a hit (kill at op {kill_at_op})"
        );
        assert_eq!(stats.hits + stats.computed, 6);
        assert_eq!(stats.quarantined, 0);
    }
}

/// A record whose payload was altered on disk fails its checksum, is
/// reported as quarantined, and the point is recomputed — a tampered store
/// can slow a sweep down but never change its numbers.
#[test]
fn tampered_records_are_quarantined_and_recomputed() {
    let _serial = sim_lock();
    let store = temp_store("tamper");
    let workload = &sweep_workloads()[0];
    let config = ExperimentConfig::baseline(1);
    let pristine = stored_run_in(&store, workload, &config);

    // Corrupt the payload of the single record in the store's one log.
    let dir = store.dir().unwrap().to_path_buf();
    let files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    assert_eq!(
        files.len(),
        1,
        "one results log, no per-record files: {files:?}"
    );
    let log = &files[0];
    let text = std::fs::read_to_string(log).unwrap();
    let beats = format!("\"total_beats\":{},", pristine.total_beats.as_u64());
    assert_eq!(text.lines().count(), 1, "the run above stored one record");
    assert!(text.contains(&beats), "fixture drift: {text}");
    std::fs::write(log, text.replace(&beats, "\"total_beats\":1,")).unwrap();

    let reopened = ResultStore::at(&dir);
    let key = workload.result_key(&config);
    let (_, event) =
        reopened.load_or_compute(&key, || workload.workload().run(&config).stats.to_json());
    assert!(
        matches!(event, StoreEvent::Quarantined(_)),
        "checksum must catch the edit: {event:?}"
    );
    let recomputed = stored_run_in(&reopened, workload, &config);
    assert_eq!(recomputed.total_beats, pristine.total_beats);
    let text = std::fs::read_to_string(log).unwrap();
    assert!(
        text.contains("\"total_beats\":1,"),
        "the bad record must be preserved for inspection"
    );
    assert!(text.contains(&beats), "the recomputed record follows it");
}
