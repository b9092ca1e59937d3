//! A factory group under a shard plan: the keys another shard owns and the
//! quarantined keys are neither computed nor published here, while the
//! group's owned keys still share one memory walk.
//!
//! The shard plan is process-wide, so this binary holds a single test.

use lsqca::experiment::ExperimentConfig;
use lsqca::prelude::*;
use lsqca::sim::{memory_walk_count, simulation_count};
use lsqca_bench::supervisor::{self, owning_shard};
use lsqca_bench::{stored_runs_in, Scale, WorkloadHandle};
use lsqca_store::{DiskIo, QuarantineEntry, QuarantineLog, ResultStore, TempDir};
use std::sync::Arc;

#[test]
fn groups_compute_and_publish_only_their_owned_keys() {
    let temp = TempDir::new("itest-shard-groups");
    let dir = temp.path();
    std::fs::create_dir_all(dir).unwrap();
    let handle = WorkloadHandle::benchmark(Benchmark::Ghz, Scale::Quick);
    let base = ExperimentConfig::new(FloorplanKind::PointSam { banks: 1 }, 1);
    let factories: Vec<u32> = (1..=8).collect();
    let keys: Vec<String> = factories
        .iter()
        .map(|&factories| {
            handle.result_key(&ExperimentConfig {
                factories,
                ..base.clone()
            })
        })
        .collect();

    // As worker 0 of 2: quarantine the first key this shard owns.
    let owned: Vec<usize> = (0..keys.len())
        .filter(|&i| owning_shard(&keys[i], 2) == 0)
        .collect();
    assert!(owned.len() >= 2 && owned.len() < keys.len(), "{owned:?}");
    let quarantined = owned[0];
    QuarantineLog::new(Arc::new(DiskIo), dir, "0")
        .append(&QuarantineEntry {
            attempts: 3,
            key: keys[quarantined].clone(),
        })
        .unwrap();
    supervisor::install_worker(0, 2, dir);
    let computes: Vec<bool> = keys.iter().map(|k| supervisor::should_compute(k)).collect();
    let computed_count = computes.iter().filter(|&&c| c).count() as u64;
    assert_eq!(computed_count, owned.len() as u64 - 1);

    let store = ResultStore::at(dir);
    let (runs, walks) = (simulation_count(), memory_walk_count());
    let stats = stored_runs_in(&store, &handle, &base, &factories);
    assert_eq!(store.stats().computed, computed_count);
    assert_eq!(simulation_count() - runs, computed_count);
    assert_eq!(
        memory_walk_count() - walks,
        1,
        "the owned keys share one walk"
    );

    let reopened = ResultStore::at(dir);
    for (i, &factories) in factories.iter().enumerate() {
        if computes[i] {
            let expected = handle
                .workload()
                .run(&ExperimentConfig {
                    factories,
                    ..base.clone()
                })
                .stats;
            assert_eq!(stats[i], expected);
            assert!(reopened.probe(&keys[i]).is_some(), "owned key published");
        } else {
            assert_eq!(stats[i], ExecutionStats::default(), "placeholder");
            assert!(
                reopened.probe(&keys[i]).is_none(),
                "a foreign or quarantined key is never published"
            );
        }
    }
}
