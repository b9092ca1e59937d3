//! Sweep points key on the workload descriptor, so a point that is served
//! from the result store, or rendered as a placeholder because another shard
//! owns it, never builds its workload.
//!
//! The shard plan is process-wide, so this binary holds a single test.

use lsqca::experiment::ExperimentConfig;
use lsqca::prelude::*;
use lsqca_bench::supervisor::{self, owning_shard};
use lsqca_bench::{stored_run_in, Scale, WorkloadHandle};
use lsqca_store::{ResultStore, TempDir};

fn ghz() -> WorkloadHandle {
    WorkloadHandle::benchmark(Benchmark::Ghz, Scale::Quick)
}

#[test]
fn store_hits_and_foreign_shard_placeholders_never_build_the_workload() {
    let configs: Vec<ExperimentConfig> = [1, 4]
        .into_iter()
        .flat_map(|factories| {
            ArchConfig::paper_floorplans()
                .into_iter()
                .map(move |floorplan| ExperimentConfig::new(floorplan, factories))
        })
        .collect();

    // Warm a store with every point; computing them builds the workload.
    let warm_dir = TempDir::new("itest-lazy-warm");
    let store = ResultStore::at(warm_dir.path());
    let cold = ghz();
    let expected: Vec<ExecutionStats> = configs
        .iter()
        .map(|config| stored_run_in(&store, &cold, config))
        .collect();
    assert!(cold.is_compiled());
    assert_eq!(store.stats().computed, configs.len() as u64);

    // Store hits: a fresh handle over the warm store builds nothing.
    let reopened = ResultStore::at(warm_dir.path());
    let fresh = ghz();
    for (config, stats) in configs.iter().zip(&expected) {
        assert_eq!(&stored_run_in(&reopened, &fresh, config), stats);
    }
    assert!(
        !fresh.is_compiled(),
        "a store hit must not build the workload"
    );
    assert_eq!(reopened.stats().hits, configs.len() as u64);
    assert_eq!(reopened.stats().computed, 0);

    // Placeholders: as worker 0 of 2 over an empty store, every point shard 1
    // owns renders as default statistics without building anything.
    let shard_dir = TempDir::new("itest-lazy-shard");
    supervisor::install_worker(0, 2, shard_dir.path());
    let empty = ResultStore::at(shard_dir.path());
    let handle = ghz();
    let (foreign, owned): (Vec<_>, Vec<_>) = configs
        .iter()
        .partition(|config| owning_shard(&handle.result_key(config), 2) == 1);
    assert!(!foreign.is_empty() && !owned.is_empty());
    for config in &foreign {
        assert_eq!(
            stored_run_in(&empty, &handle, config),
            ExecutionStats::default()
        );
    }
    assert!(
        !handle.is_compiled(),
        "a foreign shard's placeholder must not build the workload"
    );
    assert_eq!(empty.stats().computed, 0);

    // The first point this shard owns builds it, with the stored result.
    let index = configs.iter().position(|c| c == owned[0]).unwrap();
    assert_eq!(stored_run_in(&empty, &handle, owned[0]), expected[index]);
    assert!(handle.is_compiled());
}
