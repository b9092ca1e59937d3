//! Factory sweeps share one memory walk per cell, yet go through the result
//! store point by point: against a store that already holds some factory
//! counts, a sweep computes exactly the missing ones, in one walk per cell,
//! and every point is bit-identical to an independent run.
//!
//! The store is the process-wide one (`LSQCA_STORE_DIR`), so this binary
//! holds a single test.

use lsqca::experiment::ExperimentConfig;
use lsqca::prelude::*;
use lsqca::sim::{memory_walk_count, simulation_count};
use lsqca_bench::{fig13, result_store, Scale, WorkloadHandle};
use lsqca_json::ToJson;
use lsqca_store::TempDir;

#[test]
fn quick_fig13_computes_only_the_missing_factory_counts() {
    let dir = TempDir::new("itest-groups");
    // Set before the first sweep: the process-wide store reads it once.
    std::env::set_var("LSQCA_STORE_DIR", dir.path());
    let benchmarks = [Benchmark::Ghz, Benchmark::SquareRoot];
    let cells = (benchmarks.len() * ArchConfig::paper_floorplans().len()) as u64;

    // Warm the store with the 2-MSF records only.
    let warm = fig13::generate(Scale::Quick, &benchmarks, &[2]);
    let store = result_store();
    let warmed = store.stats();
    assert_eq!(warmed.computed, cells);

    let (runs, walks) = (simulation_count(), memory_walk_count());
    let swept = fig13::generate(Scale::Quick, &benchmarks, &[1, 2, 4]);
    let stats = store.stats();
    assert_eq!(
        stats.computed - warmed.computed,
        2 * cells,
        "1 and 4 MSF computed"
    );
    assert_eq!(
        stats.hits - warmed.hits,
        cells,
        "2 MSF served from the store"
    );
    assert_eq!(simulation_count() - runs, 2 * cells);
    assert_eq!(
        memory_walk_count() - walks,
        cells,
        "one shared walk per cell"
    );

    // The stored 2-MSF points come back unchanged.
    let render = |points: Vec<&fig13::Point>| -> Vec<String> {
        points.iter().map(|p| p.to_json().pretty()).collect()
    };
    assert_eq!(
        render(swept.iter().filter(|p| p.factories == 2).collect()),
        render(warm.iter().collect())
    );

    // Every point, computed or served, equals an independent run.
    let mut points = swept.iter();
    for benchmark in benchmarks {
        let handle = WorkloadHandle::benchmark(benchmark, Scale::Quick);
        for factories in [1, 2, 4] {
            for floorplan in ArchConfig::paper_floorplans() {
                let point = points.next().unwrap();
                let expected = handle
                    .workload()
                    .run(&ExperimentConfig::new(floorplan, factories))
                    .stats;
                assert_eq!(
                    (
                        point.benchmark.as_str(),
                        point.floorplan.clone(),
                        point.factories
                    ),
                    (benchmark.name(), floorplan.label(), factories)
                );
                assert_eq!(point.cpi.to_bits(), expected.cpi().to_bits());
                assert_eq!(point.beats, expected.total_beats.as_u64());
                assert_eq!(point.density.to_bits(), expected.memory_density.to_bits());
            }
        }
    }
    assert!(points.next().is_none());
}
