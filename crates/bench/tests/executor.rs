//! The sweep executor at one and at two threads: every point comes back
//! equal to an independent run, and a cell a plan lists twice is simulated
//! once, in one memory walk for all its factory counts.
//!
//! The thread count and the simulation counters are process-wide, so this
//! binary holds a single test.

use lsqca::experiment::ExperimentConfig;
use lsqca::prelude::*;
use lsqca::sim::{memory_walk_count, simulation_count};
use lsqca_bench::{Plan, Scale, WorkloadHandle};
use lsqca_store::ResultStore;

#[test]
fn plans_run_each_distinct_cell_once_at_one_and_two_threads() {
    let workloads =
        [Benchmark::Ghz, Benchmark::SquareRoot].map(|b| WorkloadHandle::benchmark(b, Scale::Quick));
    let bases = [
        ExperimentConfig::baseline(1),
        ExperimentConfig::new(FloorplanKind::PointSam { banks: 2 }, 1).with_hybrid_fraction(0.25),
        ExperimentConfig::new(FloorplanKind::LineSam { banks: 1 }, 1),
    ];
    let mut plan = Plan::new(&[1, 2, 4]);
    for workload in &workloads {
        // The first base is listed twice.
        for base in bases.iter().chain(&bases[..1]) {
            plan.cell(workload, base.clone());
        }
    }
    for threads in ["1", "2"] {
        std::env::set_var("LSQCA_THREADS", threads);
        let (runs, walks) = (simulation_count(), memory_walk_count());
        let results = plan.run_in(&ResultStore::disabled());
        // Two workloads × three distinct cells, one walk per cell for its
        // three factory counts.
        assert_eq!(simulation_count() - runs, 18, "{threads} threads");
        assert_eq!(memory_walk_count() - walks, 6, "{threads} threads");
        for workload in &workloads {
            for base in &bases {
                for factories in [1, 2, 4] {
                    let config = ExperimentConfig {
                        factories,
                        ..base.clone()
                    };
                    let expected = workload.workload().run(&config);
                    assert_eq!(
                        results.stats(workload, base, factories),
                        &expected.stats,
                        "{threads} threads: {}",
                        expected.config_label
                    );
                }
            }
        }
    }
}
