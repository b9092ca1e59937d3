//! The parallel ablation and headline job lists keep every store check: a
//! rerun against a warm result store compiles no workload and simulates no
//! point, and prints the same report.
//!
//! The store is the process-wide one (`LSQCA_STORE_DIR`), so this binary
//! holds a single test.

use lsqca::sim::simulation_count;
use lsqca::workloads::compile_count;
use lsqca_bench::{report, result_store, Scale};
use lsqca_store::TempDir;

#[test]
fn warm_ablation_and_headline_reruns_compile_and_simulate_nothing() {
    let dir = TempDir::new("itest-warm");
    // Set before the first sweep: the process-wide store reads it once.
    std::env::set_var("LSQCA_STORE_DIR", dir.path());

    // Three benchmarks × two in-memory-ops arms × three points, and the
    // four headline points.
    for (command, points) in [("ablation", 18), ("headline", 4)] {
        let before = result_store().stats();
        let cold = report(command, Scale::Quick, true);
        let warmed = result_store().stats();
        assert_eq!(warmed.computed - before.computed, points, "{command}: cold");

        let (compiles, runs) = (compile_count(), simulation_count());
        let warm = report(command, Scale::Quick, true);
        let after = result_store().stats();
        assert_eq!(compile_count() - compiles, 0, "{command}: warm compiles");
        assert_eq!(simulation_count() - runs, 0, "{command}: warm simulations");
        assert_eq!(after.computed, warmed.computed, "{command}: warm computed");
        assert_eq!(after.hits - warmed.hits, points, "{command}: warm hits");
        assert_eq!(warm, cold, "{command}: warm report bytes");
    }
}
