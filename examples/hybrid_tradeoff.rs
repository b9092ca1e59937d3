//! Hybrid floorplans: sweep the conventional-region fraction `f` and print the
//! memory-density / execution-time trade-off curve of Fig. 14 for one
//! benchmark, then compare the runtime hot-set migration policies (static /
//! LRU / frequency-decay) at a fixed fraction.
//!
//! ```text
//! cargo run --release --example hybrid_tradeoff [benchmark] [factories]
//! ```
//!
//! `benchmark` is one of `adder`, `bv`, `cat`, `ghz`, `multiplier`,
//! `square_root`, `select` (reduced instances are used so the sweep finishes in
//! seconds).

use lsqca::experiment::{ExperimentConfig, Workload};
use lsqca::prelude::*;

fn main() {
    let benchmark = std::env::args()
        .nth(1)
        .and_then(|name| Benchmark::from_name(&name))
        .unwrap_or(Benchmark::Multiplier);
    let factories: u32 = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(1);

    let circuit = benchmark.reduced_instance();
    println!(
        "hybrid-floorplan sweep for `{benchmark}` ({} qubits, {} gates), {factories} MSF",
        circuit.num_qubits(),
        circuit.len()
    );
    let workload = Workload::from_circuit(circuit);
    let baseline = workload.run(&ExperimentConfig::baseline(factories));

    for floorplan in [
        FloorplanKind::PointSam { banks: 1 },
        FloorplanKind::LineSam { banks: 1 },
        FloorplanKind::LineSam { banks: 4 },
    ] {
        println!("\n{}", floorplan.label());
        println!(
            "{:>6} {:>9} {:>10} {:>12}",
            "f", "density", "overhead", "hot qubits"
        );
        let mut f: f64 = 0.0;
        while f <= 1.0 + 1e-9 {
            let result = workload
                .run(&ExperimentConfig::new(floorplan, factories).with_hybrid_fraction(f.min(1.0)));
            println!(
                "{:>6.2} {:>8.1}% {:>9.2}x {:>12}",
                f,
                100.0 * result.memory_density,
                result.overhead_vs(&baseline),
                result.hot_qubits
            );
            f += 0.1;
        }
    }

    println!(
        "\nreading the curve: f = 0 is pure LSQCA (highest density), f = 1 matches the \
         conventional baseline (50% density, 1.00x time)."
    );

    // Runtime migration: same floorplan and hot-set budget, but the policy
    // may promote/demote qubits between the conventional region and the SAM
    // at runtime. `static` is the compile-time hot set above.
    let fraction = 0.10;
    println!("\nmigration policies at f = {fraction:.2} (Point #SAM=1 and DualPoint #SAM=1):");
    println!(
        "{:>28} {:>11} {:>11} {:>11} {:>11} {:>11}",
        "policy", "beats", "seek beats", "migrations", "mig beats", "vs static"
    );
    for floorplan in [
        FloorplanKind::PointSam { banks: 1 },
        FloorplanKind::DualPointSam { banks: 1 },
    ] {
        let base = ExperimentConfig::new(floorplan, factories).with_hybrid_fraction(fraction);
        let runs: Vec<_> = PolicyKind::ALL
            .into_iter()
            .map(|policy| (policy, workload.run(&base.clone().with_migration(policy))))
            .collect();
        let pinned = &runs
            .iter()
            .find(|(policy, _)| *policy == PolicyKind::Static)
            .expect("PolicyKind::ALL contains the static baseline")
            .1;
        for (policy, result) in &runs {
            println!(
                "{:>28} {:>11} {:>11} {:>11} {:>11} {:>10.2}x",
                format!("{} {}", floorplan.label(), policy),
                result.total_beats.as_u64(),
                result.stats.memory_access_beats.as_u64(),
                result.stats.migrations,
                result.stats.migration_beats.as_u64(),
                result.total_beats.as_f64() / pinned.total_beats.as_f64().max(1.0),
            );
        }
    }
    println!(
        "\nreading the policies: `lru` promotes on every cold access (zero seeks, heavy \
         migration traffic); `freq-decay` promotes only when a decayed access-frequency \
         score overtakes the coldest pinned qubit — fewer seeks than `static` at a \
         fraction of `lru`'s migration cost."
    );
}
