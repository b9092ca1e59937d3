//! Quickstart: compile a small circuit, run it on LSQCA and on the
//! conventional baseline, and compare memory density and execution time.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use lsqca::experiment::{ExperimentConfig, Workload};
use lsqca::prelude::*;

fn main() {
    // 1. Describe a logical circuit: a tiny arithmetic kernel with a few
    //    T gates (magic-state consumers) and CNOTs.
    let mut circuit = Circuit::new("quickstart", 8);
    for q in 0..8 {
        circuit.prep_z(q);
        circuit.h(q);
    }
    for q in 0..7 {
        circuit.toffoli(q, q + 1, (q + 2) % 8);
    }
    for q in 0..8 {
        circuit.measure_z(q);
    }
    println!("circuit: {}", circuit.stats());

    // 2. Compile it once into the LSQCA instruction set (Table I).
    let workload = Workload::from_circuit(circuit);
    println!(
        "compiled into {} instructions using {} data qubits",
        workload.compiled().trace().instruction_count(),
        workload.num_qubits()
    );

    // 3. Simulate on a point SAM and on the conventional 50%-density baseline.
    let lsqca_cfg = ExperimentConfig::new(FloorplanKind::PointSam { banks: 1 }, 1);
    let (lsqca, baseline) = workload.run_with_baseline(&lsqca_cfg);

    println!(
        "\n{:<28} {:>10} {:>8} {:>9}",
        "floorplan", "beats", "CPI", "density"
    );
    for result in [&baseline, &lsqca] {
        println!(
            "{:<28} {:>10} {:>8.2} {:>8.1}%",
            result.config_label,
            result.total_beats.as_u64(),
            result.cpi,
            100.0 * result.memory_density
        );
    }
    println!(
        "\nLSQCA stores the same program in {} cells instead of {} ({:+.1}% density) \
         at {:.1}% extra execution time.",
        lsqca.total_cells,
        baseline.total_cells,
        100.0 * (lsqca.memory_density - baseline.memory_density),
        100.0 * (lsqca.overhead_vs(&baseline) - 1.0)
    );
}
