//! The multiplier headline claim: ≈87% memory density for a few percent of
//! execution time (line SAM, one bank, one magic-state factory).
//!
//! Runs the shift-and-add multiplier benchmark at a configurable operand width
//! (the paper uses 100-bit operands = 400 logical qubits) and prints the
//! density/overhead trade-off for every SAM design and factory count.
//!
//! ```text
//! cargo run --release --example multiplier_density [operand_bits]
//! ```

use lsqca::experiment::{ExperimentConfig, Workload};
use lsqca::prelude::*;
use lsqca::workloads::{shift_add_multiplier, MultiplierConfig};

fn main() {
    let operand_bits: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(24);
    let config = MultiplierConfig {
        operand_bits,
        partial_products: None,
    };
    println!(
        "shift-and-add multiplier: {}-bit operands, {} logical qubits",
        operand_bits,
        config.total_qubits()
    );
    let circuit = shift_add_multiplier(config);
    println!("synthesized circuit: {}", circuit.stats());
    let workload = Workload::from_circuit(circuit);
    println!(
        "compiled into {} instructions, {} magic states",
        workload.compiled().trace().instruction_count(),
        workload.compiled().t_gates()
    );

    for factories in [1u32, 2, 4] {
        let baseline = workload.run(&ExperimentConfig::baseline(factories));
        println!(
            "\n--- {factories} magic-state factor{} ---",
            if factories == 1 { "y" } else { "ies" }
        );
        println!(
            "{:<18} {:>12} {:>9} {:>10}",
            "floorplan", "beats", "density", "overhead"
        );
        println!(
            "{:<18} {:>12} {:>8.1}% {:>10}",
            "Conventional",
            baseline.total_beats.as_u64(),
            100.0 * baseline.memory_density,
            "1.00x"
        );
        for floorplan in [
            FloorplanKind::PointSam { banks: 1 },
            FloorplanKind::PointSam { banks: 2 },
            FloorplanKind::LineSam { banks: 1 },
            FloorplanKind::LineSam { banks: 2 },
            FloorplanKind::LineSam { banks: 4 },
        ] {
            let result = workload.run(&ExperimentConfig::new(floorplan, factories));
            println!(
                "{:<18} {:>12} {:>8.1}% {:>9.2}x",
                floorplan.label(),
                result.total_beats.as_u64(),
                100.0 * result.memory_density,
                result.overhead_vs(&baseline)
            );
        }
    }
}
