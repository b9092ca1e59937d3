//! Benchmark workload generators for the LSQCA evaluation.
//!
//! The paper evaluates LSQCA on seven programs (Sec. III-B and VI-B):
//!
//! | benchmark | logical qubits | source in the paper |
//! |---|---|---|
//! | `adder` | 433 | QASMBench quantum adder |
//! | `bv` | 280 | Bernstein–Vazirani |
//! | `cat` | 260 | cat-state preparation |
//! | `ghz` | 127 | GHZ-state preparation |
//! | `multiplier` | 400 | QASMBench integer multiplier |
//! | `square_root` | 60 | square root via amplitude amplification |
//! | `select` | 143 (11×11 Heisenberg) | SELECT for 2-D Heisenberg models |
//!
//! The original circuits are QASMBench netlists and an in-house SELECT
//! synthesizer; this crate rebuilds structurally equivalent circuits from
//! scratch (same register widths, same arithmetic/iteration structure, same
//! Toffoli/T density), which is what the density/CPI evaluation depends on.
//! Every generator is parameterized so both the paper's instance sizes and
//! smaller test instances can be produced.
//!
//! # Example
//!
//! ```
//! use lsqca_workloads::{Benchmark, paper_qubit_count};
//!
//! let circuit = Benchmark::Ghz.paper_instance();
//! assert_eq!(circuit.num_qubits(), paper_qubit_count(Benchmark::Ghz));
//! assert_eq!(circuit.num_qubits(), 127);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adder;
pub mod bv;
pub mod cache;
pub mod cat;
pub mod compiled;
pub mod ghz;
pub mod multiplier;
pub mod registry;
pub mod select;
pub mod square_root;

pub use adder::{ripple_carry_adder, AdderConfig};
pub use bv::{bernstein_vazirani, BvConfig};
pub use cache::{CacheEvent, CacheStats, InvalidationReason, WorkloadCache};
pub use cat::{cat_state, CatConfig};
pub use compiled::{compile_count, workload_key, ArtifactError, CompiledWorkload, ARTIFACT_SCHEMA};
pub use ghz::{ghz_state, GhzConfig};
pub use multiplier::{shift_add_multiplier, MultiplierConfig};
pub use registry::{paper_qubit_count, Benchmark, BenchmarkConfig, InstanceSize};
pub use select::{select_heisenberg, HeisenbergModel, SelectConfig};
pub use square_root::{square_root_search, SquareRootConfig};

/// The ASAP logical depth of `circuit`: each gate lands one layer after the
/// latest gate on any qubit it touches.
#[cfg(test)]
fn asap_depth(circuit: &lsqca_circuit::Circuit) -> usize {
    let mut layer_of = std::collections::HashMap::new();
    for gate in circuit.gates() {
        let qubits = gate.qubits();
        let latest = qubits.iter().filter_map(|q| layer_of.get(q)).max();
        let layer = 1 + latest.copied().unwrap_or(0);
        layer_of.extend(qubits.into_iter().map(|q| (q, layer)));
    }
    layer_of.into_values().max().unwrap_or(0)
}
