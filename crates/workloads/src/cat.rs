//! Cat-state preparation benchmark.
//!
//! The QASMBench `cat` circuit prepares the same state family as `ghz` but
//! fans the entangling CNOTs out from the first qubit instead of chaining them,
//! giving it much higher instruction-level parallelism on an architecture that
//! allows it. Like `ghz` and `bv` it is purely Clifford, so no magic-state
//! bottleneck exists to hide LSQCA's load/store latency behind — the paper uses
//! it as one of the adversarial cases in Fig. 13/14.

use lsqca_circuit::register::RegisterRole;
use lsqca_circuit::Circuit;

/// Emission-logic revision of this generator, part of the workload key (see
/// `lsqca_workloads::workload_key`) that result-store records and cached
/// artifacts are keyed on. Bump it whenever the circuit emitted for an
/// *unchanged* configuration changes, so stale records and artifacts are
/// never found again; a config-field change already changes the key by itself.
pub const REVISION: u32 = 1;

/// Parameters of the cat-state benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatConfig {
    /// Number of qubits in the cat state.
    pub qubits: u32,
}

impl CatConfig {
    /// The paper's instance (260 qubits).
    pub const fn paper() -> Self {
        CatConfig { qubits: 260 }
    }
}

impl Default for CatConfig {
    fn default() -> Self {
        CatConfig::paper()
    }
}

/// Generates the cat-state preparation circuit: `H` on qubit 0 followed by a
/// CNOT fan-out `0→q` for every other qubit, then Z measurements.
///
/// # Panics
///
/// Panics if `config.qubits` is zero.
pub fn cat_state(config: CatConfig) -> Circuit {
    assert!(config.qubits > 0, "cat state needs at least one qubit");
    let mut circuit = Circuit::with_registers(format!("cat_n{}", config.qubits));
    let data = circuit.add_register("data", RegisterRole::Operand, config.qubits);
    for q in data.clone() {
        circuit.prep_z(q);
    }
    circuit.h(data.start);
    for q in data.start + 1..data.end {
        circuit.cnot(data.start, q);
    }
    for q in data {
        circuit.measure_z(q);
    }
    circuit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_instance_has_260_qubits() {
        let c = cat_state(CatConfig::paper());
        assert_eq!(c.num_qubits(), 260);
    }

    #[test]
    fn structure_is_clifford_fanout() {
        let c = cat_state(CatConfig { qubits: 8 });
        let stats = c.stats();
        assert_eq!(stats.two_qubit_gates, 7);
        assert_eq!(stats.t_count, 0);
        assert!(c.is_lowered());
        // Every CNOT shares the source qubit, so the dependency graph is still
        // a chain on qubit 0 even though the targets are disjoint.
        assert!(crate::asap_depth(&c) >= 8);
    }

    #[test]
    #[should_panic(expected = "at least one qubit")]
    fn zero_qubits_panics() {
        let _ = cat_state(CatConfig { qubits: 0 });
    }
}
