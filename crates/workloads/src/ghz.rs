//! GHZ-state preparation benchmark.
//!
//! The QASMBench `ghz` circuit prepares `(|0…0⟩ + |1…1⟩)/√2` with one Hadamard
//! followed by a chain of CNOTs. It is purely Clifford (no magic states) and has
//! almost no instruction-level parallelism, which is exactly why the paper uses
//! it as a stress case where load/store latency cannot hide behind the
//! magic-state bottleneck.

use lsqca_circuit::register::RegisterRole;
use lsqca_circuit::Circuit;

/// Emission-logic revision of this generator, part of the workload key (see
/// `lsqca_workloads::workload_key`) that result-store records and cached
/// artifacts are keyed on. Bump it whenever the circuit emitted for an
/// *unchanged* configuration changes, so stale records and artifacts are
/// never found again; a config-field change already changes the key by itself.
pub const REVISION: u32 = 1;

/// Parameters of the GHZ benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GhzConfig {
    /// Number of qubits in the GHZ state.
    pub qubits: u32,
}

impl GhzConfig {
    /// The paper's instance (127 qubits).
    pub const fn paper() -> Self {
        GhzConfig { qubits: 127 }
    }
}

impl Default for GhzConfig {
    fn default() -> Self {
        GhzConfig::paper()
    }
}

/// Generates the GHZ-state preparation circuit: `H` on qubit 0 followed by a
/// CNOT chain `0→1→2→…`, then a Z measurement of every qubit.
///
/// # Panics
///
/// Panics if `config.qubits` is zero.
pub fn ghz_state(config: GhzConfig) -> Circuit {
    assert!(config.qubits > 0, "ghz needs at least one qubit");
    let mut circuit = Circuit::with_registers(format!("ghz_n{}", config.qubits));
    let data = circuit.add_register("data", RegisterRole::Operand, config.qubits);
    for q in data.clone() {
        circuit.prep_z(q);
    }
    circuit.h(data.start);
    for q in data.start + 1..data.end {
        circuit.cnot(q - 1, q);
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
    fn paper_instance_has_127_qubits() {
        let c = ghz_state(GhzConfig::paper());
        assert_eq!(c.num_qubits(), 127);
        assert_eq!(c.name(), "ghz_n127");
    }

    #[test]
    fn structure_is_hadamard_plus_cnot_chain() {
        let c = ghz_state(GhzConfig { qubits: 5 });
        let stats = c.stats();
        assert_eq!(stats.two_qubit_gates, 4);
        assert_eq!(stats.t_count, 0);
        assert_eq!(stats.measurements, 5);
        assert_eq!(stats.preparations, 5);
        assert_eq!(stats.per_gate["h"], 1);
        assert!(c.is_lowered());
    }

    #[test]
    fn chain_serializes_the_depth() {
        let c = ghz_state(GhzConfig { qubits: 6 });
        // preps (1 layer) + H + 5 CNOTs chained + final measurement layer.
        assert!(crate::asap_depth(&c) >= 7);
    }

    #[test]
    #[should_panic(expected = "at least one qubit")]
    fn zero_qubits_panics() {
        let _ = ghz_state(GhzConfig { qubits: 0 });
    }
}
