//! Ripple-carry quantum adder benchmark.
//!
//! Rebuilds the structure of the QASMBench 433-qubit adder: two `n`-bit operand
//! registers plus one carry ancilla (`2n + 1` qubits, `n = 216` for the paper
//! instance), added in place with the Cuccaro–Draper–Kutin–Moulton (CDKM)
//! ripple-carry construction. Each bit position contributes one MAJ and one UMA
//! block (a Toffoli and two CNOTs each), so the carry ripples sequentially from
//! the least to the most significant bit — exactly the sequential access pattern
//! the paper's locality analysis relies on for arithmetic circuits.

use lsqca_circuit::register::RegisterRole;
use lsqca_circuit::{Circuit, Qubit};

/// Emission-logic revision of this generator, part of the workload key (see
/// `lsqca_workloads::workload_key`) that result-store records and cached
/// artifacts are keyed on. Bump it whenever the circuit emitted for an
/// *unchanged* configuration changes, so stale records and artifacts are
/// never found again; a config-field change already changes the key by itself.
pub const REVISION: u32 = 1;

/// Parameters of the adder benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdderConfig {
    /// Width of each operand in bits; the circuit uses `2 * operand_bits + 1`
    /// logical qubits.
    pub operand_bits: u32,
}

impl AdderConfig {
    /// The paper's instance: 216-bit operands, 433 logical qubits.
    pub const fn paper() -> Self {
        AdderConfig { operand_bits: 216 }
    }

    /// Total logical qubits used by the circuit.
    pub const fn total_qubits(self) -> u32 {
        2 * self.operand_bits + 1
    }
}

impl Default for AdderConfig {
    fn default() -> Self {
        AdderConfig::paper()
    }
}

/// Emits the MAJ (majority) block of the CDKM adder.
fn maj(circuit: &mut Circuit, c: Qubit, b: Qubit, a: Qubit) {
    circuit.cnot(a, b);
    circuit.cnot(a, c);
    circuit.toffoli(c, b, a);
}

/// Emits the UMA (un-majority and add) block of the CDKM adder.
fn uma(circuit: &mut Circuit, c: Qubit, b: Qubit, a: Qubit) {
    circuit.toffoli(c, b, a);
    circuit.cnot(a, c);
    circuit.cnot(c, b);
}

/// Generates the in-place ripple-carry adder circuit computing `b ← a + b (mod 2^n)`.
///
/// Registers: `a` (operand, `n` bits), `b` (operand and result, `n` bits),
/// `carry` (1 ancilla). The final carry-out is dropped (modular addition), which
/// keeps the qubit count at the QASMBench value of `2n + 1`.
///
/// # Panics
///
/// Panics if `operand_bits` is zero.
pub fn ripple_carry_adder(config: AdderConfig) -> Circuit {
    let n = config.operand_bits;
    assert!(n > 0, "adder needs at least one operand bit");
    let mut circuit = Circuit::with_registers(format!("adder_n{}", config.total_qubits()));
    let a = circuit.add_register("a", RegisterRole::Operand, n);
    let b = circuit.add_register("b", RegisterRole::Result, n);
    let carry = circuit
        .add_register("carry", RegisterRole::Ancilla, 1)
        .start;

    for q in a.clone().chain(b.clone()) {
        circuit.prep_z(q);
    }
    circuit.prep_z(carry);

    // Superpose the first operand so the addition is a genuinely quantum workload
    // (mirrors the QASMBench adder's input preparation).
    for q in a.clone() {
        circuit.h(q);
    }

    let a_bit = |j: u32| a.start + j;
    let b_bit = |j: u32| b.start + j;

    // Forward MAJ sweep: carries ripple from bit 0 upward.
    maj(&mut circuit, carry, b_bit(0), a_bit(0));
    for j in 1..n {
        maj(&mut circuit, a_bit(j - 1), b_bit(j), a_bit(j));
    }
    // Backward UMA sweep restores `a` and leaves the sum in `b`.
    for j in (1..n).rev() {
        uma(&mut circuit, a_bit(j - 1), b_bit(j), a_bit(j));
    }
    uma(&mut circuit, carry, b_bit(0), a_bit(0));

    for q in b {
        circuit.measure_z(q);
    }
    circuit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_instance_has_433_qubits() {
        let cfg = AdderConfig::paper();
        assert_eq!(cfg.total_qubits(), 433);
        let c = ripple_carry_adder(cfg);
        assert_eq!(c.num_qubits(), 433);
        assert_eq!(c.name(), "adder_n433");
    }

    #[test]
    fn toffoli_count_is_two_per_bit() {
        let c = ripple_carry_adder(AdderConfig { operand_bits: 8 });
        let stats = c.stats();
        // One MAJ + one UMA per bit, each with one Toffoli.
        assert_eq!(stats.toffoli_count, 16);
        // Each MAJ/UMA contributes two CNOTs.
        assert_eq!(stats.two_qubit_gates, 32);
        assert_eq!(stats.measurements, 8);
    }

    #[test]
    fn carry_chain_serializes_the_depth() {
        let c = ripple_carry_adder(AdderConfig { operand_bits: 16 });
        // The ripple makes depth grow linearly with the operand width.
        assert!(crate::asap_depth(&c) >= 2 * 16);
    }

    #[test]
    fn registers_cover_operands_and_carry() {
        let c = ripple_carry_adder(AdderConfig { operand_bits: 4 });
        let regs = c.registers();
        assert_eq!(regs.by_name("a").unwrap().len(), 4);
        assert_eq!(regs.by_name("b").unwrap().len(), 4);
        assert_eq!(regs.by_name("carry").unwrap().len(), 1);
        assert_eq!(regs.total_qubits(), 9);
    }

    #[test]
    #[should_panic(expected = "at least one operand bit")]
    fn zero_width_panics() {
        let _ = ripple_carry_adder(AdderConfig { operand_bits: 0 });
    }
}
