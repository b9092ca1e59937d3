//! Shift-and-add integer multiplier benchmark.
//!
//! Rebuilds the structure of the QASMBench 400-qubit multiplier: two `n`-bit
//! operand registers `a` and `b`, a `2n − 1`-bit product register `p`, and one
//! carry ancilla (`4n` qubits total, `n = 100` for the paper instance). The
//! classic shift-and-add schedule is used: for every bit `b_i`, the partial
//! product `a · b_i · 2^i` is accumulated into `p` with a controlled ripple-carry
//! sweep (Toffoli-dominated, carry travelling bit by bit through the single carry
//! ancilla).
//!
//! Two properties of this construction matter for the paper's evaluation and are
//! preserved faithfully: the *sequential* bit-index iteration (spatial locality
//! of memory references, Fig. 8c) and the high magic-state demand (≈ one T gate
//! every couple of code beats, which makes the MSF the bottleneck that hides
//! LSQCA's load/store latency). The product is accumulated modulo `2^(2n−1)`,
//! which keeps the register budget at the QASMBench value of exactly `4n` qubits.

use lsqca_circuit::register::RegisterRole;
use lsqca_circuit::{Circuit, Qubit};

/// Emission-logic revision of this generator, part of the workload key (see
/// `lsqca_workloads::workload_key`) that result-store records and cached
/// artifacts are keyed on. Bump it whenever the circuit emitted for an
/// *unchanged* configuration changes, so stale records and artifacts are
/// never found again; a config-field change already changes the key by itself.
pub const REVISION: u32 = 1;

/// Parameters of the multiplier benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiplierConfig {
    /// Width of each operand in bits; the circuit uses `4 * operand_bits` qubits.
    pub operand_bits: u32,
    /// Optional cap on how many partial products (bits of `b`) are accumulated.
    /// `None` processes every bit; smaller values produce shorter circuits with
    /// identical structure, useful for tests and quick benchmarks.
    pub partial_products: Option<u32>,
}

impl MultiplierConfig {
    /// The paper's instance: 100-bit operands, 400 logical qubits.
    pub const fn paper() -> Self {
        MultiplierConfig {
            operand_bits: 100,
            partial_products: None,
        }
    }

    /// Total logical qubits used by the circuit.
    pub const fn total_qubits(self) -> u32 {
        4 * self.operand_bits
    }
}

impl Default for MultiplierConfig {
    fn default() -> Self {
        MultiplierConfig::paper()
    }
}

/// One controlled full-adder step: adds `a_j AND b_i` plus the running carry into
/// the product bit `p_k`, updating the carry. Toffoli-dominated, mirroring the
/// per-bit cost of the QASMBench multiplier.
fn controlled_full_add(circuit: &mut Circuit, b_i: Qubit, a_j: Qubit, p_k: Qubit, carry: Qubit) {
    // Partial-product bit into the sum and the carry chain.
    circuit.toffoli(b_i, a_j, p_k);
    circuit.toffoli(p_k, a_j, carry);
    // Fold the running carry into the sum bit.
    circuit.cnot(carry, p_k);
    circuit.toffoli(b_i, carry, p_k);
}

/// Generates the shift-and-add multiplier circuit computing
/// `p ← a · b (mod 2^(2n−1))`.
///
/// Registers: `a` (operand, `n`), `b` (operand, `n`), `p` (result, `2n − 1`),
/// `carry` (1 ancilla).
///
/// # Panics
///
/// Panics if `operand_bits` is zero.
pub fn shift_add_multiplier(config: MultiplierConfig) -> Circuit {
    let n = config.operand_bits;
    assert!(n > 0, "multiplier needs at least one operand bit");
    let mut circuit = Circuit::with_registers(format!("multiplier_n{}", config.total_qubits()));
    let a = circuit.add_register("a", RegisterRole::Operand, n);
    let b = circuit.add_register("b", RegisterRole::Operand, n);
    let p = circuit.add_register("p", RegisterRole::Result, 2 * n - 1);
    let carry = circuit
        .add_register("carry", RegisterRole::Ancilla, 1)
        .start;

    for q in 0..circuit.num_qubits() {
        circuit.prep_z(q);
    }
    // Superpose both operands (the QASMBench circuit multiplies quantum inputs).
    for q in a.clone().chain(b.clone()) {
        circuit.h(q);
    }

    let a_bit = |j: u32| a.start + j;
    let b_bit = |i: u32| b.start + i;
    let p_bit = |k: u32| p.start + k;

    let partials = config.partial_products.unwrap_or(n).min(n);
    for i in 0..partials {
        // Accumulate a·2^i controlled on b_i, rippling through the carry ancilla.
        for j in 0..n {
            let k = i + j;
            if k >= 2 * n - 1 {
                break;
            }
            controlled_full_add(&mut circuit, b_bit(i), a_bit(j), p_bit(k), carry);
        }
        // Flush the final carry into the next product bit and reset the ancilla.
        if i + n < 2 * n - 1 {
            circuit.cnot(carry, p_bit(i + n));
            circuit.cnot(p_bit(i + n), carry);
        } else {
            // Top partial product: drop the carry (modular product).
            circuit.measure_z(carry);
            circuit.prep_z(carry);
        }
    }

    for q in p {
        circuit.measure_z(q);
    }
    circuit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_instance_has_400_qubits() {
        let cfg = MultiplierConfig::paper();
        assert_eq!(cfg.total_qubits(), 400);
        // Generating the full 100-bit instance is cheap enough to do in a test.
        let c = shift_add_multiplier(MultiplierConfig {
            operand_bits: 100,
            partial_products: Some(2),
        });
        assert_eq!(c.num_qubits(), 400);
        assert_eq!(c.name(), "multiplier_n400");
    }

    #[test]
    fn toffoli_count_scales_with_bit_pairs() {
        let c = shift_add_multiplier(MultiplierConfig {
            operand_bits: 6,
            partial_products: None,
        });
        let stats = c.stats();
        // Three Toffolis per (i, j) pair that stays inside the product register.
        let pairs: u64 = (0..6u64).map(|i| 6u64.min(2 * 6 - 1 - i)).sum();
        assert_eq!(stats.toffoli_count, 3 * pairs);
        assert!(stats.t_count == 0, "T gates appear only after lowering");
    }

    #[test]
    fn partial_product_cap_shortens_the_circuit() {
        let full = shift_add_multiplier(MultiplierConfig {
            operand_bits: 8,
            partial_products: None,
        });
        let short = shift_add_multiplier(MultiplierConfig {
            operand_bits: 8,
            partial_products: Some(2),
        });
        assert!(short.len() < full.len());
        assert_eq!(short.num_qubits(), full.num_qubits());
    }

    #[test]
    fn registers_match_the_layout() {
        let c = shift_add_multiplier(MultiplierConfig {
            operand_bits: 4,
            partial_products: None,
        });
        let regs = c.registers();
        assert_eq!(regs.by_name("a").unwrap().len(), 4);
        assert_eq!(regs.by_name("b").unwrap().len(), 4);
        assert_eq!(regs.by_name("p").unwrap().len(), 7);
        assert_eq!(regs.by_name("carry").unwrap().len(), 1);
        assert_eq!(c.num_qubits(), 16);
    }

    #[test]
    fn lowering_produces_t_gates() {
        let c = shift_add_multiplier(MultiplierConfig {
            operand_bits: 3,
            partial_products: None,
        });
        let lowered = lsqca_circuit::lower_to_clifford_t(&c);
        assert!(lowered.is_lowered());
        assert!(lowered.stats().t_count > 0);
    }

    #[test]
    #[should_panic(expected = "at least one operand bit")]
    fn zero_width_panics() {
        let _ = shift_add_multiplier(MultiplierConfig {
            operand_bits: 0,
            partial_products: None,
        });
    }
}
