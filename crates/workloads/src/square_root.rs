//! Square-root-by-amplitude-amplification benchmark.
//!
//! Rebuilds the structure of the QASMBench 60-qubit `square_root` circuit: a
//! Grover-style search for the value `x` whose square equals a target `N`. Each
//! amplification round applies
//!
//! 1. an arithmetic **oracle** — square the candidate register into a work
//!    register with Toffoli partial products, compare against the target with a
//!    borrow-ripple comparator, phase-flip the marked state, then uncompute —
//!    followed by
//! 2. the standard **diffusion** operator on the candidate register
//!    (H / X conjugated multi-controlled Z).
//!
//! The circuit is Toffoli-heavy (magic-state demand comparable to the arithmetic
//! benchmarks) but much smaller than the multiplier, matching its role in the
//! paper's benchmark suite.

use lsqca_circuit::register::RegisterRole;
use lsqca_circuit::{Circuit, Qubit};

/// Emission-logic revision of this generator, part of the workload key (see
/// `lsqca_workloads::workload_key`) that result-store records and cached
/// artifacts are keyed on. Bump it whenever the circuit emitted for an
/// *unchanged* configuration changes, so stale records and artifacts are
/// never found again; a config-field change already changes the key by itself.
pub const REVISION: u32 = 1;

/// Parameters of the square-root benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SquareRootConfig {
    /// Width of the candidate register in bits. The total qubit count is
    /// `6 * candidate_bits` (candidate, square, squaring scratch, comparator
    /// borrow chain, ladder ancillas, flag — see [`square_root_search`]).
    pub candidate_bits: u32,
    /// Number of amplitude-amplification rounds.
    pub grover_rounds: u32,
    /// The classical target value `N` whose root is searched for.
    pub target: u64,
}

impl SquareRootConfig {
    /// The paper's instance: 10-bit candidate register, 60 logical qubits.
    pub const fn paper() -> Self {
        SquareRootConfig {
            candidate_bits: 10,
            grover_rounds: 2,
            target: 625,
        }
    }

    /// Total logical qubits used by the circuit.
    pub const fn total_qubits(self) -> u32 {
        6 * self.candidate_bits
    }
}

impl Default for SquareRootConfig {
    fn default() -> Self {
        SquareRootConfig::paper()
    }
}

/// Width of each internal register given the candidate width `m`.
struct Layout {
    candidate: std::ops::Range<Qubit>,
    square: std::ops::Range<Qubit>,
    scratch: std::ops::Range<Qubit>,
    borrow: std::ops::Range<Qubit>,
    ladder: std::ops::Range<Qubit>,
    flag: Qubit,
}

fn build_layout(circuit: &mut Circuit, m: u32) -> Layout {
    let candidate = circuit.add_register("candidate", RegisterRole::Operand, m);
    let square = circuit.add_register("square", RegisterRole::Result, 2 * m);
    let scratch = circuit.add_register("scratch", RegisterRole::Ancilla, m);
    let borrow = circuit.add_register("borrow", RegisterRole::Ancilla, m);
    let ladder = circuit.add_register("ladder", RegisterRole::Ancilla, m - 1);
    let flag = circuit.add_register("flag", RegisterRole::Ancilla, 1).start;
    Layout {
        candidate,
        square,
        scratch,
        borrow,
        ladder,
        flag,
    }
}

/// Squares the candidate into the square register (Toffoli partial products with
/// a scratch-carried ripple); `inverse` replays the same network to uncompute.
fn squaring_network(circuit: &mut Circuit, layout: &Layout, m: u32, inverse: bool) {
    let cand = |j: u32| layout.candidate.start + j;
    let sq = |k: u32| layout.square.start + k;
    let scratch = |j: u32| layout.scratch.start + j;
    let mut gates: Vec<(Qubit, Qubit, Qubit, Qubit)> = Vec::new();
    for i in 0..m {
        for j in i..m {
            let k = (i + j).min(2 * m - 1);
            gates.push((cand(i), cand(j), sq(k), scratch(i)));
        }
    }
    if inverse {
        gates.reverse();
    }
    for (c1, c2, target, carry) in gates {
        if c1 == c2 {
            // x_i AND x_i = x_i: a CNOT suffices for the diagonal partial product.
            circuit.cnot(c1, target);
        } else {
            circuit.toffoli(c1, c2, target);
            circuit.toffoli(target, c2, carry);
        }
    }
}

/// Compares the square register against the classical target with a
/// borrow-ripple comparator and flips the flag qubit when they match.
type GateThunk<'a> = Box<dyn Fn(&mut Circuit) + 'a>;

fn comparator(circuit: &mut Circuit, layout: &Layout, m: u32, target: u64, inverse: bool) {
    let sq = |k: u32| layout.square.start + k;
    let borrow = |j: u32| layout.borrow.start + j;
    let mut gates: Vec<GateThunk<'_>> = Vec::new();
    for j in 0..m {
        let bit = (target >> j) & 1 == 1;
        let s = sq(j);
        let b = borrow(j);
        gates.push(Box::new(move |c: &mut Circuit| {
            if bit {
                c.x(s);
            }
            c.cnot(s, b);
            if j > 0 {
                c.toffoli(s, borrow(j - 1), b);
            }
            if bit {
                c.x(s);
            }
        }));
    }
    if inverse {
        for g in gates.iter().rev() {
            g(circuit);
        }
    } else {
        for g in gates.iter() {
            g(circuit);
        }
        // Flag set when the top borrow is clear (values matched).
        circuit.x(borrow(m - 1));
        circuit.cnot(borrow(m - 1), layout.flag);
        circuit.x(borrow(m - 1));
    }
}

/// Diffusion operator on the candidate register: H X (multi-controlled Z) X H.
fn diffusion(circuit: &mut Circuit, layout: &Layout) {
    let cand: Vec<Qubit> = layout.candidate.clone().collect();
    for &q in &cand {
        circuit.h(q);
        circuit.x(q);
    }
    // Multi-controlled Z realized as H·MCX·H on the last candidate qubit, with
    // the Toffoli ladder running over the circuit's own ladder register so no
    // extra ancillas are allocated during lowering.
    let (&target, controls) = cand.split_last().expect("candidate register is non-empty");
    let ladder: Vec<Qubit> = layout.ladder.clone().collect();
    circuit.h(target);
    for gate in lsqca_circuit::decompose::mcx_ladder(controls, &ladder, target) {
        circuit.push(gate);
    }
    circuit.h(target);
    for &q in &cand {
        circuit.x(q);
        circuit.h(q);
    }
}

/// Generates the square-root amplitude-amplification circuit.
///
/// # Panics
///
/// Panics if `candidate_bits < 3` (the comparator and diffusion need at least
/// three bits) or `grover_rounds` is zero.
pub fn square_root_search(config: SquareRootConfig) -> Circuit {
    let m = config.candidate_bits;
    assert!(
        m >= 3,
        "square_root needs at least a 3-bit candidate register"
    );
    assert!(
        config.grover_rounds > 0,
        "square_root needs at least one round"
    );

    let mut circuit = Circuit::with_registers(format!("square_root_n{}", config.total_qubits()));
    let layout = build_layout(&mut circuit, m);
    debug_assert_eq!(circuit.num_qubits(), config.total_qubits());

    for q in 0..circuit.num_qubits() {
        circuit.prep_z(q);
    }
    // Uniform superposition over candidates; flag in |−⟩ for phase kickback.
    for q in layout.candidate.clone() {
        circuit.h(q);
    }
    circuit.x(layout.flag);
    circuit.h(layout.flag);

    for _ in 0..config.grover_rounds {
        squaring_network(&mut circuit, &layout, m, false);
        comparator(&mut circuit, &layout, m, config.target, false);
        comparator(&mut circuit, &layout, m, config.target, true);
        squaring_network(&mut circuit, &layout, m, true);
        diffusion(&mut circuit, &layout);
    }

    // Unused ladder ancillas are reserved for the MCX decomposition; touch them
    // so the register is part of the memory footprint as in the original circuit.
    for q in layout.ladder.clone() {
        circuit.prep_z(q);
    }
    for q in layout.candidate.clone() {
        circuit.measure_z(q);
    }
    circuit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_instance_has_60_qubits() {
        let cfg = SquareRootConfig::paper();
        assert_eq!(cfg.total_qubits(), 60);
        let c = square_root_search(cfg);
        assert_eq!(c.num_qubits(), 60);
        assert_eq!(c.name(), "square_root_n60");
    }

    #[test]
    fn circuit_is_toffoli_heavy() {
        let c = square_root_search(SquareRootConfig {
            candidate_bits: 4,
            grover_rounds: 1,
            target: 9,
        });
        let stats = c.stats();
        assert!(stats.toffoli_count > 10);
        assert_eq!(stats.mcx_count, 0, "the ladder is emitted explicitly");
        assert_eq!(stats.measurements, 4);
    }

    #[test]
    fn more_rounds_means_more_gates() {
        let one = square_root_search(SquareRootConfig {
            candidate_bits: 4,
            grover_rounds: 1,
            target: 9,
        });
        let two = square_root_search(SquareRootConfig {
            candidate_bits: 4,
            grover_rounds: 2,
            target: 9,
        });
        assert!(two.len() > one.len());
        assert_eq!(two.num_qubits(), one.num_qubits());
    }

    #[test]
    fn lowering_succeeds_and_produces_t_gates() {
        let c = square_root_search(SquareRootConfig {
            candidate_bits: 4,
            grover_rounds: 1,
            target: 4,
        });
        let lowered = lsqca_circuit::lower_to_clifford_t(&c);
        assert!(lowered.is_lowered());
        assert!(lowered.stats().t_count > 50);
    }

    #[test]
    #[should_panic(expected = "3-bit candidate")]
    fn tiny_candidate_register_panics() {
        let _ = square_root_search(SquareRootConfig {
            candidate_bits: 2,
            grover_rounds: 1,
            target: 1,
        });
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_panics() {
        let _ = square_root_search(SquareRootConfig {
            candidate_bits: 4,
            grover_rounds: 0,
            target: 1,
        });
    }
}
