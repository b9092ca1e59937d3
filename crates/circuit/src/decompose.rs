//! Lowering passes to the Clifford+T+measurement base set.
//!
//! The LSQCA compiler (and the paper's benchmark flow, Sec. VI-A) consumes
//! circuits expressed with Clifford gates (H, S, CNOT), T gates, preparations and
//! single-qubit Pauli measurements. The benchmark generators emit higher-level
//! gates — CZ, Toffoli and multi-controlled X — which are lowered here:
//!
//! * Toffoli → the standard seven-T-gate Clifford+T network.
//! * Multi-controlled X over `k ≥ 3` controls → a ladder of `2(k−1) − 1` Toffolis
//!   using `k − 2` freshly allocated ancilla qubits (compute / apply / uncompute),
//!   then each Toffoli is expanded in turn.
//! * CZ → H-conjugated CNOT.
//!
//! Every composite gate is always expanded: the output holds base gates only
//! ([`Gate::is_base_gate`]), which is what the LSQCA compiler accepts.
//!
//! [`lower_each`] is the pass itself: it hands each lowered gate to a
//! callback as it is produced, so a consumer such as the LSQCA compiler
//! never holds the lowered circuit. [`lower_to_clifford_t`] collects the
//! same gates into a [`Circuit`].

use crate::circuit::{check_operands, Circuit};
use crate::gate::{Gate, Qubit};
use crate::register::RegisterRole;

/// The standard seven-T-gate decomposition of a Toffoli gate.
///
/// The network uses two-qubit CNOTs, T/T† and Hadamards only; it is exact (no
/// measurement or classical feedback) and is the decomposition assumed by the
/// paper's Toffoli-count-to-T-count conversion. It comes as a fixed-size
/// array, so lowering appends it without a heap allocation per Toffoli.
pub fn toffoli_gates(control1: Qubit, control2: Qubit, target: Qubit) -> [Gate; 15] {
    [
        Gate::H(target),
        Gate::Cnot {
            control: control2,
            target,
        },
        Gate::Tdg(target),
        Gate::Cnot {
            control: control1,
            target,
        },
        Gate::T(target),
        Gate::Cnot {
            control: control2,
            target,
        },
        Gate::Tdg(target),
        Gate::Cnot {
            control: control1,
            target,
        },
        Gate::T(control2),
        Gate::T(target),
        Gate::H(target),
        Gate::Cnot {
            control: control1,
            target: control2,
        },
        Gate::T(control1),
        Gate::Tdg(control2),
        Gate::Cnot {
            control: control1,
            target: control2,
        },
    ]
}

/// Expands a multi-controlled X into a Toffoli ladder over `ancillas`.
///
/// Requires `ancillas.len() + 2 >= controls.len()`; for `k` controls it uses
/// `k − 2` ancillas and emits `2(k−1) − 1` Toffolis (compute, apply, uncompute).
///
/// # Panics
///
/// Panics if fewer than one control is given or too few ancillas are supplied.
pub fn mcx_ladder(controls: &[Qubit], ancillas: &[Qubit], target: Qubit) -> Vec<Gate> {
    assert!(!controls.is_empty(), "mcx needs at least one control");
    match controls.len() {
        1 => vec![Gate::Cnot {
            control: controls[0],
            target,
        }],
        2 => vec![Gate::Toffoli {
            control1: controls[0],
            control2: controls[1],
            target,
        }],
        k => {
            assert!(
                ancillas.len() >= k - 2,
                "mcx over {k} controls needs {} ancillas, got {}",
                k - 2,
                ancillas.len()
            );
            let mut gates = Vec::new();
            // Compute chain of ANDs into the ancillas.
            gates.push(Gate::Toffoli {
                control1: controls[0],
                control2: controls[1],
                target: ancillas[0],
            });
            for i in 2..k - 1 {
                gates.push(Gate::Toffoli {
                    control1: controls[i],
                    control2: ancillas[i - 2],
                    target: ancillas[i - 1],
                });
            }
            // Apply onto the target controlled by the last control and last ancilla.
            gates.push(Gate::Toffoli {
                control1: controls[k - 1],
                control2: ancillas[k - 3],
                target,
            });
            // Uncompute the ancillas in reverse order.
            for i in (2..k - 1).rev() {
                gates.push(Gate::Toffoli {
                    control1: controls[i],
                    control2: ancillas[i - 2],
                    target: ancillas[i - 1],
                });
            }
            gates.push(Gate::Toffoli {
                control1: controls[0],
                control2: controls[1],
                target: ancillas[0],
            });
            gates
        }
    }
}

/// Lowers `circuit` into the Clifford+T+measurement base set, handing each
/// lowered gate to `emit` in program order as it is produced; nothing is
/// collected. Returns the lowered qubit count: the circuit's qubits plus the
/// ancillas of its widest multi-controlled X, which occupy the indices right
/// after the circuit's own.
///
/// This is the pass behind [`lower_to_clifford_t`], gate for gate: every
/// emitted gate is a base gate and has passed the operand checks
/// [`Circuit::push`] applies on the lowered circuit.
///
/// # Panics
///
/// Panics as [`Circuit::push`] does if a lowered gate has an operand out of
/// range or repeats one.
pub fn lower_each(circuit: &Circuit, mut emit: impl FnMut(Gate)) -> u32 {
    let base_qubits = circuit.num_qubits();
    let num_qubits = base_qubits + max_mcx_ancillas(circuit);
    let ancillas: Vec<Qubit> = (base_qubits..num_qubits).collect();
    let mut emit = |gate: Gate| {
        check_operands(circuit.name(), num_qubits, &gate);
        emit(gate);
    };
    for gate in circuit.gates() {
        match gate {
            Gate::MultiControlledX { controls, target } => {
                for g in mcx_ladder(controls, &ancillas, *target) {
                    expand_toffoli(g, &mut emit);
                }
            }
            Gate::Cz { a, b } => {
                emit(Gate::H(*b));
                emit(Gate::Cnot {
                    control: *a,
                    target: *b,
                });
                emit(Gate::H(*b));
            }
            other => expand_toffoli(other.clone(), &mut emit),
        }
    }
    num_qubits
}

/// Emits `gate`, as its seven-T network if it is a Toffoli.
fn expand_toffoli(gate: Gate, emit: &mut impl FnMut(Gate)) {
    match gate {
        Gate::Toffoli {
            control1,
            control2,
            target,
        } => {
            for g in toffoli_gates(control1, control2, target) {
                emit(g);
            }
        }
        other => emit(other),
    }
}

/// Lowers `circuit` into the Clifford+T+measurement base set: the gates of
/// [`lower_each`], collected into a circuit.
///
/// Multi-controlled X gates allocate fresh ancilla qubits appended after the
/// original qubits (registered as an `Ancilla`-role register named
/// `"mcx_ancilla"` when any are needed). The returned circuit satisfies
/// [`Circuit::is_lowered`].
pub fn lower_to_clifford_t(circuit: &Circuit) -> Circuit {
    let max_mcx_ancillas = max_mcx_ancillas(circuit);
    let base_qubits = circuit.num_qubits();

    // Preserve the register structure and describe the ancilla block, so that
    // downstream locality analysis still sees control/temporal/system roles.
    // The map is complete before the first gate, so every lowered gate is
    // pushed exactly once.
    let mut lowered = Circuit::with_registers(circuit.name().to_string());
    for reg in circuit.registers().registers() {
        lowered.add_register(reg.name.clone(), reg.role, reg.len() as u32);
    }
    if lowered.num_qubits() < base_qubits {
        lowered.add_register(
            "unnamed",
            RegisterRole::Other,
            base_qubits - lowered.num_qubits(),
        );
    }
    if max_mcx_ancillas > 0 {
        lowered.add_register("mcx_ancilla", RegisterRole::Ancilla, max_mcx_ancillas);
    }
    lower_each(circuit, |gate| lowered.push(gate));
    lowered
}

/// How many ancillas the widest multi-controlled X of `circuit` needs.
fn max_mcx_ancillas(circuit: &Circuit) -> u32 {
    circuit
        .gates()
        .iter()
        .filter_map(|g| match g {
            Gate::MultiControlledX { controls, .. } if controls.len() > 2 => {
                Some(controls.len() as u32 - 2)
            }
            _ => None,
        })
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toffoli_decomposition_has_seven_t_gates() {
        let gates = toffoli_gates(0, 1, 2);
        let t_count = gates.iter().filter(|g| g.is_t_like()).count();
        assert_eq!(t_count, 7);
        assert_eq!(
            gates
                .iter()
                .filter(|g| matches!(g, Gate::Cnot { .. }))
                .count(),
            6
        );
        assert_eq!(gates.iter().filter(|g| matches!(g, Gate::H(_))).count(), 2);
        assert!(gates.iter().all(Gate::is_base_gate));
    }

    #[test]
    fn mcx_small_cases() {
        assert_eq!(
            mcx_ladder(&[3], &[], 5),
            vec![Gate::Cnot {
                control: 3,
                target: 5
            }]
        );
        assert_eq!(
            mcx_ladder(&[3, 4], &[], 5),
            vec![Gate::Toffoli {
                control1: 3,
                control2: 4,
                target: 5
            }]
        );
    }

    #[test]
    fn mcx_ladder_toffoli_count_and_ancilla_restoration() {
        for k in 3..8usize {
            let controls: Vec<Qubit> = (0..k as u32).collect();
            let ancillas: Vec<Qubit> = (100..100 + (k as u32 - 2)).collect();
            let gates = mcx_ladder(&controls, &ancillas, 50);
            let toffolis = gates
                .iter()
                .filter(|g| matches!(g, Gate::Toffoli { .. }))
                .count();
            assert_eq!(toffolis, 2 * (k - 1) - 1, "wrong ladder size for k={k}");
            // Each ancilla is targeted an even number of times (computed then
            // uncomputed), so the ladder restores them to |0⟩.
            for &a in &ancillas {
                let writes = gates
                    .iter()
                    .filter(|g| matches!(g, Gate::Toffoli { target, .. } if *target == a))
                    .count();
                assert_eq!(writes % 2, 0, "ancilla {a} not restored for k={k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "needs")]
    fn mcx_with_too_few_ancillas_panics() {
        let _ = mcx_ladder(&[0, 1, 2, 3], &[10], 5);
    }

    #[test]
    fn lowering_produces_base_gates_only() {
        let mut c = Circuit::new("composite", 6);
        c.toffoli(0, 1, 2);
        c.mcx(vec![0, 1, 2, 3], 4);
        c.cz(4, 5);
        c.t(5);
        let lowered = lower_to_clifford_t(&c);
        assert!(lowered.is_lowered());
        assert!(lowered.num_qubits() >= c.num_qubits());
        // T-count: 7 (toffoli) + 5 toffolis * 7 (mcx over 4 controls) + 1 = 43.
        assert_eq!(lowered.stats().t_count, 7 + 5 * 7 + 1);
    }

    #[test]
    fn lowering_preserves_registers_and_adds_ancilla_register() {
        let mut c = Circuit::with_registers("select-like");
        c.add_register("control", RegisterRole::Control, 4);
        c.add_register("system", RegisterRole::System, 2);
        c.mcx(vec![0, 1, 2, 3], 4);
        let lowered = lower_to_clifford_t(&c);
        assert_eq!(lowered.registers().role_of(0), Some(RegisterRole::Control));
        assert_eq!(lowered.registers().role_of(4), Some(RegisterRole::System));
        assert_eq!(
            lowered.registers().by_name("mcx_ancilla").map(|r| r.len()),
            Some(2)
        );
    }

    #[test]
    fn lowering_without_composites_is_identity_on_gates() {
        let mut c = Circuit::new("plain", 2);
        c.h(0);
        c.cnot(0, 1);
        c.t(1);
        c.measure_z(1);
        let lowered = lower_to_clifford_t(&c);
        assert_eq!(lowered.gates(), c.gates());
        assert_eq!(lowered.num_qubits(), 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The lowering as it was built before the register map moved up front:
    /// lower into a plain circuit, then re-extend every gate into one that
    /// carries the registers. Kept only as the oracle of the one-pass pass.
    fn lower_two_pass(circuit: &Circuit) -> Circuit {
        let max_mcx_ancillas = max_mcx_ancillas(circuit);
        let base_qubits = circuit.num_qubits();
        let total_qubits = base_qubits + max_mcx_ancillas;
        let mut lowered = Circuit::new(circuit.name().to_string(), total_qubits);
        let ancillas: Vec<Qubit> = (base_qubits..total_qubits).collect();
        for gate in circuit.gates() {
            match gate {
                Gate::Toffoli {
                    control1,
                    control2,
                    target,
                } => {
                    lowered.extend(toffoli_gates(*control1, *control2, *target));
                }
                Gate::MultiControlledX { controls, target } => {
                    for g in mcx_ladder(controls, &ancillas, *target) {
                        match g {
                            Gate::Toffoli {
                                control1,
                                control2,
                                target,
                            } => {
                                lowered.extend(toffoli_gates(control1, control2, target));
                            }
                            other => lowered.push(other),
                        }
                    }
                }
                Gate::Cz { a, b } => {
                    lowered.push(Gate::H(*b));
                    lowered.push(Gate::Cnot {
                        control: *a,
                        target: *b,
                    });
                    lowered.push(Gate::H(*b));
                }
                other => lowered.push(other.clone()),
            }
        }
        let mut rebuilt = Circuit::with_registers(circuit.name().to_string());
        for reg in circuit.registers().registers() {
            rebuilt.add_register(reg.name.clone(), reg.role, reg.len() as u32);
        }
        if rebuilt.num_qubits() < base_qubits {
            rebuilt.add_register(
                "unnamed",
                RegisterRole::Other,
                base_qubits - rebuilt.num_qubits(),
            );
        }
        if max_mcx_ancillas > 0 {
            rebuilt.add_register("mcx_ancilla", RegisterRole::Ancilla, max_mcx_ancillas);
        }
        rebuilt.extend(lowered.gates().iter().cloned());
        rebuilt
    }

    const QUBITS: u32 = 8;

    /// `count` distinct qubits: a stride through `0..QUBITS` (odd strides are
    /// coprime with 8, so no qubit repeats).
    fn distinct(start: u32, stride: u32, count: u32) -> Vec<Qubit> {
        (0..count)
            .map(|i| (start + i * (2 * stride + 1)) % QUBITS)
            .collect()
    }

    proptest! {
        /// Building the register map first and pushing each lowered gate once
        /// yields the same gates, registers and qubit count as lowering and
        /// then re-extending every gate, on circuits mixing Toffoli, MCX
        /// (ancilla ladders of every width), CZ and base gates, with and
        /// without (partial) registers.
        #[test]
        fn one_pass_lowering_equals_the_two_pass_construction(
            gates in proptest::collection::vec(
                (0u32..6, 0u32..QUBITS, 0u32..4, 1u32..QUBITS),
                0..40,
            ),
            layout in 0u32..3,
        ) {
            let mut c = Circuit::new("prop", QUBITS);
            match layout {
                // Registers cover a prefix: the rest becomes `unnamed`.
                1 => {
                    c.add_register("control", RegisterRole::Control, 3);
                }
                // Registers cover every qubit.
                2 => {
                    c.add_register("control", RegisterRole::Control, 3);
                    c.add_register("system", RegisterRole::System, QUBITS - 3);
                }
                _ => {}
            }
            for (op, start, stride, controls) in gates {
                let qs = distinct(start, stride, 3);
                match op {
                    0 => c.h(qs[0]),
                    1 => c.t(qs[0]),
                    2 => c.cnot(qs[0], qs[1]),
                    3 => c.cz(qs[0], qs[1]),
                    4 => c.toffoli(qs[0], qs[1], qs[2]),
                    _ => {
                        let mut operands = distinct(start, stride, controls + 1);
                        let target = operands.pop().expect("controls + 1 >= 2 operands");
                        c.mcx(operands, target);
                    }
                }
            }
            let one_pass = lower_to_clifford_t(&c);
            let two_pass = lower_two_pass(&c);
            prop_assert!(one_pass.is_lowered());
            prop_assert_eq!(one_pass.num_qubits(), two_pass.num_qubits());
            prop_assert_eq!(one_pass.registers(), two_pass.registers());
            prop_assert_eq!(one_pass.gates(), two_pass.gates());
            prop_assert_eq!(one_pass, two_pass);
        }
    }
}
