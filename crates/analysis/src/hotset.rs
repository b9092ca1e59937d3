//! Hot-set selection for hybrid floorplans (Sec. VI-C).
//!
//! The hybrid floorplan puts the `n·f` most frequently accessed data qubits into
//! a conventional unit-latency region and the rest into SAM. The ranking can be
//! computed statically from the compiled program (the evaluation in the paper
//! does exactly this: "we put the most frequently accessed nf data cells into
//! the conventional floorplan"), or structurally from the circuit's register
//! roles (Fig. 15 pins the control and temporal registers of SELECT).

use lsqca_arch::lattice::QubitTag;
use lsqca_circuit::{Circuit, RegisterMap, RegisterRole};
use lsqca_isa::Program;

/// Number of hot qubits implied by a hybrid fraction `f` over `num_qubits`.
pub fn hot_set_size(num_qubits: u32, fraction: f64) -> usize {
    let f = fraction.clamp(0.0, 1.0);
    ((num_qubits as f64) * f).round() as usize
}

/// Selects the `count` most frequently referenced memory qubits of `program`,
/// breaking ties by lower qubit index.
pub fn hot_set_by_access_count(program: &Program, count: usize) -> Vec<QubitTag> {
    let stats = program.stats();
    let mut ranked: Vec<(u64, u32)> = stats
        .memory_reference_counts
        .iter()
        .map(|(addr, &refs)| (refs, addr.index()))
        .collect();
    // Most referenced first; ties by ascending index for determinism.
    ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    ranked
        .into_iter()
        .take(count)
        .map(|(_, q)| QubitTag(q))
        .collect()
}

/// Selects every qubit belonging to a register with one of the given roles
/// (e.g. pin SELECT's control and temporal registers, as in Fig. 15).
pub fn hot_set_by_role(circuit: &Circuit, roles: &[RegisterRole]) -> Vec<QubitTag> {
    hot_set_by_role_map(circuit.registers(), roles)
}

/// Role-based selection from a bare register map — what compiled-workload
/// artifacts carry when the source circuit is no longer around.
pub fn hot_set_by_role_map(registers: &RegisterMap, roles: &[RegisterRole]) -> Vec<QubitTag> {
    roles
        .iter()
        .flat_map(|&role| registers.qubits_with_role(role))
        .map(QubitTag)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsqca_circuit::register::RegisterRole;
    use lsqca_isa::{Instruction, MemAddr};

    #[test]
    fn hot_set_size_rounds_the_fraction() {
        assert_eq!(hot_set_size(100, 0.0), 0);
        assert_eq!(hot_set_size(100, 0.05), 5);
        assert_eq!(hot_set_size(143, 0.95), 136);
        assert_eq!(hot_set_size(100, 1.0), 100);
        assert_eq!(hot_set_size(100, 2.0), 100);
    }

    #[test]
    fn access_count_ranking_picks_the_hottest_qubits() {
        let mut program = Program::new("ranked");
        // Qubit 5 is touched three times, qubit 2 twice, qubit 9 once.
        for _ in 0..3 {
            program.push(Instruction::HdM { mem: MemAddr(5) });
        }
        for _ in 0..2 {
            program.push(Instruction::PhM { mem: MemAddr(2) });
        }
        program.push(Instruction::HdM { mem: MemAddr(9) });
        assert_eq!(
            hot_set_by_access_count(&program, 2),
            vec![QubitTag(5), QubitTag(2)]
        );
        assert_eq!(hot_set_by_access_count(&program, 0), vec![]);
        // Asking for more than exist returns everything referenced.
        assert_eq!(hot_set_by_access_count(&program, 10).len(), 3);
    }

    #[test]
    fn ties_break_by_qubit_index() {
        let mut program = Program::new("tie");
        program.push(Instruction::HdM { mem: MemAddr(7) });
        program.push(Instruction::HdM { mem: MemAddr(3) });
        assert_eq!(hot_set_by_access_count(&program, 1), vec![QubitTag(3)]);
    }

    #[test]
    fn role_based_selection_pins_registers() {
        let mut circuit = Circuit::with_registers("select-like");
        circuit.add_register("control", RegisterRole::Control, 3);
        circuit.add_register("temporal", RegisterRole::Temporal, 2);
        circuit.add_register("system", RegisterRole::System, 10);
        let hot = hot_set_by_role(&circuit, &[RegisterRole::Control, RegisterRole::Temporal]);
        assert_eq!(hot.len(), 5);
        assert!(hot.contains(&QubitTag(0)));
        assert!(hot.contains(&QubitTag(4)));
        assert!(!hot.contains(&QubitTag(5)));
    }
}
