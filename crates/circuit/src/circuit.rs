//! The [`Circuit`] container.

use crate::gate::{Gate, Qubit};
use crate::register::{RegisterMap, RegisterRole};
use crate::stats::CircuitStats;
use std::fmt;
use std::ops::Range;

/// A logical quantum circuit: an ordered gate list over `num_qubits` qubits,
/// optionally structured into named registers.
///
/// The builder-style methods (`h`, `cnot`, `toffoli`, ...) append gates and are
/// what the workload generators use; they panic on out-of-range qubits because a
/// generator that emits such a gate is a programming error, not a runtime
/// condition.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Circuit {
    name: String,
    num_qubits: u32,
    gates: Vec<Gate>,
    registers: RegisterMap,
}

impl Circuit {
    /// Creates an empty circuit over `num_qubits` qubits.
    pub fn new(name: impl Into<String>, num_qubits: u32) -> Self {
        Circuit {
            name: name.into(),
            num_qubits,
            gates: Vec::new(),
            registers: RegisterMap::new(),
        }
    }

    /// Creates an empty circuit whose qubits are defined by adding registers.
    pub fn with_registers(name: impl Into<String>) -> Self {
        Circuit {
            name: name.into(),
            num_qubits: 0,
            gates: Vec::new(),
            registers: RegisterMap::new(),
        }
    }

    /// Adds a named register of `size` qubits and returns its qubit range.
    ///
    /// The circuit's qubit count grows to cover the new register.
    pub fn add_register(
        &mut self,
        name: impl Into<String>,
        role: RegisterRole,
        size: u32,
    ) -> Range<Qubit> {
        let range = self.registers.add(name, role, size);
        self.num_qubits = self.num_qubits.max(self.registers.total_qubits());
        range
    }

    /// The circuit name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// Number of gates.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// True if the circuit contains no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The gates in program order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The register structure.
    pub fn registers(&self) -> &RegisterMap {
        &self.registers
    }

    /// Iterates over gates in program order.
    pub fn iter(&self) -> impl Iterator<Item = &Gate> {
        self.gates.iter()
    }

    /// Appends an arbitrary gate.
    ///
    /// # Panics
    ///
    /// Panics if any referenced qubit is out of range or a multi-qubit gate
    /// repeats a qubit.
    pub fn push(&mut self, gate: Gate) {
        check_operands(&self.name, self.num_qubits, &gate);
        self.gates.push(gate);
    }

    /// Appends every gate from an iterator.
    pub fn extend<I: IntoIterator<Item = Gate>>(&mut self, gates: I) {
        for g in gates {
            self.push(g);
        }
    }

    /// Appends all gates of another circuit (which must use the same qubit space).
    pub fn append(&mut self, other: &Circuit) {
        self.extend(other.gates.iter().cloned());
    }

    /// Appends a |0⟩ preparation.
    pub fn prep_z(&mut self, q: Qubit) {
        self.push(Gate::PrepZ(q));
    }

    /// Appends a |+⟩ preparation.
    pub fn prep_x(&mut self, q: Qubit) {
        self.push(Gate::PrepX(q));
    }

    /// Appends a Pauli-X gate.
    pub fn x(&mut self, q: Qubit) {
        self.push(Gate::X(q));
    }

    /// Appends a Pauli-Y gate.
    pub fn y(&mut self, q: Qubit) {
        self.push(Gate::Y(q));
    }

    /// Appends a Pauli-Z gate.
    pub fn z(&mut self, q: Qubit) {
        self.push(Gate::Z(q));
    }

    /// Appends a Hadamard gate.
    pub fn h(&mut self, q: Qubit) {
        self.push(Gate::H(q));
    }

    /// Appends an S gate.
    pub fn s(&mut self, q: Qubit) {
        self.push(Gate::S(q));
    }

    /// Appends an S† gate.
    pub fn sdg(&mut self, q: Qubit) {
        self.push(Gate::Sdg(q));
    }

    /// Appends a T gate.
    pub fn t(&mut self, q: Qubit) {
        self.push(Gate::T(q));
    }

    /// Appends a T† gate.
    pub fn tdg(&mut self, q: Qubit) {
        self.push(Gate::Tdg(q));
    }

    /// Appends a CNOT gate.
    pub fn cnot(&mut self, control: Qubit, target: Qubit) {
        self.push(Gate::Cnot { control, target });
    }

    /// Appends a CZ gate.
    pub fn cz(&mut self, a: Qubit, b: Qubit) {
        self.push(Gate::Cz { a, b });
    }

    /// Appends a Toffoli gate.
    pub fn toffoli(&mut self, control1: Qubit, control2: Qubit, target: Qubit) {
        self.push(Gate::Toffoli {
            control1,
            control2,
            target,
        });
    }

    /// Appends a multi-controlled X gate.
    pub fn mcx(&mut self, controls: Vec<Qubit>, target: Qubit) {
        self.push(Gate::MultiControlledX { controls, target });
    }

    /// Appends a destructive Z measurement.
    pub fn measure_z(&mut self, q: Qubit) {
        self.push(Gate::MeasureZ(q));
    }

    /// Appends a destructive X measurement.
    pub fn measure_x(&mut self, q: Qubit) {
        self.push(Gate::MeasureX(q));
    }

    /// Computes gate-count statistics.
    pub fn stats(&self) -> CircuitStats {
        CircuitStats::from_circuit(self)
    }

    /// True if every gate is in the Clifford+T+measurement base set.
    pub fn is_lowered(&self) -> bool {
        self.gates.iter().all(Gate::is_base_gate)
    }

    /// Returns a copy with a different name.
    pub fn renamed(&self, name: impl Into<String>) -> Circuit {
        let mut c = self.clone();
        c.name = name.into();
        c
    }
}

/// The operand checks of [`Circuit::push`], for a gate of the circuit `name`
/// over `num_qubits` qubits: every operand is in range and no multi-qubit gate
/// repeats one. Gates of up to three qubits (every gate a lowered circuit
/// holds) are checked in place; only a multi-controlled X builds an operand
/// list.
///
/// # Panics
///
/// Panics on the first operand that fails either check.
pub(crate) fn check_operands(name: &str, num_qubits: u32, gate: &Gate) {
    let check = |q: Qubit| {
        assert!(
            q < num_qubits,
            "qubit {q} out of range for circuit `{name}` with {num_qubits} qubits"
        );
    };
    match *gate {
        Gate::PrepZ(q)
        | Gate::PrepX(q)
        | Gate::X(q)
        | Gate::Y(q)
        | Gate::Z(q)
        | Gate::H(q)
        | Gate::S(q)
        | Gate::Sdg(q)
        | Gate::T(q)
        | Gate::Tdg(q)
        | Gate::MeasureZ(q)
        | Gate::MeasureX(q) => check(q),
        Gate::Cnot {
            control: a,
            target: b,
        }
        | Gate::Cz { a, b } => {
            check(a);
            check(b);
            assert_ne!(a, b, "gate {gate} repeats a qubit operand");
        }
        Gate::Toffoli {
            control1: a,
            control2: b,
            target: c,
        } => {
            check(a);
            check(b);
            check(c);
            assert!(
                a != b && a != c && b != c,
                "gate {gate} repeats a qubit operand"
            );
        }
        Gate::MultiControlledX { .. } => {
            let qs = gate.qubits();
            for &q in &qs {
                check(q);
            }
            let mut sorted = qs.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(
                sorted.len(),
                qs.len(),
                "gate {gate} repeats a qubit operand"
            );
        }
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit {} ({} qubits, {} gates)",
            self.name,
            self.num_qubits,
            self.gates.len()
        )?;
        for g in &self.gates {
            writeln!(f, "  {g}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a Gate;
    type IntoIter = std::slice::Iter<'a, Gate>;
    fn into_iter(self) -> Self::IntoIter {
        self.gates.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_methods_append_gates() {
        let mut c = Circuit::new("demo", 3);
        c.prep_z(0);
        c.h(0);
        c.s(1);
        c.sdg(1);
        c.t(2);
        c.tdg(2);
        c.x(0);
        c.y(1);
        c.z(2);
        c.cnot(0, 1);
        c.cz(1, 2);
        c.toffoli(0, 1, 2);
        c.mcx(vec![0, 1], 2);
        c.prep_x(0);
        c.measure_z(0);
        c.measure_x(1);
        assert_eq!(c.len(), 16);
        assert!(!c.is_empty());
        assert!(!c.is_lowered());
        assert_eq!(c.iter().count(), 16);
        assert_eq!((&c).into_iter().count(), 16);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_qubit_panics() {
        let mut c = Circuit::new("demo", 2);
        c.h(2);
    }

    #[test]
    #[should_panic(expected = "repeats a qubit")]
    fn repeated_operand_panics() {
        let mut c = Circuit::new("demo", 2);
        c.cnot(1, 1);
    }

    #[test]
    fn registers_grow_qubit_count() {
        let mut c = Circuit::with_registers("select");
        let ctrl = c.add_register("control", RegisterRole::Control, 4);
        let sys = c.add_register("system", RegisterRole::System, 9);
        assert_eq!(c.num_qubits(), 13);
        assert_eq!(ctrl, 0..4);
        assert_eq!(sys, 4..13);
        c.h(12);
        assert_eq!(c.registers().role_of(12), Some(RegisterRole::System));
    }

    #[test]
    fn append_concatenates_circuits() {
        let mut a = Circuit::new("a", 2);
        a.h(0);
        let mut b = Circuit::new("b", 2);
        b.cnot(0, 1);
        a.append(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.name(), "a");
    }

    #[test]
    fn renamed_copies_gates() {
        let mut a = Circuit::new("a", 1);
        a.h(0);
        let b = a.renamed("b");
        assert_eq!(b.name(), "b");
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn display_contains_header_and_gates() {
        let mut c = Circuit::new("d", 2);
        c.cnot(0, 1);
        let s = c.to_string();
        assert!(s.contains("circuit d (2 qubits, 1 gates)"));
        assert!(s.contains("cnot 0 1"));
    }
}
