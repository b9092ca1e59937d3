//! Logical gates.

use std::fmt;

/// Index of a logical qubit within a circuit.
pub type Qubit = u32;

/// A logical gate or operation on circuit qubits.
///
/// The set covers everything the benchmark generators need: the Clifford+T base
/// set the compiler consumes plus the composite gates (CZ, Toffoli,
/// multi-controlled X) that the decomposition passes lower.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Gate {
    /// Prepare a qubit in |0⟩.
    PrepZ(Qubit),
    /// Prepare a qubit in |+⟩.
    PrepX(Qubit),
    /// Pauli-X gate.
    X(Qubit),
    /// Pauli-Y gate.
    Y(Qubit),
    /// Pauli-Z gate.
    Z(Qubit),
    /// Hadamard gate.
    H(Qubit),
    /// Phase gate S.
    S(Qubit),
    /// Inverse phase gate S†.
    Sdg(Qubit),
    /// Non-Clifford T gate.
    T(Qubit),
    /// Inverse T gate T†.
    Tdg(Qubit),
    /// Controlled-NOT.
    Cnot {
        /// Control qubit.
        control: Qubit,
        /// Target qubit.
        target: Qubit,
    },
    /// Controlled-Z.
    Cz {
        /// First qubit.
        a: Qubit,
        /// Second qubit.
        b: Qubit,
    },
    /// Toffoli (CCX) gate.
    Toffoli {
        /// First control.
        control1: Qubit,
        /// Second control.
        control2: Qubit,
        /// Target qubit.
        target: Qubit,
    },
    /// Multi-controlled X with an arbitrary number of controls.
    MultiControlledX {
        /// Control qubits (must be non-empty and disjoint from the target).
        controls: Vec<Qubit>,
        /// Target qubit.
        target: Qubit,
    },
    /// Destructive Pauli-Z measurement.
    MeasureZ(Qubit),
    /// Destructive Pauli-X measurement.
    MeasureX(Qubit),
}

impl Gate {
    /// Every qubit this gate touches, in syntactic order.
    pub fn qubits(&self) -> Vec<Qubit> {
        match self {
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
            | Gate::MeasureX(q) => vec![*q],
            Gate::Cnot { control, target } => vec![*control, *target],
            Gate::Cz { a, b } => vec![*a, *b],
            Gate::Toffoli {
                control1,
                control2,
                target,
            } => vec![*control1, *control2, *target],
            Gate::MultiControlledX { controls, target } => {
                let mut qs = controls.clone();
                qs.push(*target);
                qs
            }
        }
    }

    /// Number of qubits this gate touches.
    pub fn arity(&self) -> usize {
        self.qubits().len()
    }

    /// True for the non-Clifford gates that consume a magic state after
    /// compilation (T and T†).
    pub fn is_t_like(&self) -> bool {
        matches!(self, Gate::T(_) | Gate::Tdg(_))
    }

    /// True for gates already in the Clifford+T+measurement base set accepted by
    /// the LSQCA compiler. CZ is not one: lowering always rewrites it as an
    /// H-conjugated CNOT.
    pub fn is_base_gate(&self) -> bool {
        !matches!(
            self,
            Gate::Cz { .. } | Gate::Toffoli { .. } | Gate::MultiControlledX { .. }
        )
    }

    /// True for single-qubit Pauli gates, which have negligible latency on a
    /// surface code (they are tracked in the Pauli frame).
    pub fn is_pauli(&self) -> bool {
        matches!(self, Gate::X(_) | Gate::Y(_) | Gate::Z(_))
    }

    /// True for measurement operations.
    pub fn is_measurement(&self) -> bool {
        matches!(self, Gate::MeasureZ(_) | Gate::MeasureX(_))
    }

    /// True for state preparations.
    pub fn is_preparation(&self) -> bool {
        matches!(self, Gate::PrepZ(_) | Gate::PrepX(_))
    }

    /// A short mnemonic for the gate.
    pub fn name(&self) -> &'static str {
        match self {
            Gate::PrepZ(_) => "prep_z",
            Gate::PrepX(_) => "prep_x",
            Gate::X(_) => "x",
            Gate::Y(_) => "y",
            Gate::Z(_) => "z",
            Gate::H(_) => "h",
            Gate::S(_) => "s",
            Gate::Sdg(_) => "sdg",
            Gate::T(_) => "t",
            Gate::Tdg(_) => "tdg",
            Gate::Cnot { .. } => "cnot",
            Gate::Cz { .. } => "cz",
            Gate::Toffoli { .. } => "toffoli",
            Gate::MultiControlledX { .. } => "mcx",
            Gate::MeasureZ(_) => "measure_z",
            Gate::MeasureX(_) => "measure_x",
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())?;
        let qs = self.qubits();
        let formatted: Vec<String> = qs.iter().map(|q| q.to_string()).collect();
        write!(f, " {}", formatted.join(" "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qubit_extraction_and_arity() {
        assert_eq!(Gate::H(3).qubits(), vec![3]);
        assert_eq!(
            Gate::Cnot {
                control: 1,
                target: 2
            }
            .qubits(),
            vec![1, 2]
        );
        assert_eq!(
            Gate::Toffoli {
                control1: 0,
                control2: 1,
                target: 2
            }
            .arity(),
            3
        );
        assert_eq!(
            Gate::MultiControlledX {
                controls: vec![0, 1, 2],
                target: 5
            }
            .qubits(),
            vec![0, 1, 2, 5]
        );
    }

    #[test]
    fn classification_predicates() {
        assert!(Gate::T(0).is_t_like());
        assert!(Gate::Tdg(0).is_t_like());
        assert!(!Gate::S(0).is_t_like());
        assert!(Gate::H(0).is_base_gate());
        assert!(!Gate::Cz { a: 0, b: 1 }.is_base_gate());
        assert!(!Gate::Toffoli {
            control1: 0,
            control2: 1,
            target: 2
        }
        .is_base_gate());
        assert!(Gate::X(0).is_pauli());
        assert!(!Gate::H(0).is_pauli());
        assert!(Gate::MeasureZ(0).is_measurement());
        assert!(Gate::PrepZ(0).is_preparation());
        assert!(!Gate::PrepZ(0).is_measurement());
    }

    #[test]
    fn display_contains_name_and_qubits() {
        assert_eq!(
            Gate::Cnot {
                control: 4,
                target: 7
            }
            .to_string(),
            "cnot 4 7"
        );
        assert_eq!(Gate::T(2).to_string(), "t 2");
    }
}
