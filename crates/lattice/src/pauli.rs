//! Single-qubit Pauli operators.
//!
//! Logical operations in a lattice-surgery FTQC are expressed as Pauli
//! preparations, Pauli unitaries, and Pauli measurements. The SELECT workload
//! names the Pauli of each Hamiltonian term it applies with [`Pauli`].

use std::fmt;

/// A single-qubit Pauli operator (identity excluded unless stated).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Pauli {
    /// The identity operator.
    I,
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
}

impl Pauli {
    /// All four Pauli operators.
    pub const ALL: [Pauli; 4] = [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z];

    /// True for the identity operator.
    pub fn is_identity(self) -> bool {
        matches!(self, Pauli::I)
    }

    /// Whether two Pauli operators commute.
    pub fn commutes_with(self, other: Pauli) -> bool {
        self == other || self.is_identity() || other.is_identity()
    }

    /// The product of two Pauli operators, ignoring the global phase.
    ///
    /// ```
    /// use lsqca_lattice::Pauli;
    /// assert_eq!(Pauli::X.compose(Pauli::Z), Pauli::Y);
    /// assert_eq!(Pauli::X.compose(Pauli::X), Pauli::I);
    /// ```
    pub fn compose(self, other: Pauli) -> Pauli {
        use Pauli::*;
        match (self, other) {
            (I, p) | (p, I) => p,
            (a, b) if a == b => I,
            (X, Y) | (Y, X) => Z,
            (Y, Z) | (Z, Y) => X,
            (X, Z) | (Z, X) => Y,
            _ => unreachable!("all pairs covered"),
        }
    }
}

impl fmt::Display for Pauli {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Pauli::I => "I",
            Pauli::X => "X",
            Pauli::Y => "Y",
            Pauli::Z => "Z",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_pauli_composition_table() {
        use Pauli::*;
        assert_eq!(X.compose(X), I);
        assert_eq!(Y.compose(Y), I);
        assert_eq!(Z.compose(Z), I);
        assert_eq!(X.compose(Y), Z);
        assert_eq!(Y.compose(Z), X);
        assert_eq!(Z.compose(X), Y);
        assert_eq!(I.compose(Z), Z);
        assert_eq!(Z.compose(I), Z);
    }

    #[test]
    fn single_pauli_commutation() {
        use Pauli::*;
        assert!(X.commutes_with(X));
        assert!(I.commutes_with(Z));
        assert!(!X.commutes_with(Z));
        assert!(!Y.commutes_with(Z));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Pauli::Y.to_string(), "Y");
    }
}
