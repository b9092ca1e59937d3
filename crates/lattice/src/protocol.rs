//! Code-beat latencies of the primitive fault-tolerant protocols.
//!
//! These are the building blocks from Fig. 4 of the paper: lattice surgery
//! (merge + split), patch moves realized by expand/contract, the deformation-based
//! Hadamard and phase gates, and state preparations / destructive measurements.
//! Everything the LSQCA instruction set does — loads, stores, in-memory gates —
//! decomposes into sequences of these primitives, and the SAM latency models are
//! derived from the per-primitive costs collected in [`ProtocolLatencies`].

use crate::timing::Beats;

/// Code-beat latencies of the primitive protocols (Fig. 4 / Sec. II-C).
///
/// The defaults are the values assumed throughout the paper's evaluation:
///
/// | primitive | beats |
/// |---|---|
/// | lattice surgery (merge+split) | 1 |
/// | single move step | 1 |
/// | point-SAM diagonal move | 6 (4 with a second vacancy) |
/// | point-SAM straight move | 5 (3 with a second vacancy) |
/// | Hadamard | 3 |
/// | Phase (S) | 2 |
/// | preparations and 1-qubit measurements | 0 |
/// | line-SAM line shift | 1 |
///
/// The struct is plain data so alternative device assumptions can be explored by
/// constructing a different instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProtocolLatencies {
    /// Lattice surgery merge+split.
    pub lattice_surgery: Beats,
    /// One-cell patch move.
    pub move_step: Beats,
    /// Diagonal target move with a single vacancy.
    pub diagonal_move: Beats,
    /// Straight target move with a single vacancy.
    pub straight_move: Beats,
    /// Diagonal target move with two vacancies.
    pub diagonal_move_two_vacancies: Beats,
    /// Straight target move with two vacancies.
    pub straight_move_two_vacancies: Beats,
    /// Hadamard gate.
    pub hadamard: Beats,
    /// Phase (S) gate.
    pub phase: Beats,
    /// |0⟩ preparation.
    pub prepare_zero: Beats,
    /// |+⟩ preparation.
    pub prepare_plus: Beats,
    /// Single-qubit Pauli-X measurement.
    pub measure_x: Beats,
    /// Single-qubit Pauli-Z measurement.
    pub measure_z: Beats,
    /// Line-SAM row shift by one cell.
    pub line_shift: Beats,
}

impl ProtocolLatencies {
    /// The latencies assumed by the paper (see the table in the type docs).
    pub const fn paper() -> Self {
        ProtocolLatencies {
            lattice_surgery: Beats(1),
            move_step: Beats(1),
            diagonal_move: Beats(6),
            straight_move: Beats(5),
            diagonal_move_two_vacancies: Beats(4),
            straight_move_two_vacancies: Beats(3),
            hadamard: Beats(3),
            phase: Beats(2),
            prepare_zero: Beats(0),
            prepare_plus: Beats(0),
            measure_x: Beats(0),
            measure_z: Beats(0),
            line_shift: Beats(1),
        }
    }

    /// Latency of transporting a target cell `dx` cells horizontally and `dy`
    /// cells vertically inside a point SAM, combining diagonal and straight moves
    /// (the `6·min + 5·|dx−dy|` term of the paper's load-cost estimate).
    ///
    /// With `two_vacancies` the cheaper per-move costs of the second-load
    /// optimization are used.
    pub fn point_transport(&self, dx: u32, dy: u32, two_vacancies: bool) -> Beats {
        let diagonal = dx.min(dy) as u64;
        let straight = dx.abs_diff(dy) as u64;
        if two_vacancies {
            self.diagonal_move_two_vacancies * diagonal
                + self.straight_move_two_vacancies * straight
        } else {
            self.diagonal_move * diagonal + self.straight_move * straight
        }
    }
}

impl Default for ProtocolLatencies {
    fn default() -> Self {
        ProtocolLatencies::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values_match_the_text() {
        let lat = ProtocolLatencies::paper();
        assert_eq!(lat.lattice_surgery, Beats(1));
        assert_eq!(lat.hadamard, Beats(3));
        assert_eq!(lat.phase, Beats(2));
        assert_eq!(lat.diagonal_move, Beats(6));
        assert_eq!(lat.straight_move, Beats(5));
        assert_eq!(lat.diagonal_move_two_vacancies, Beats(4));
        assert_eq!(lat.straight_move_two_vacancies, Beats(3));
        assert_eq!(lat.prepare_zero, Beats(0));
        assert_eq!(lat.measure_x, Beats(0));
        assert_eq!(ProtocolLatencies::default(), ProtocolLatencies::paper());
    }

    #[test]
    fn point_transport_matches_paper_formula() {
        let lat = ProtocolLatencies::paper();
        // W = 3, H = 2: 2 diagonal moves (6 beats) + 1 straight move (5 beats).
        assert_eq!(lat.point_transport(3, 2, false), Beats(2 * 6 + 5));
        // Same distance with two vacancies available is cheaper.
        assert_eq!(lat.point_transport(3, 2, true), Beats(2 * 4 + 3));
        // Degenerate cases.
        assert_eq!(lat.point_transport(0, 0, false), Beats(0));
        assert_eq!(lat.point_transport(4, 0, false), Beats(20));
        assert_eq!(lat.point_transport(0, 4, false), Beats(20));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The transport cost is monotone in both axes and the two-vacancy
        /// optimization never makes a load slower.
        #[test]
        fn transport_cost_monotone(dx in 0u32..60, dy in 0u32..60) {
            let lat = ProtocolLatencies::paper();
            let base = lat.point_transport(dx, dy, false);
            prop_assert!(lat.point_transport(dx + 1, dy, false) >= base);
            prop_assert!(lat.point_transport(dx, dy + 1, false) >= base);
            prop_assert!(lat.point_transport(dx, dy, true) <= base);
            // Symmetric in dx/dy.
            prop_assert_eq!(lat.point_transport(dy, dx, false), base);
        }
    }
}
