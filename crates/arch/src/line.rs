//! The line-SAM bank model (Sec. IV-C-3).
//!
//! A line SAM trades a little memory density for much lower access latency: a
//! whole **scan line** (one row's worth of vacant cells) sweeps vertically
//! through the data region, and the CR spans the full bank height so any cell of
//! the row facing the scan line can be transferred immediately. Loading a qubit
//! therefore costs only the vertical distance between the scan position and the
//! target row (worst case `0.5·√n` with the line starting in the middle), and
//! consecutive accesses to the *same* row are essentially free.
//!
//! The bank is modelled as `R + 1` storage rows of `C` cells: the `R·C`-cell data
//! region plus the scan line's own `C` cells. The `C` vacancies are initially
//! concentrated in the middle row and migrate as qubits are stored: the
//! locality-aware store (Sec. V-B) parks a returning qubit in the row with a
//! vacancy closest to the most recently accessed row, so co-accessed qubits end
//! up sharing a row and later multi-qubit operations become cheap.

use crate::lattice::{Beats, LatticeError, QubitTag};
use crate::ledger::CheckoutLedger;

/// A single line-SAM bank.
///
/// Qubit tags are dense (`0..num_qubits` across the whole memory system), so
/// the per-qubit row tables are plain `Vec`s indexed by the tag value `QubitTag.0`
/// instead of hash maps: every row lookup on the simulator's hot path is one
/// array read.
///
/// Like the point bank, the line bank keeps a checkout ledger of exactly
/// which of its qubits are out in the CR, so `stored + checked_out` always
/// equals the bank's data-qubit count and [`LineSamBank::store`] rejects
/// foreign or never-loaded tags with [`LatticeError::QubitNotCheckedOut`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineSamBank {
    /// Number of storage rows (data rows plus the scan line's row).
    storage_rows: u32,
    /// Number of columns (capacity per row).
    cols: u32,
    /// Row the scan position is currently adjacent to.
    scan_row: u32,
    /// Row each stored qubit currently occupies, indexed by tag; `None` for
    /// qubits that are checked out or belong to another bank.
    row_of: Vec<Option<u32>>,
    /// Number of qubits currently stored in the bank.
    stored: usize,
    /// Number of occupied cells per row.
    occupancy: Vec<u32>,
    /// Exact cell count charged to this bank (data region + scan line).
    cell_count: u64,
    /// Park returning qubits in the most recently accessed row (true) or in
    /// their original row (false).
    locality_aware_store: bool,
    /// Original home row of every qubit, indexed by tag; `None` for qubits
    /// that belong to another bank.
    home_row: Vec<Option<u32>>,
    /// Number of data qubits this bank was built for (`stored + checked_out`).
    num_qubits: usize,
    /// Exactly which of this bank's qubits are checked out to the CR.
    ledger: CheckoutLedger,
}

impl LineSamBank {
    /// Builds a bank holding `qubits` in a near-square data region (`R×C` with
    /// `C ∈ {R, R+1}`), filled row-major around an initially empty middle row
    /// (the scan line).
    ///
    /// # Panics
    ///
    /// Panics if `qubits` is empty.
    pub fn new(qubits: &[QubitTag], locality_aware_store: bool) -> Self {
        assert!(
            !qubits.is_empty(),
            "a line-SAM bank needs at least one qubit"
        );
        let n = qubits.len() as u64;
        // Smallest R×C data region with C ∈ {R, R+1} and R·C ≥ n.
        let mut rows = (n as f64).sqrt().floor() as u32;
        if rows == 0 {
            rows = 1;
        }
        while (rows as u64) * (rows as u64 + 1) < n {
            rows += 1;
        }
        let cols = if (rows as u64) * (rows as u64) >= n {
            rows
        } else {
            rows + 1
        };
        let storage_rows = rows + 1;
        let scan_row = storage_rows / 2;

        let table_len = qubits.iter().map(|q| q.0 as usize + 1).max().unwrap_or(0);
        let mut row_of = vec![None; table_len];
        let mut occupancy = vec![0u32; storage_rows as usize];
        for (i, &q) in qubits.iter().enumerate() {
            let raw = (i as u32) / cols;
            // Skip the (initially empty) scan row in the middle of the bank.
            let row = if raw >= scan_row { raw + 1 } else { raw };
            row_of[q.0 as usize] = Some(row);
            occupancy[row as usize] += 1;
        }

        let bank = LineSamBank {
            storage_rows,
            cols,
            scan_row,
            home_row: row_of.clone(),
            row_of,
            stored: qubits.len(),
            occupancy,
            cell_count: rows as u64 * cols as u64 + cols as u64,
            locality_aware_store,
            num_qubits: qubits.len(),
            ledger: CheckoutLedger::new(table_len),
        };
        bank.debug_assert_invariants();
        bank
    }

    /// Debug-asserts the bank's accounting after every mutation: every data
    /// qubit is either stored or checked out, and the per-row occupancy sums
    /// to the stored count without exceeding any row's capacity.
    #[inline]
    fn debug_assert_invariants(&self) {
        debug_assert_eq!(
            self.stored + self.ledger.count(),
            self.num_qubits,
            "stored + checked_out must equal the bank's data-qubit count"
        );
        debug_assert_eq!(
            self.occupancy.iter().map(|&o| o as usize).sum::<usize>(),
            self.stored,
            "row occupancy must sum to the stored count"
        );
        debug_assert!(self.occupancy.iter().all(|&o| o <= self.cols));
        debug_assert!(
            self.ledger.iter().all(|q| self.row_of(q).is_none()),
            "a checked-out qubit cannot simultaneously occupy a row"
        );
    }

    /// Number of this bank's qubits currently checked out to the CR.
    pub fn checked_out_count(&self) -> usize {
        self.ledger.count()
    }

    /// True if `qubit` is currently checked out of this bank to the CR.
    pub fn is_checked_out(&self, qubit: QubitTag) -> bool {
        self.ledger.is_checked_out(qubit)
    }

    /// Exact number of cells charged to this bank (data region plus scan line).
    pub fn cell_count(&self) -> u64 {
        self.cell_count
    }

    /// The row the scan line starts adjacent to (the middle of the bank). The
    /// line-SAM CR spans the full bank height, so every storage row faces a
    /// port cell; this is the anchor row analogous to the point-SAM port.
    pub fn port_row(&self) -> u32 {
        self.storage_rows / 2
    }

    /// Bank height including the scan line; the CR column must span this height.
    pub fn total_height(&self) -> u32 {
        self.storage_rows
    }

    /// Number of qubits currently stored in the bank.
    pub fn stored_qubits(&self) -> usize {
        self.stored
    }

    /// True if `qubit` is currently stored in this bank.
    pub fn contains(&self, qubit: QubitTag) -> bool {
        self.row_of(qubit).is_some()
    }

    /// The row currently holding `qubit`.
    pub fn row_of(&self, qubit: QubitTag) -> Option<u32> {
        self.row_of.get(qubit.0 as usize).copied().flatten()
    }

    fn require_row(&self, qubit: QubitTag) -> Result<u32, LatticeError> {
        self.row_of(qubit)
            .ok_or(LatticeError::QubitNotPresent { qubit })
    }

    fn distance(&self, row: u32) -> Beats {
        Beats(self.scan_row.abs_diff(row) as u64)
    }

    /// Estimated load latency without mutating the bank state.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::QubitNotPresent`] if the qubit is not stored here.
    pub fn peek_load(&self, qubit: QubitTag) -> Result<Beats, LatticeError> {
        let row = self.require_row(qubit)?;
        Ok(self.distance(row) + Beats(1))
    }

    /// Loads `qubit` out of the bank and returns the latency in beats: the
    /// vertical seek of the scan position plus one beat to transfer into the CR.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::QubitNotPresent`] if the qubit is not stored here.
    pub fn load(&mut self, qubit: QubitTag) -> Result<Beats, LatticeError> {
        let row = self.require_row(qubit)?;
        let cost = self.distance(row) + Beats(1);
        self.row_of[qubit.0 as usize] = None;
        self.stored -= 1;
        self.occupancy[row as usize] -= 1;
        self.ledger.check_out(qubit);
        self.scan_row = row;
        self.debug_assert_invariants();
        Ok(cost)
    }

    /// Row chosen by the store policy: with locality awareness, the row with a
    /// vacancy closest to the current scan position; otherwise the qubit's home
    /// row (or the closest row with space if the home row is full).
    fn store_row(&self, qubit: QubitTag) -> Result<u32, LatticeError> {
        let preferred = if self.locality_aware_store {
            self.scan_row
        } else {
            self.home_row
                .get(qubit.0 as usize)
                .copied()
                .flatten()
                .ok_or(LatticeError::QubitNotPresent { qubit })?
        };
        (0..self.storage_rows)
            .filter(|&r| self.occupancy[r as usize] < self.cols)
            .min_by_key(|&r| r.abs_diff(preferred))
            .ok_or(LatticeError::GridFull)
    }

    /// Stores `qubit` back into the bank and returns the latency in beats.
    /// Only qubits recorded in the checkout ledger — i.e. previously loaded
    /// from *this* bank — are accepted: a foreign tag would inflate the bank
    /// beyond its data-qubit count and corrupt the row accounting.
    ///
    /// # Errors
    ///
    /// * [`LatticeError::QubitAlreadyPlaced`] if the qubit never left.
    /// * [`LatticeError::QubitNotCheckedOut`] if the qubit was never loaded
    ///   from this bank (including foreign tags).
    pub fn store(&mut self, qubit: QubitTag) -> Result<Beats, LatticeError> {
        if let Some(row) = self.row_of(qubit) {
            return Err(LatticeError::QubitAlreadyPlaced {
                qubit,
                at: crate::lattice::Coord::new(0, row),
            });
        }
        if !self.ledger.is_checked_out(qubit) {
            return Err(LatticeError::QubitNotCheckedOut { qubit });
        }
        let dest = self.store_row(qubit)?;
        let cost = self.distance(dest) + Beats(1);
        // Checked-out tags are always within the bank's own tag range, so the
        // dense row table needs no growth here.
        self.row_of[qubit.0 as usize] = Some(dest);
        self.stored += 1;
        self.occupancy[dest as usize] += 1;
        self.ledger.check_in(qubit);
        self.scan_row = dest;
        self.debug_assert_invariants();
        Ok(cost)
    }

    /// Moves the scan position next to `qubit`'s row for an in-memory
    /// single-qubit operation and returns the seek latency.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::QubitNotPresent`] if the qubit is not stored here.
    pub fn in_memory_seek(&mut self, qubit: QubitTag) -> Result<Beats, LatticeError> {
        let row = self.require_row(qubit)?;
        let cost = self.distance(row);
        self.scan_row = row;
        Ok(cost)
    }

    /// Access cost for an in-memory two-qubit operation between a CR slot and
    /// `qubit`: the scan position seeks to the target row, which then provides
    /// the lattice-surgery path to the full-height CR. The qubit stays in place.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::QubitNotPresent`] if the qubit is not stored here.
    pub fn in_memory_two_qubit_access(&mut self, qubit: QubitTag) -> Result<Beats, LatticeError> {
        self.in_memory_seek(qubit)
    }

    /// Hot-set migration swap: extracts `outgoing` from its row (promotion
    /// into the conventional region) and parks `incoming` (the demoted qubit)
    /// in the row with a vacancy nearest the freed one, conserving the bank's
    /// row accounting. Returns the combined seek + transfer latency of both
    /// movements. Neither qubit touches the checkout ledger — migration moves
    /// *stored* qubits, never checked-out ones.
    ///
    /// # Errors
    ///
    /// * [`LatticeError::QubitNotPresent`] if `outgoing` is not stored here.
    /// * [`LatticeError::QubitAlreadyPlaced`] if `incoming` already is.
    pub fn migrate_swap(
        &mut self,
        outgoing: QubitTag,
        incoming: QubitTag,
    ) -> Result<Beats, LatticeError> {
        let row = self.require_row(outgoing)?;
        if let Some(at) = self.row_of(incoming) {
            return Err(LatticeError::QubitAlreadyPlaced {
                qubit: incoming,
                at: crate::lattice::Coord::new(0, at),
            });
        }
        let out_cost = self.distance(row) + Beats(1);
        self.row_of[outgoing.0 as usize] = None;
        self.stored -= 1;
        self.occupancy[row as usize] -= 1;
        self.scan_row = row;
        // The freed slot guarantees a destination exists.
        let dest = (0..self.storage_rows)
            .filter(|&r| self.occupancy[r as usize] < self.cols)
            .min_by_key(|&r| r.abs_diff(row))
            .expect("the outgoing qubit freed a row slot");
        let in_cost = self.distance(dest) + Beats(1);
        // The demoted qubit may carry a tag beyond the range this bank was
        // built for; the dense per-tag tables grow to admit it.
        let table_len = incoming.0 as usize + 1;
        if table_len > self.row_of.len() {
            self.row_of.resize(table_len, None);
            self.home_row.resize(table_len, None);
        }
        self.ledger.grow(table_len);
        self.row_of[incoming.0 as usize] = Some(dest);
        self.stored += 1;
        self.occupancy[dest as usize] += 1;
        self.home_row[outgoing.0 as usize] = None;
        self.home_row[incoming.0 as usize] = Some(dest);
        self.scan_row = dest;
        self.debug_assert_invariants();
        Ok(out_cost + in_cost)
    }

    /// Applies an in-memory operation to a whole row at once (the line-SAM bulk
    /// Hadamard/phase of Fig. 12c): returns the seek latency to that row.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::OutOfBounds`] if the row index is invalid.
    pub fn seek_row(&mut self, row: u32) -> Result<Beats, LatticeError> {
        if row >= self.storage_rows {
            return Err(LatticeError::OutOfBounds {
                coord: crate::lattice::Coord::new(0, row),
                width: self.cols,
                height: self.storage_rows,
            });
        }
        let cost = self.distance(row);
        self.scan_row = row;
        Ok(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qubits(n: u32) -> Vec<QubitTag> {
        (0..n).map(QubitTag).collect()
    }

    #[test]
    fn multiplier_bank_matches_the_paper_cell_count() {
        // 400 data qubits: 20×20 data region + a 20-cell scan line = 420 cells.
        let bank = LineSamBank::new(&qubits(400), true);
        assert_eq!(bank.cell_count(), 420);
        assert_eq!(bank.total_height(), 21);
        assert_eq!(bank.stored_qubits(), 400);
        // The scan line starts at the anchor (port) row in the middle.
        assert_eq!(bank.port_row(), 10);
        assert_eq!(bank.scan_row, bank.port_row());
    }

    #[test]
    fn non_square_counts_use_the_rectangular_shape() {
        // 30 qubits: 5×6 data region (C = R+1) + 6 scan cells = 36.
        let bank = LineSamBank::new(&qubits(30), true);
        assert_eq!(bank.cell_count(), 36);
        // 20 qubits: 4×5 + 5 = 25.
        let bank = LineSamBank::new(&qubits(20), true);
        assert_eq!(bank.cell_count(), 25);
    }

    #[test]
    fn load_latency_is_row_distance_plus_one() {
        let bank = LineSamBank::new(&qubits(100), true);
        // 10 data rows plus the scan row in the middle (row 5 of 11); qubit 0
        // sits in row 0, so its load costs 5 + 1.
        assert_eq!(bank.peek_load(QubitTag(0)).unwrap(), Beats(6));
        // A qubit just below the scan row costs the one-row seek plus transfer.
        assert_eq!(bank.row_of(QubitTag(51)), Some(6));
        assert_eq!(bank.peek_load(QubitTag(51)).unwrap(), Beats(2));
    }

    #[test]
    fn worst_case_load_is_half_sqrt_n() {
        let n = 400u32;
        let bank = LineSamBank::new(&qubits(n), true);
        let worst = (0..n)
            .map(|q| bank.peek_load(QubitTag(q)).unwrap())
            .max()
            .unwrap();
        // 0.5 * sqrt(400) = 10 (plus the one-beat transfer).
        assert_eq!(worst, Beats(11));
    }

    #[test]
    fn same_row_access_after_a_load_is_cheap() {
        let mut bank = LineSamBank::new(&qubits(100), true);
        // Load a qubit from row 0; the scan position follows it there.
        bank.load(QubitTag(3)).unwrap();
        // Its row neighbours are now one beat away.
        assert_eq!(bank.peek_load(QubitTag(4)).unwrap(), Beats(1));
        assert_eq!(bank.in_memory_seek(QubitTag(7)).unwrap(), Beats(0));
    }

    #[test]
    fn locality_aware_store_co_locates_with_the_last_access() {
        let mut bank = LineSamBank::new(&qubits(100), true);
        let q = QubitTag(0);
        let partner = QubitTag(95);
        let partner_row = bank.row_of(partner).unwrap();
        let home_row = bank.row_of(q).unwrap();
        bank.load(q).unwrap();
        // Free a cell in the partner's row, then touch the partner so the scan
        // position moves there.
        bank.load(QubitTag(99)).unwrap();
        bank.in_memory_seek(partner).unwrap();
        bank.store(q).unwrap();
        // The qubit is parked in the partner's row instead of returning home.
        let stored_row = bank.row_of(q).unwrap();
        assert_eq!(stored_row, partner_row);
        assert_ne!(stored_row, home_row);
        // A follow-up joint access is now nearly free.
        assert!(bank.peek_load(q).unwrap() <= Beats(2));
        bank.store(QubitTag(99)).unwrap();
        assert_eq!(bank.stored_qubits(), 100);
    }

    #[test]
    fn home_store_policy_returns_to_the_original_row() {
        let mut bank = LineSamBank::new(&qubits(99), false);
        let q = QubitTag(0);
        let home = bank.row_of(q).unwrap();
        bank.load(q).unwrap();
        bank.in_memory_seek(QubitTag(95)).unwrap();
        bank.store(q).unwrap();
        assert_eq!(bank.row_of(q), Some(home));
    }

    #[test]
    fn store_without_load_is_rejected() {
        let mut bank = LineSamBank::new(&qubits(10), true);
        assert!(matches!(
            bank.store(QubitTag(3)),
            Err(LatticeError::QubitAlreadyPlaced { .. })
        ));
        assert!(matches!(
            bank.load(QubitTag(99)),
            Err(LatticeError::QubitNotPresent { .. })
        ));
    }

    #[test]
    fn store_of_a_never_checked_out_qubit_is_rejected() {
        let mut bank = LineSamBank::new(&qubits(10), true);
        // A foreign tag that was never loaded from this bank used to be
        // silently absorbed into a row; now it is a typed ledger violation.
        assert!(matches!(
            bank.store(QubitTag(99)),
            Err(LatticeError::QubitNotCheckedOut {
                qubit: QubitTag(99)
            })
        ));
        assert_eq!(bank.stored_qubits(), 10);
        assert_eq!(bank.checked_out_count(), 0);
        // Same for the home-row store policy.
        let mut home = LineSamBank::new(&qubits(10), false);
        assert!(matches!(
            home.store(QubitTag(99)),
            Err(LatticeError::QubitNotCheckedOut { .. })
        ));
        // A legitimate round trip settles the ledger.
        bank.load(QubitTag(7)).unwrap();
        assert!(bank.is_checked_out(QubitTag(7)));
        assert_eq!(bank.checked_out_count(), 1);
        bank.store(QubitTag(7)).unwrap();
        assert!(!bank.is_checked_out(QubitTag(7)));
        assert!(bank.store(QubitTag(7)).is_err());
    }

    #[test]
    fn vacancies_migrate_as_qubits_are_stored_elsewhere() {
        let mut bank = LineSamBank::new(&qubits(16), true);
        // 16 qubits in a 4x4 data region around an empty middle row.
        let q0_row = bank.row_of(QubitTag(0)).unwrap();
        bank.load(QubitTag(0)).unwrap();
        bank.load(QubitTag(15)).unwrap();
        let far_row = bank.row_of(QubitTag(12)).unwrap();
        bank.in_memory_seek(QubitTag(12)).unwrap();
        bank.store(QubitTag(0)).unwrap();
        // Qubit 0 left its home row and joined (or neighboured) the far row.
        let new_row = bank.row_of(QubitTag(0)).unwrap();
        assert_ne!(new_row, q0_row);
        assert!(new_row.abs_diff(far_row) <= 1);
        bank.store(QubitTag(15)).unwrap();
        assert_eq!(bank.stored_qubits(), 16);
    }

    #[test]
    fn seek_row_bounds_are_checked() {
        let mut bank = LineSamBank::new(&qubits(16), true);
        assert!(bank.seek_row(3).is_ok());
        assert!(bank.seek_row(99).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one qubit")]
    fn empty_bank_panics() {
        let _ = LineSamBank::new(&[], true);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Load/store sequences conserve the stored-qubit count and never exceed
        /// the bank's row capacity; latencies stay within the bank height.
        #[test]
        fn load_store_sequences_preserve_occupancy(
            n in 4u32..200,
            accesses in proptest::collection::vec(0u32..200, 1..80)
        ) {
            let qubits: Vec<QubitTag> = (0..n).map(QubitTag).collect();
            let mut bank = LineSamBank::new(&qubits, true);
            let height = bank.total_height() as u64;
            for a in accesses {
                let q = QubitTag(a % n);
                if bank.contains(q) {
                    let cost = bank.load(q).unwrap();
                    prop_assert!(cost.as_u64() <= height + 1);
                    let cost = bank.store(q).unwrap();
                    prop_assert!(cost.as_u64() <= height + 1);
                }
                prop_assert_eq!(bank.stored_qubits(), n as usize);
                // No row ever exceeds its capacity.
                for r in 0..bank.total_height() {
                    prop_assert!(bank.occupancy[r as usize] <= bank.cols);
                }
            }
        }

        /// The dense `row_of` table is observationally identical to the seed's
        /// `HashMap<QubitTag, u32>` through random load/store/seek sequences.
        #[test]
        fn dense_row_table_matches_hashmap_semantics(
            n in 4u32..150,
            ops in proptest::collection::vec((0u32..200, 0u32..3), 1..100),
        ) {
            let qubits: Vec<QubitTag> = (0..n).map(QubitTag).collect();
            let mut bank = LineSamBank::new(&qubits, true);
            let mut mirror: std::collections::HashMap<QubitTag, u32> = qubits
                .iter()
                .map(|&q| (q, bank.row_of(q).unwrap()))
                .collect();
            for (tag, op) in ops {
                let q = QubitTag(tag);
                match op {
                    0 => {
                        if bank.load(q).is_ok() {
                            mirror.remove(&q);
                        }
                    }
                    1 => {
                        if bank.store(q).is_ok() {
                            mirror.insert(q, bank.row_of(q).unwrap());
                        }
                    }
                    _ => {
                        // Seeks move the scan line, never the stored rows.
                        let _ = bank.in_memory_seek(q);
                    }
                }
                prop_assert_eq!(bank.row_of(q), mirror.get(&q).copied());
                prop_assert_eq!(bank.contains(q), mirror.contains_key(&q));
                prop_assert_eq!(bank.stored_qubits(), mirror.len());
            }
            // Full-table agreement at the end, including never-touched tags.
            for tag in 0..200 {
                let q = QubitTag(tag);
                prop_assert_eq!(bank.row_of(q), mirror.get(&q).copied());
            }
        }

        /// The checkout ledger keeps `stored + checked_out == n` and per-row
        /// occupancy consistent across random load/store sequences that
        /// include foreign tags, and accepts a store exactly when the qubit
        /// is in the ledger.
        #[test]
        fn checkout_ledger_preserves_the_bank_invariants(
            n in 4u32..200,
            ops in proptest::collection::vec((0u32..250, proptest::bool::ANY), 1..120),
        ) {
            let qubits: Vec<QubitTag> = (0..n).map(QubitTag).collect();
            let mut bank = LineSamBank::new(&qubits, true);
            let mut out: std::collections::HashSet<QubitTag> =
                std::collections::HashSet::new();
            for (tag, load) in ops {
                let q = QubitTag(tag);
                if load {
                    let loaded = bank.load(q).is_ok();
                    prop_assert_eq!(loaded, tag < n && !out.contains(&q));
                    if loaded {
                        out.insert(q);
                    }
                } else {
                    let stored = bank.store(q);
                    prop_assert_eq!(stored.is_ok(), out.contains(&q));
                    if stored.is_ok() {
                        out.remove(&q);
                    } else if !bank.contains(q) {
                        prop_assert_eq!(
                            stored.unwrap_err(),
                            LatticeError::QubitNotCheckedOut { qubit: q }
                        );
                    }
                }
                prop_assert_eq!(bank.checked_out_count(), out.len());
                prop_assert_eq!(
                    bank.stored_qubits() + bank.checked_out_count(),
                    n as usize
                );
                let occupied: u32 = bank.occupancy.iter().sum();
                prop_assert_eq!(occupied as usize, bank.stored_qubits());
                for &q in &out {
                    prop_assert!(bank.is_checked_out(q));
                }
            }
        }
    }
}
