//! The point-SAM bank model (Sec. IV-C-2).
//!
//! A point SAM stores `n` logical qubits in `n + 1` cells: every cell holds data
//! except a single vacancy, the **scan cell**, which is walked around like the
//! hole of a sliding puzzle to extract and insert qubits. Loading a qubit costs
//!
//! * a **seek**: the scan cell walks to the target (`W + H` beats, one per cell), then
//! * a **transport**: the target is marched to the port next to the CR, costing
//!   6 beats per diagonal step and 5 per straight step (4 / 3 once a second
//!   vacancy exists because another qubit is currently checked out).
//!
//! Stores use the **locality-aware** policy by default: the returning qubit is
//! parked in the vacant cell closest to the port, so recently used qubits
//! migrate towards the CR and their next load is cheap (Sec. V-B). In-memory
//! operations only pay the seek (plus the gate itself), and an in-memory
//! two-qubit access drags the target next to the port without the final move
//! into a register cell (Sec. V-C).

use crate::ledger::CheckoutLedger;
use lsqca_lattice::{Beats, CellGrid, Coord, LatticeError, ProtocolLatencies, QubitTag};

/// A single point-SAM bank.
///
/// The bank enforces the paper's `n + 1`-cell invariant through its checkout
/// ledger: at all times `stored + checked_out == n` and the grid holds exactly
/// `1 + checked_out` vacancies (the scan cell plus one per qubit currently in
/// the CR). [`PointSamBank::store`] therefore rejects any qubit that was not
/// checked out of *this* bank with
/// [`LatticeError::QubitNotCheckedOut`] instead of silently consuming the
/// scan vacancy.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSamBank {
    grid: CellGrid,
    /// The cell adjacent to the CR through which qubits enter and leave.
    port: Coord,
    /// Current position of the scan vacancy (approximate head tracking).
    scan: Coord,
    /// Original home cell of every qubit, for the non-locality-aware store.
    /// Indexed densely by `QubitTag::index()`; `None` for tags held elsewhere.
    home: Vec<Option<Coord>>,
    /// Exactly which of this bank's qubits are checked out to the CR.
    ledger: CheckoutLedger,
    latencies: ProtocolLatencies,
    /// Exact cell count charged to this bank (`data qubits + 1`).
    cell_count: u64,
    /// Store returning qubits near the port (true) or at their home cell (false).
    locality_aware_store: bool,
}

impl PointSamBank {
    /// Builds a bank holding `qubits`, placed row-major in a near-square grid,
    /// with the scan cell starting next to the port (the cell closest to the CR).
    ///
    /// # Panics
    ///
    /// Panics if `qubits` is empty.
    pub fn new(qubits: &[QubitTag], locality_aware_store: bool) -> Self {
        assert!(
            !qubits.is_empty(),
            "a point-SAM bank needs at least one qubit"
        );
        let n = qubits.len() as u64;
        // Grid shape: near-square rectangle with room for the scan cell.
        let width = ((n + 1) as f64).sqrt().ceil() as u32;
        let height = ((n + 1) as f64 / width as f64).ceil() as u32;
        let mut grid = CellGrid::new(width, height);
        let port = Coord::new(0, height / 2);

        // Place qubits row-major, keeping the port cell free for the scan cell.
        let mut cells = (0..height)
            .flat_map(|y| (0..width).map(move |x| Coord::new(x, y)))
            .filter(|&c| c != port);
        let table_len = qubits.iter().map(|q| q.0 as usize + 1).max().unwrap_or(0);
        let mut home = vec![None; table_len];
        for &q in qubits {
            let cell = cells
                .next()
                .expect("grid sized to hold every qubit plus the scan cell");
            grid.place(q, cell)
                .expect("cells are distinct and in bounds");
            home[q.0 as usize] = Some(cell);
        }
        // Register the port as the grid's vacancy anchor so the per-store
        // `nearest_vacant(port)` query is an O(1) index read instead of an
        // O(cells) scan (the dominant cost of point-SAM simulation).
        grid.register_anchor(port)
            .expect("the port lies inside the bank grid");

        let bank = PointSamBank {
            grid,
            port,
            scan: port,
            home,
            ledger: CheckoutLedger::new(table_len),
            latencies: ProtocolLatencies::paper(),
            cell_count: n + 1,
            locality_aware_store,
        };
        bank.debug_assert_invariants();
        bank
    }

    /// Debug-asserts the paper's point-SAM shape after every mutation: `n`
    /// qubits in `n + 1` charged cells, split between stored and checked-out,
    /// with one scan vacancy plus one extra vacancy per checked-out qubit.
    /// The near-square grid rectangle may pad the charged area; the padding is
    /// constant, so any drift in the vacancy count is a real corruption.
    #[inline]
    fn debug_assert_invariants(&self) {
        let n = self.cell_count as usize - 1;
        debug_assert_eq!(
            self.stored_qubits() + self.ledger.count(),
            n,
            "stored + checked_out must equal the bank's data-qubit count"
        );
        let padding = self.grid.cell_count() as usize - (n + 1);
        debug_assert_eq!(
            self.grid.vacant_count(),
            1 + padding + self.ledger.count(),
            "a point bank holds one scan vacancy (plus grid padding) plus one vacancy per checkout"
        );
        debug_assert!(
            self.ledger.iter().all(|q| !self.grid.contains(q)),
            "a checked-out qubit cannot simultaneously occupy a cell"
        );
    }

    /// Exact number of cells charged to this bank (data qubits + one scan cell).
    pub fn cell_count(&self) -> u64 {
        self.cell_count
    }

    /// The bank-local cell adjacent to the CR through which qubits enter and
    /// leave; also the anchor of the grid's vacancy index.
    pub fn port(&self) -> Coord {
        self.port
    }

    /// Number of qubits currently stored in the bank.
    pub fn stored_qubits(&self) -> usize {
        self.grid.occupied_count()
    }

    /// True if `qubit` is currently stored in this bank.
    pub fn contains(&self, qubit: QubitTag) -> bool {
        self.grid.contains(qubit)
    }

    /// Number of this bank's qubits currently checked out to the CR.
    pub fn checked_out_count(&self) -> usize {
        self.ledger.count()
    }

    /// True if `qubit` is currently checked out of this bank to the CR.
    pub fn is_checked_out(&self, qubit: QubitTag) -> bool {
        self.ledger.is_checked_out(qubit)
    }

    /// True when a second vacancy exists (a qubit is checked out), enabling the
    /// cheaper move protocol of Fig. 11.
    fn has_second_vacancy(&self) -> bool {
        !self.ledger.is_empty()
    }

    fn position(&self, qubit: QubitTag) -> Result<Coord, LatticeError> {
        self.grid
            .position_of(qubit)
            .ok_or(LatticeError::QubitNotPresent { qubit })
    }

    /// Estimated load latency without mutating the bank state.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::QubitNotPresent`] if the qubit is not stored here.
    pub fn peek_load(&self, qubit: QubitTag) -> Result<Beats, LatticeError> {
        let pos = self.position(qubit)?;
        Ok(self.load_cost(pos))
    }

    fn load_cost(&self, pos: Coord) -> Beats {
        let seek = Beats(self.scan.manhattan_distance(pos) as u64);
        let transport = self.latencies.point_transport(
            pos.dx(self.port),
            pos.dy(self.port),
            self.has_second_vacancy(),
        );
        // One final move from the port into a CR register cell.
        seek + transport + self.latencies.move_step
    }

    /// Loads `qubit` out of the bank and returns the latency in beats.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::QubitNotPresent`] if the qubit is not stored here.
    pub fn load(&mut self, qubit: QubitTag) -> Result<Beats, LatticeError> {
        let pos = self.position(qubit)?;
        let cost = self.load_cost(pos);
        self.grid.remove(qubit)?;
        self.ledger.check_out(qubit);
        // The vacancy that carried the target ends up next to the port.
        self.scan = self.port;
        self.debug_assert_invariants();
        Ok(cost)
    }

    /// Stores `qubit` back into the bank and returns the latency in beats.
    ///
    /// With the locality-aware policy the qubit is parked in the vacant cell
    /// nearest the port; otherwise it walks back to its original home cell.
    /// Only qubits recorded in the checkout ledger — i.e. previously loaded
    /// from *this* bank — are accepted: anything else would consume the scan
    /// vacancy and break the `n + 1`-cell invariant.
    ///
    /// # Errors
    ///
    /// * [`LatticeError::QubitAlreadyPlaced`] if the qubit never left.
    /// * [`LatticeError::QubitNotCheckedOut`] if the qubit was never loaded
    ///   from this bank (including foreign tags).
    pub fn store(&mut self, qubit: QubitTag) -> Result<Beats, LatticeError> {
        if let Some(at) = self.grid.position_of(qubit) {
            return Err(LatticeError::QubitAlreadyPlaced { qubit, at });
        }
        if !self.ledger.is_checked_out(qubit) {
            return Err(LatticeError::QubitNotCheckedOut { qubit });
        }
        // The transport discount applies while the qubit is still out (its own
        // vacancy is the second one the move protocol of Fig. 11 exploits).
        let two = self.has_second_vacancy();
        let dest = if self.locality_aware_store {
            // Fused nearest-vacant + place: one pass over the grid tables and
            // a front-pop of the vacancy index's minimal ring.
            self.grid.place_at_nearest_vacancy(qubit, self.port)?
        } else {
            let home = self
                .home
                .get(qubit.0 as usize)
                .copied()
                .flatten()
                .ok_or(LatticeError::QubitNotPresent { qubit })?;
            if self.grid.is_vacant(home) {
                self.grid.place(qubit, home)?;
                home
            } else {
                self.grid.place_at_nearest_vacancy(qubit, home)?
            }
        };
        let transport = self
            .latencies
            .point_transport(dest.dx(self.port), dest.dy(self.port), two);
        self.ledger.check_in(qubit);
        self.scan = self.port;
        self.debug_assert_invariants();
        Ok(transport + self.latencies.move_step)
    }

    /// Walks the scan cell next to `qubit` for an in-memory single-qubit
    /// operation and returns the seek latency (the gate latency itself is the
    /// caller's concern).
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::QubitNotPresent`] if the qubit is not stored here.
    pub fn in_memory_seek(&mut self, qubit: QubitTag) -> Result<Beats, LatticeError> {
        let pos = self.position(qubit)?;
        let seek = Beats(self.scan.manhattan_distance(pos) as u64);
        self.scan = pos;
        Ok(seek)
    }

    /// Brings `qubit` adjacent to the port for an in-memory two-qubit operation
    /// with a CR slot (lattice surgery across the port). The qubit is relocated
    /// next to the port — this is what removes the last move of a load and the
    /// first move of a store (Sec. V-C).
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::QubitNotPresent`] if the qubit is not stored here.
    pub fn in_memory_two_qubit_access(&mut self, qubit: QubitTag) -> Result<Beats, LatticeError> {
        let two = self.has_second_vacancy();
        // Destination: the vacant cell closest to the port (often the port's
        // neighbour, or the qubit's own cell once it has migrated there, in
        // which case the transport is free). The fused primitive replaces the
        // former remove → nearest_vacant → place triple walk with a single
        // pass over the cells, positions, and vacancy-ring tables.
        let (pos, dest) = self.grid.relocate_into_nearest_vacancy(qubit, self.port)?;
        let seek = Beats(self.scan.manhattan_distance(pos) as u64);
        let transport = self
            .latencies
            .point_transport(pos.dx(dest), pos.dy(dest), two);
        self.scan = pos;
        self.debug_assert_invariants();
        Ok(seek + transport)
    }

    /// Fused CX access: the load-cheaper-operand / access-other / store-back
    /// sequence of the paper's runtime CX optimization (Sec. VI-A) as one
    /// bank call. Observationally identical to `peek_load` ×2 + `load` +
    /// `in_memory_two_qubit_access` + `store` issued back to back (the
    /// executable spec `Simulator::execute` runs on a `Classified` program), but the
    /// positions and load costs feeding the operand choice are computed once
    /// and reused for the load itself, and the intermediate checkout-state
    /// transitions stay inside a single call. Returns the `(load, access,
    /// store)` latencies.
    ///
    /// `control` and `target` must be distinct — callers route the degenerate
    /// self-CX through the unfused sequence so its mid-sequence error leaves
    /// the exact same partial state.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::QubitNotPresent`] (before any mutation) if
    /// either operand is not stored here, exactly as the first failing peek
    /// of the unfused sequence would.
    pub fn cx_access(
        &mut self,
        control: QubitTag,
        target: QubitTag,
    ) -> Result<(Beats, Beats, Beats), LatticeError> {
        debug_assert_ne!(control, target, "self-CX takes the unfused path");
        let pos_c = self.position(control)?;
        let pos_t = self.position(target)?;
        let cost_c = self.load_cost(pos_c);
        let cost_t = self.load_cost(pos_t);
        // Ties load the control, matching `peek_c <= peek_t` in the spec.
        let (loaded, other, load) = if cost_c <= cost_t {
            (control, target, cost_c)
        } else {
            (target, control, cost_t)
        };
        // load(loaded), with the cost already in hand.
        self.grid.remove(loaded)?;
        self.ledger.check_out(loaded);
        self.scan = self.port;
        // in_memory_two_qubit_access(other): the loaded qubit's vacancy is
        // the second one the cheaper move protocol exploits.
        let two = self.has_second_vacancy();
        let (pos, dest) = self.grid.relocate_into_nearest_vacancy(other, self.port)?;
        let seek = Beats(self.scan.manhattan_distance(pos) as u64);
        let access = seek
            + self
                .latencies
                .point_transport(pos.dx(dest), pos.dy(dest), two);
        self.scan = pos;
        // store(loaded): it is provably absent from the grid and checked out,
        // so the spec's guard errors cannot fire.
        let two_store = self.has_second_vacancy();
        let dest_store = if self.locality_aware_store {
            self.grid.place_at_nearest_vacancy(loaded, self.port)?
        } else {
            let home = self
                .home
                .get(loaded.0 as usize)
                .copied()
                .flatten()
                .ok_or(LatticeError::QubitNotPresent { qubit: loaded })?;
            if self.grid.is_vacant(home) {
                self.grid.place(loaded, home)?;
                home
            } else {
                self.grid.place_at_nearest_vacancy(loaded, home)?
            }
        };
        let store = self.latencies.point_transport(
            dest_store.dx(self.port),
            dest_store.dy(self.port),
            two_store,
        ) + self.latencies.move_step;
        self.ledger.check_in(loaded);
        self.scan = self.port;
        self.debug_assert_invariants();
        Ok((load, access, store))
    }

    /// Manhattan distance from the port to the qubit's current cell, a proxy for
    /// how "hot" its placement currently is (used in tests and diagnostics).
    pub fn distance_from_port(&self, qubit: QubitTag) -> Option<u32> {
        self.grid
            .position_of(qubit)
            .map(|p| p.manhattan_distance(self.port))
    }

    /// Hot-set migration swap: extracts `outgoing` from the bank (it is being
    /// promoted into the conventional region) and parks `incoming` (the
    /// demoted qubit walking in through the port) at the vacancy nearest the
    /// port, in one balanced operation that conserves the bank's
    /// `n + 1`-cell shape. Returns the combined movement latency: the
    /// outgoing qubit's full load cost plus the incoming qubit's
    /// store-equivalent transport. Neither qubit touches the checkout ledger
    /// — migration moves *stored* qubits, never checked-out ones.
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
        let pos = self.position(outgoing)?;
        if let Some(at) = self.grid.position_of(incoming) {
            return Err(LatticeError::QubitAlreadyPlaced {
                qubit: incoming,
                at,
            });
        }
        let out_cost = self.load_cost(pos);
        self.grid.remove(outgoing)?;
        // The demoted qubit may carry a tag beyond the range this bank was
        // built for; the dense per-tag tables grow to admit it.
        let table_len = incoming.0 as usize + 1;
        if table_len > self.home.len() {
            self.home.resize(table_len, None);
        }
        self.ledger.grow(table_len);
        let two = self.has_second_vacancy();
        let dest = self.grid.place_at_nearest_vacancy(incoming, self.port)?;
        let in_cost = self
            .latencies
            .point_transport(dest.dx(self.port), dest.dy(self.port), two)
            + self.latencies.move_step;
        self.home[outgoing.0 as usize] = None;
        self.home[incoming.0 as usize] = Some(dest);
        self.scan = self.port;
        self.debug_assert_invariants();
        Ok(out_cost + in_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qubits(n: u32) -> Vec<QubitTag> {
        (0..n).map(QubitTag).collect()
    }

    #[test]
    fn cell_count_is_qubits_plus_one() {
        let bank = PointSamBank::new(&qubits(400), true);
        assert_eq!(bank.cell_count(), 401);
        assert_eq!(bank.stored_qubits(), 400);
        assert!(bank.contains(QubitTag(123)));
        assert!(!bank.contains(QubitTag(400)));
    }

    #[test]
    fn port_is_registered_as_the_vacancy_anchor() {
        let bank = PointSamBank::new(&qubits(100), true);
        assert_eq!(bank.grid.anchor(), Some(bank.port()));
        // The initial vacancy is the scan cell at the port itself.
        assert_eq!(bank.grid.nearest_vacant(bank.port()), Some(bank.port()));
    }

    #[test]
    fn load_latency_grows_with_distance() {
        let bank = PointSamBank::new(&qubits(100), true);
        // The qubit closest to the port loads much faster than the corner qubit.
        let near = (0..100)
            .map(|q| bank.peek_load(QubitTag(q)).unwrap())
            .min()
            .unwrap();
        let far = bank.peek_load(QubitTag(99)).unwrap();
        assert!(far > near, "far qubit should cost more ({far} <= {near})");
        assert!(near <= Beats(10));
    }

    #[test]
    fn worst_case_load_is_order_seven_sqrt_n() {
        let n = 400u32;
        let bank = PointSamBank::new(&qubits(n), true);
        let worst = (0..n)
            .map(|q| bank.peek_load(QubitTag(q)).unwrap())
            .max()
            .unwrap();
        let bound = 7.0 * (n as f64).sqrt();
        assert!(
            worst.as_f64() <= bound * 1.3,
            "worst-case load {worst} should be about 7*sqrt(n) = {bound:.0}"
        );
        assert!(worst.as_f64() >= bound * 0.4);
    }

    #[test]
    fn load_then_store_round_trip() {
        let mut bank = PointSamBank::new(&qubits(25), true);
        let load = bank.load(QubitTag(24)).unwrap();
        assert!(load > Beats(0));
        assert!(!bank.contains(QubitTag(24)));
        let store = bank.store(QubitTag(24)).unwrap();
        assert!(bank.contains(QubitTag(24)));
        // Locality-aware store parks next to the port, so it is much cheaper
        // than the original far-away load.
        assert!(store < load);
        // Loading it again is now cheap as well (temporal locality payoff).
        let reload = bank.peek_load(QubitTag(24)).unwrap();
        assert!(reload < load);
    }

    #[test]
    fn double_load_of_missing_qubit_errors() {
        let mut bank = PointSamBank::new(&qubits(9), true);
        bank.load(QubitTag(3)).unwrap();
        assert!(bank.load(QubitTag(3)).is_err());
        assert!(bank.peek_load(QubitTag(3)).is_err());
        assert!(bank.in_memory_seek(QubitTag(3)).is_err());
    }

    #[test]
    fn second_vacancy_makes_the_next_load_cheaper() {
        let mut with_vacancy = PointSamBank::new(&qubits(100), true);
        let baseline = PointSamBank::new(&qubits(100), true);
        // Check out one qubit to open a second vacancy.
        with_vacancy.load(QubitTag(55)).unwrap();
        let target = QubitTag(99);
        let faster = with_vacancy.peek_load(target).unwrap();
        let slower = baseline.peek_load(target).unwrap();
        assert!(
            faster < slower,
            "two vacancies should speed up transport ({faster} >= {slower})"
        );
    }

    #[test]
    fn home_store_policy_returns_to_the_original_cell() {
        let mut bank = PointSamBank::new(&qubits(36), false);
        let far = QubitTag(35);
        let before = bank.distance_from_port(far).unwrap();
        bank.load(far).unwrap();
        bank.store(far).unwrap();
        assert_eq!(bank.distance_from_port(far), Some(before));

        // With locality-aware store the qubit ends up closer to the port.
        let mut aware = PointSamBank::new(&qubits(36), true);
        aware.load(far).unwrap();
        aware.store(far).unwrap();
        assert!(aware.distance_from_port(far).unwrap() < before);
    }

    #[test]
    fn in_memory_seek_is_cheaper_than_a_load() {
        let mut bank = PointSamBank::new(&qubits(100), true);
        let target = QubitTag(99);
        let load_cost = bank.peek_load(target).unwrap();
        let seek = bank.in_memory_seek(target).unwrap();
        assert!(seek < load_cost);
        // Seeking the same qubit again is free because the scan cell is parked
        // right next to it.
        assert_eq!(bank.in_memory_seek(target).unwrap(), Beats(0));
    }

    #[test]
    fn in_memory_two_qubit_access_relocates_towards_the_port() {
        let mut bank = PointSamBank::new(&qubits(100), true);
        let target = QubitTag(99);
        let before = bank.distance_from_port(target).unwrap();
        let cost = bank.in_memory_two_qubit_access(target).unwrap();
        assert!(cost > Beats(0));
        let after = bank.distance_from_port(target).unwrap();
        assert!(after < before);
        assert!(bank.contains(target));
        // A repeat access is now much cheaper.
        let again = bank.in_memory_two_qubit_access(target).unwrap();
        assert!(again < cost);
    }

    #[test]
    #[should_panic(expected = "at least one qubit")]
    fn empty_bank_panics() {
        let _ = PointSamBank::new(&[], true);
    }

    #[test]
    fn store_of_a_never_checked_out_qubit_is_rejected() {
        let mut bank = PointSamBank::new(&qubits(9), true);
        // A foreign tag that was never part of this bank.
        assert!(matches!(
            bank.store(QubitTag(100)),
            Err(LatticeError::QubitNotCheckedOut {
                qubit: QubitTag(100)
            })
        ));
        // The bank's own qubit that never left is "already placed", not a
        // ledger violation.
        assert!(matches!(
            bank.store(QubitTag(3)),
            Err(LatticeError::QubitAlreadyPlaced { .. })
        ));
        // Neither rejection consumed the scan vacancy or moved anything.
        assert_eq!(bank.stored_qubits(), 9);
        assert_eq!(bank.checked_out_count(), 0);
        // The same applies to the non-locality-aware store policy.
        let mut home = PointSamBank::new(&qubits(9), false);
        assert!(matches!(
            home.store(QubitTag(100)),
            Err(LatticeError::QubitNotCheckedOut { .. })
        ));
        // A legitimate round trip still works and settles the ledger.
        let mut bank = PointSamBank::new(&qubits(9), true);
        bank.load(QubitTag(4)).unwrap();
        assert!(bank.is_checked_out(QubitTag(4)));
        assert_eq!(bank.checked_out_count(), 1);
        bank.store(QubitTag(4)).unwrap();
        assert!(!bank.is_checked_out(QubitTag(4)));
        assert_eq!(bank.checked_out_count(), 0);
        // Storing it twice is rejected the second time.
        bank.load(QubitTag(4)).unwrap();
        bank.store(QubitTag(4)).unwrap();
        assert!(bank.store(QubitTag(4)).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any sequence of load/store pairs keeps the bank consistent: the qubit
        /// count is conserved and latencies stay within the 7·√n-style bound.
        #[test]
        fn load_store_sequences_preserve_occupancy(
            n in 4u32..120,
            accesses in proptest::collection::vec(0u32..120, 1..60)
        ) {
            let qubits: Vec<QubitTag> = (0..n).map(QubitTag).collect();
            let mut bank = PointSamBank::new(&qubits, true);
            let bound = 16.0 * (n as f64).sqrt() + 32.0;
            for a in accesses {
                let q = QubitTag(a % n);
                if bank.contains(q) {
                    let cost = bank.load(q).unwrap();
                    prop_assert!(cost.as_f64() <= bound);
                    let cost = bank.store(q).unwrap();
                    prop_assert!(cost.as_f64() <= bound);
                }
                prop_assert_eq!(bank.stored_qubits(), n as usize);
            }
        }

        /// Membership through the dense home/position tables matches a shadow
        /// `HashSet` maintained with the legacy map semantics, across random
        /// load/store/in-memory sequences (including the home-store policy,
        /// which reads the dense `home` table).
        #[test]
        fn dense_membership_matches_set_semantics(
            n in 4u32..120,
            ops in proptest::collection::vec((0u32..150, 0u32..3), 1..80),
            locality in proptest::bool::ANY,
        ) {
            let qubits: Vec<QubitTag> = (0..n).map(QubitTag).collect();
            let mut bank = PointSamBank::new(&qubits, locality);
            let mut mirror: std::collections::HashSet<QubitTag> =
                qubits.iter().copied().collect();
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
                            mirror.insert(q);
                        }
                    }
                    _ => { let _ = bank.in_memory_two_qubit_access(q); }
                }
                prop_assert_eq!(bank.contains(q), mirror.contains(&q));
                prop_assert_eq!(bank.stored_qubits(), mirror.len());
                prop_assert_eq!(bank.distance_from_port(q).is_some(), mirror.contains(&q));
            }
        }

        /// The checkout ledger enforces the paper's point-SAM shape across
        /// random load/store/in-memory sequences that include foreign tags:
        /// `stored + checked_out == n` always, the grid holds exactly one scan
        /// vacancy (plus constant grid padding) per checkout beyond the first,
        /// and a store is accepted exactly when the ledger has the qubit.
        #[test]
        fn checkout_ledger_preserves_the_bank_invariants(
            n in 4u32..120,
            ops in proptest::collection::vec((0u32..150, 0u32..3), 1..100),
            locality in proptest::bool::ANY,
        ) {
            let qubits: Vec<QubitTag> = (0..n).map(QubitTag).collect();
            let mut bank = PointSamBank::new(&qubits, locality);
            let padding = bank.grid.cell_count() as usize - bank.cell_count() as usize;
            let mut out: std::collections::HashSet<QubitTag> =
                std::collections::HashSet::new();
            for (tag, op) in ops {
                let q = QubitTag(tag);
                match op {
                    0 => {
                        let loaded = bank.load(q).is_ok();
                        prop_assert_eq!(loaded, tag < n && !out.contains(&q));
                        if loaded {
                            out.insert(q);
                        }
                    }
                    1 => {
                        let stored = bank.store(q);
                        // Accepted exactly when this bank checked the qubit out.
                        prop_assert_eq!(stored.is_ok(), out.contains(&q));
                        if stored.is_ok() {
                            out.remove(&q);
                        } else if !bank.contains(q) {
                            // Foreign/never-loaded tags get the typed error.
                            prop_assert_eq!(
                                stored.unwrap_err(),
                                LatticeError::QubitNotCheckedOut { qubit: q }
                            );
                        }
                    }
                    _ => {
                        let accessed = bank.in_memory_two_qubit_access(q).is_ok();
                        prop_assert_eq!(accessed, tag < n && !out.contains(&q));
                    }
                }
                // The paper's invariant, after every operation.
                prop_assert_eq!(bank.checked_out_count(), out.len());
                prop_assert_eq!(
                    bank.stored_qubits() + bank.checked_out_count(),
                    n as usize
                );
                prop_assert_eq!(
                    bank.grid.vacant_count(),
                    1 + padding + bank.checked_out_count()
                );
                for &q in &out {
                    prop_assert!(bank.is_checked_out(q));
                }
            }
        }
    }
}
