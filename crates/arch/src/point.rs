//! The point-SAM bank model (Sec. IV-C-2), with one or two CR ports.
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
//!
//! A **two-port** bank is this reproduction's extension beyond the paper's
//! single-port design: `n + 2` cells with a port and scan cell on the bank's
//! west edge and another on its east edge. Every access goes through the
//! cheaper side (ties go west), which roughly halves the worst-case transport,
//! and because a second vacancy always exists the two-vacancy move protocol of
//! Fig. 11 applies to every transport. The price is one extra cell and a
//! second CR block (see `MemorySystem::cr_cells`).

use crate::lattice::moves::{point_transport, STEP};
use crate::lattice::{Beats, CellGrid, Coord, LatticeError, QubitTag};
use crate::ledger::CheckoutLedger;

/// Calls `$bank.$method::<P>(..)` with the bank's port count as the const
/// `P`: one branch per public call, after which a single-port bank has every
/// side choice compiled away. The two-port arm is marked cold so the
/// single-port body stays the straight-line path; without the hint the
/// single-port hot loop measured slower than a one-port-only bank.
macro_rules! with_ports {
    ($bank:ident.$method:ident($($arg:expr),*)) => {
        if $bank.ports == 1 {
            $bank.$method::<1>($($arg),*)
        } else {
            two_port_path();
            $bank.$method::<2>($($arg),*)
        }
    };
}

/// Branch-weight hint for `with_ports!`: calling this cold function marks
/// the two-port arm unlikely.
#[cold]
#[inline(never)]
fn two_port_path() {}

/// A single point-SAM bank with one (west) or two (west and east) ports.
///
/// The bank enforces an `n + ports`-cell invariant through its checkout
/// ledger: at all times `stored + checked_out == n` and the grid holds exactly
/// `ports + checked_out` vacancies (one scan cell per port plus one per qubit
/// currently in the CR). With one port this is the paper's `n + 1`-cell
/// point SAM. [`PointSamBank::store`] therefore rejects any qubit that was not
/// checked out of *this* bank with [`LatticeError::QubitNotCheckedOut`]
/// instead of silently consuming a scan vacancy.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSamBank {
    grid: CellGrid,
    /// Number of ports, 1 or 2; only the first `ports` entries of `port` and
    /// `scan` are live.
    ports: usize,
    /// The cells adjacent to the CR through which qubits enter and leave
    /// (west mid-edge, then east mid-edge).
    port: [Coord; 2],
    /// Current position of each port's scan vacancy (approximate head tracking).
    scan: [Coord; 2],
    /// Original home cell of every qubit, for the non-locality-aware store.
    /// Indexed densely by the tag value `QubitTag.0`; `None` for tags held elsewhere.
    home: Vec<Option<Coord>>,
    /// Exactly which of this bank's qubits are checked out to the CR.
    ledger: CheckoutLedger,
    /// Exact cell count charged to this bank (`data qubits + ports`).
    cell_count: u64,
    /// Store returning qubits near a port (true) or at their home cell (false).
    locality_aware_store: bool,
}

impl PointSamBank {
    /// Builds a bank holding `qubits` with `ports` CR ports, placed row-major
    /// in a near-square grid, with each scan cell starting at its port.
    ///
    /// # Panics
    ///
    /// Panics if `qubits` is empty or `ports` is not 1 or 2.
    pub fn new(qubits: &[QubitTag], ports: usize, locality_aware_store: bool) -> Self {
        assert!(
            !qubits.is_empty(),
            "a point-SAM bank needs at least one qubit"
        );
        assert!(
            (1..=2).contains(&ports),
            "a point-SAM bank has one or two ports"
        );
        let cells_needed = qubits.len() as u64 + ports as u64;
        // Near-square rectangle with room for the scan cells; at least one
        // column per port so two ports are distinct cells.
        let width = ((cells_needed as f64).sqrt().ceil() as u32).max(ports as u32);
        let height = (cells_needed as f64 / width as f64).ceil() as u32;
        let mut grid = CellGrid::new(width, height);
        let west = Coord::new(0, height / 2);
        let port = [west, Coord::new(width - 1, height / 2)];

        // Place qubits row-major, keeping the port cells free for the scan cells.
        let mut cells = (0..height)
            .flat_map(|y| (0..width).map(move |x| Coord::new(x, y)))
            .filter(|c| !port[..ports].contains(c));
        let table_len = qubits.iter().map(|q| q.0 as usize + 1).max().unwrap_or(0);
        let mut home = vec![None; table_len];
        for &q in qubits {
            let cell = cells
                .next()
                .expect("grid sized to hold every qubit plus the scan cells");
            grid.place(q, cell)
                .expect("cells are distinct and in bounds");
            home[q.0 as usize] = Some(cell);
        }
        // Register every port as a vacancy anchor so the per-store
        // `nearest_vacant(port)` query is an O(1) index read instead of an
        // O(cells) scan (the dominant cost of point-SAM simulation).
        grid.register_anchors(&port[..ports])
            .expect("the ports lie inside the bank grid");

        let bank = PointSamBank {
            grid,
            ports,
            port,
            scan: port,
            home,
            ledger: CheckoutLedger::new(table_len),
            cell_count: cells_needed,
            locality_aware_store,
        };
        bank.debug_assert_invariants();
        bank
    }

    /// Debug-asserts the point-SAM shape after every mutation: `n` qubits in
    /// `n + ports` charged cells, split between stored and checked-out, with
    /// one scan vacancy per port plus one extra vacancy per checked-out qubit.
    /// The near-square grid rectangle may pad the charged area; the padding is
    /// constant, so any drift in the vacancy count is a real corruption.
    #[inline]
    fn debug_assert_invariants(&self) {
        let n = self.cell_count as usize - self.ports;
        debug_assert_eq!(
            self.stored_qubits() + self.ledger.count(),
            n,
            "stored + checked_out must equal the bank's data-qubit count"
        );
        let padding = self.grid.cell_count() as usize - (n + self.ports);
        debug_assert_eq!(
            self.grid.vacant_count(),
            self.ports + padding + self.ledger.count(),
            "a point bank holds one scan vacancy per port (plus grid padding) plus one vacancy per checkout"
        );
        debug_assert!(
            self.ledger.iter().all(|q| !self.grid.contains(q)),
            "a checked-out qubit cannot simultaneously occupy a cell"
        );
    }

    /// Exact number of cells charged to this bank (data qubits + one scan
    /// cell per port).
    pub fn cell_count(&self) -> u64 {
        self.cell_count
    }

    /// Number of CR ports (1 or 2).
    pub(crate) fn port_count(&self) -> usize {
        self.ports
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

    /// True when a second vacancy exists (a second port's scan cell, or a
    /// qubit checked out), enabling the cheaper move protocol of Fig. 11.
    #[inline]
    fn has_second_vacancy<const P: usize>(&self) -> bool {
        P == 2 || !self.ledger.is_empty()
    }

    fn position(&self, qubit: QubitTag) -> Result<Coord, LatticeError> {
        self.grid
            .position_of(qubit)
            .ok_or(LatticeError::QubitNotPresent { qubit })
    }

    /// Load cost of a qubit at `pos` through port `side`.
    #[inline]
    fn load_cost_via<const P: usize>(&self, pos: Coord, side: usize) -> Beats {
        let port = self.port[side];
        let seek = Beats(self.scan[side].manhattan_distance(pos) as u64);
        let transport = point_transport(pos.dx(port), pos.dy(port), self.has_second_vacancy::<P>());
        // One final move from the port into a CR register cell.
        seek + transport + STEP
    }

    /// The port a qubit at `pos` loads through: the cheaper side, ties west.
    #[inline]
    fn best_side<const P: usize>(&self, pos: Coord) -> usize {
        if P == 2 && self.load_cost_via::<P>(pos, 1) < self.load_cost_via::<P>(pos, 0) {
            1
        } else {
            0
        }
    }

    /// The port a qubit at `pos` loads through, and its load cost.
    #[inline]
    fn best_load<const P: usize>(&self, pos: Coord) -> (usize, Beats) {
        let side = self.best_side::<P>(pos);
        (side, self.load_cost_via::<P>(pos, side))
    }

    /// The port whose nearest vacancy is closer to it, ties west.
    #[inline]
    fn nearer_vacancy_side<const P: usize>(&self) -> usize {
        if P == 1 {
            return 0;
        }
        (0..2)
            .min_by_key(|&side| {
                self.grid
                    .nearest_vacant(self.port[side])
                    .map(|c| c.manhattan_distance(self.port[side]))
                    .unwrap_or(u32::MAX)
            })
            .expect("two ports")
    }

    /// Estimated load latency without mutating the bank state.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::QubitNotPresent`] if the qubit is not stored here.
    pub fn peek_load(&self, qubit: QubitTag) -> Result<Beats, LatticeError> {
        let pos = self.position(qubit)?;
        Ok(with_ports!(self.best_load(pos)).1)
    }

    /// Loads `qubit` out of the bank through the cheaper port and returns the
    /// latency in beats.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::QubitNotPresent`] if the qubit is not stored here.
    pub fn load(&mut self, qubit: QubitTag) -> Result<Beats, LatticeError> {
        let pos = self.position(qubit)?;
        let (side, cost) = with_ports!(self.best_load(pos));
        self.check_out(qubit, side)?;
        self.debug_assert_invariants();
        Ok(cost)
    }

    /// Takes `qubit` out of the grid into the CR through port `side`.
    #[inline]
    fn check_out(&mut self, qubit: QubitTag, side: usize) -> Result<(), LatticeError> {
        self.grid.remove(qubit)?;
        self.ledger.check_out(qubit);
        // The vacancy that carried the target ends up next to the port.
        self.scan[side] = self.port[side];
        Ok(())
    }

    /// Stores `qubit` back into the bank and returns the latency in beats.
    ///
    /// With the locality-aware policy the qubit is parked in the vacant cell
    /// nearest the port whose nearest vacancy is closer; otherwise it walks
    /// back to its original home cell through the cheaper port. Only qubits
    /// recorded in the checkout ledger — i.e. previously loaded from *this*
    /// bank — are accepted: anything else would consume a scan vacancy and
    /// break the `n + ports`-cell invariant.
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
        let cost = with_ports!(self.check_in(qubit))?;
        self.debug_assert_invariants();
        Ok(cost)
    }

    /// Parks checked-out `qubit` back in the grid per the store policy and
    /// returns the store latency; the caller has ruled out the store errors.
    #[inline]
    fn check_in<const P: usize>(&mut self, qubit: QubitTag) -> Result<Beats, LatticeError> {
        // The transport discount applies while the qubit is still out (its own
        // vacancy is the second one the move protocol of Fig. 11 exploits).
        let two = self.has_second_vacancy::<P>();
        let (dest, side) = if self.locality_aware_store {
            // Fused nearest-vacant + place: one pass over the grid tables and
            // a front-pop of the vacancy index's minimal ring.
            let side = self.nearer_vacancy_side::<P>();
            (
                self.grid.place_at_nearest_vacancy(qubit, self.port[side])?,
                side,
            )
        } else {
            let home = self
                .home
                .get(qubit.0 as usize)
                .copied()
                .flatten()
                .ok_or(LatticeError::QubitNotPresent { qubit })?;
            let dest = if self.grid.is_vacant(home) {
                self.grid.place(qubit, home)?;
                home
            } else {
                self.grid.place_at_nearest_vacancy(qubit, home)?
            };
            (dest, self.best_side::<P>(dest))
        };
        let port = self.port[side];
        let transport = point_transport(dest.dx(port), dest.dy(port), two);
        self.ledger.check_in(qubit);
        self.scan[side] = port;
        Ok(transport + STEP)
    }

    /// Walks the nearer scan cell next to `qubit` for an in-memory
    /// single-qubit operation and returns the seek latency (the gate latency
    /// itself is the caller's concern).
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::QubitNotPresent`] if the qubit is not stored here.
    pub fn in_memory_seek(&mut self, qubit: QubitTag) -> Result<Beats, LatticeError> {
        let pos = self.position(qubit)?;
        let side = if self.ports == 2
            && self.scan[1].manhattan_distance(pos) < self.scan[0].manhattan_distance(pos)
        {
            1
        } else {
            0
        };
        let seek = Beats(self.scan[side].manhattan_distance(pos) as u64);
        self.scan[side] = pos;
        Ok(seek)
    }

    /// Brings `qubit` adjacent to the cheaper port for an in-memory two-qubit
    /// operation with a CR slot (lattice surgery across the port). The qubit
    /// is relocated next to the port — this is what removes the last move of
    /// a load and the first move of a store (Sec. V-C).
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::QubitNotPresent`] if the qubit is not stored here.
    pub fn in_memory_two_qubit_access(&mut self, qubit: QubitTag) -> Result<Beats, LatticeError> {
        let cost = with_ports!(self.in_memory_two_qubit_access_with(qubit))?;
        self.debug_assert_invariants();
        Ok(cost)
    }

    fn in_memory_two_qubit_access_with<const P: usize>(
        &mut self,
        qubit: QubitTag,
    ) -> Result<Beats, LatticeError> {
        let side = if P == 2 {
            self.best_side::<P>(self.position(qubit)?)
        } else {
            0
        };
        self.relocate_to_port::<P>(qubit, side)
    }

    /// Relocates `qubit` into the vacancy nearest port `side` and returns the
    /// seek plus transport latency.
    #[inline]
    fn relocate_to_port<const P: usize>(
        &mut self,
        qubit: QubitTag,
        side: usize,
    ) -> Result<Beats, LatticeError> {
        let two = self.has_second_vacancy::<P>();
        // Destination: the vacant cell closest to the port (often the port's
        // neighbour, or the qubit's own cell once it has migrated there, in
        // which case the transport is free). The fused primitive replaces the
        // former remove → nearest_vacant → place triple walk with a single
        // pass over the cells, positions, and vacancy-ring tables.
        let (pos, dest) = self
            .grid
            .relocate_into_nearest_vacancy(qubit, self.port[side])?;
        let seek = Beats(self.scan[side].manhattan_distance(pos) as u64);
        let transport = point_transport(pos.dx(dest), pos.dy(dest), two);
        self.scan[side] = pos;
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
        let costs = with_ports!(self.cx_access_with(control, target))?;
        self.debug_assert_invariants();
        Ok(costs)
    }

    fn cx_access_with<const P: usize>(
        &mut self,
        control: QubitTag,
        target: QubitTag,
    ) -> Result<(Beats, Beats, Beats), LatticeError> {
        let pos_c = self.position(control)?;
        let pos_t = self.position(target)?;
        let (side_c, cost_c) = self.best_load::<P>(pos_c);
        let (side_t, cost_t) = self.best_load::<P>(pos_t);
        // Ties load the control, matching `peek_c <= peek_t` in the spec.
        let (loaded, side, load, other, pos_other) = if cost_c <= cost_t {
            (control, side_c, cost_c, target, pos_t)
        } else {
            (target, side_t, cost_t, control, pos_c)
        };
        self.check_out(loaded, side)?;
        // in_memory_two_qubit_access(other): its port is chosen after the
        // load moved a scan cell, and the loaded qubit's vacancy is the
        // second one the cheaper move protocol exploits.
        let access_side = self.best_side::<P>(pos_other);
        let access = self.relocate_to_port::<P>(other, access_side)?;
        // store(loaded): it is provably absent from the grid and checked out,
        // so the spec's guard errors cannot fire.
        let store = self.check_in::<P>(loaded)?;
        Ok((load, access, store))
    }

    /// Manhattan distance from the nearest port to the qubit's current cell,
    /// a proxy for how "hot" its placement currently is (used in tests and
    /// diagnostics).
    pub fn distance_from_port(&self, qubit: QubitTag) -> Option<u32> {
        let pos = self.grid.position_of(qubit)?;
        self.port[..self.ports]
            .iter()
            .map(|p| pos.manhattan_distance(*p))
            .min()
    }

    /// Hot-set migration swap: extracts `outgoing` from the bank (it is being
    /// promoted into the conventional region) through its cheaper port and
    /// parks `incoming` (the demoted qubit walking in) at the vacancy nearest
    /// the port whose nearest vacancy is closer, in one balanced operation
    /// that conserves the bank's `n + ports`-cell shape. Returns the combined
    /// movement latency: the outgoing qubit's full load cost plus the
    /// incoming qubit's store-equivalent transport. Neither qubit touches the
    /// checkout ledger — migration moves *stored* qubits, never checked-out
    /// ones.
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
        let cost = with_ports!(self.migrate_swap_with(outgoing, incoming))?;
        self.debug_assert_invariants();
        Ok(cost)
    }

    fn migrate_swap_with<const P: usize>(
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
        let (out_side, out_cost) = self.best_load::<P>(pos);
        self.grid.remove(outgoing)?;
        // The demoted qubit may carry a tag beyond the range this bank was
        // built for; the dense per-tag tables grow to admit it.
        let table_len = incoming.0 as usize + 1;
        if table_len > self.home.len() {
            self.home.resize(table_len, None);
        }
        self.ledger.grow(table_len);
        let two = self.has_second_vacancy::<P>();
        let port = self.port[self.nearer_vacancy_side::<P>()];
        let dest = self.grid.place_at_nearest_vacancy(incoming, port)?;
        let in_cost = point_transport(dest.dx(port), dest.dy(port), two) + STEP;
        self.home[outgoing.0 as usize] = None;
        self.home[incoming.0 as usize] = Some(dest);
        self.scan[out_side] = self.port[out_side];
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
        let bank = PointSamBank::new(&qubits(400), 1, true);
        assert_eq!(bank.cell_count(), 401);
        assert_eq!(bank.stored_qubits(), 400);
        assert!(bank.contains(QubitTag(123)));
        assert!(!bank.contains(QubitTag(400)));
    }

    #[test]
    fn port_is_registered_as_the_vacancy_anchor() {
        let bank = PointSamBank::new(&qubits(100), 1, true);
        let port = bank.port[0];
        assert_eq!(bank.grid.anchors().collect::<Vec<_>>(), vec![port]);
        // The initial vacancy is the scan cell at the port itself.
        assert_eq!(bank.grid.nearest_vacant(port), Some(port));
    }

    #[test]
    fn load_latency_grows_with_distance() {
        let bank = PointSamBank::new(&qubits(100), 1, true);
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
        let bank = PointSamBank::new(&qubits(n), 1, true);
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
        let mut bank = PointSamBank::new(&qubits(25), 1, true);
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
        let mut bank = PointSamBank::new(&qubits(9), 1, true);
        bank.load(QubitTag(3)).unwrap();
        assert!(bank.load(QubitTag(3)).is_err());
        assert!(bank.peek_load(QubitTag(3)).is_err());
        assert!(bank.in_memory_seek(QubitTag(3)).is_err());
    }

    #[test]
    fn second_vacancy_makes_the_next_load_cheaper() {
        let mut with_vacancy = PointSamBank::new(&qubits(100), 1, true);
        let baseline = PointSamBank::new(&qubits(100), 1, true);
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
        let mut bank = PointSamBank::new(&qubits(36), 1, false);
        let far = QubitTag(35);
        let before = bank.distance_from_port(far).unwrap();
        bank.load(far).unwrap();
        bank.store(far).unwrap();
        assert_eq!(bank.distance_from_port(far), Some(before));

        // With locality-aware store the qubit ends up closer to the port.
        let mut aware = PointSamBank::new(&qubits(36), 1, true);
        aware.load(far).unwrap();
        aware.store(far).unwrap();
        assert!(aware.distance_from_port(far).unwrap() < before);
    }

    #[test]
    fn in_memory_seek_is_cheaper_than_a_load() {
        let mut bank = PointSamBank::new(&qubits(100), 1, true);
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
        let mut bank = PointSamBank::new(&qubits(100), 1, true);
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
        let _ = PointSamBank::new(&[], 1, true);
    }

    #[test]
    fn store_of_a_never_checked_out_qubit_is_rejected() {
        let mut bank = PointSamBank::new(&qubits(9), 1, true);
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
        let mut home = PointSamBank::new(&qubits(9), 1, false);
        assert!(matches!(
            home.store(QubitTag(100)),
            Err(LatticeError::QubitNotCheckedOut { .. })
        ));
        // A legitimate round trip still works and settles the ledger.
        let mut bank = PointSamBank::new(&qubits(9), 1, true);
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

    #[test]
    #[should_panic(expected = "one or two ports")]
    fn three_ports_panic() {
        let _ = PointSamBank::new(&qubits(9), 3, true);
    }

    #[test]
    fn two_port_cell_count_is_qubits_plus_two() {
        let bank = PointSamBank::new(&qubits(400), 2, true);
        assert_eq!(bank.cell_count(), 402);
        assert_eq!(bank.port_count(), 2);
        assert_eq!(bank.stored_qubits(), 400);
        let [west, east] = bank.port;
        assert_ne!(west, east);
        assert_eq!(west.x, 0);
        assert_eq!(bank.grid.anchors().collect::<Vec<_>>(), vec![west, east]);
    }

    #[test]
    fn two_port_worst_case_load_beats_the_single_port_bank() {
        let n = 200u32;
        let dual = PointSamBank::new(&qubits(n), 2, true);
        let single = PointSamBank::new(&qubits(n), 1, true);
        let worst = |bank: &PointSamBank| {
            (0..n)
                .map(|q| bank.peek_load(QubitTag(q)).unwrap())
                .max()
                .unwrap()
        };
        let (dual_worst, single_worst) = (worst(&dual), worst(&single));
        assert!(
            dual_worst < single_worst,
            "two-port worst case {dual_worst} should beat single-port {single_worst}"
        );
    }

    #[test]
    fn two_port_load_then_store_round_trip() {
        let mut bank = PointSamBank::new(&qubits(30), 2, true);
        let q = QubitTag(29);
        let load = bank.load(q).unwrap();
        assert!(load > Beats(0));
        assert!(!bank.contains(q));
        assert!(bank.is_checked_out(q));
        let store = bank.store(q).unwrap();
        assert!(bank.contains(q));
        assert!(!bank.is_checked_out(q));
        // Locality-aware store parks next to a port, so reloading is cheap.
        assert!(store < load);
        assert!(bank.peek_load(q).unwrap() < load);
    }

    #[test]
    fn two_port_store_of_a_never_checked_out_qubit_is_rejected() {
        let mut bank = PointSamBank::new(&qubits(9), 2, true);
        assert!(matches!(
            bank.store(QubitTag(100)),
            Err(LatticeError::QubitNotCheckedOut {
                qubit: QubitTag(100)
            })
        ));
        assert!(matches!(
            bank.store(QubitTag(3)),
            Err(LatticeError::QubitAlreadyPlaced { .. })
        ));
        assert_eq!(bank.stored_qubits(), 9);
        assert_eq!(bank.checked_out_count(), 0);
    }

    #[test]
    fn two_port_home_store_policy_returns_to_the_original_cell() {
        let mut bank = PointSamBank::new(&qubits(36), 2, false);
        let q = QubitTag(17);
        let home = bank.grid.position_of(q).unwrap();
        bank.load(q).unwrap();
        bank.store(q).unwrap();
        assert_eq!(bank.grid.position_of(q), Some(home));
    }

    #[test]
    fn two_port_in_memory_accesses_work_from_both_sides() {
        let mut bank = PointSamBank::new(&qubits(100), 2, true);
        let target = QubitTag(99);
        let load_estimate = bank.peek_load(target).unwrap();
        let seek = bank.in_memory_seek(target).unwrap();
        assert!(seek < load_estimate);
        // Seeking again is free: a scan cell is parked next to the qubit.
        assert_eq!(bank.in_memory_seek(target).unwrap(), Beats(0));
        let access = bank.in_memory_two_qubit_access(QubitTag(50)).unwrap();
        assert!(access > Beats(0));
        let again = bank.in_memory_two_qubit_access(QubitTag(50)).unwrap();
        assert!(again < access);
    }

    #[test]
    fn two_port_migrate_swap_conserves_the_bank_shape() {
        let mut bank = PointSamBank::new(&qubits(25), 2, true);
        let cost = bank.migrate_swap(QubitTag(24), QubitTag(90)).unwrap();
        assert!(cost > Beats(0));
        assert!(!bank.contains(QubitTag(24)));
        assert!(bank.contains(QubitTag(90)));
        assert_eq!(bank.stored_qubits(), 25);
        // The admitted qubit can round-trip like a native one.
        bank.load(QubitTag(90)).unwrap();
        bank.store(QubitTag(90)).unwrap();
        assert!(matches!(
            bank.migrate_swap(QubitTag(24), QubitTag(5)),
            Err(LatticeError::QubitNotPresent { .. })
        ));
        assert!(matches!(
            bank.migrate_swap(QubitTag(5), QubitTag(90)),
            Err(LatticeError::QubitAlreadyPlaced { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "at least one qubit")]
    fn two_port_empty_bank_panics() {
        let _ = PointSamBank::new(&[], 2, true);
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
            accesses in proptest::collection::vec(0u32..120, 1..60),
            ports in 1usize..3,
        ) {
            let qubits: Vec<QubitTag> = (0..n).map(QubitTag).collect();
            let mut bank = PointSamBank::new(&qubits, ports, true);
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
            ports in 1usize..3,
        ) {
            let qubits: Vec<QubitTag> = (0..n).map(QubitTag).collect();
            let mut bank = PointSamBank::new(&qubits, ports, locality);
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

        /// The checkout ledger enforces the point-SAM shape across random
        /// load/store/in-memory sequences that include foreign tags, with one
        /// or two ports: `stored + checked_out == n` always, the grid holds
        /// exactly one scan vacancy per port (plus constant grid padding) plus
        /// one per checkout, and a store is accepted exactly when the ledger
        /// has the qubit.
        #[test]
        fn checkout_ledger_preserves_the_bank_invariants(
            n in 4u32..120,
            ops in proptest::collection::vec((0u32..150, 0u32..3), 1..100),
            locality in proptest::bool::ANY,
            ports in 1usize..3,
        ) {
            let qubits: Vec<QubitTag> = (0..n).map(QubitTag).collect();
            let mut bank = PointSamBank::new(&qubits, ports, locality);
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
                    ports + padding + bank.checked_out_count()
                );
                for &q in &out {
                    prop_assert!(bank.is_checked_out(q));
                }
            }
        }
    }
}
