//! Occupancy grid of surface-code cells.
//!
//! [`CellGrid`] tracks which cell each logical qubit currently occupies within one
//! rectangular region (a SAM bank, a conventional floorplan, ...). The SAM models
//! use it to simulate the sliding-puzzle load procedure: moving a target cell
//! requires vacant neighbours, and the scan cell is the vacancy that walks around
//! the grid. The grid therefore answers vacancy-aware nearest-cell queries in
//! addition to plain placement bookkeeping.

use crate::cell::{CellState, QubitTag};
use crate::error::LatticeError;
use crate::geom::Coord;
use crate::query::VacancyIndex;
use std::fmt;

/// A rectangular grid of surface-code cells with logical-qubit occupancy.
///
/// Coordinates are local to the grid: `(0, 0)` is the top-left cell and the grid
/// spans `width × height` cells.
///
/// ```
/// use lsqca_lattice::{CellGrid, Coord, QubitTag};
/// let mut grid = CellGrid::new(3, 3);
/// grid.place(QubitTag(0), Coord::new(0, 0)).unwrap();
/// grid.place(QubitTag(1), Coord::new(1, 0)).unwrap();
/// assert_eq!(grid.vacant_count(), 7);
/// assert_eq!(grid.position_of(QubitTag(1)), Some(Coord::new(1, 0)));
/// grid.remove(QubitTag(0)).unwrap();
/// assert_eq!(grid.occupied_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct CellGrid {
    width: u32,
    height: u32,
    cells: Vec<CellState>,
    /// Position per qubit tag, indexed directly by `QubitTag::index()` (tags
    /// are dense). Grown on demand; `None` for tags not on this grid. This
    /// replaces the former `HashMap<QubitTag, Coord>` so hot-path position
    /// lookups are single array reads. May carry trailing `None`s from
    /// removals; equality compares the canonical (trimmed) content.
    positions: Vec<Option<Coord>>,
    /// Number of occupied cells (`Some` entries in `positions`).
    occupied: usize,
    /// Distance-bucketed vacancy indices, one per registered anchor (bank
    /// port). Single-port banks register one; multi-port banks (the dual-port
    /// point SAM) register one per port. Derived acceleration state: excluded
    /// from equality, kept in sync by `place`/`remove`/`relocate`.
    vacancy: Vec<VacancyIndex>,
}

impl PartialEq for CellGrid {
    fn eq(&self, other: &Self) -> bool {
        fn canonical(positions: &[Option<Coord>]) -> &[Option<Coord>] {
            let mut len = positions.len();
            while len > 0 && positions[len - 1].is_none() {
                len -= 1;
            }
            &positions[..len]
        }
        self.width == other.width
            && self.height == other.height
            && self.cells == other.cells
            && canonical(&self.positions) == canonical(&other.positions)
    }
}

impl Eq for CellGrid {}

impl CellGrid {
    /// Creates an empty grid of `width × height` vacant cells.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "grid dimensions must be non-zero");
        CellGrid {
            width,
            height,
            cells: vec![CellState::Vacant; (width * height) as usize],
            positions: Vec::new(),
            occupied: 0,
            vacancy: Vec::new(),
        }
    }

    /// Registers `anchor` (typically the bank port) and builds the
    /// [`VacancyIndex`] that makes `nearest_vacant(anchor)` amortized O(1).
    /// Re-registering replaces every previously registered anchor; use
    /// [`CellGrid::register_anchors`] for multi-port banks.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::OutOfBounds`] if `anchor` is outside the grid.
    pub fn register_anchor(&mut self, anchor: Coord) -> Result<(), LatticeError> {
        self.register_anchors(&[anchor])
    }

    /// Registers one vacancy index per anchor (one per bank port), replacing
    /// any previously registered set. Duplicate coordinates collapse to one
    /// index. Every anchor's `nearest_vacant` query becomes an O(1) ring
    /// read; mutations update all indices (multi-port banks register two).
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::OutOfBounds`] if any anchor is outside the
    /// grid; nothing is registered in that case.
    pub fn register_anchors(&mut self, anchors: &[Coord]) -> Result<(), LatticeError> {
        for &anchor in anchors {
            self.check_bounds(anchor)?;
        }
        self.vacancy.clear();
        for &anchor in anchors {
            if self.vacancy.iter().any(|index| index.anchor() == anchor) {
                continue;
            }
            self.vacancy.push(VacancyIndex::new(
                anchor,
                self.width,
                self.height,
                self.vacant_cells(),
            ));
        }
        Ok(())
    }

    /// The first registered anchor, if any.
    pub fn anchor(&self) -> Option<Coord> {
        self.vacancy.first().map(VacancyIndex::anchor)
    }

    /// Every registered anchor, in registration order.
    pub fn anchors(&self) -> impl Iterator<Item = Coord> + '_ {
        self.vacancy.iter().map(VacancyIndex::anchor)
    }

    /// The vacancy index registered for `target`, if any.
    fn index_for(&self, target: Coord) -> Option<&VacancyIndex> {
        self.vacancy.iter().find(|index| index.anchor() == target)
    }

    /// Grid width in cells.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Grid height in cells.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Total number of cells.
    pub fn cell_count(&self) -> u64 {
        self.width as u64 * self.height as u64
    }

    /// Number of occupied cells.
    pub fn occupied_count(&self) -> usize {
        self.occupied
    }

    /// Number of vacant cells.
    pub fn vacant_count(&self) -> usize {
        self.cell_count() as usize - self.occupied
    }

    /// True if `coord` lies inside the grid.
    pub fn in_bounds(&self, coord: Coord) -> bool {
        coord.x < self.width && coord.y < self.height
    }

    fn index(&self, coord: Coord) -> usize {
        (coord.y * self.width + coord.x) as usize
    }

    fn check_bounds(&self, coord: Coord) -> Result<(), LatticeError> {
        if self.in_bounds(coord) {
            Ok(())
        } else {
            Err(LatticeError::OutOfBounds {
                coord,
                width: self.width,
                height: self.height,
            })
        }
    }

    /// The state of the cell at `coord`.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::OutOfBounds`] if the coordinate is outside the grid.
    pub fn state(&self, coord: Coord) -> Result<CellState, LatticeError> {
        self.check_bounds(coord)?;
        Ok(self.cells[self.index(coord)])
    }

    /// True if the cell at `coord` exists and is vacant.
    pub fn is_vacant(&self, coord: Coord) -> bool {
        self.in_bounds(coord) && self.cells[self.index(coord)].is_vacant()
    }

    /// The occupant of `coord`, if the cell exists and is occupied.
    pub fn occupant(&self, coord: Coord) -> Option<QubitTag> {
        if !self.in_bounds(coord) {
            return None;
        }
        self.cells[self.index(coord)].occupant()
    }

    /// The current position of `qubit`, if it is on this grid.
    pub fn position_of(&self, qubit: QubitTag) -> Option<Coord> {
        self.positions.get(qubit.0 as usize).copied().flatten()
    }

    /// True if the qubit is stored on this grid.
    pub fn contains(&self, qubit: QubitTag) -> bool {
        self.position_of(qubit).is_some()
    }

    /// Places `qubit` on the vacant cell at `coord`.
    ///
    /// # Errors
    ///
    /// * [`LatticeError::OutOfBounds`] if `coord` is outside the grid.
    /// * [`LatticeError::CellOccupied`] if the target cell already holds a qubit.
    /// * [`LatticeError::QubitAlreadyPlaced`] if the qubit is already on the grid.
    pub fn place(&mut self, qubit: QubitTag, coord: Coord) -> Result<(), LatticeError> {
        self.check_bounds(coord)?;
        if let Some(at) = self.position_of(qubit) {
            return Err(LatticeError::QubitAlreadyPlaced { qubit, at });
        }
        let idx = self.index(coord);
        if let Some(occupant) = self.cells[idx].occupant() {
            return Err(LatticeError::CellOccupied { coord, occupant });
        }
        self.cells[idx] = CellState::Occupied(qubit);
        for index in &mut self.vacancy {
            index.remove(coord);
        }
        self.set_position(qubit, Some(coord));
        Ok(())
    }

    fn set_position(&mut self, qubit: QubitTag, coord: Option<Coord>) {
        let idx = qubit.0 as usize;
        if idx >= self.positions.len() {
            if coord.is_none() {
                return;
            }
            self.positions.resize(idx + 1, None);
        }
        match (self.positions[idx], coord) {
            (None, Some(_)) => self.occupied += 1,
            (Some(_), None) => self.occupied -= 1,
            _ => {}
        }
        // Trailing `None`s are left in place — removals stay O(1) and
        // `PartialEq` compares the canonical content regardless; call
        // `canonicalize` to shrink the table explicitly.
        self.positions[idx] = coord;
    }

    /// Drops trailing `None` entries from the position table so its length
    /// reflects logical content rather than growth history. Equality already
    /// ignores the trailing entries; this only reclaims their memory.
    pub fn canonicalize(&mut self) {
        while self.positions.last() == Some(&None) {
            self.positions.pop();
        }
    }

    /// Removes `qubit` from the grid and returns the cell it occupied.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::QubitNotPresent`] if the qubit is not on the grid.
    pub fn remove(&mut self, qubit: QubitTag) -> Result<Coord, LatticeError> {
        let coord = self
            .position_of(qubit)
            .ok_or(LatticeError::QubitNotPresent { qubit })?;
        self.set_position(qubit, None);
        let idx = self.index(coord);
        self.cells[idx] = CellState::Vacant;
        for index in &mut self.vacancy {
            index.insert(coord);
        }
        Ok(coord)
    }

    /// Moves `qubit` to the vacant cell at `to`.
    ///
    /// # Errors
    ///
    /// * [`LatticeError::QubitNotPresent`] if the qubit is not on the grid.
    /// * [`LatticeError::OutOfBounds`] / [`LatticeError::CellOccupied`] for the target.
    pub fn relocate(&mut self, qubit: QubitTag, to: Coord) -> Result<(), LatticeError> {
        self.check_bounds(to)?;
        let from = self
            .position_of(qubit)
            .ok_or(LatticeError::QubitNotPresent { qubit })?;
        if from == to {
            return Ok(());
        }
        let to_idx = self.index(to);
        if let Some(occupant) = self.cells[to_idx].occupant() {
            return Err(LatticeError::CellOccupied {
                coord: to,
                occupant,
            });
        }
        let from_idx = self.index(from);
        self.cells[from_idx] = CellState::Vacant;
        self.cells[to_idx] = CellState::Occupied(qubit);
        for index in &mut self.vacancy {
            index.insert(from);
            index.remove(to);
        }
        self.positions[qubit.0 as usize] = Some(to);
        Ok(())
    }

    /// Moves `qubit` into the vacant cell nearest `target` (Manhattan metric,
    /// ties broken row-major), treating the qubit's own cell as vacant, and
    /// returns `(from, to)`. Equivalent to `remove` → `nearest_vacant` →
    /// `place` but performed in a single pass: the position table is written
    /// once (the occupied count never moves), and the vacancy rings see one
    /// fused [`VacancyIndex::swap`] — or no update at all when the qubit
    /// already sits on the nearest vacancy-to-be, instead of the legacy
    /// insert/read/remove triple.
    ///
    /// When `target` is the registered anchor the candidate comes from the
    /// vacancy index in O(1); otherwise an outward ring search is used.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::QubitNotPresent`] if the qubit is not on the grid.
    pub fn relocate_into_nearest_vacancy(
        &mut self,
        qubit: QubitTag,
        target: Coord,
    ) -> Result<(Coord, Coord), LatticeError> {
        let from = self
            .position_of(qubit)
            .ok_or(LatticeError::QubitNotPresent { qubit })?;
        let key = |c: Coord| (c.manhattan_distance(target), c.y, c.x);
        let candidate = match self.index_for(target) {
            Some(index) => index.nearest(),
            None => self.ring_search(target, |c, cell| cell.is_vacant() || c == from),
        };
        // The qubit's own cell counts as vacant: removing it always leaves at
        // least one vacancy, so the destination always exists.
        let to = match candidate {
            Some(c) if key(c) < key(from) => c,
            _ => from,
        };
        if to == from {
            return Ok((from, from));
        }
        let from_idx = self.index(from);
        let to_idx = self.index(to);
        debug_assert!(self.cells[to_idx].is_vacant());
        self.cells[from_idx] = CellState::Vacant;
        self.cells[to_idx] = CellState::Occupied(qubit);
        for index in &mut self.vacancy {
            index.swap(from, to);
        }
        self.positions[qubit.0 as usize] = Some(to);
        Ok((from, to))
    }

    /// Places `qubit` (not currently on the grid) into the vacant cell nearest
    /// `target`, returning the chosen cell. Equivalent to `nearest_vacant` →
    /// `place` but fused: when `target` is a registered anchor the destination
    /// comes straight from that anchor's ring mask (an O(1) bit scan), and
    /// every registered index sees one O(1) bit clear.
    ///
    /// # Errors
    ///
    /// * [`LatticeError::QubitAlreadyPlaced`] if the qubit is already on the grid.
    /// * [`LatticeError::GridFull`] if no vacant cell exists.
    pub fn place_at_nearest_vacancy(
        &mut self,
        qubit: QubitTag,
        target: Coord,
    ) -> Result<Coord, LatticeError> {
        if let Some(at) = self.position_of(qubit) {
            return Err(LatticeError::QubitAlreadyPlaced { qubit, at });
        }
        // Single-anchor fast path (every single-port bank): pop the cached
        // nearest cell straight off the one index instead of reading it and
        // then removing it by coordinate.
        if let [index] = self.vacancy.as_mut_slice() {
            if index.anchor() == target {
                let dest = index.take_nearest().ok_or(LatticeError::GridFull)?;
                let idx = self.index(dest);
                debug_assert!(self.cells[idx].is_vacant());
                self.cells[idx] = CellState::Occupied(qubit);
                self.set_position(qubit, Some(dest));
                return Ok(dest);
            }
        }
        let dest = self.nearest_vacant(target).ok_or(LatticeError::GridFull)?;
        let idx = self.index(dest);
        debug_assert!(self.cells[idx].is_vacant());
        self.cells[idx] = CellState::Occupied(qubit);
        for index in &mut self.vacancy {
            index.remove(dest);
        }
        self.set_position(qubit, Some(dest));
        Ok(dest)
    }

    /// Iterates over all `(qubit, position)` pairs in ascending tag order.
    pub fn iter(&self) -> impl Iterator<Item = (QubitTag, Coord)> + '_ {
        self.positions
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.map(|c| (QubitTag(i as u32), c)))
    }

    /// Iterates over all vacant cell coordinates in row-major order.
    pub fn vacant_cells(&self) -> impl Iterator<Item = Coord> + '_ {
        (0..self.height).flat_map(move |y| {
            (0..self.width)
                .map(move |x| Coord::new(x, y))
                .filter(move |&c| self.cells[self.index(c)].is_vacant())
        })
    }

    /// Finds the vacant cell closest (Manhattan metric) to `target`, breaking ties
    /// by row-major order. Returns `None` if the grid is full.
    ///
    /// When `target` is a registered anchor (see [`CellGrid::register_anchor`]
    /// / [`CellGrid::register_anchors`]) this is an amortized O(1) read of
    /// that anchor's [`VacancyIndex`]. Otherwise it is an outward ring search
    /// that visits O(ring) cells per distance instead of scanning every cell;
    /// on an anchored grid the ring search stops once it has cost as much as
    /// a scan of the index ([`VacancyIndex::nearest_to`]), which then answers.
    /// That keeps a SAM bank's home-store target, whose few vacancies sit
    /// far from it, from walking rings of occupied cells.
    pub fn nearest_vacant(&self, target: Coord) -> Option<Coord> {
        let vacant = |_, cell: CellState| cell.is_vacant();
        if let Some(index) = self.index_for(target) {
            return index.nearest();
        }
        let Some(index) = self.vacancy.first() else {
            return self.ring_search(target, vacant);
        };
        if !self.in_bounds(target) {
            return index.nearest_to(target);
        }
        // The index scan reads one count per ring and decodes at most one
        // cell per vacancy; rings up to radius `r` hold `2r(r + 1) + 1` cells.
        let budget = index.ring_count() + index.len();
        let mut radius = 0u32;
        while 2 * (radius as usize + 1) * (radius as usize + 2) < budget {
            radius += 1;
        }
        self.rings_around(target, radius, vacant)
            .or_else(|| index.nearest_to(target))
    }

    /// Finds the occupied cell closest (Manhattan metric) to `target` by the
    /// same outward ring search, ties broken row-major.
    pub fn nearest_occupied(&self, target: Coord) -> Option<Coord> {
        self.ring_search(target, |_, cell| !cell.is_vacant())
    }

    /// Expanding ring search around `target`: visits cells in ascending
    /// `(manhattan, y, x)` order and returns the first one matching `pred`,
    /// so the answer equals the legacy full-grid `min_by_key` scan.
    fn ring_search(&self, target: Coord, pred: impl Fn(Coord, CellState) -> bool) -> Option<Coord> {
        if !self.in_bounds(target) {
            // Clamping would change the metric; fall back to the exact scan
            // for the (cold, test-only) out-of-grid targets.
            return (0..self.height)
                .flat_map(|y| (0..self.width).map(move |x| Coord::new(x, y)))
                .filter(|&c| pred(c, self.cells[self.index(c)]))
                .min_by_key(|&c| (c.manhattan_distance(target), c.y, c.x));
        }
        self.rings_around(target, u32::MAX, pred)
    }

    /// The ring search of [`CellGrid::ring_search`] around the in-grid
    /// `target`, over distances `0..=max_d` only.
    fn rings_around(
        &self,
        target: Coord,
        max_d: u32,
        pred: impl Fn(Coord, CellState) -> bool,
    ) -> Option<Coord> {
        let max_d = max_d.min(
            target.x.max(self.width - 1 - target.x) + target.y.max(self.height - 1 - target.y),
        );
        for d in 0..=max_d {
            let y_lo = target.y.saturating_sub(d);
            let y_hi = (target.y + d).min(self.height - 1);
            for y in y_lo..=y_hi {
                let rem = d - y.abs_diff(target.y);
                // At most two candidates per row, in ascending x order.
                let left = target.x.checked_sub(rem);
                let right = if rem == 0 {
                    None
                } else {
                    target.x.checked_add(rem)
                };
                for x in left.into_iter().chain(right) {
                    if x >= self.width {
                        continue;
                    }
                    let c = Coord::new(x, y);
                    if pred(c, self.cells[self.index(c)]) {
                        return Some(c);
                    }
                }
            }
        }
        None
    }

    /// Fraction of cells currently holding a logical qubit.
    pub fn occupancy(&self) -> f64 {
        self.occupied_count() as f64 / self.cell_count() as f64
    }
}

impl fmt::Display for CellGrid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}x{} grid, {} occupied / {} cells",
            self.width,
            self.height,
            self.occupied_count(),
            self.cell_count()
        )?;
        for y in 0..self.height {
            for x in 0..self.width {
                let c = Coord::new(x, y);
                let ch = if self.is_vacant(c) { '.' } else { 'Q' };
                write!(f, "{ch}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled_grid(width: u32, height: u32, qubits: u32) -> CellGrid {
        let mut grid = CellGrid::new(width, height);
        let mut placed = 0;
        'outer: for y in 0..height {
            for x in 0..width {
                if placed >= qubits {
                    break 'outer;
                }
                grid.place(QubitTag(placed), Coord::new(x, y)).unwrap();
                placed += 1;
            }
        }
        grid
    }

    #[test]
    fn place_remove_round_trip() {
        let mut grid = CellGrid::new(4, 4);
        grid.place(QubitTag(1), Coord::new(2, 3)).unwrap();
        assert!(grid.contains(QubitTag(1)));
        assert_eq!(grid.occupant(Coord::new(2, 3)), Some(QubitTag(1)));
        let at = grid.remove(QubitTag(1)).unwrap();
        assert_eq!(at, Coord::new(2, 3));
        assert!(!grid.contains(QubitTag(1)));
        assert!(grid.is_vacant(Coord::new(2, 3)));
    }

    #[test]
    fn double_place_is_rejected() {
        let mut grid = CellGrid::new(2, 2);
        grid.place(QubitTag(0), Coord::new(0, 0)).unwrap();
        let err = grid.place(QubitTag(0), Coord::new(1, 1)).unwrap_err();
        assert!(matches!(err, LatticeError::QubitAlreadyPlaced { .. }));
        let err = grid.place(QubitTag(1), Coord::new(0, 0)).unwrap_err();
        assert!(matches!(err, LatticeError::CellOccupied { .. }));
    }

    #[test]
    fn out_of_bounds_is_rejected() {
        let mut grid = CellGrid::new(2, 2);
        let err = grid.place(QubitTag(0), Coord::new(2, 0)).unwrap_err();
        assert!(matches!(err, LatticeError::OutOfBounds { .. }));
        assert!(grid.state(Coord::new(0, 5)).is_err());
    }

    #[test]
    fn remove_missing_qubit_fails() {
        let mut grid = CellGrid::new(2, 2);
        assert!(matches!(
            grid.remove(QubitTag(9)),
            Err(LatticeError::QubitNotPresent { .. })
        ));
    }

    #[test]
    fn relocate_moves_the_qubit() {
        let mut grid = CellGrid::new(3, 3);
        grid.place(QubitTag(0), Coord::new(0, 0)).unwrap();
        grid.relocate(QubitTag(0), Coord::new(2, 2)).unwrap();
        assert_eq!(grid.position_of(QubitTag(0)), Some(Coord::new(2, 2)));
        assert!(grid.is_vacant(Coord::new(0, 0)));
        // Relocating onto itself is a no-op.
        grid.relocate(QubitTag(0), Coord::new(2, 2)).unwrap();
        // Relocating onto an occupied cell fails.
        grid.place(QubitTag(1), Coord::new(1, 1)).unwrap();
        assert!(grid.relocate(QubitTag(0), Coord::new(1, 1)).is_err());
    }

    #[test]
    fn counts_are_consistent() {
        let grid = filled_grid(4, 4, 10);
        assert_eq!(grid.occupied_count(), 10);
        assert_eq!(grid.vacant_count(), 6);
        assert_eq!(grid.cell_count(), 16);
        assert!((grid.occupancy() - 10.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_vacant_prefers_closest() {
        let grid = filled_grid(3, 3, 8); // only (2,2) vacant
        assert_eq!(
            grid.nearest_vacant(Coord::new(0, 0)),
            Some(Coord::new(2, 2))
        );
        let full = filled_grid(2, 2, 4);
        assert_eq!(full.nearest_vacant(Coord::new(0, 0)), None);
    }

    #[test]
    fn nearest_occupied_finds_target() {
        let mut grid = CellGrid::new(3, 3);
        grid.place(QubitTag(0), Coord::new(2, 2)).unwrap();
        assert_eq!(
            grid.nearest_occupied(Coord::new(0, 0)),
            Some(Coord::new(2, 2))
        );
        let empty = CellGrid::new(2, 2);
        assert_eq!(empty.nearest_occupied(Coord::new(0, 0)), None);
    }

    #[test]
    fn display_renders_one_row_per_line() {
        let grid = filled_grid(3, 2, 2);
        let s = grid.to_string();
        assert!(s.contains("3x2 grid"));
        assert!(s.contains("QQ."));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_sized_grid_panics() {
        let _ = CellGrid::new(0, 3);
    }

    #[test]
    fn anchored_nearest_vacant_matches_the_scan() {
        let mut grid = filled_grid(4, 4, 13);
        let port = Coord::new(0, 2);
        grid.register_anchor(port).unwrap();
        assert_eq!(grid.anchor(), Some(port));
        // Index answer equals the generic ring-search answer for the anchor.
        let expected = grid
            .vacant_cells()
            .min_by_key(|&c| (c.manhattan_distance(port), c.y, c.x));
        assert_eq!(grid.nearest_vacant(port), expected);
        // The index follows placements and removals.
        let dest = grid.nearest_vacant(port).unwrap();
        grid.place(QubitTag(50), dest).unwrap();
        assert_ne!(grid.nearest_vacant(port), Some(dest));
        grid.remove(QubitTag(50)).unwrap();
        assert_eq!(grid.nearest_vacant(port), Some(dest));
        // ... and relocations.
        let occupied = grid.position_of(QubitTag(0)).unwrap();
        let vacant = grid.nearest_vacant(port).unwrap();
        grid.relocate(QubitTag(0), vacant).unwrap();
        assert_eq!(grid.nearest_vacant(port), Some(occupied));
        // Out-of-bounds anchors are rejected.
        assert!(grid.register_anchor(Coord::new(9, 9)).is_err());
    }

    #[test]
    fn anchored_full_grid_has_no_vacancy() {
        let mut grid = filled_grid(2, 2, 4);
        grid.register_anchor(Coord::ORIGIN).unwrap();
        assert_eq!(grid.nearest_vacant(Coord::ORIGIN), None);
        grid.remove(QubitTag(3)).unwrap();
        assert_eq!(grid.nearest_vacant(Coord::ORIGIN), Some(Coord::new(1, 1)));
    }

    #[test]
    fn nearest_queries_accept_out_of_grid_targets() {
        let mut grid = CellGrid::new(3, 3);
        grid.place(QubitTag(0), Coord::new(1, 1)).unwrap();
        // Targets outside the grid fall back to the exact scan.
        assert_eq!(
            grid.nearest_occupied(Coord::new(10, 10)),
            Some(Coord::new(1, 1))
        );
        assert_eq!(
            grid.nearest_vacant(Coord::new(0, 7)),
            Some(Coord::new(0, 2))
        );
    }

    #[test]
    fn equality_ignores_position_table_growth_history() {
        // Regression: `set_position` used to pop trailing `None`s on every
        // removal (O(n) worst case per op). The pop is gone; equality must
        // still compare logical content only.
        let mut grown = CellGrid::new(3, 3);
        grown.place(QubitTag(20), Coord::new(2, 2)).unwrap();
        grown.remove(QubitTag(20)).unwrap();
        let fresh = CellGrid::new(3, 3);
        assert_eq!(grown, fresh);
        assert_eq!(grown.occupied_count(), 0);
        assert_eq!(grown.position_of(QubitTag(20)), None);
        // Canonicalize reclaims the trailing entries without changing content.
        grown.canonicalize();
        assert_eq!(grown, fresh);
        // Same content reached through different histories compares equal.
        let mut a = CellGrid::new(3, 3);
        a.place(QubitTag(1), Coord::new(0, 0)).unwrap();
        a.place(QubitTag(7), Coord::new(1, 1)).unwrap();
        a.remove(QubitTag(7)).unwrap();
        let mut b = CellGrid::new(3, 3);
        b.place(QubitTag(1), Coord::new(0, 0)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fused_relocate_matches_the_triple_walk() {
        let mut grid = filled_grid(4, 4, 13);
        let port = Coord::new(0, 2);
        grid.register_anchor(port).unwrap();
        let mut legacy = grid.clone();
        for tag in [12u32, 0, 7, 12, 3] {
            let q = QubitTag(tag);
            let from_legacy = legacy.remove(q).unwrap();
            let dest_legacy = legacy.nearest_vacant(port).unwrap();
            legacy.place(q, dest_legacy).unwrap();
            let (from, to) = grid.relocate_into_nearest_vacancy(q, port).unwrap();
            assert_eq!((from, to), (from_legacy, dest_legacy));
            assert_eq!(grid, legacy);
            assert_eq!(grid.nearest_vacant(port), legacy.nearest_vacant(port));
        }
        // A missing qubit is reported, not silently ignored.
        assert!(matches!(
            grid.relocate_into_nearest_vacancy(QubitTag(99), port),
            Err(LatticeError::QubitNotPresent { .. })
        ));
    }

    #[test]
    fn fused_relocate_is_a_no_op_when_already_nearest() {
        // Park a qubit directly on the port-adjacent optimum; relocating it
        // again must keep it (and the vacancy structure) in place.
        let mut grid = CellGrid::new(3, 3);
        let port = Coord::ORIGIN;
        grid.register_anchor(port).unwrap();
        grid.place(QubitTag(0), port).unwrap();
        grid.place(QubitTag(1), Coord::new(2, 2)).unwrap();
        let (from, to) = grid
            .relocate_into_nearest_vacancy(QubitTag(0), port)
            .unwrap();
        assert_eq!((from, to), (port, port));
        assert_eq!(grid.position_of(QubitTag(0)), Some(port));
        assert_eq!(grid.nearest_vacant(port), Some(Coord::new(1, 0)));
    }

    #[test]
    fn fused_relocate_works_without_an_anchor() {
        let mut grid = filled_grid(3, 3, 8); // only (2,2) vacant
        let target = Coord::ORIGIN;
        let (from, to) = grid
            .relocate_into_nearest_vacancy(QubitTag(5), target)
            .unwrap();
        // Qubit 5 sits at (2,1); the only vacancy (2,2) is farther from the
        // origin than its own cell, so it stays put.
        assert_eq!((from, to), (Coord::new(2, 1), Coord::new(2, 1)));
        let (from, to) = grid
            .relocate_into_nearest_vacancy(QubitTag(7), target)
            .unwrap();
        // Qubit 7 at (1,2) moves nowhere either; but qubit at (2,2)-adjacent
        // positions can swap into the vacancy when it is nearer the target.
        assert_eq!(from, to);
        let mut grid = CellGrid::new(3, 3);
        grid.place(QubitTag(0), Coord::new(2, 2)).unwrap();
        let (from, to) = grid
            .relocate_into_nearest_vacancy(QubitTag(0), target)
            .unwrap();
        assert_eq!((from, to), (Coord::new(2, 2), Coord::ORIGIN));
    }

    #[test]
    fn fused_place_matches_nearest_vacant_then_place() {
        let mut grid = filled_grid(4, 4, 12);
        let port = Coord::new(0, 2);
        grid.register_anchor(port).unwrap();
        let mut legacy = grid.clone();
        // Open a few vacancies, then refill through both code paths.
        for tag in [2u32, 9, 11] {
            grid.remove(QubitTag(tag)).unwrap();
            legacy.remove(QubitTag(tag)).unwrap();
        }
        for tag in [20u32, 21, 22] {
            let dest_legacy = legacy.nearest_vacant(port).unwrap();
            legacy.place(QubitTag(tag), dest_legacy).unwrap();
            let dest = grid.place_at_nearest_vacancy(QubitTag(tag), port).unwrap();
            assert_eq!(dest, dest_legacy);
            assert_eq!(grid, legacy);
        }
        // Double placement and full grids are rejected.
        assert!(matches!(
            grid.place_at_nearest_vacancy(QubitTag(20), port),
            Err(LatticeError::QubitAlreadyPlaced { .. })
        ));
        let mut full = filled_grid(2, 2, 4);
        full.register_anchor(Coord::ORIGIN).unwrap();
        assert!(matches!(
            full.place_at_nearest_vacancy(QubitTag(9), Coord::ORIGIN),
            Err(LatticeError::GridFull)
        ));
        // Non-anchor targets go through the ring search.
        let mut grid = CellGrid::new(3, 3);
        grid.place(QubitTag(0), Coord::new(1, 1)).unwrap();
        let dest = grid
            .place_at_nearest_vacancy(QubitTag(1), Coord::new(1, 1))
            .unwrap();
        assert_eq!(dest, Coord::new(1, 0));
    }

    #[test]
    fn multi_anchor_indices_answer_for_every_port() {
        let mut grid = filled_grid(5, 5, 20);
        let west = Coord::new(0, 2);
        let east = Coord::new(4, 2);
        grid.register_anchors(&[west, east, west]).unwrap();
        // Duplicates collapse; registration order is preserved.
        assert_eq!(grid.anchors().collect::<Vec<_>>(), vec![west, east]);
        assert_eq!(grid.anchor(), Some(west));
        fn scan(grid: &CellGrid, target: Coord) -> Option<Coord> {
            grid.vacant_cells()
                .min_by_key(|&c| (c.manhattan_distance(target), c.y, c.x))
        }
        assert_eq!(grid.nearest_vacant(west), scan(&grid, west));
        assert_eq!(grid.nearest_vacant(east), scan(&grid, east));
        // Mutations keep both indices in sync.
        grid.remove(QubitTag(0)).unwrap();
        let dest = grid.place_at_nearest_vacancy(QubitTag(50), east).unwrap();
        assert_eq!(grid.occupant(dest), Some(QubitTag(50)));
        assert_eq!(grid.nearest_vacant(west), scan(&grid, west));
        assert_eq!(grid.nearest_vacant(east), scan(&grid, east));
        grid.relocate_into_nearest_vacancy(QubitTag(7), west)
            .unwrap();
        assert_eq!(grid.nearest_vacant(west), scan(&grid, west));
        assert_eq!(grid.nearest_vacant(east), scan(&grid, east));
        // An out-of-bounds anchor in the set rejects the whole registration.
        assert!(grid.register_anchors(&[west, Coord::new(9, 9)]).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The seed's `nearest_vacant`: a full linear scan over every vacant cell.
    fn nearest_vacant_scan(grid: &CellGrid, target: Coord) -> Option<Coord> {
        grid.vacant_cells()
            .min_by_key(|&c| (c.manhattan_distance(target), c.y, c.x))
    }

    proptest! {
        /// The anchor-indexed and ring-search `nearest_vacant` answers equal
        /// the legacy linear scan under random place/remove/relocate
        /// sequences, for the anchor and for arbitrary other targets.
        #[test]
        fn vacancy_index_matches_the_linear_scan(
            anchor in (0u32..6, 0u32..6),
            ops in proptest::collection::vec(
                (0u32..20, 0u32..6, 0u32..6, 0u32..3), 1..80
            ),
        ) {
            let anchor = Coord::new(anchor.0, anchor.1);
            let mut grid = CellGrid::new(6, 6);
            grid.register_anchor(anchor).unwrap();
            for (q, x, y, op) in ops {
                let qubit = QubitTag(q);
                let coord = Coord::new(x, y);
                match op {
                    0 => { let _ = grid.place(qubit, coord); }
                    1 => { let _ = grid.remove(qubit); }
                    _ => { let _ = grid.relocate(qubit, coord); }
                }
                // Anchor query goes through the incremental index.
                prop_assert_eq!(
                    grid.nearest_vacant(anchor),
                    nearest_vacant_scan(&grid, anchor)
                );
                // Non-anchor queries: ring search, then the index scan.
                prop_assert_eq!(
                    grid.nearest_vacant(coord),
                    nearest_vacant_scan(&grid, coord)
                );
                prop_assert_eq!(
                    grid.nearest_occupied(coord),
                    grid.iter().map(|(_, c)| c)
                        .min_by_key(|&c| (c.manhattan_distance(coord), c.y, c.x))
                );
            }
        }

        /// With two registered anchors, each anchor's indexed `nearest_vacant`
        /// answer equals the legacy linear scan under random mutation
        /// sequences — including the fused relocate/place primitives, which
        /// must keep every ring mask in sync, not just the targeted anchor's.
        #[test]
        fn dual_anchor_indices_match_the_linear_scan(
            a in (0u32..6, 0u32..6),
            b in (0u32..6, 0u32..6),
            ops in proptest::collection::vec(
                (0u32..20, 0u32..6, 0u32..6, 0u32..5, proptest::bool::ANY), 1..60
            ),
        ) {
            let a = Coord::new(a.0, a.1);
            let b = Coord::new(b.0, b.1);
            let mut grid = CellGrid::new(6, 6);
            grid.register_anchors(&[a, b]).unwrap();
            for (q, x, y, op, pick_a) in ops {
                let qubit = QubitTag(q);
                let coord = Coord::new(x, y);
                let target = if pick_a { a } else { b };
                match op {
                    0 => { let _ = grid.place(qubit, coord); }
                    1 => { let _ = grid.remove(qubit); }
                    2 => { let _ = grid.relocate(qubit, coord); }
                    3 => { let _ = grid.relocate_into_nearest_vacancy(qubit, target); }
                    _ => { let _ = grid.place_at_nearest_vacancy(qubit, target); }
                }
                prop_assert_eq!(
                    grid.nearest_vacant(a),
                    nearest_vacant_scan(&grid, a)
                );
                prop_assert_eq!(
                    grid.nearest_vacant(b),
                    nearest_vacant_scan(&grid, b)
                );
            }
        }

        /// On nearly full anchored grids (a SAM bank: a handful of
        /// vacancies), off-anchor `nearest_vacant` queries and the
        /// `place_at_nearest_vacancy` destinations they pick come from the
        /// vacancy index's scan and equal the legacy linear scan, for in-grid
        /// and out-of-grid targets, under stores, removals and fused
        /// relocations to the anchors.
        #[test]
        fn off_anchor_targets_on_anchored_grids_match_the_linear_scan(
            size in (2u32..9, 2u32..9),
            anchors in ((0u32..9, 0u32..9), (0u32..9, 0u32..9), proptest::bool::ANY),
            vacancies in 1u32..8,
            ops in proptest::collection::vec(
                (0u32..3, 0u32..11, 0u32..11, 0u32..80), 1..60
            ),
        ) {
            let (width, height) = size;
            let mut grid = CellGrid::new(width, height);
            let cells = width * height;
            let filled = cells.saturating_sub(vacancies);
            for q in 0..filled {
                grid.place(QubitTag(q), Coord::new(q % width, q / width)).unwrap();
            }
            let clamp = |(x, y): (u32, u32)| Coord::new(x % width, y % height);
            let (a, b, two) = anchors;
            let (a, b) = (clamp(a), clamp(b));
            if two && a != b {
                grid.register_anchors(&[a, b]).unwrap();
            } else {
                grid.register_anchor(a).unwrap();
            }
            let mut next_tag = filled;
            for (op, x, y, pick) in ops {
                // Targets range past the grid edge to cover out-of-grid ones.
                let target = Coord::new(x, y);
                prop_assert_eq!(
                    grid.nearest_vacant(target),
                    nearest_vacant_scan(&grid, target)
                );
                match op {
                    0 => {
                        let expected = nearest_vacant_scan(&grid, target);
                        let placed = grid.place_at_nearest_vacancy(QubitTag(next_tag), target);
                        prop_assert_eq!(placed.ok(), expected);
                        next_tag += 1;
                    }
                    1 => {
                        let tags: Vec<QubitTag> = grid.iter().map(|(tag, _)| tag).collect();
                        if !tags.is_empty() {
                            let _ = grid.remove(tags[pick as usize % tags.len()]);
                        }
                    }
                    _ => {
                        let tags: Vec<QubitTag> = grid.iter().map(|(tag, _)| tag).collect();
                        if !tags.is_empty() {
                            let anchors: Vec<Coord> = grid.anchors().collect();
                            let anchor = anchors[pick as usize % anchors.len()];
                            let _ = grid.relocate_into_nearest_vacancy(
                                tags[pick as usize % tags.len()],
                                anchor,
                            );
                        }
                    }
                }
            }
        }

        /// Occupied + vacant always equals the total cell count, and every stored
        /// qubit's recorded position matches the cell map, under random placement
        /// and removal sequences.
        #[test]
        fn occupancy_bookkeeping_is_consistent(
            ops in proptest::collection::vec((0u32..30, 0u32..6, 0u32..6, proptest::bool::ANY), 1..80)
        ) {
            let mut grid = CellGrid::new(6, 6);
            // Shadow map with the seed's `HashMap<QubitTag, Coord>` semantics;
            // the dense position table must stay observationally identical.
            let mut mirror: HashMap<QubitTag, Coord> = HashMap::new();
            for (q, x, y, place) in ops {
                let qubit = QubitTag(q);
                if place {
                    if grid.place(qubit, Coord::new(x, y)).is_ok() {
                        mirror.insert(qubit, Coord::new(x, y));
                    }
                } else if grid.remove(qubit).is_ok() {
                    mirror.remove(&qubit);
                }
                // Invariants hold after every step.
                prop_assert_eq!(
                    grid.occupied_count() + grid.vacant_count(),
                    grid.cell_count() as usize
                );
                prop_assert_eq!(grid.occupied_count(), mirror.len());
                for (qubit, pos) in grid.iter() {
                    prop_assert_eq!(grid.occupant(pos), Some(qubit));
                }
                // Dense table answers equal map answers for every tag ever used.
                for tag in 0..30 {
                    let qubit = QubitTag(tag);
                    prop_assert_eq!(grid.position_of(qubit), mirror.get(&qubit).copied());
                    prop_assert_eq!(grid.contains(qubit), mirror.contains_key(&qubit));
                }
            }
        }

        /// The fused single-pass primitives are observationally identical to
        /// the legacy multi-walk sequences they replace: `remove` →
        /// `nearest_vacant` → `place` for relocation and `nearest_vacant` →
        /// `place` for placement, under random op sequences on anchored and
        /// unanchored grids alike.
        #[test]
        fn fused_primitives_match_the_legacy_walks(
            anchor in (0u32..6, 0u32..6),
            use_anchor in proptest::bool::ANY,
            ops in proptest::collection::vec(
                (0u32..20, 0u32..6, 0u32..6, 0u32..4), 1..80
            ),
        ) {
            let anchor = Coord::new(anchor.0, anchor.1);
            let mut fused = CellGrid::new(6, 6);
            let mut legacy = CellGrid::new(6, 6);
            if use_anchor {
                fused.register_anchor(anchor).unwrap();
                legacy.register_anchor(anchor).unwrap();
            }
            for (q, x, y, op) in ops {
                let qubit = QubitTag(q);
                let target = if use_anchor { anchor } else { Coord::new(x, y) };
                match op {
                    0 => {
                        let a = fused.place(qubit, Coord::new(x, y));
                        let b = legacy.place(qubit, Coord::new(x, y));
                        prop_assert_eq!(a, b);
                    }
                    1 => {
                        let a = fused.remove(qubit);
                        let b = legacy.remove(qubit);
                        prop_assert_eq!(a, b);
                    }
                    2 => {
                        // Relocation: fused vs remove → nearest_vacant → place.
                        let a = fused.relocate_into_nearest_vacancy(qubit, target);
                        let b = match legacy.remove(qubit) {
                            Err(e) => Err(e),
                            Ok(from) => {
                                let dest = legacy
                                    .nearest_vacant(target)
                                    .expect("the freed cell is vacant");
                                legacy.place(qubit, dest).unwrap();
                                Ok((from, dest))
                            }
                        };
                        prop_assert_eq!(a, b);
                    }
                    _ => {
                        // Placement: fused vs nearest_vacant → place.
                        let a = fused.place_at_nearest_vacancy(qubit, target);
                        let b = if legacy.contains(qubit) {
                            let at = legacy.position_of(qubit).unwrap();
                            Err(LatticeError::QubitAlreadyPlaced { qubit, at })
                        } else {
                            match legacy.nearest_vacant(target) {
                                None => Err(LatticeError::GridFull),
                                Some(dest) => legacy.place(qubit, dest).map(|()| dest),
                            }
                        };
                        prop_assert_eq!(a, b);
                    }
                }
                // Observable state stays identical after every step, through
                // both the vacancy index (anchor) and the ring search.
                prop_assert_eq!(&fused, &legacy);
                prop_assert_eq!(
                    fused.nearest_vacant(target),
                    nearest_vacant_scan(&legacy, target)
                );
                prop_assert_eq!(
                    fused.nearest_vacant(anchor),
                    nearest_vacant_scan(&legacy, anchor)
                );
            }
        }
    }
}
