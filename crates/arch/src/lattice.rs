//! The surface-code lattice substrate of the memory models.
//!
//! The chip is a two-dimensional grid of surface-code **cells** (each cell is
//! one code patch of distance `d`), time is measured in **code beats** (`d`
//! syndrome-measurement cycles), and computation is carried out by a small set
//! of primitive protocols — lattice surgery, patch moves, expansion/contraction,
//! transversal and deformation-based single-qubit operations — each with a
//! fixed latency in code beats (Fig. 4 of the paper).
//!
//! * [`Beats`] — the code-beat time unit.
//! * [`QubitTag`] — the identity of a logical data qubit.
//! * [`Coord`] — a cell coordinate on the grid.
//! * [`CellGrid`] — the occupancy map the point SAM uses to simulate
//!   sliding-puzzle loads and stores, with a distance-bucketed vacancy index
//!   behind its nearest-vacant query.
//! * `moves` — the fixed code-beat costs of the point SAM's patch moves.
//! * [`LatticeError`] — the errors of grid manipulation and bank accounting.
//!
//! # Example
//!
//! ```
//! use lsqca_arch::lattice::{CellGrid, Coord, QubitTag};
//!
//! // A 4x4 memory region holding one logical qubit.
//! let mut grid = CellGrid::new(4, 4);
//! grid.place(QubitTag(7), Coord::new(2, 1)).unwrap();
//! assert_eq!(grid.position_of(QubitTag(7)), Some(Coord::new(2, 1)));
//! assert_eq!(grid.occupied_count(), 1);
//! ```

use std::error::Error;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// A duration or timestamp expressed in code beats.
///
/// One beat is `d` syndrome measurement cycles, the time needed to
/// fault-tolerantly commit a change to the syndrome-measurement pattern (a
/// lattice-surgery merge, a patch move step, ...). For realistic code
/// distances (11–31) a beat is roughly 10–50 µs, but the whole evaluation is
/// distance-independent, so time is kept as an integer beat count.
///
/// `Beats` is a thin newtype over `u64` that supports the arithmetic needed by the
/// scheduler (saturating subtraction is intentional: latencies never go negative).
///
/// ```
/// use lsqca_arch::lattice::Beats;
/// let t = Beats(3) + Beats(4);
/// assert_eq!(t, Beats(7));
/// assert_eq!(t * 2, Beats(14));
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Beats(pub u64);

impl Beats {
    /// The zero duration.
    pub const ZERO: Beats = Beats(0);

    /// Returns the raw beat count.
    #[inline]
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the beat count as `f64`, convenient for ratios such as CPI.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Returns the larger of two durations.
    #[inline]
    pub(crate) fn max(self, other: Beats) -> Beats {
        Beats(self.0.max(other.0))
    }

    /// Saturating subtraction; clamps at zero instead of underflowing.
    #[inline]
    pub fn saturating_sub(self, other: Beats) -> Beats {
        Beats(self.0.saturating_sub(other.0))
    }

    /// True if this duration is zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Beats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} beats", self.0)
    }
}

impl Add for Beats {
    type Output = Beats;
    fn add(self, rhs: Beats) -> Beats {
        Beats(self.0 + rhs.0)
    }
}

impl AddAssign for Beats {
    fn add_assign(&mut self, rhs: Beats) {
        self.0 += rhs.0;
    }
}

impl Sub for Beats {
    type Output = Beats;
    fn sub(self, rhs: Beats) -> Beats {
        Beats(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Beats {
    fn sub_assign(&mut self, rhs: Beats) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for Beats {
    type Output = Beats;
    fn mul(self, rhs: u64) -> Beats {
        Beats(self.0 * rhs)
    }
}

/// Identity of a logical data qubit stored on the lattice.
///
/// The tag is assigned by the compiler / memory controller and stays with the
/// qubit as it moves between cells, banks, and the computational register.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QubitTag(pub u32);

impl fmt::Display for QubitTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Occupancy state of a single cell.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
enum CellState {
    /// No logical qubit is stored here; the cell can act as surgery ancilla.
    #[default]
    Vacant,
    /// A logical qubit is stored here.
    Occupied(QubitTag),
}

impl CellState {
    /// True if the cell holds no logical qubit.
    fn is_vacant(self) -> bool {
        matches!(self, CellState::Vacant)
    }

    /// Returns the occupant, if any.
    fn occupant(self) -> Option<QubitTag> {
        match self {
            CellState::Vacant => None,
            CellState::Occupied(q) => Some(q),
        }
    }
}

/// A cell coordinate on the 2D grid: `x` grows to the right, `y` grows downward.
///
/// All positions are addressed by non-negative integer coordinates measured
/// in cells. The SAM latency models only need Manhattan-style metrics
/// (per-axis distances for transports, the L1 distance for seeks).
///
/// ```
/// use lsqca_arch::lattice::Coord;
/// let a = Coord::new(1, 2);
/// let b = Coord::new(4, 6);
/// assert_eq!(a.manhattan_distance(b), 7);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Coord {
    /// Horizontal position in cells, growing to the right.
    pub x: u32,
    /// Vertical position in cells, growing downward.
    pub y: u32,
}

impl Coord {
    /// Creates a new coordinate.
    pub const fn new(x: u32, y: u32) -> Self {
        Coord { x, y }
    }

    /// Manhattan (L1) distance to `other`.
    pub fn manhattan_distance(self, other: Coord) -> u32 {
        self.x.abs_diff(other.x) + self.y.abs_diff(other.y)
    }

    /// Horizontal distance (|Δx|) to `other`.
    pub(crate) fn dx(self, other: Coord) -> u32 {
        self.x.abs_diff(other.x)
    }

    /// Vertical distance (|Δy|) to `other`.
    pub(crate) fn dy(self, other: Coord) -> u32 {
        self.y.abs_diff(other.y)
    }

    /// The four edge-adjacent neighbors (north, south, east, west) that
    /// remain in the non-negative quadrant.
    pub fn neighbors(self) -> impl Iterator<Item = Coord> {
        [(0, -1), (0, 1), (1, 0), (-1, 0)]
            .into_iter()
            .filter_map(move |(dx, dy)| {
                let x = self.x.checked_add_signed(dx)?;
                let y = self.y.checked_add_signed(dy)?;
                Some(Coord::new(x, y))
            })
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// Errors raised by cell-grid manipulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LatticeError {
    /// The coordinate is outside the grid.
    OutOfBounds {
        /// The offending coordinate.
        coord: Coord,
        /// Grid width in cells.
        width: u32,
        /// Grid height in cells.
        height: u32,
    },
    /// The target cell is already occupied by another logical qubit.
    CellOccupied {
        /// The occupied coordinate.
        coord: Coord,
        /// The qubit currently holding the cell.
        occupant: QubitTag,
    },
    /// The referenced qubit is not present on this grid.
    QubitNotPresent {
        /// The missing qubit.
        qubit: QubitTag,
    },
    /// The qubit is already placed on this grid.
    QubitAlreadyPlaced {
        /// The duplicate qubit.
        qubit: QubitTag,
        /// Where it currently sits.
        at: Coord,
    },
    /// No path of vacant cells exists between the requested endpoints.
    NoVacantPath {
        /// Path start.
        from: Coord,
        /// Path goal.
        to: Coord,
    },
    /// The grid has no vacant cell left.
    GridFull,
    /// A store was attempted for a qubit that was never checked out of this
    /// bank (it was never loaded from it, or belongs to a different bank).
    QubitNotCheckedOut {
        /// The qubit that is not in the checkout ledger.
        qubit: QubitTag,
    },
    /// The memory-system-level checkout audit found the qubit's residence and
    /// checkout records pointing at different banks: it left one bank but its
    /// residence now names another (or the conventional region). Accepting
    /// the access would silently consume the wrong bank's scan vacancy.
    CrossBankCheckout {
        /// The qubit whose records disagree.
        qubit: QubitTag,
        /// The bank the qubit was checked out of.
        checked_out_of: u32,
        /// The bank its residence currently names (`None` = conventional).
        resident_bank: Option<u32>,
    },
    /// A hot-set migration request violated the swap shape: the promoted
    /// qubit must be stored in a SAM bank and the demoted qubit must live in
    /// the conventional region (and the two must differ).
    InvalidMigration {
        /// The qubit requested to move into the conventional region.
        promote: QubitTag,
        /// The qubit requested to take its place in the SAM bank.
        demote: QubitTag,
    },
}

impl fmt::Display for LatticeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LatticeError::OutOfBounds {
                coord,
                width,
                height,
            } => write!(f, "coordinate {coord} is outside the {width}x{height} grid"),
            LatticeError::CellOccupied { coord, occupant } => {
                write!(f, "cell {coord} is already occupied by {occupant}")
            }
            LatticeError::QubitNotPresent { qubit } => {
                write!(f, "qubit {qubit} is not present on the grid")
            }
            LatticeError::QubitAlreadyPlaced { qubit, at } => {
                write!(f, "qubit {qubit} is already placed at {at}")
            }
            LatticeError::NoVacantPath { from, to } => {
                write!(f, "no vacant path from {from} to {to}")
            }
            LatticeError::GridFull => write!(f, "grid has no vacant cell"),
            LatticeError::QubitNotCheckedOut { qubit } => {
                write!(f, "qubit {qubit} was never checked out of this bank")
            }
            LatticeError::CrossBankCheckout {
                qubit,
                checked_out_of,
                resident_bank,
            } => match resident_bank {
                Some(bank) => write!(
                    f,
                    "qubit {qubit} is checked out of bank {checked_out_of} but resident in bank {bank}"
                ),
                None => write!(
                    f,
                    "qubit {qubit} is checked out of bank {checked_out_of} but resident in the conventional region"
                ),
            },
            LatticeError::InvalidMigration { promote, demote } => {
                write!(
                    f,
                    "migration of {promote} (to conventional) against {demote} (to SAM) violates the swap shape"
                )
            }
        }
    }
}

impl Error for LatticeError {}

/// Code-beat latencies of the point-SAM move protocols (Fig. 4 / Sec. II-C).
///
/// The point SAM's loads and stores are built from patch moves realized by
/// expand/contract. The paper's evaluation fixes their costs:
///
/// | primitive | beats |
/// |---|---|
/// | single move step | 1 |
/// | diagonal target move | 6 (4 with a second vacancy) |
/// | straight target move | 5 (3 with a second vacancy) |
///
/// Instruction latencies (lattice surgery, Hadamard, phase, preparations
/// and measurements) are the ISA's, in `lsqca_isa::latency`.
pub(crate) mod moves {
    use super::Beats;

    /// One-cell patch move.
    pub(crate) const STEP: Beats = Beats(1);
    const DIAGONAL: Beats = Beats(6);
    const STRAIGHT: Beats = Beats(5);
    const DIAGONAL_TWO_VACANCIES: Beats = Beats(4);
    const STRAIGHT_TWO_VACANCIES: Beats = Beats(3);

    /// Latency of transporting a target cell `dx` cells horizontally and `dy`
    /// cells vertically inside a point SAM, combining diagonal and straight
    /// moves (the `6·min + 5·|dx−dy|` term of the paper's load-cost
    /// estimate).
    ///
    /// With `two_vacancies` the cheaper per-move costs of the second-load
    /// optimization are used.
    pub(crate) fn point_transport(dx: u32, dy: u32, two_vacancies: bool) -> Beats {
        let diagonal = dx.min(dy) as u64;
        let straight = dx.abs_diff(dy) as u64;
        if two_vacancies {
            DIAGONAL_TWO_VACANCIES * diagonal + STRAIGHT_TWO_VACANCIES * straight
        } else {
            DIAGONAL * diagonal + STRAIGHT * straight
        }
    }
}

/// Incrementally-maintained index of vacant cells, bucketed by Manhattan
/// distance to a fixed anchor coordinate (the bank port).
///
/// The SAM models ask the occupancy grid *which vacant cell is nearest the
/// bank port?* on every simulated store and in-memory two-qubit access. A
/// full O(cells) linear scan per query made point-SAM simulation ~2.5× slower
/// per instruction than line-SAM; this index, maintained by every grid
/// mutation, answers it in amortized O(1).
///
/// Each distance-`d` bucket is a **bitmask** over the ring's fixed slot
/// layout rather than a sorted `Vec` of cell indices: slot `2·r + side`
/// covers the cell in the ring's `r`-th row (`y = anchor.y - d + r`) on the
/// left (`x = anchor.x - rem`) or right (`x = anchor.x + rem`) flank, where
/// `rem = d - |y - anchor.y|`. Slots whose cell falls outside the grid are
/// simply never set. Ascending slot order is ascending `(y, x)` order, so
/// scanning for the lowest set bit reproduces the row-major tie-break of the
/// legacy linear scan bit-for-bit — and arbitrary insertion/removal is a
/// single O(1) bit flip instead of a binary search plus `Vec` shuffle.
#[derive(Debug, Clone)]
struct VacancyIndex {
    anchor: Coord,
    /// All rings' mask words, concatenated; ring `d` spans
    /// `words[offsets[d]..offsets[d + 1]]` and owns `4d + 2` slots.
    words: Vec<u64>,
    /// Per-ring start offset into `words` (`rings + 1` entries).
    offsets: Vec<u32>,
    /// Number of set bits per ring, so emptiness checks are O(1).
    counts: Vec<u32>,
    /// Index of the first non-empty ring; maintained so recomputing the
    /// nearest cache starts at the right ring.
    min_ring: usize,
    /// Total number of vacancies tracked.
    len: usize,
    /// Cached minimal `(ring, slot, coord)`: the nearest vacancy, maintained
    /// incrementally so [`VacancyIndex::nearest`] — the query every simulated
    /// store issues — is a single field read. Inserting a nearer cell
    /// replaces it in O(1); removing the cached cell rescans the minimal
    /// ring's one or two mask words.
    cached: Option<(u32, u32, Coord)>,
}

impl VacancyIndex {
    /// Builds the index for a `width × height` grid from an iterator over the
    /// currently vacant cells.
    fn new(anchor: Coord, width: u32, height: u32, vacancies: impl Iterator<Item = Coord>) -> Self {
        // Farthest grid cell from the anchor, not the grid diameter: rings
        // beyond it can never hold a vacancy.
        let max_distance =
            (anchor.x.max(width - 1 - anchor.x) + anchor.y.max(height - 1 - anchor.y)) as usize;
        let rings = max_distance + 1;
        let mut offsets = Vec::with_capacity(rings + 1);
        let mut total = 0u32;
        for d in 0..rings {
            offsets.push(total);
            total += Self::ring_words(d);
        }
        offsets.push(total);
        let mut index = VacancyIndex {
            anchor,
            words: vec![0; total as usize],
            offsets,
            counts: vec![0; rings],
            min_ring: rings,
            len: 0,
            cached: None,
        };
        for coord in vacancies {
            index.insert(coord);
        }
        index
    }

    /// Words needed for ring `d`'s `4d + 2` slots.
    #[inline]
    fn ring_words(d: usize) -> u32 {
        (4 * d + 2).div_ceil(64) as u32
    }

    /// The anchor this index accelerates queries against.
    fn anchor(&self) -> Coord {
        self.anchor
    }

    /// Number of distance rings: one past the farthest grid cell's distance
    /// from the anchor.
    fn ring_count(&self) -> usize {
        self.counts.len()
    }

    /// Number of vacancies currently tracked.
    fn len(&self) -> usize {
        self.len
    }

    /// True if no vacancy is tracked.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `(ring, slot)` coordinates of `coord` in the fixed ring layout.
    #[inline]
    fn slot_of(&self, coord: Coord) -> (u32, u32) {
        let d = coord.manhattan_distance(self.anchor);
        // `d >= |coord.y - anchor.y|`, so the row offset never underflows.
        let row = coord.y + d - self.anchor.y;
        let side = u32::from(coord.x > self.anchor.x);
        (d, 2 * row + side)
    }

    /// The cell covered by `slot` of ring `d` (only called for set slots,
    /// which always decode to in-grid cells).
    #[inline]
    fn decode(&self, d: u32, slot: u32) -> Coord {
        let row = slot / 2;
        let y = self.anchor.y + row - d;
        let rem = d - y.abs_diff(self.anchor.y);
        let x = if slot % 2 == 1 {
            self.anchor.x + rem
        } else {
            self.anchor.x - rem
        };
        Coord::new(x, y)
    }

    /// Records that `coord` became vacant. One bit set plus a cache compare,
    /// O(1).
    fn insert(&mut self, coord: Coord) {
        let (d, slot) = self.slot_of(coord);
        let word = &mut self.words[self.offsets[d as usize] as usize + (slot / 64) as usize];
        let bit = 1u64 << (slot % 64);
        if *word & bit == 0 {
            *word |= bit;
            self.counts[d as usize] += 1;
            self.len += 1;
            self.min_ring = self.min_ring.min(d as usize);
            // A nearer cell (ring, then slot = row-major order) replaces the
            // cached nearest.
            match self.cached {
                Some((cd, cs, _)) if (cd, cs) <= (d, slot) => {}
                _ => self.cached = Some((d, slot, coord)),
            }
        }
    }

    /// Records that `coord` became occupied. One bit cleared, O(1), plus a
    /// rescan of the minimal ring's mask words when the cached nearest cell
    /// is the one removed.
    fn remove(&mut self, coord: Coord) {
        let (d, slot) = self.slot_of(coord);
        let word = &mut self.words[self.offsets[d as usize] as usize + (slot / 64) as usize];
        let bit = 1u64 << (slot % 64);
        if *word & bit != 0 {
            *word &= !bit;
            self.counts[d as usize] -= 1;
            self.len -= 1;
            if let Some((cd, cs, _)) = self.cached {
                if (cd, cs) == (d, slot) {
                    self.recompute_nearest();
                }
            }
        }
    }

    /// First set slot of ring `d`, if any.
    #[inline]
    fn first_slot(&self, d: usize) -> Option<u32> {
        let start = self.offsets[d] as usize;
        let end = self.offsets[d + 1] as usize;
        for (i, &word) in self.words[start..end].iter().enumerate() {
            if word != 0 {
                return Some((i as u32) * 64 + word.trailing_zeros());
            }
        }
        None
    }

    /// Rebuilds the cached nearest cell: advance the first-non-empty ring
    /// hint, then scan that ring's (one or two) mask words.
    fn recompute_nearest(&mut self) {
        if self.len == 0 {
            self.min_ring = self.counts.len();
            self.cached = None;
            return;
        }
        while self.min_ring < self.counts.len() && self.counts[self.min_ring] == 0 {
            self.min_ring += 1;
        }
        let d = self.min_ring as u32;
        let slot = self
            .first_slot(self.min_ring)
            .expect("min_ring points at a non-empty ring");
        self.cached = Some((d, slot, self.decode(d, slot)));
    }

    /// The vacant cell nearest the anchor, ties broken row-major — the same
    /// answer as the legacy linear scan, served from the incrementally
    /// maintained cache in O(1).
    fn nearest(&self) -> Option<Coord> {
        self.cached.map(|(_, _, coord)| coord)
    }

    /// The vacant cell nearest an arbitrary `target`, ties broken row-major:
    /// the minimum `(manhattan(target), y, x)` over the tracked vacancies.
    /// Costs one count read per ring plus one decode per vacancy in the rings
    /// that can still beat the best cell found: a cell on ring `d` lies at
    /// least `|d - manhattan(target, anchor)|` from `target`.
    fn nearest_to(&self, target: Coord) -> Option<Coord> {
        let dt = target.manhattan_distance(self.anchor);
        let mut best: Option<((u32, u32, u32), Coord)> = None;
        for d in self.min_ring..self.counts.len() {
            if self.counts[d] == 0 {
                continue;
            }
            let ring = d as u32;
            if let Some(((distance, _, _), _)) = best {
                if ring.abs_diff(dt) > distance {
                    if ring > dt {
                        break;
                    }
                    continue;
                }
            }
            let start = self.offsets[d] as usize;
            let end = self.offsets[d + 1] as usize;
            for (i, &word) in self.words[start..end].iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let slot = (i as u32) * 64 + bits.trailing_zeros();
                    bits &= bits - 1;
                    let coord = self.decode(ring, slot);
                    let key = (coord.manhattan_distance(target), coord.y, coord.x);
                    if best.is_none_or(|(best_key, _)| key < best_key) {
                        best = Some((key, coord));
                    }
                }
            }
        }
        best.map(|(_, coord)| coord)
    }

    /// Removes and returns the vacant cell nearest the anchor. Equivalent to
    /// `nearest()` followed by `remove()`.
    fn take_nearest(&mut self) -> Option<Coord> {
        let (d, slot, coord) = self.cached?;
        self.words[self.offsets[d as usize] as usize + (slot / 64) as usize] &=
            !(1u64 << (slot % 64));
        self.counts[d as usize] -= 1;
        self.len -= 1;
        self.recompute_nearest();
        Some(coord)
    }

    /// Records that `freed` became vacant and `taken` became occupied in one
    /// call — the index update of a fused relocation. With bitmask rings both
    /// halves are O(1) bit flips, so this is plain `insert` + `remove`.
    fn swap(&mut self, freed: Coord, taken: Coord) {
        if freed == taken {
            return;
        }
        self.insert(freed);
        self.remove(taken);
    }
}

/// A rectangular grid of surface-code cells with logical-qubit occupancy.
///
/// The grid tracks which cell each logical qubit currently occupies within
/// one rectangular region (a point-SAM bank). The bank uses it to simulate
/// the sliding-puzzle load procedure: moving a target cell requires vacant
/// neighbours, and the scan cell is the vacancy that walks around the grid.
/// The grid therefore answers vacancy-aware nearest-cell queries in addition
/// to plain placement bookkeeping.
///
/// Coordinates are local to the grid: `(0, 0)` is the top-left cell and the grid
/// spans `width × height` cells.
///
/// ```
/// use lsqca_arch::lattice::{CellGrid, Coord, QubitTag};
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
    /// Position per qubit tag, indexed directly by the tag value `QubitTag.0` (tags
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
    /// from equality, kept in sync by every mutation.
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

    /// Registers `anchor` (typically the bank port) and builds its vacancy
    /// index, replacing every previously registered anchor.
    #[cfg(test)]
    fn register_anchor(&mut self, anchor: Coord) -> Result<(), LatticeError> {
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
    pub(crate) fn register_anchors(&mut self, anchors: &[Coord]) -> Result<(), LatticeError> {
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
    #[cfg(test)]
    fn anchor(&self) -> Option<Coord> {
        self.vacancy.first().map(VacancyIndex::anchor)
    }

    /// Every registered anchor, in registration order.
    #[cfg(test)]
    pub(crate) fn anchors(&self) -> impl Iterator<Item = Coord> + '_ {
        self.vacancy.iter().map(VacancyIndex::anchor)
    }

    /// The vacancy index registered for `target`, if any.
    fn index_for(&self, target: Coord) -> Option<&VacancyIndex> {
        self.vacancy.iter().find(|index| index.anchor() == target)
    }

    /// Total number of cells.
    pub(crate) fn cell_count(&self) -> u64 {
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

    /// True if the cell at `coord` exists and is vacant.
    pub fn is_vacant(&self, coord: Coord) -> bool {
        self.in_bounds(coord) && self.cells[self.index(coord)].is_vacant()
    }

    /// The occupant of `coord`, if the cell exists and is occupied.
    #[cfg(test)]
    fn occupant(&self, coord: Coord) -> Option<QubitTag> {
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
    pub(crate) fn contains(&self, qubit: QubitTag) -> bool {
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
        // `PartialEq` compares the canonical content regardless.
        self.positions[idx] = coord;
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

    /// Moves `qubit` to the vacant cell at `to`: the tests' reference
    /// mutation for the fused primitives and the vacancy index.
    #[cfg(test)]
    fn relocate(&mut self, qubit: QubitTag, to: Coord) -> Result<(), LatticeError> {
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
    /// fused `VacancyIndex::swap` — or no update at all when the qubit
    /// already sits on the nearest vacancy-to-be, instead of the legacy
    /// insert/read/remove triple.
    ///
    /// When `target` is the registered anchor the candidate comes from the
    /// vacancy index in O(1); otherwise an outward ring search is used.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::QubitNotPresent`] if the qubit is not on the grid.
    pub(crate) fn relocate_into_nearest_vacancy(
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
    pub(crate) fn place_at_nearest_vacancy(
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
    #[cfg(test)]
    fn iter(&self) -> impl Iterator<Item = (QubitTag, Coord)> + '_ {
        self.positions
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.map(|c| (QubitTag(i as u32), c)))
    }

    /// Iterates over all vacant cell coordinates in row-major order.
    fn vacant_cells(&self) -> impl Iterator<Item = Coord> + '_ {
        (0..self.height).flat_map(move |y| {
            (0..self.width)
                .map(move |x| Coord::new(x, y))
                .filter(move |&c| self.cells[self.index(c)].is_vacant())
        })
    }

    /// Finds the vacant cell closest (Manhattan metric) to `target`, breaking ties
    /// by row-major order. Returns `None` if the grid is full.
    ///
    /// When `target` is a registered anchor (see
    /// [`CellGrid::register_anchors`]) this is an amortized O(1) read of
    /// that anchor's vacancy index. Otherwise it is an outward ring search
    /// that visits O(ring) cells per distance instead of scanning every cell;
    /// on an anchored grid the ring search stops once it has cost as much as
    /// a scan of the index (`VacancyIndex::nearest_to`), which then answers.
    /// That keeps a SAM bank's home-store target, whose few vacancies sit
    /// far from it, from walking rings of occupied cells.
    pub(crate) fn nearest_vacant(&self, target: Coord) -> Option<Coord> {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    // Beats.

    #[test]
    fn arithmetic_behaves_like_u64() {
        assert_eq!(Beats(2) + Beats(3), Beats(5));
        assert_eq!(Beats(5) - Beats(3), Beats(2));
        assert_eq!(Beats(5) * 3, Beats(15));
        let mut t = Beats(1);
        t += Beats(2);
        assert_eq!(t, Beats(3));
        t -= Beats(1);
        assert_eq!(t, Beats(2));
    }

    #[test]
    fn subtraction_saturates_at_zero() {
        assert_eq!(Beats(2) - Beats(5), Beats::ZERO);
        assert_eq!(Beats(2).saturating_sub(Beats(5)), Beats::ZERO);
    }

    #[test]
    fn ordering_and_min_max() {
        assert!(Beats(3) < Beats(4));
        assert_eq!(Beats(3).max(Beats(4)), Beats(4));
        assert_eq!(Beats(3).min(Beats(4)), Beats(3));
    }

    #[test]
    fn conversions_round_trip() {
        let b = Beats(17);
        assert_eq!(b.as_u64(), 17);
        assert_eq!(b.as_f64(), 17.0);
        assert!(!b.is_zero());
        assert!(Beats::ZERO.is_zero());
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(Beats(4).to_string(), "4 beats");
    }

    // Qubit tags and cell states.

    #[test]
    fn qubit_tag_display() {
        assert_eq!(QubitTag(12).to_string(), "q12");
    }

    #[test]
    fn cell_state_occupancy() {
        let vacant = CellState::Vacant;
        let occupied = CellState::Occupied(QubitTag(3));
        assert!(vacant.is_vacant());
        assert!(!occupied.is_vacant());
        assert_eq!(vacant.occupant(), None);
        assert_eq!(occupied.occupant(), Some(QubitTag(3)));
        assert_eq!(CellState::default(), CellState::Vacant);
    }

    // Coordinates.

    #[test]
    fn distances() {
        let a = Coord::new(2, 3);
        let b = Coord::new(5, 1);
        assert_eq!(a.manhattan_distance(b), 5);
        assert_eq!(a.dx(b), 3);
        assert_eq!(a.dy(b), 2);
        assert_eq!(a.manhattan_distance(a), 0);
    }

    #[test]
    fn neighbors_of_interior_cell() {
        let n: Vec<_> = Coord::new(2, 2).neighbors().collect();
        assert_eq!(n.len(), 4);
        assert!(n.contains(&Coord::new(2, 1)));
        assert!(n.contains(&Coord::new(2, 3)));
        assert!(n.contains(&Coord::new(1, 2)));
        assert!(n.contains(&Coord::new(3, 2)));
    }

    #[test]
    fn neighbors_of_origin_are_clipped() {
        let n: Vec<_> = Coord::new(0, 0).neighbors().collect();
        assert_eq!(n.len(), 2);
    }

    // Errors.

    #[test]
    fn display_messages_are_lowercase_and_nonempty() {
        let errors = [
            LatticeError::OutOfBounds {
                coord: Coord::new(9, 9),
                width: 4,
                height: 4,
            },
            LatticeError::CellOccupied {
                coord: Coord::new(1, 1),
                occupant: QubitTag(3),
            },
            LatticeError::QubitNotPresent { qubit: QubitTag(5) },
            LatticeError::QubitAlreadyPlaced {
                qubit: QubitTag(5),
                at: Coord::new(0, 0),
            },
            LatticeError::NoVacantPath {
                from: Coord::new(0, 0),
                to: Coord::new(3, 3),
            },
            LatticeError::GridFull,
            LatticeError::QubitNotCheckedOut { qubit: QubitTag(8) },
            LatticeError::CrossBankCheckout {
                qubit: QubitTag(4),
                checked_out_of: 0,
                resident_bank: Some(1),
            },
            LatticeError::CrossBankCheckout {
                qubit: QubitTag(4),
                checked_out_of: 1,
                resident_bank: None,
            },
            LatticeError::InvalidMigration {
                promote: QubitTag(2),
                demote: QubitTag(3),
            },
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<LatticeError>();
    }

    // Move protocol latencies.

    #[test]
    fn point_transport_matches_paper_formula() {
        use super::moves::{point_transport, STEP};
        assert_eq!(STEP, Beats(1));
        // W = 3, H = 2: 2 diagonal moves (6 beats) + 1 straight move (5 beats).
        assert_eq!(point_transport(3, 2, false), Beats(2 * 6 + 5));
        // Same distance with two vacancies available is cheaper.
        assert_eq!(point_transport(3, 2, true), Beats(2 * 4 + 3));
        // Degenerate cases.
        assert_eq!(point_transport(0, 0, false), Beats(0));
        assert_eq!(point_transport(4, 0, false), Beats(20));
        assert_eq!(point_transport(0, 4, false), Beats(20));
    }

    // The vacancy index.

    #[test]
    fn nearest_tracks_inserts_and_removes() {
        let mut index = VacancyIndex::new(Coord::new(0, 1), 4, 4, std::iter::empty());
        assert!(index.is_empty());
        assert_eq!(index.nearest(), None);
        index.insert(Coord::new(3, 3));
        index.insert(Coord::new(1, 1));
        assert_eq!(index.len(), 2);
        assert_eq!(index.nearest(), Some(Coord::new(1, 1)));
        index.remove(Coord::new(1, 1));
        assert_eq!(index.nearest(), Some(Coord::new(3, 3)));
        index.remove(Coord::new(3, 3));
        assert_eq!(index.nearest(), None);
    }

    #[test]
    fn ties_break_row_major() {
        // (2, 0) and (0, 2) are both at distance 2 from (1, 1); the smaller
        // (y, x) must win, matching the legacy scan order.
        let mut index = VacancyIndex::new(Coord::new(1, 1), 4, 4, std::iter::empty());
        index.insert(Coord::new(0, 2));
        index.insert(Coord::new(2, 0));
        assert_eq!(index.nearest(), Some(Coord::new(2, 0)));
    }

    #[test]
    fn duplicate_inserts_and_missing_removes_are_ignored() {
        let mut index = VacancyIndex::new(Coord::new(0, 0), 3, 3, std::iter::empty());
        index.insert(Coord::new(2, 2));
        index.insert(Coord::new(2, 2));
        assert_eq!(index.len(), 1);
        index.remove(Coord::new(1, 1));
        assert_eq!(index.len(), 1);
        assert_eq!(index.nearest(), Some(Coord::new(2, 2)));
    }

    #[test]
    fn take_nearest_pops_the_minimal_ring() {
        let mut index = VacancyIndex::new(Coord::new(0, 0), 4, 4, std::iter::empty());
        assert_eq!(index.take_nearest(), None);
        index.insert(Coord::new(3, 3));
        index.insert(Coord::new(1, 0));
        index.insert(Coord::new(0, 1));
        // Ties at distance 1 break row-major: (1,0) before (0,1).
        assert_eq!(index.take_nearest(), Some(Coord::new(1, 0)));
        assert_eq!(index.take_nearest(), Some(Coord::new(0, 1)));
        assert_eq!(index.len(), 1);
        assert_eq!(index.take_nearest(), Some(Coord::new(3, 3)));
        assert!(index.is_empty());
        assert_eq!(index.take_nearest(), None);
    }

    #[test]
    fn swap_equals_insert_then_remove() {
        let cases = [
            // Same ring (both at distance 2 from the origin).
            (Coord::new(2, 0), Coord::new(0, 2)),
            // Different rings, freed nearer.
            (Coord::new(1, 0), Coord::new(3, 3)),
            // Different rings, taken nearer.
            (Coord::new(3, 2), Coord::new(0, 1)),
        ];
        for (freed, taken) in cases {
            let vacancies = [Coord::new(0, 1), Coord::new(2, 2), taken];
            let mut fused = VacancyIndex::new(Coord::new(0, 0), 4, 4, vacancies.iter().copied());
            let mut legacy = fused.clone();
            fused.swap(freed, taken);
            legacy.insert(freed);
            legacy.remove(taken);
            assert_eq!(fused.len(), legacy.len());
            assert_eq!(fused.nearest(), legacy.nearest());
            // Drain both to compare full content.
            while let Some(a) = fused.take_nearest() {
                assert_eq!(Some(a), legacy.take_nearest());
            }
            assert!(legacy.is_empty());
        }
        // Degenerate same-cell swap is a no-op.
        let mut index = VacancyIndex::new(Coord::new(0, 0), 3, 3, std::iter::empty());
        index.insert(Coord::new(1, 1));
        index.swap(Coord::new(1, 1), Coord::new(1, 1));
        assert_eq!(index.len(), 1);
        assert_eq!(index.nearest(), Some(Coord::new(1, 1)));
    }

    // The cell grid.

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
        grid.register_anchor(Coord::new(0, 0)).unwrap();
        assert_eq!(grid.nearest_vacant(Coord::new(0, 0)), None);
        grid.remove(QubitTag(3)).unwrap();
        assert_eq!(
            grid.nearest_vacant(Coord::new(0, 0)),
            Some(Coord::new(1, 1))
        );
    }

    #[test]
    fn nearest_queries_accept_out_of_grid_targets() {
        let mut grid = CellGrid::new(3, 3);
        grid.place(QubitTag(0), Coord::new(1, 1)).unwrap();
        // Targets outside the grid fall back to the exact scan.
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
        let port = Coord::new(0, 0);
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
        let target = Coord::new(0, 0);
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
        assert_eq!((from, to), (Coord::new(2, 2), Coord::new(0, 0)));
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
        full.register_anchor(Coord::new(0, 0)).unwrap();
        assert!(matches!(
            full.place_at_nearest_vacancy(QubitTag(9), Coord::new(0, 0)),
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
        /// The transport cost is monotone in both axes and the two-vacancy
        /// optimization never makes a load slower.
        #[test]
        fn transport_cost_monotone(dx in 0u32..60, dy in 0u32..60) {
            use super::moves::point_transport;
            let base = point_transport(dx, dy, false);
            prop_assert!(point_transport(dx + 1, dy, false) >= base);
            prop_assert!(point_transport(dx, dy + 1, false) >= base);
            prop_assert!(point_transport(dx, dy, true) <= base);
            // Symmetric in dx/dy.
            prop_assert_eq!(point_transport(dy, dx, false), base);
        }

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
