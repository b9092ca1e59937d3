//! Lattice query acceleration structure.
//!
//! The SAM models ask the occupancy grid *which vacant cell is nearest the
//! bank port?* on every simulated store and in-memory two-qubit access. That
//! used to cost a full O(cells) linear scan per query, which made point-SAM
//! simulation ~2.5× slower per instruction than line-SAM.
//!
//! [`VacancyIndex`] removes that cost: vacant cells bucketed by Manhattan
//! distance to a registered **anchor** (the bank port), maintained
//! incrementally by the grid's `place`/`remove`/`relocate`.
//! `nearest_vacant(anchor)` becomes an amortized O(1) bucket read instead of
//! an O(cells) scan.

use crate::geom::Coord;

/// Incrementally-maintained index of vacant cells, bucketed by Manhattan
/// distance to a fixed anchor coordinate.
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
pub struct VacancyIndex {
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
    pub fn new(
        anchor: Coord,
        width: u32,
        height: u32,
        vacancies: impl Iterator<Item = Coord>,
    ) -> Self {
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
    pub fn anchor(&self) -> Coord {
        self.anchor
    }

    /// Number of distance rings: one past the farthest grid cell's distance
    /// from the anchor.
    pub fn ring_count(&self) -> usize {
        self.counts.len()
    }

    /// Number of vacancies currently tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no vacancy is tracked.
    pub fn is_empty(&self) -> bool {
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
    pub fn insert(&mut self, coord: Coord) {
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
    pub fn remove(&mut self, coord: Coord) {
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
    pub fn nearest(&self) -> Option<Coord> {
        self.cached.map(|(_, _, coord)| coord)
    }

    /// The vacant cell nearest an arbitrary `target`, ties broken row-major:
    /// the minimum `(manhattan(target), y, x)` over the tracked vacancies.
    /// Costs one count read per ring plus one decode per vacancy in the rings
    /// that can still beat the best cell found: a cell on ring `d` lies at
    /// least `|d - manhattan(target, anchor)|` from `target`.
    pub fn nearest_to(&self, target: Coord) -> Option<Coord> {
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
    pub fn take_nearest(&mut self) -> Option<Coord> {
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
    pub fn swap(&mut self, freed: Coord, taken: Coord) {
        if freed == taken {
            return;
        }
        self.insert(freed);
        self.remove(taken);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut index = VacancyIndex::new(Coord::ORIGIN, 3, 3, std::iter::empty());
        index.insert(Coord::new(2, 2));
        index.insert(Coord::new(2, 2));
        assert_eq!(index.len(), 1);
        index.remove(Coord::new(1, 1));
        assert_eq!(index.len(), 1);
        assert_eq!(index.nearest(), Some(Coord::new(2, 2)));
    }

    #[test]
    fn take_nearest_pops_the_minimal_ring() {
        let mut index = VacancyIndex::new(Coord::ORIGIN, 4, 4, std::iter::empty());
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
            let mut fused = VacancyIndex::new(Coord::ORIGIN, 4, 4, vacancies.iter().copied());
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
        let mut index = VacancyIndex::new(Coord::ORIGIN, 3, 3, std::iter::empty());
        index.insert(Coord::new(1, 1));
        index.swap(Coord::new(1, 1), Coord::new(1, 1));
        assert_eq!(index.len(), 1);
        assert_eq!(index.nearest(), Some(Coord::new(1, 1)));
    }
}
