//! The per-bank checkout ledger.
//!
//! The paper's SAM invariant (Sec. IV-C-2, V-B) is strict: a bank holding `n`
//! data qubits owns `n + 1` cells (point) or `n + C` cells (line), with one
//! scan vacancy plus one extra vacancy per qubit currently checked out to the
//! CR. Nothing enforces that shape unless stores are restricted to qubits that
//! actually left *this* bank — a store of a foreign tag would consume the scan
//! vacancy and silently corrupt the accounting. [`CheckoutLedger`] is the
//! dense bit set each bank keeps of exactly which of its qubits are checked
//! out, so `store` can reject anything else with
//! [`LatticeError::QubitNotCheckedOut`](crate::lattice::LatticeError::QubitNotCheckedOut).

use crate::lattice::QubitTag;

/// Dense bit set of the qubits a bank has checked out to the CR.
///
/// Qubit tags are contiguous across the memory system, so membership is one
/// word-indexed bit probe; the capacity is fixed at construction to the bank's
/// own tag range and never grows (foreign tags simply read as "not checked
/// out").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckoutLedger {
    /// One bit per tag in `0..capacity`, packed 64 per word.
    words: Vec<u64>,
    /// Exact tag capacity; tags at or past it are rejected even when they
    /// fall inside the final partially-used word.
    capacity: usize,
    /// Number of bits currently set.
    count: usize,
}

impl CheckoutLedger {
    /// Creates a ledger covering tags `0..capacity`, all checked in.
    pub fn new(capacity: usize) -> Self {
        CheckoutLedger {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
            count: 0,
        }
    }

    /// Number of tags the ledger covers.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Extends the covered tag range to at least `capacity` (hot-set
    /// migration can demote a qubit whose tag is beyond the range the bank
    /// was built for). Shrinking is not supported; a smaller value is a no-op.
    pub fn grow(&mut self, capacity: usize) {
        if capacity > self.capacity {
            self.capacity = capacity;
            self.words.resize(capacity.div_ceil(64), 0);
        }
    }

    /// Number of qubits currently checked out.
    pub fn count(&self) -> usize {
        self.count
    }

    /// True if no qubit is checked out.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    fn split(qubit: QubitTag) -> (usize, u64) {
        ((qubit.0 / 64) as usize, 1u64 << (qubit.0 % 64))
    }

    /// True if `qubit` is currently checked out of this bank. Tags outside the
    /// ledger's capacity are never checked out.
    pub fn is_checked_out(&self, qubit: QubitTag) -> bool {
        if qubit.0 as usize >= self.capacity {
            return false;
        }
        let (word, bit) = Self::split(qubit);
        self.words.get(word).is_some_and(|w| w & bit != 0)
    }

    /// Marks `qubit` as checked out. Returns `false` (and changes nothing) if
    /// it already was, or if the tag is outside the ledger's capacity.
    pub fn check_out(&mut self, qubit: QubitTag) -> bool {
        if qubit.0 as usize >= self.capacity {
            return false;
        }
        let (word, bit) = Self::split(qubit);
        match self.words.get_mut(word) {
            Some(w) if *w & bit == 0 => {
                *w |= bit;
                self.count += 1;
                true
            }
            _ => false,
        }
    }

    /// Marks `qubit` as checked back in. Returns `false` (and changes nothing)
    /// if it was not checked out.
    pub fn check_in(&mut self, qubit: QubitTag) -> bool {
        if qubit.0 as usize >= self.capacity {
            return false;
        }
        let (word, bit) = Self::split(qubit);
        match self.words.get_mut(word) {
            Some(w) if *w & bit != 0 => {
                *w &= !bit;
                self.count -= 1;
                true
            }
            _ => false,
        }
    }

    /// Iterates over the checked-out tags in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = QubitTag> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            (0..64)
                .filter(move |b| word & (1u64 << b) != 0)
                .map(move |b| QubitTag(i as u32 * 64 + b))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_out_and_in_round_trip() {
        let mut ledger = CheckoutLedger::new(100);
        assert!(ledger.is_empty());
        assert!(ledger.check_out(QubitTag(7)));
        assert!(ledger.check_out(QubitTag(64)));
        assert_eq!(ledger.count(), 2);
        assert!(ledger.is_checked_out(QubitTag(7)));
        assert!(!ledger.is_checked_out(QubitTag(8)));
        assert!(ledger.check_in(QubitTag(7)));
        assert!(!ledger.is_checked_out(QubitTag(7)));
        assert_eq!(ledger.count(), 1);
    }

    #[test]
    fn double_operations_are_rejected_without_corruption() {
        let mut ledger = CheckoutLedger::new(10);
        assert!(ledger.check_out(QubitTag(3)));
        assert!(!ledger.check_out(QubitTag(3)));
        assert_eq!(ledger.count(), 1);
        assert!(ledger.check_in(QubitTag(3)));
        assert!(!ledger.check_in(QubitTag(3)));
        assert_eq!(ledger.count(), 0);
    }

    #[test]
    fn foreign_tags_read_as_checked_in() {
        let mut ledger = CheckoutLedger::new(10);
        assert_eq!(ledger.capacity(), 10);
        assert!(!ledger.is_checked_out(QubitTag(1000)));
        assert!(!ledger.check_out(QubitTag(1000)));
        assert!(!ledger.check_in(QubitTag(1000)));
        // Tags inside the final partially-used word but past the capacity
        // are rejected too (regression: only the word index was checked, so
        // tag 63 slipped into a 10-tag ledger).
        assert!(!ledger.check_out(QubitTag(10)));
        assert!(!ledger.check_out(QubitTag(63)));
        assert!(!ledger.is_checked_out(QubitTag(63)));
        assert_eq!(ledger.count(), 0);
        // The last in-capacity tag works.
        assert!(ledger.check_out(QubitTag(9)));
        assert_eq!(ledger.count(), 1);
    }

    #[test]
    fn grow_extends_the_covered_range() {
        let mut ledger = CheckoutLedger::new(10);
        assert!(!ledger.check_out(QubitTag(70)));
        ledger.grow(100);
        assert_eq!(ledger.capacity(), 100);
        assert!(ledger.check_out(QubitTag(70)));
        assert!(ledger.is_checked_out(QubitTag(70)));
        // Growing never shrinks or disturbs existing state.
        ledger.grow(5);
        assert_eq!(ledger.capacity(), 100);
        assert!(ledger.is_checked_out(QubitTag(70)));
    }

    #[test]
    fn iter_yields_ascending_tags() {
        let mut ledger = CheckoutLedger::new(200);
        for tag in [130u32, 5, 63, 64] {
            ledger.check_out(QubitTag(tag));
        }
        let tags: Vec<u32> = ledger.iter().map(|q| q.0).collect();
        assert_eq!(tags, vec![5, 63, 64, 130]);
    }
}
