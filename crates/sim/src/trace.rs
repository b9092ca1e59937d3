//! Streaming memory reference profiles (the data behind Fig. 8).
//!
//! The motivation study of Sec. III-B reads four things from a run's memory
//! references: the distribution of per-qubit reference periods, the share
//! of program-order neighbours that touch adjacent addresses, the number of
//! referenced addresses and the horizon. A [`MemoryTrace`] folds each
//! reference into those quantities as the timing pass records it, so no
//! per-reference event list is ever held: its size is set by the address
//! space and the distinct periods, not by the reference count (8 B per
//! address plus 32 KiB of dense period counts).
//!
//! Periods stream because each qubit's reference beats never decrease in
//! program order: an instruction starts no earlier than its operands' ready
//! times, and a qubit's ready time is the finish of its previous reference.
//! [`MemoryTrace::record`] asserts this. An order-sensitive digest over every
//! `(qubit, beat)` keeps equality as strong as comparing the event lists, so
//! the shadow proptests still compare the engine and the interpreter
//! reference by reference.

use lsqca_isa::MemAddr;
use std::collections::BTreeMap;
use std::fmt;

/// Periods below this many beats are counted in a dense table; longer ones
/// (a few hundred distinct values for the paper multiplier) in an ordered map.
const DENSE_PERIODS: u64 = 1 << 12;

/// FNV-1a over 64-bit words: offset basis and prime.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The memory reference profile of one simulation run.
#[derive(Clone)]
pub struct MemoryTrace {
    /// Per address, one past the beat of its latest reference (0: never
    /// referenced).
    last: Vec<u64>,
    references: u64,
    addresses: usize,
    /// Program-order neighbours whose addresses differ by at most one.
    sequential: u64,
    /// The address of the latest reference (meaningful once one exists).
    previous: u32,
    horizon: u64,
    /// `dense[p]` counts the periods of `p` beats below [`DENSE_PERIODS`];
    /// allocated with the first such period.
    dense: Vec<u64>,
    tail: BTreeMap<u64, u64>,
    /// FNV-1a over every `(qubit, beat)` in program order.
    digest: u64,
}

impl MemoryTrace {
    /// Creates an empty profile.
    pub fn new() -> Self {
        MemoryTrace {
            last: Vec::new(),
            references: 0,
            addresses: 0,
            sequential: 0,
            previous: 0,
            horizon: 0,
            dense: Vec::new(),
            tail: BTreeMap::new(),
            digest: FNV_OFFSET,
        }
    }

    /// Sizes the per-address table for addresses below `bound`, so recording
    /// them never regrows it.
    pub(crate) fn reserve_addresses(&mut self, bound: usize) {
        if self.last.len() < bound {
            self.last.resize(bound, 0);
        }
    }

    /// Records one reference: an instruction touched `qubit` at `beat`.
    ///
    /// # Panics
    ///
    /// Panics if `beat` is earlier than `qubit`'s previous reference: the
    /// scheduler never starts an instruction before its operands are ready,
    /// so such a reference means the timing model is broken.
    pub fn record(&mut self, qubit: MemAddr, beat: u64) {
        let address = qubit.index();
        let slot = address as usize;
        if slot >= self.last.len() {
            self.last.resize(slot + 1, 0);
        }
        match self.last[slot] {
            0 => self.addresses += 1,
            last => {
                let previous = last - 1;
                assert!(
                    beat >= previous,
                    "memory reference to {qubit} at beat {beat} precedes its previous \
                     reference at beat {previous}"
                );
                self.count_period(beat - previous);
            }
        }
        self.last[slot] = beat + 1;
        if self.references > 0 && self.previous.abs_diff(address) <= 1 {
            self.sequential += 1;
        }
        self.previous = address;
        self.horizon = self.horizon.max(beat);
        self.references += 1;
        self.digest = ((self.digest ^ u64::from(address)).wrapping_mul(FNV_PRIME) ^ beat)
            .wrapping_mul(FNV_PRIME);
    }

    fn count_period(&mut self, period: u64) {
        if period < DENSE_PERIODS {
            if self.dense.is_empty() {
                self.dense = vec![0; DENSE_PERIODS as usize];
            }
            self.dense[period as usize] += 1;
        } else {
            *self.tail.entry(period).or_insert(0) += 1;
        }
    }

    /// Number of recorded references.
    pub fn len(&self) -> usize {
        self.references as usize
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.references == 0
    }

    /// Number of distinct addresses referenced.
    pub fn referenced_addresses(&self) -> usize {
        self.addresses
    }

    /// Number of consecutive reference pairs (program order) whose addresses
    /// differ by at most one: the sequential-access signature of Fig. 8a/8c.
    pub fn sequential_pairs(&self) -> u64 {
        self.sequential
    }

    /// The last beat referenced, if any.
    pub fn horizon(&self) -> Option<u64> {
        (self.references > 0).then_some(self.horizon)
    }

    /// The reference periods, the gaps between consecutive references to
    /// the same address (the data behind the CDFs of Fig. 8b/8d), as
    /// `(period, count)` pairs in ascending period order, zero counts
    /// omitted.
    pub fn periods(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let dense = (0u64..).zip(self.dense.iter().copied());
        dense
            .filter(|&(_, count)| count > 0)
            .chain(self.tail.iter().map(|(&period, &count)| (period, count)))
    }

    /// A test profile of `references`, recorded in order.
    #[cfg(test)]
    pub(crate) fn of(references: &[(u32, u64)]) -> MemoryTrace {
        let mut trace = MemoryTrace::new();
        for &(qubit, beat) in references {
            trace.record(MemAddr(qubit), beat);
        }
        trace
    }
}

impl Default for MemoryTrace {
    fn default() -> Self {
        MemoryTrace::new()
    }
}

/// `table` without its trailing zeros: how far a lazily grown table was
/// grown does not change what it holds.
fn trimmed(table: &[u64]) -> &[u64] {
    let len = table.iter().rposition(|&v| v != 0).map_or(0, |i| i + 1);
    &table[..len]
}

impl PartialEq for MemoryTrace {
    fn eq(&self, other: &Self) -> bool {
        self.references == other.references
            && self.digest == other.digest
            && self.addresses == other.addresses
            && self.sequential == other.sequential
            && self.previous == other.previous
            && self.horizon == other.horizon
            && trimmed(&self.last) == trimmed(&other.last)
            && trimmed(&self.dense) == trimmed(&other.dense)
            && self.tail == other.tail
    }
}

impl Eq for MemoryTrace {}

impl fmt::Debug for MemoryTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoryTrace")
            .field("references", &self.references)
            .field("referenced_addresses", &self.addresses)
            .field("sequential_pairs", &self.sequential)
            .field("horizon", &self.horizon())
            .field("periods", &self.periods().collect::<Vec<_>>())
            .field("digest", &format_args!("{:016x}", self.digest))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MemoryTrace {
        MemoryTrace::of(&[(0, 0), (1, 3), (0, 10), (0, 25), (1, 7), (3, 9_000)])
    }

    #[test]
    fn profile_counts_references_addresses_and_neighbours() {
        let t = sample();
        assert_eq!((t.len(), t.referenced_addresses()), (6, 3));
        assert!(!t.is_empty());
        // 0→1, 1→0, 0→0 and 0→1 are neighbours; 1→3 is not.
        assert_eq!(t.sequential_pairs(), 4);
    }

    #[test]
    fn periods_are_consecutive_gaps_per_address() {
        let t = sample();
        assert_eq!(t.periods().collect::<Vec<_>>(), [(4, 1), (10, 1), (15, 1)]);
        let long = MemoryTrace::of(&[(2, 0), (2, 5), (2, 10), (2, 10 + DENSE_PERIODS)]);
        assert_eq!(
            long.periods().collect::<Vec<_>>(),
            [(5, 2), (DENSE_PERIODS, 1)]
        );
    }

    #[test]
    fn horizon_is_the_last_beat() {
        assert_eq!(sample().horizon(), Some(9_000));
        assert_eq!(MemoryTrace::new().horizon(), None);
        assert!(MemoryTrace::new().is_empty());
    }

    #[test]
    fn equality_sees_order_and_beats_not_table_sizes() {
        let references = [(0, 0), (1, 0), (0, 4)];
        let mut presized = MemoryTrace::new();
        presized.reserve_addresses(64);
        for &(qubit, beat) in &references {
            presized.record(MemAddr(qubit), beat);
        }
        assert_eq!(presized, MemoryTrace::of(&references));
        // The same multiset of references in another order, or one beat
        // later, is a different profile.
        assert_ne!(presized, MemoryTrace::of(&[(1, 0), (0, 0), (0, 4)]));
        assert_ne!(presized, MemoryTrace::of(&[(0, 0), (1, 1), (0, 4)]));
        assert_ne!(presized, MemoryTrace::new());
    }

    #[test]
    #[should_panic(expected = "precedes its previous reference")]
    fn a_reference_before_the_previous_one_panics() {
        MemoryTrace::of(&[(5, 10), (6, 2), (5, 9)]);
    }
}
