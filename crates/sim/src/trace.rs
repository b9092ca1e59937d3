//! Memory reference traces (the raw data behind Fig. 8).

use lsqca_isa::MemAddr;
use std::collections::BTreeMap;

/// One memory reference: an instruction touched `qubit` at `beat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The referenced SAM address (logical qubit).
    pub qubit: MemAddr,
    /// The code beat at which the referencing instruction started.
    pub beat: u64,
}

/// A full memory reference trace of one simulation run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct MemoryTrace {
    events: Vec<TraceEvent>,
}

impl MemoryTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        MemoryTrace::default()
    }

    /// Makes room for `additional` more references.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.events.reserve_exact(additional);
    }

    /// Records one reference.
    pub fn record(&mut self, qubit: MemAddr, beat: u64) {
        self.events.push(TraceEvent { qubit, beat });
    }

    /// All events in program order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded references.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Reference timestamps grouped per qubit, each list sorted by beat
    /// (the scatter data of Fig. 8a/8c).
    pub fn per_qubit(&self) -> BTreeMap<MemAddr, Vec<u64>> {
        let mut map: BTreeMap<MemAddr, Vec<u64>> = BTreeMap::new();
        for e in &self.events {
            map.entry(e.qubit).or_default().push(e.beat);
        }
        for beats in map.values_mut() {
            beats.sort_unstable();
        }
        map
    }

    /// Reference periods: for every qubit, the gaps between consecutive
    /// references (the data behind the CDFs of Fig. 8b/8d).
    pub fn reference_periods(&self) -> Vec<u64> {
        let mut periods = Vec::new();
        for beats in self.per_qubit().values() {
            for pair in beats.windows(2) {
                periods.push(pair[1] - pair[0]);
            }
        }
        periods
    }

    /// Number of references per qubit, used to rank qubits by access frequency
    /// for the hybrid floorplan's hot set.
    pub fn access_counts(&self) -> BTreeMap<MemAddr, u64> {
        let mut counts = BTreeMap::new();
        for e in &self.events {
            *counts.entry(e.qubit).or_insert(0) += 1;
        }
        counts
    }

    /// The last beat referenced in the trace, if any.
    pub fn horizon(&self) -> Option<u64> {
        self.events.iter().map(|e| e.beat).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MemoryTrace {
        let mut t = MemoryTrace::new();
        t.record(MemAddr(0), 0);
        t.record(MemAddr(1), 3);
        t.record(MemAddr(0), 10);
        t.record(MemAddr(0), 25);
        t.record(MemAddr(1), 7);
        t
    }

    #[test]
    fn per_qubit_groups_and_sorts() {
        let t = sample();
        let per = t.per_qubit();
        assert_eq!(per[&MemAddr(0)], vec![0, 10, 25]);
        assert_eq!(per[&MemAddr(1)], vec![3, 7]);
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
    }

    #[test]
    fn reference_periods_are_consecutive_gaps() {
        let t = sample();
        let mut periods = t.reference_periods();
        periods.sort_unstable();
        assert_eq!(periods, vec![4, 10, 15]);
    }

    #[test]
    fn access_counts_rank_hot_qubits() {
        let t = sample();
        let counts = t.access_counts();
        assert_eq!(counts[&MemAddr(0)], 3);
        assert_eq!(counts[&MemAddr(1)], 2);
    }

    #[test]
    fn horizon_is_the_last_beat() {
        assert_eq!(sample().horizon(), Some(25));
        assert_eq!(MemoryTrace::new().horizon(), None);
        assert!(MemoryTrace::new().is_empty());
    }
}
