//! Reference-period distributions and locality metrics (Fig. 8).

use lsqca_sim::MemoryTrace;
use std::fmt;

/// An empirical cumulative distribution over non-negative integer samples
/// (reference periods in code beats).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct CumulativeDistribution {
    samples: Vec<u64>,
}

impl CumulativeDistribution {
    /// Builds a distribution from raw samples.
    pub fn from_samples(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        CumulativeDistribution { samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if the distribution has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Fraction of samples ≤ `value` (0.0 for an empty distribution).
    pub fn cdf(&self, value: u64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let count = self.samples.partition_point(|&s| s <= value);
        count as f64 / self.samples.len() as f64
    }

    /// The `q`-quantile (`0.0 ≤ q ≤ 1.0`) of the samples, if any.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.samples.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.samples.len() - 1) as f64 * q).round() as usize;
        Some(self.samples[idx])
    }

    /// The median sample, if any.
    pub fn median(&self) -> Option<u64> {
        self.quantile(0.5)
    }

    /// Arithmetic mean of the samples, if any.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64)
        }
    }

    /// Samples the CDF at logarithmically spaced points (the x-axes of
    /// Fig. 8b/8d are log scale); returns `(period, cumulative fraction)` pairs.
    pub fn log_spaced_points(&self, points_per_decade: u32) -> Vec<(u64, f64)> {
        let Some(&max) = self.samples.last() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut value = 1.0f64;
        let factor = 10f64.powf(1.0 / points_per_decade as f64);
        loop {
            let v = value.round() as u64;
            if out.last().map(|&(p, _)| p) != Some(v) {
                out.push((v, self.cdf(v)));
            }
            if v >= max {
                break;
            }
            value *= factor;
        }
        out
    }
}

impl fmt::Display for CumulativeDistribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.median(), self.mean()) {
            (Some(median), Some(mean)) => {
                write!(f, "{} samples, median {median}, mean {mean:.1}", self.len())
            }
            _ => write!(f, "empty distribution"),
        }
    }
}

/// Locality summary of one benchmark's memory reference trace.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessLocalityReport {
    /// Number of distinct qubits referenced.
    pub referenced_qubits: usize,
    /// Total number of references.
    pub total_references: u64,
    /// Distribution of per-qubit reference periods.
    pub reference_periods: CumulativeDistribution,
    /// Fraction of references whose period is at most 10 beats (a measure of
    /// temporal locality; Fig. 8b shows most periods are short).
    pub short_period_fraction: f64,
    /// Fraction of consecutive references (program order) whose qubit indices
    /// differ by at most one — the sequential-access signature of Fig. 8a/8c.
    pub sequential_fraction: f64,
    /// Average beats between magic-state demands, if the trace horizon and a
    /// magic-state count were provided.
    pub beats_per_magic_state: Option<f64>,
}

impl AccessLocalityReport {
    /// Builds the report from a memory trace, optionally with the number of
    /// magic states the program consumed (to compute the demand rate).
    pub fn from_trace(trace: &MemoryTrace, magic_states: Option<u64>) -> Self {
        let (referenced_qubits, periods) = grouped_periods(trace);
        let total = trace.len() as u64;
        let short = periods.iter().filter(|&&p| p <= 10).count();
        let short_period_fraction = if periods.is_empty() {
            0.0
        } else {
            short as f64 / periods.len() as f64
        };

        let events = trace.events();
        let sequential = events
            .windows(2)
            .filter(|w| w[0].qubit.index().abs_diff(w[1].qubit.index()) <= 1)
            .count();
        let sequential_fraction = if events.len() < 2 {
            0.0
        } else {
            sequential as f64 / (events.len() - 1) as f64
        };

        let beats_per_magic_state = match (magic_states, trace.horizon()) {
            (Some(m), Some(h)) if m > 0 => Some(h as f64 / m as f64),
            _ => None,
        };

        AccessLocalityReport {
            referenced_qubits,
            total_references: total,
            reference_periods: CumulativeDistribution::from_samples(periods),
            short_period_fraction,
            sequential_fraction,
            beats_per_magic_state,
        }
    }
}

/// The number of referenced addresses and every reference period of
/// `trace`: what `trace.per_qubit().len()` and `trace.reference_periods()`
/// return, from one grouping pass. The events' beats are counting-sorted by
/// address into one flat buffer instead of a `BTreeMap` of per-address
/// vectors, and each address's periods overwrite the buffer in place, in the
/// same ascending address order.
fn grouped_periods(trace: &MemoryTrace) -> (usize, Vec<u64>) {
    let events = trace.events();
    let bound = events
        .iter()
        .map(|e| e.qubit.index() as usize + 1)
        .max()
        .unwrap_or(0);
    // `starts[a]..starts[a + 1]` is address `a`'s run of the flat buffer.
    let mut starts = vec![0usize; bound + 1];
    for e in events {
        starts[e.qubit.index() as usize + 1] += 1;
    }
    for a in 0..bound {
        starts[a + 1] += starts[a];
    }
    let mut fill = starts.clone();
    let mut beats = vec![0u64; events.len()];
    for e in events {
        let slot = &mut fill[e.qubit.index() as usize];
        beats[*slot] = e.beat;
        *slot += 1;
    }
    // A run of `n` beats yields `n - 1` periods, so the write cursor never
    // passes the entry a period is computed from.
    let mut referenced = 0;
    let mut written = 0;
    for run in starts.windows(2) {
        let (start, end) = (run[0], run[1]);
        if start == end {
            continue;
        }
        referenced += 1;
        beats[start..end].sort_unstable();
        for k in start + 1..end {
            let period = beats[k] - beats[k - 1];
            beats[written] = period;
            written += 1;
        }
    }
    beats.truncate(written);
    (referenced, beats)
}

impl fmt::Display for AccessLocalityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} qubits, {} references, {:.0}% short periods, {:.0}% sequential",
            self.referenced_qubits,
            self.total_references,
            100.0 * self.short_period_fraction,
            100.0 * self.sequential_fraction
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsqca_isa::MemAddr;

    #[test]
    fn cdf_basics() {
        let d = CumulativeDistribution::from_samples(vec![1, 2, 2, 5, 100]);
        assert_eq!(d.len(), 5);
        assert!(!d.is_empty());
        assert!((d.cdf(0) - 0.0).abs() < 1e-12);
        assert!((d.cdf(2) - 0.6).abs() < 1e-12);
        assert!((d.cdf(100) - 1.0).abs() < 1e-12);
        assert_eq!(d.median(), Some(2));
        assert_eq!(d.quantile(1.0), Some(100));
        assert!((d.mean().unwrap() - 22.0).abs() < 1e-12);
        assert!(!d.to_string().is_empty());
    }

    #[test]
    fn empty_distribution_is_harmless() {
        let d = CumulativeDistribution::from_samples(vec![]);
        assert!(d.is_empty());
        assert_eq!(d.cdf(10), 0.0);
        assert_eq!(d.median(), None);
        assert_eq!(d.mean(), None);
        assert!(d.log_spaced_points(4).is_empty());
        assert_eq!(d.to_string(), "empty distribution");
    }

    #[test]
    fn log_spaced_points_are_monotone() {
        let d = CumulativeDistribution::from_samples((1..=1000).collect());
        let pts = d.log_spaced_points(4);
        assert!(pts.len() > 8);
        for pair in pts.windows(2) {
            assert!(pair[0].0 < pair[1].0);
            assert!(pair[0].1 <= pair[1].1);
        }
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn locality_report_detects_sequential_access() {
        let mut trace = MemoryTrace::new();
        // A sequential sweep over qubits 0..20, touched twice.
        let mut beat = 0;
        for round in 0..2 {
            for q in 0..20u32 {
                trace.record(MemAddr(q), beat + round);
                beat += 3;
            }
        }
        let report = AccessLocalityReport::from_trace(&trace, Some(10));
        assert_eq!(report.referenced_qubits, 20);
        assert_eq!(report.total_references, 40);
        assert!(report.sequential_fraction > 0.9);
        assert!(report.beats_per_magic_state.unwrap() > 1.0);
        assert!(!report.to_string().is_empty());
    }

    /// The one-pass grouping reproduces the `per_qubit()` /
    /// `reference_periods()` derivation on a random trace: unordered beats,
    /// repeated beats and addresses with gaps between them.
    #[test]
    fn grouped_report_equals_the_per_qubit_derivation() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in [0usize, 1, 2, 17, 500, 4_000] {
            let mut trace = MemoryTrace::new();
            for _ in 0..len {
                let addr = (next() % 97) as u32 * 3;
                trace.record(MemAddr(addr), next() % 2_000);
            }
            let periods = trace.reference_periods();
            let report = AccessLocalityReport::from_trace(&trace, Some(7));
            assert_eq!(
                report.referenced_qubits,
                trace.per_qubit().len(),
                "len {len}"
            );
            assert_eq!(grouped_periods(&trace).1, periods, "len {len}");
            let short = periods.iter().filter(|&&p| p <= 10).count();
            let expected_short = if periods.is_empty() {
                0.0
            } else {
                short as f64 / periods.len() as f64
            };
            assert_eq!(
                report.short_period_fraction.to_bits(),
                expected_short.to_bits()
            );
            assert_eq!(
                report.reference_periods,
                CumulativeDistribution::from_samples(periods)
            );
        }
    }

    #[test]
    fn locality_report_detects_temporal_locality() {
        let mut trace = MemoryTrace::new();
        // Qubit 0 is touched every other beat (hot), qubit 1 twice far apart.
        for i in 0..50u64 {
            trace.record(MemAddr(0), 2 * i);
        }
        trace.record(MemAddr(1), 0);
        trace.record(MemAddr(1), 5000);
        let report = AccessLocalityReport::from_trace(&trace, None);
        assert!(report.short_period_fraction > 0.9);
        assert_eq!(report.beats_per_magic_state, None);
        // The long period shows up in the tail of the distribution.
        assert_eq!(report.reference_periods.quantile(1.0), Some(5000));
    }
}
