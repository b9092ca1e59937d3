//! Reference-period distributions and locality metrics (Fig. 8).

use lsqca_sim::MemoryTrace;
use std::fmt;

/// An empirical cumulative distribution over non-negative integer samples
/// (reference periods in code beats), held as one run per distinct value.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct CumulativeDistribution {
    /// `(value, samples at most value)` for each distinct sample value,
    /// ascending.
    runs: Vec<(u64, u64)>,
}

impl CumulativeDistribution {
    /// Builds a distribution from raw samples.
    pub fn from_samples(samples: Vec<u64>) -> Self {
        CumulativeDistribution::from_counts(samples.into_iter().map(|s| (s, 1)))
    }

    /// Builds a distribution from `(value, count)` pairs: `count` samples of
    /// `value` each, in any order, a value possibly repeated.
    pub fn from_counts(counts: impl IntoIterator<Item = (u64, u64)>) -> Self {
        let mut counts: Vec<(u64, u64)> = counts.into_iter().filter(|c| c.1 > 0).collect();
        counts.sort_unstable();
        let mut runs: Vec<(u64, u64)> = Vec::with_capacity(counts.len());
        let mut seen = 0;
        for (value, count) in counts {
            seen += count;
            match runs.last_mut() {
                Some(run) if run.0 == value => run.1 = seen,
                _ => runs.push((value, seen)),
            }
        }
        CumulativeDistribution { runs }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.runs.last().map_or(0, |run| run.1 as usize)
    }

    /// True if the distribution has no samples.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of samples ≤ `value`.
    fn at_most(&self, value: u64) -> u64 {
        match self.runs.partition_point(|run| run.0 <= value) {
            0 => 0,
            n => self.runs[n - 1].1,
        }
    }

    /// Fraction of samples ≤ `value` (0.0 for an empty distribution).
    pub fn cdf(&self, value: u64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.at_most(value) as f64 / self.len() as f64
    }

    /// The `q`-quantile (`0.0 ≤ q ≤ 1.0`) of the samples, if any: the sample
    /// at rank `round((len - 1)·q)` in ascending order.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((self.len() - 1) as f64 * q).round() as u64;
        let run = self.runs.partition_point(|run| run.1 <= rank);
        Some(self.runs[run].0)
    }

    /// The median sample, if any.
    pub fn median(&self) -> Option<u64> {
        self.quantile(0.5)
    }

    /// Arithmetic mean of the samples, if any.
    pub fn mean(&self) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        let mut below = 0;
        let mut sum = 0u64;
        for &(value, at_most) in &self.runs {
            sum += value * (at_most - below);
            below = at_most;
        }
        Some(sum as f64 / self.len() as f64)
    }

    /// Samples the CDF at logarithmically spaced points (the x-axes of
    /// Fig. 8b/8d are log scale); returns `(period, cumulative fraction)` pairs.
    pub fn log_spaced_points(&self, points_per_decade: u32) -> Vec<(u64, f64)> {
        let Some(&(max, _)) = self.runs.last() else {
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
    /// Builds the report from a run's memory reference profile, optionally
    /// with the number of magic states the program consumed (to compute the
    /// demand rate).
    pub fn from_trace(trace: &MemoryTrace, magic_states: Option<u64>) -> Self {
        let reference_periods = CumulativeDistribution::from_counts(trace.periods());
        let short_period_fraction = if reference_periods.is_empty() {
            0.0
        } else {
            reference_periods.at_most(10) as f64 / reference_periods.len() as f64
        };

        let sequential_fraction = if trace.len() < 2 {
            0.0
        } else {
            trace.sequential_pairs() as f64 / (trace.len() - 1) as f64
        };

        let beats_per_magic_state = match (magic_states, trace.horizon()) {
            (Some(m), Some(h)) if m > 0 => Some(h as f64 / m as f64),
            _ => None,
        };

        AccessLocalityReport {
            referenced_qubits: trace.referenced_addresses(),
            total_references: trace.len() as u64,
            reference_periods,
            short_period_fraction,
            sequential_fraction,
            beats_per_magic_state,
        }
    }
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
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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

    /// The reference derivation from a full event list: `events` grouped
    /// per address, each group sorted by beat, the periods its consecutive
    /// gaps, read from the raw samples.
    fn oracle(events: &[(u32, u64)], magic_states: Option<u64>) -> AccessLocalityReport {
        let mut per_qubit: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        for &(qubit, beat) in events {
            per_qubit.entry(qubit).or_default().push(beat);
        }
        let mut periods = Vec::new();
        for beats in per_qubit.values_mut() {
            beats.sort_unstable();
            periods.extend(beats.windows(2).map(|pair| pair[1] - pair[0]));
        }
        let short = periods.iter().filter(|&&p| p <= 10).count();
        let short_period_fraction = if periods.is_empty() {
            0.0
        } else {
            short as f64 / periods.len() as f64
        };
        let sequential = events
            .windows(2)
            .filter(|pair| pair[0].0.abs_diff(pair[1].0) <= 1)
            .count();
        let sequential_fraction = if events.len() < 2 {
            0.0
        } else {
            sequential as f64 / (events.len() - 1) as f64
        };
        let horizon = events.iter().map(|&(_, beat)| beat).max();
        let beats_per_magic_state = match (magic_states, horizon) {
            (Some(m), Some(h)) if m > 0 => Some(h as f64 / m as f64),
            _ => None,
        };
        AccessLocalityReport {
            referenced_qubits: per_qubit.len(),
            total_references: events.len() as u64,
            reference_periods: CumulativeDistribution::from_samples(periods),
            short_period_fraction,
            sequential_fraction,
            beats_per_magic_state,
        }
    }

    /// The reference reading of a distribution: its sorted raw samples.
    struct RawSamples(Vec<u64>);

    impl RawSamples {
        fn new(mut samples: Vec<u64>) -> Self {
            samples.sort_unstable();
            RawSamples(samples)
        }

        fn cdf(&self, value: u64) -> f64 {
            if self.0.is_empty() {
                return 0.0;
            }
            self.0.partition_point(|&s| s <= value) as f64 / self.0.len() as f64
        }

        fn quantile(&self, q: f64) -> Option<u64> {
            let last = self.0.len().checked_sub(1)?;
            Some(self.0[(last as f64 * q.clamp(0.0, 1.0)).round() as usize])
        }

        fn mean(&self) -> Option<f64> {
            (!self.0.is_empty()).then(|| self.0.iter().sum::<u64>() as f64 / self.0.len() as f64)
        }

        fn log_spaced_points(&self, points_per_decade: u32) -> Vec<(u64, f64)> {
            let Some(&max) = self.0.last() else {
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

    /// `points` as comparable bits: equal only if bit-identical.
    fn point_bits(points: &[(u64, f64)]) -> Vec<(u64, u64)> {
        points.iter().map(|&(p, f)| (p, f.to_bits())).collect()
    }

    /// Periods short and long, and either side of the profile's dense cutoff.
    fn any_gap() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..4, 0u64..20, 0u64..10_000, 4_090u64..4_100]
    }

    proptest! {
        /// The streamed report equals the event-list derivation in every
        /// field, and samples the same CDF points, bit for bit.
        #[test]
        fn streamed_report_equals_the_event_list_derivation(
            steps in proptest::collection::vec(
                (prop_oneof![0u32..12, 0u32..3_000], any_gap()),
                0..300,
            ),
            magic_states in prop_oneof![Just(None), (0u64..50).prop_map(Some)],
        ) {
            // Each qubit's beats never decrease: a reference lands `gap`
            // beats after the same qubit's previous one.
            let mut clock: BTreeMap<u32, u64> = BTreeMap::new();
            let events: Vec<(u32, u64)> = steps
                .into_iter()
                .map(|(qubit, gap)| {
                    let beat = clock.entry(qubit).or_insert(0);
                    *beat += gap;
                    (qubit, *beat)
                })
                .collect();
            let mut trace = MemoryTrace::new();
            for &(qubit, beat) in &events {
                trace.record(MemAddr(qubit), beat);
            }
            let streamed = AccessLocalityReport::from_trace(&trace, magic_states);
            let expected = oracle(&events, magic_states);
            prop_assert_eq!(&streamed, &expected);
            let fractions = |r: &AccessLocalityReport| {
                let rate = r.beats_per_magic_state.map(f64::to_bits);
                (r.short_period_fraction.to_bits(), r.sequential_fraction.to_bits(), rate)
            };
            prop_assert_eq!(fractions(&streamed), fractions(&expected));
            prop_assert_eq!(
                point_bits(&streamed.reference_periods.log_spaced_points(2)),
                point_bits(&expected.reference_periods.log_spaced_points(2))
            );
        }

        /// A distribution built from `(value, count)` pairs equals the one
        /// built from the samples they count, and both read exactly as the
        /// sorted raw samples do.
        #[test]
        fn counted_distribution_matches_the_raw_samples(
            samples in proptest::collection::vec(any_gap(), 0..200),
        ) {
            let mut counts: BTreeMap<u64, u64> = BTreeMap::new();
            for &s in &samples {
                *counts.entry(s).or_insert(0) += 1;
            }
            // Split every count in two, in reverse order, zero counts
            // included: how the counts arrive does not matter.
            let split = counts
                .iter()
                .rev()
                .flat_map(|(&v, &c)| [(v, c / 2), (v, c - c / 2), (v + 1, 0)]);
            let counted = CumulativeDistribution::from_counts(split);
            let raw = RawSamples::new(samples.clone());
            prop_assert_eq!(&counted, &CumulativeDistribution::from_samples(samples));
            prop_assert_eq!(counted.len(), raw.0.len());
            for q in [0.0, 0.1, 0.25, 0.5, 0.9, 1.0] {
                prop_assert_eq!(counted.quantile(q), raw.quantile(q));
            }
            prop_assert_eq!(counted.median(), raw.quantile(0.5));
            prop_assert_eq!(counted.mean().map(f64::to_bits), raw.mean().map(f64::to_bits));
            for value in [0, 1, 5, 10, 19, 4_095, 4_096, 9_999, u64::MAX] {
                prop_assert_eq!(counted.cdf(value).to_bits(), raw.cdf(value).to_bits());
            }
            for per_decade in [1, 2, 4] {
                prop_assert_eq!(
                    point_bits(&counted.log_spaced_points(per_decade)),
                    point_bits(&raw.log_spaced_points(per_decade))
                );
            }
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
