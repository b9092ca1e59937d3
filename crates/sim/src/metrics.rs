//! Execution statistics reported by the simulator.

use lsqca_arch::lattice::Beats;
use lsqca_json::{Json, ToJson};
use std::fmt;

/// Schema tag of the serialized-stats payload stored per sweep point.
pub const STATS_SCHEMA: &str = "lsqca-stats-v1";

/// Result metrics of one simulation run.
///
/// The two headline numbers of the paper's evaluation are
/// [`cpi`](ExecutionStats::cpi) (Fig. 13) and
/// [`memory_density`](ExecutionStats::memory_density) (Figs. 14–15); the rest
/// are supporting breakdowns.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ExecutionStats {
    /// Total execution time in code beats.
    pub total_beats: Beats,
    /// Total number of instructions executed.
    pub instruction_count: u64,
    /// Number of non-negligible commands (the CPI denominator, Sec. VI-A).
    pub command_count: u64,
    /// Number of magic states consumed.
    pub magic_states: u64,
    /// Memory density of the simulated architecture (data qubits / cells).
    pub memory_density: f64,
    /// Total logical cells charged to the architecture (SAM + CR + conventional).
    pub total_cells: u64,
    /// Number of explicit `LD` instructions executed.
    pub loads: u64,
    /// Number of explicit `ST` instructions executed.
    pub stores: u64,
    /// Number of loads issued internally by `CX` expansion (the cheaper
    /// operand is fetched into the CR). Not included in [`loads`](Self::loads),
    /// which counts program text only; the beats these cost are part of
    /// [`memory_access_beats`](Self::memory_access_beats).
    pub implicit_loads: u64,
    /// Number of stores issued internally by `CX` expansion (the loaded
    /// operand is parked back with the locality-aware policy). Not included in
    /// [`stores`](Self::stores).
    pub implicit_stores: u64,
    /// Number of in-memory instructions executed.
    pub in_memory_ops: u64,
    /// Beats spent waiting for magic states (sum over `PM` instructions of the
    /// gap between request and availability).
    pub magic_wait_beats: Beats,
    /// Beats spent on memory movement (loads, stores, seeks, in-memory access).
    pub memory_access_beats: Beats,
    /// Number of hot-set migrations applied by the run's migration policy
    /// (zero without a policy or under the static policy).
    pub migrations: u64,
    /// Beats spent on hot-set migration: the physical swap movement plus the
    /// per-policy bookkeeping overhead, charged to the triggering
    /// instruction. Kept separate from
    /// [`memory_access_beats`](Self::memory_access_beats) so the seek-cycle
    /// savings a policy buys and the migration cost it pays are individually
    /// visible.
    pub migration_beats: Beats,
}

impl ExecutionStats {
    /// Code beats per instruction: execution time over the non-negligible
    /// command count.
    pub fn cpi(&self) -> f64 {
        if self.command_count == 0 {
            0.0
        } else {
            self.total_beats.as_f64() / self.command_count as f64
        }
    }

    /// Execution-time overhead relative to a baseline run (e.g. the
    /// conventional floorplan): `self/baseline`, so `1.0` means equal time and
    /// `1.05` means 5% slower.
    pub fn overhead_vs(&self, baseline: &ExecutionStats) -> f64 {
        if baseline.total_beats.is_zero() {
            return 1.0;
        }
        self.total_beats.as_f64() / baseline.total_beats.as_f64()
    }

    /// Average interval between magic-state requests in beats, if any.
    pub fn beats_per_magic_state(&self) -> Option<f64> {
        if self.magic_states == 0 {
            None
        } else {
            Some(self.total_beats.as_f64() / self.magic_states as f64)
        }
    }

    /// Decodes stats serialized by [`ToJson::to_json`]. The field list is
    /// exact: a missing or extra field (a payload from a different stats
    /// revision) is rejected so the result store recomputes instead of
    /// silently zero-filling.
    ///
    /// # Errors
    ///
    /// Returns the offending field (or schema) name.
    pub fn from_json(doc: &Json) -> Result<Self, StatsDecodeError> {
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or(StatsDecodeError { field: "schema" })?;
        if schema != STATS_SCHEMA {
            return Err(StatsDecodeError { field: "schema" });
        }
        let beats = |field| {
            doc.get(field)
                .and_then(Json::as_u64)
                .map(Beats)
                .ok_or(StatsDecodeError { field })
        };
        let count = |field| {
            doc.get(field)
                .and_then(Json::as_u64)
                .ok_or(StatsDecodeError { field })
        };
        Ok(ExecutionStats {
            total_beats: beats("total_beats")?,
            instruction_count: count("instruction_count")?,
            command_count: count("command_count")?,
            magic_states: count("magic_states")?,
            memory_density: doc.get("memory_density").and_then(Json::as_f64).ok_or(
                StatsDecodeError {
                    field: "memory_density",
                },
            )?,
            total_cells: count("total_cells")?,
            loads: count("loads")?,
            stores: count("stores")?,
            implicit_loads: count("implicit_loads")?,
            implicit_stores: count("implicit_stores")?,
            in_memory_ops: count("in_memory_ops")?,
            magic_wait_beats: beats("magic_wait_beats")?,
            memory_access_beats: beats("memory_access_beats")?,
            migrations: count("migrations")?,
            migration_beats: beats("migration_beats")?,
        })
    }
}

impl ToJson for ExecutionStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Str(STATS_SCHEMA.to_string())),
            ("total_beats", Json::U64(self.total_beats.as_u64())),
            ("instruction_count", Json::U64(self.instruction_count)),
            ("command_count", Json::U64(self.command_count)),
            ("magic_states", Json::U64(self.magic_states)),
            ("memory_density", Json::F64(self.memory_density)),
            ("total_cells", Json::U64(self.total_cells)),
            ("loads", Json::U64(self.loads)),
            ("stores", Json::U64(self.stores)),
            ("implicit_loads", Json::U64(self.implicit_loads)),
            ("implicit_stores", Json::U64(self.implicit_stores)),
            ("in_memory_ops", Json::U64(self.in_memory_ops)),
            (
                "magic_wait_beats",
                Json::U64(self.magic_wait_beats.as_u64()),
            ),
            (
                "memory_access_beats",
                Json::U64(self.memory_access_beats.as_u64()),
            ),
            ("migrations", Json::U64(self.migrations)),
            ("migration_beats", Json::U64(self.migration_beats.as_u64())),
        ])
    }
}

/// A stats payload that does not decode: wrong schema tag, missing field, or
/// a field of the wrong type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsDecodeError {
    /// The first field (or the schema tag) that failed.
    pub field: &'static str,
}

impl fmt::Display for StatsDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stats payload field `{}` is missing or invalid",
            self.field
        )
    }
}

impl std::error::Error for StatsDecodeError {}

impl fmt::Display for ExecutionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} beats, {} commands, CPI {:.2}, density {:.1}%, {} magic states",
            self.total_beats.as_u64(),
            self.command_count,
            self.cpi(),
            100.0 * self.memory_density,
            self.magic_states
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(beats: u64, commands: u64) -> ExecutionStats {
        ExecutionStats {
            total_beats: Beats(beats),
            command_count: commands,
            ..ExecutionStats::default()
        }
    }

    #[test]
    fn cpi_is_beats_over_commands() {
        assert_eq!(stats(100, 50).cpi(), 2.0);
        assert_eq!(stats(100, 0).cpi(), 0.0);
    }

    #[test]
    fn overhead_is_a_ratio() {
        let fast = stats(100, 10);
        let slow = stats(110, 10);
        assert!((slow.overhead_vs(&fast) - 1.1).abs() < 1e-12);
        assert_eq!(slow.overhead_vs(&stats(0, 10)), 1.0);
    }

    #[test]
    fn beats_per_magic_state() {
        let mut s = stats(150, 10);
        assert_eq!(s.beats_per_magic_state(), None);
        s.magic_states = 50;
        assert_eq!(s.beats_per_magic_state(), Some(3.0));
    }

    #[test]
    fn display_mentions_cpi_and_density() {
        let s = stats(10, 5);
        let text = s.to_string();
        assert!(text.contains("CPI"));
        assert!(text.contains("density"));
    }

    #[test]
    fn stats_round_trip_through_json() {
        let mut s = stats(12345, 678);
        s.memory_density = 0.3775;
        s.magic_states = 42;
        s.migration_beats = Beats(9);
        let doc = s.to_json();
        assert_eq!(ExecutionStats::from_json(&doc), Ok(s.clone()));
        // The rendering itself round-trips too: what the store writes today a
        // resumed process parses back to the identical payload.
        let reparsed = lsqca_json::parse(&doc.pretty()).unwrap();
        assert_eq!(ExecutionStats::from_json(&reparsed), Ok(s));
    }

    #[test]
    fn stats_from_foreign_payloads_are_rejected() {
        let missing = Json::obj([("schema", Json::Str(STATS_SCHEMA.to_string()))]);
        assert_eq!(
            ExecutionStats::from_json(&missing),
            Err(StatsDecodeError {
                field: "total_beats"
            })
        );
        let mut wrong_schema = stats(1, 1).to_json();
        if let Json::Obj(pairs) = &mut wrong_schema {
            pairs[0].1 = Json::Str("lsqca-stats-v999".to_string());
        }
        assert_eq!(
            ExecutionStats::from_json(&wrong_schema),
            Err(StatsDecodeError { field: "schema" })
        );
    }
}
