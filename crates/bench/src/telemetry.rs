//! The harness side of the unified telemetry layer: registry syncing, the
//! operator summary block, metrics/trace artifact export, and cross-process
//! shard-metrics aggregation.
//!
//! The result store keeps per-instance atomics (the fault-injection tests
//! build several stores per process), so its totals are *synced* into the
//! registry at snapshot time rather than double-counted at the bump sites.
//! Everything else (`workloads.compiled`, `sim.warmed`,
//! `sim.runs`, `sim.memory_walks`, the walk split `sim.memory_pass` /
//! `sim.timing_pass`, spans) reports straight into `lsqca_telemetry`.

use crate::result_store;
use lsqca_store::{atomic_write, DiskIo, StoreIo};
use lsqca_telemetry::MetricsSnapshot;
use std::path::Path;

/// Syncs the process-wide result-store instance counters into the registry
/// (`result_store.*`), and interns the core lifecycle counters so every
/// exported artifact carries them even at zero — the warm-rerun CI
/// assertions grep `"workloads.compiled": 0` and friends out of the
/// aggregated metrics JSON, which only works if an untouched counter still
/// shows up.
pub fn sync_registry() {
    for name in [
        "workloads.compiled",
        "sim.warmed",
        "sim.runs",
        "sim.memory_walks",
        "sim.memory_pass",
        "sim.timing_pass",
    ] {
        lsqca_telemetry::counter(name);
    }
    let store = result_store().stats();
    lsqca_telemetry::counter("result_store.computed").set(store.computed);
    lsqca_telemetry::counter("result_store.hits").set(store.hits);
    lsqca_telemetry::counter("result_store.quarantined").set(store.quarantined);
}

/// Syncs the registry and freezes it — the `lsqca-metrics-v1` payload behind
/// `--metrics-out` and the per-shard `metrics-<shard>.json` files.
pub fn metrics_snapshot() -> MetricsSnapshot {
    sync_registry();
    lsqca_telemetry::snapshot()
}

/// The operator summary block, rendered from one registry snapshot. The four
/// line formats are stable and CI-greppable:
///
/// ```text
/// workloads: N compiled
/// result store: N computed, M hits, K quarantined (<dir>)
/// simulator: N warmed
/// walk split: memory pass S.SSS s, timing pass S.SSS s
/// ```
///
/// The walk split is thread time summed over every trace walk
/// (`sim.memory_pass` and `sim.timing_pass`, in nanoseconds in the registry).
pub fn telemetry_summary() -> String {
    let snapshot = metrics_snapshot();
    let count = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
    let store_stats = format!(
        "{} computed, {} hits, {} quarantined",
        count("result_store.computed"),
        count("result_store.hits"),
        count("result_store.quarantined"),
    );
    let store = result_store();
    let store_line = match (store.dir(), store.is_degraded()) {
        (Some(dir), false) => format!("result store: {store_stats} ({})", dir.display()),
        (Some(dir), true) => {
            format!(
                "result store: {store_stats} (degraded to memory; {})",
                dir.display()
            )
        }
        (None, _) => format!("result store: disabled; {store_stats}"),
    };
    let seconds = |name: &str| count(name) as f64 / 1e9;
    format!(
        "workloads: {} compiled\n{store_line}\nsimulator: {} warmed\n\
         walk split: memory pass {:.3} s, timing pass {:.3} s",
        count("workloads.compiled"),
        count("sim.warmed"),
        seconds("sim.memory_pass"),
        seconds("sim.timing_pass"),
    )
}

/// The per-shard metrics file name for shard `label` (`metrics-3.json`).
pub fn shard_metrics_file(label: &str) -> String {
    format!("metrics-{label}.json")
}

/// Writes this process's metrics snapshot to `dir/metrics-<label>.json`
/// (atomically, so the aggregator never reads a torn file). Errors are
/// returned for the caller to log — a failed metrics export must never fail
/// the sweep itself.
pub fn write_shard_metrics(dir: &Path, label: &str) -> std::io::Result<()> {
    let payload = metrics_snapshot().to_json().pretty() + "\n";
    atomic_write(
        &DiskIo,
        &dir.join(shard_metrics_file(label)),
        payload.as_bytes(),
    )
}

/// Aggregates every `metrics-*.json` a worker left in `dir` into `total`:
/// counters sum, worker gauges are namespaced as `shard.<label>.<gauge>`. A
/// missing, unreadable, or corrupt file degrades to partial aggregation — it
/// is reported in the returned warnings, never an error, because the sweep
/// results themselves are already safe in the store and a merge must not
/// fail over lost observability.
pub fn aggregate_shard_metrics(total: &mut MetricsSnapshot, dir: &Path) -> Vec<String> {
    let mut warnings = Vec::new();
    let io = DiskIo;
    let entries = match io.list_dir(dir) {
        Ok(entries) => entries,
        Err(err) => {
            warnings.push(format!(
                "telemetry: cannot list {} for shard metrics: {err}",
                dir.display()
            ));
            return warnings;
        }
    };
    let mut files: Vec<_> = entries
        .into_iter()
        .filter(|path| {
            path.file_name()
                .and_then(|name| name.to_str())
                .is_some_and(|name| name.starts_with("metrics-") && name.ends_with(".json"))
        })
        .collect();
    files.sort();
    for path in files {
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        let label = name
            .strip_prefix("metrics-")
            .and_then(|rest| rest.strip_suffix(".json"))
            .unwrap_or("unknown")
            .to_string();
        let text = match io.read(&path) {
            Ok(text) => text,
            Err(err) => {
                warnings.push(format!("telemetry: skipping unreadable {name}: {err}"));
                continue;
            }
        };
        let parsed = lsqca_json::parse(&text)
            .map_err(|err| err.to_string())
            .and_then(|json| MetricsSnapshot::from_json(&json).map_err(|err| err.to_string()));
        match parsed {
            Ok(shard) => total.absorb(&shard, &format!("shard.{label}.")),
            Err(err) => {
                warnings.push(format!("telemetry: skipping corrupt {name}: {err}"));
            }
        }
    }
    warnings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_block_keeps_the_greppable_line_formats() {
        let summary = telemetry_summary();
        let lines: Vec<&str> = summary.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("workloads: ") && lines[0].ends_with(" compiled"));
        assert!(lines[1].starts_with("result store: "));
        assert!(lines[1].contains(" computed, ") && lines[1].contains(" quarantined"));
        assert!(lines[2].starts_with("simulator: ") && lines[2].ends_with(" warmed"));
        assert!(lines[3].starts_with("walk split: memory pass "));
        assert!(lines[3].contains(" s, timing pass ") && lines[3].ends_with(" s"));
    }

    #[test]
    fn aggregation_degrades_on_corrupt_files_and_sums_good_ones() {
        let dir = std::env::temp_dir().join(format!(
            "lsqca-telemetry-agg-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let mut shard = MetricsSnapshot::default();
        shard.counters.insert("result_store.computed".into(), 3);
        shard.gauges.insert("inflight".into(), 1);
        std::fs::write(dir.join("metrics-0.json"), shard.to_json().pretty() + "\n").unwrap();
        std::fs::write(dir.join("metrics-1.json"), "{ not json").unwrap();
        std::fs::write(dir.join("metrics-2.json"), "{\"schema\": \"other\"}").unwrap();

        let mut total = MetricsSnapshot::default();
        total.counters.insert("result_store.computed".into(), 1);
        let warnings = aggregate_shard_metrics(&mut total, &dir);
        assert_eq!(total.counters["result_store.computed"], 4);
        assert_eq!(total.gauges["shard.0.inflight"], 1);
        assert_eq!(warnings.len(), 2, "one warning per bad file: {warnings:?}");
        assert!(warnings.iter().all(|w| w.contains("skipping corrupt")));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
