//! Telemetry-layer contracts, from the outside in: span traces stay properly
//! nested over arbitrary sweep shapes, enabling instrumentation never changes
//! simulation results, and the `lsqca-metrics-v2` artifact survives a
//! round-trip through its own JSON text.
//!
//! Span enablement and the metrics registry are process-global, so every test
//! here serializes on one mutex — the assertions count and drain global state
//! and would race under the default parallel test runner.

use lsqca::experiment::{ExperimentConfig, Workload};
use lsqca::prelude::*;
use lsqca_sim::Simulator;
use lsqca_telemetry::{MetricsSnapshot, SpanRecord};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

/// All tests toggle or drain process-global telemetry state; run them one at
/// a time (poison-tolerant: an assertion failure must not cascade).
fn telemetry_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn sweep_workload(which: bool) -> Workload {
    let benchmark = if which {
        Benchmark::Ghz
    } else {
        Benchmark::Cat
    };
    Workload::from_circuit(benchmark.reduced_instance())
}

fn sweep_config(line_sam: bool, banks: u32, factories: u32) -> ExperimentConfig {
    let floorplan = if line_sam {
        FloorplanKind::LineSam { banks }
    } else {
        FloorplanKind::PointSam { banks }
    };
    ExperimentConfig::new(floorplan, factories)
}

/// Asserts stack discipline per recording thread: any two same-thread spans
/// are either disjoint or one contains the other. `take_spans` returns them
/// sorted by `(start_ns, Reverse(end_ns))`, so a single pass with an
/// end-time stack suffices.
fn assert_balanced_nesting(spans: &[SpanRecord]) {
    let mut by_tid: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for span in spans {
        assert!(
            span.start_ns <= span.end_ns,
            "span `{}` ends before it starts ({} > {})",
            span.name,
            span.start_ns,
            span.end_ns
        );
        by_tid.entry(span.tid).or_default().push(span);
    }
    for (tid, mut spans) in by_tid {
        spans.sort_by_key(|span| (span.start_ns, Reverse(span.end_ns)));
        let mut open: Vec<&SpanRecord> = Vec::new();
        for span in spans {
            while let Some(top) = open.last() {
                if top.end_ns <= span.start_ns {
                    open.pop();
                } else {
                    break;
                }
            }
            if let Some(top) = open.last() {
                assert!(
                    span.end_ns <= top.end_ns,
                    "tid {tid}: span `{}` [{}, {}] straddles enclosing `{}` [{}, {}]",
                    span.name,
                    span.start_ns,
                    span.end_ns,
                    top.name,
                    top.start_ns,
                    top.end_ns
                );
            }
            open.push(span);
        }
    }
}

proptest! {
    /// Whatever the sweep shape, the recorded span trace is balanced — every
    /// same-thread pair of spans is disjoint or nested — and the lifecycle
    /// spans the sweep must cross are present.
    #[test]
    fn spans_nest_over_random_sweep_shapes(
        which in proptest::bool::ANY,
        shape in proptest::collection::vec(
            (proptest::bool::ANY, 1u32..3, 1u32..3),
            1..4,
        ),
    ) {
        let _serial = telemetry_lock();
        lsqca_telemetry::init_clock();
        let _drained = lsqca_telemetry::take_spans();
        lsqca_telemetry::set_spans_enabled(true);
        let workload = sweep_workload(which);
        let configs: Vec<ExperimentConfig> = shape
            .iter()
            .map(|&(line_sam, banks, factories)| sweep_config(line_sam, banks, factories))
            .collect();
        let results: Vec<_> = configs.iter().map(|config| workload.run(config)).collect();
        lsqca_telemetry::set_spans_enabled(false);
        let spans = lsqca_telemetry::take_spans();

        prop_assert_eq!(results.len(), configs.len());
        assert_balanced_nesting(&spans);
        let count = |name: &str| spans.iter().filter(|span| span.name == name).count();
        // Every point builds its own simulator and executes once on it.
        prop_assert_eq!(count("sim.warm"), configs.len());
        prop_assert_eq!(count("point.execute"), configs.len());
    }
}

/// Instrumentation observes; it must not perturb. The same artifact on the
/// same architecture produces an identical outcome with span recording on as
/// with it off.
#[test]
fn instrumented_run_equals_disabled_run() {
    let _serial = telemetry_lock();
    lsqca_telemetry::init_clock();
    let workload = sweep_workload(true);
    let arch = ArchConfig::new(FloorplanKind::LineSam { banks: 2 }, 1);
    let qubits = workload
        .num_qubits()
        .max(workload.compiled().memory_footprint())
        .max(1);
    let execute = || {
        let mut simulator = Simulator::builder(&arch, qubits)
            .build()
            .expect("valid simulator configuration");
        simulator
            .execute(workload.compiled())
            .expect("execution succeeds")
    };

    let plain = execute();

    lsqca_telemetry::set_spans_enabled(true);
    let instrumented = execute();
    lsqca_telemetry::set_spans_enabled(false);
    let spans = lsqca_telemetry::take_spans();

    assert_eq!(plain, instrumented, "telemetry changed simulation results");
    assert!(
        spans.iter().any(|span| span.name == "sim.warm"),
        "instrumented run recorded no sim.warm span"
    );
}

/// The `lsqca-metrics-v2` artifact is self-describing: rendering a snapshot
/// to pretty JSON text and parsing it back yields the identical snapshot,
/// and the aggregated form (prefixed shard gauges) survives the same trip.
#[test]
fn metrics_artifact_round_trips_through_json_text() {
    let _serial = telemetry_lock();
    let mut snapshot = MetricsSnapshot::default();
    snapshot.counters.insert("sim.memory_walks".into(), 12);
    snapshot.counters.insert("sim.runs".into(), 0);
    snapshot.gauges.insert("shard.0.heartbeat_lag_ms".into(), 7);
    snapshot.gauges.insert("shard.1.backoff_ms".into(), -1);

    let text = snapshot.to_json().pretty() + "\n";
    let parsed = lsqca_json::parse(&text).expect("metrics artifact parses");
    let restored = MetricsSnapshot::from_json(&parsed).expect("metrics artifact validates");
    assert_eq!(restored, snapshot);

    // An aggregate (what `experiments merge --metrics-out` writes after
    // absorbing per-shard files) round-trips the same way.
    let mut total = MetricsSnapshot::default();
    total.counters.insert("sim.memory_walks".into(), 5);
    total.absorb(&snapshot, "shard.2.");
    let text = total.to_json().pretty() + "\n";
    let parsed = lsqca_json::parse(&text).expect("aggregated artifact parses");
    let restored = MetricsSnapshot::from_json(&parsed).expect("aggregated artifact validates");
    assert_eq!(restored, total);
    assert_eq!(restored.counters["sim.memory_walks"], 17);
    assert_eq!(restored.gauges["shard.2.shard.0.heartbeat_lag_ms"], 7);
}
