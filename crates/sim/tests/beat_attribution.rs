//! Beat attribution under a shared factory walk: the `sim.beats.*`
//! histograms one [`Simulator::execute_factories`] walk leaves behind equal
//! those of one independent run per factory count.
//!
//! The histograms are process-wide, so this binary holds a single test.

use lsqca_arch::{ArchConfig, FloorplanKind, PolicyKind};
use lsqca_lattice::QubitTag;
use lsqca_sim::{Simulator, TelemetryConfig};
use lsqca_telemetry::HistogramSnapshot;
use lsqca_workloads::{Benchmark, CompiledWorkload, InstanceSize};
use std::collections::BTreeMap;

/// The current `sim.beats.*` histograms.
fn beat_histograms() -> BTreeMap<String, HistogramSnapshot> {
    lsqca_telemetry::snapshot()
        .histograms
        .into_iter()
        .filter(|(name, _)| name.starts_with("sim.beats."))
        .collect()
}

/// What was recorded between the `before` and `after` snapshots.
fn recorded(
    before: &BTreeMap<String, HistogramSnapshot>,
    after: &BTreeMap<String, HistogramSnapshot>,
) -> BTreeMap<String, HistogramSnapshot> {
    after
        .iter()
        .map(|(name, total)| {
            let base = before.get(name).cloned().unwrap_or_default();
            let mut buckets: Vec<u64> = total
                .buckets
                .iter()
                .enumerate()
                .map(|(i, &n)| n - base.buckets.get(i).copied().unwrap_or(0))
                .collect();
            while buckets.last() == Some(&0) {
                buckets.pop();
            }
            let delta = HistogramSnapshot {
                count: total.count - base.count,
                sum: total.sum - base.sum,
                buckets,
            };
            (name.clone(), delta)
        })
        .filter(|(_, delta)| delta.count > 0)
        .collect()
}

#[test]
fn grouped_walk_attributes_the_same_beats_as_independent_runs() {
    let cfg = Benchmark::Select.config(InstanceSize::Reduced);
    let workload = CompiledWorkload::compile(
        cfg.descriptor(),
        &cfg.build(),
        lsqca_compiler::CompilerConfig::default(),
    );
    let qubits = workload.num_qubits().max(workload.memory_footprint());
    let hot: Vec<QubitTag> = (0..qubits / 10).map(QubitTag).collect();
    let factories = [1u32, 2, 4];
    // A migrating hybrid layout: the histograms must leave migration delays
    // out exactly as a single run does.
    let arch = ArchConfig::new(FloorplanKind::PointSam { banks: 1 }, 1).with_hybrid_fraction(0.1);
    let build = |factories: u32| {
        Simulator::builder(
            &ArchConfig {
                factories,
                ..arch.clone()
            },
            qubits,
        )
        .hot_qubits(&hot)
        .migration_policy(PolicyKind::FreqDecay.build())
        .telemetry(TelemetryConfig {
            beat_attribution: true,
        })
        .build()
        .unwrap()
    };

    let start = beat_histograms();
    let grouped = build(1).execute_factories(&workload, &factories).unwrap();
    let after_group = beat_histograms();
    let independent: Vec<_> = factories
        .iter()
        .map(|&f| build(f).execute(&workload).unwrap())
        .collect();
    let after_runs = beat_histograms();

    assert_eq!(grouped, independent);
    let group_beats = recorded(&start, &after_group);
    assert!(
        group_beats.len() > 1,
        "several instruction kinds recorded: {group_beats:?}"
    );
    assert!(grouped.iter().any(|o| o.stats.migrations > 0));
    assert_eq!(group_beats, recorded(&after_group, &after_runs));
}
