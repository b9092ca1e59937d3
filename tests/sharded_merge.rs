//! Merge determinism of sharded sweeps: any partition of a sweep into k
//! shards (k ∈ 1..=8), with arbitrary kill-points per shard followed by a
//! resume, must audit cleanly and merge to a report byte-identical to the
//! k = 1 uninterrupted run.
//!
//! The shards here are driven sequentially in one process over one
//! fault-injected [`FaultyIo`] backend — what matters to the merge is the
//! per-shard results logs left on "disk", which are the same whether
//! the shards ran as processes or loops. Process-level supervision (restart,
//! backoff, quarantine) is exercised by the CI smoke against the real binary.

use lsqca::experiment::ExperimentConfig;
use lsqca::prelude::*;
use lsqca_bench::{stored_run_in, supervisor::owning_shard, Scale, WorkloadHandle};
use lsqca_json::Json;
use lsqca_store::{merge_audit, FaultPlan, FaultyIo, MergeError, ResultStore, StoreEvent};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn sweep_workloads() -> Vec<WorkloadHandle> {
    [Benchmark::Ghz, Benchmark::Cat]
        .iter()
        .map(|&b| WorkloadHandle::benchmark(b, Scale::Quick))
        .collect()
}

fn sweep_configs() -> Vec<ExperimentConfig> {
    vec![
        ExperimentConfig::baseline(1),
        ExperimentConfig::new(FloorplanKind::PointSam { banks: 1 }, 1),
        ExperimentConfig::new(FloorplanKind::LineSam { banks: 1 }, 2),
    ]
}

/// Every sweep point, in sweep order: `(workload index, config)` plus its
/// result key (the partition domain).
fn sweep_points(workloads: &[WorkloadHandle]) -> Vec<(usize, ExperimentConfig, String)> {
    let mut points = Vec::new();
    for (w, workload) in workloads.iter().enumerate() {
        for config in sweep_configs() {
            let key = workload.result_key(&config);
            points.push((w, config, key));
        }
    }
    points
}

fn store_labeled(io: &Arc<FaultyIo>, label: &str) -> ResultStore {
    let mut store = ResultStore::with_io(Some(PathBuf::from("/store")), io.clone());
    store.set_shard_label(label).expect("test labels are valid");
    store
}

/// The merged report: every point rendered through `store`, in sweep order.
fn report(store: &ResultStore, workloads: &[WorkloadHandle]) -> String {
    let mut out = String::new();
    for (w, config, key) in sweep_points(workloads) {
        let stats = stored_run_in(store, &workloads[w], &config);
        out.push_str(&format!(
            "{key} beats={} cpi={:.6} density={:.6}\n",
            stats.total_beats.as_u64(),
            stats.cpi(),
            stats.memory_density,
        ));
    }
    out
}

proptest! {
    /// Partition → per-shard kill → resume → merge equals the clean run,
    /// byte for byte, and the merge audit finds nothing missing or corrupt.
    #[test]
    fn any_partition_with_kills_merges_to_the_clean_report(
        shards in 1u32..9,
        kills in proptest::collection::vec((proptest::bool::ANY, 5u64..150), 8..9),
    ) {
        let workloads = sweep_workloads();

        // Reference: the k = 1 uninterrupted run on its own pristine backend.
        let clean_io = Arc::new(FaultyIo::reliable());
        let clean = report(&store_labeled(&clean_io, "0"), &workloads);

        // Sharded run: all shards publish into one shared backend, each under
        // its own log label, computing only the points it owns. A shard
        // marked for killing loses its volatile tail mid-pass, then a fresh
        // store (the restarted worker) resumes it from its log.
        let io = Arc::new(FaultyIo::reliable());
        let points = sweep_points(&workloads);
        for k in 0..shards {
            let label = k.to_string();
            let (kill, offset) = kills[k as usize];
            if kill {
                io.set_plan(FaultPlan {
                    kill_at_op: Some(io.op_count() + offset),
                    ..FaultPlan::default()
                });
            }
            let store = store_labeled(&io, &label);
            for (w, config, key) in &points {
                if owning_shard(key, shards) == k {
                    stored_run_in(&store, &workloads[*w], config);
                }
            }
            // The worker dies (volatile state is lost) and is restarted:
            // logged records replay as hits, the lost tail recomputes.
            io.crash();
            io.revive();
            let resumed = store_labeled(&io, &label);
            for (w, config, key) in &points {
                if owning_shard(key, shards) == k {
                    stored_run_in(&resumed, &workloads[*w], config);
                }
            }
        }

        // The cross-shard audit accepts the store: every point has a
        // verifying line, none is corrupt or torn, and no logs conflict.
        let audit = merge_audit(io.as_ref(), Path::new("/store"))
            .unwrap_or_else(|err| panic!("merge refused: {err}"));
        prop_assert_eq!(audit.journaled, points.len());
        prop_assert_eq!(audit.corrupt, 0);
        prop_assert_eq!(audit.torn_lines, 0);
        prop_assert!(audit.quarantined_points.is_empty());

        // The merged render (a fresh process over the shared store) is
        // byte-identical to the clean single-process run.
        let merged = report(&store_labeled(&io, "merge"), &workloads);
        prop_assert_eq!(&merged, &clean);
    }
}

/// Conflicting shard logs must refuse to merge: if two shards publish
/// verifying records with different checksums for the same key, the audit is
/// a hard error rather than a silent pick-one.
#[test]
fn conflicting_shards_refuse_to_merge() {
    let workloads = sweep_workloads();
    let io = Arc::new(FaultyIo::reliable());
    let store = store_labeled(&io, "0");
    let (w, config, key) = sweep_points(&workloads).remove(0);
    stored_run_in(&store, &workloads[w], &config);

    // A rogue shard's log holds different content for the same key.
    let rogue = Json::obj([("total_beats", Json::U64(1))]);
    store_labeled(&io, "1").store_computed(&key, &rogue, &StoreEvent::Computed);

    let err = merge_audit(io.as_ref(), Path::new("/store")).unwrap_err();
    assert!(
        matches!(&err, MergeError::ChecksumConflict { key: k, .. } if *k == key),
        "{err}"
    );
}
