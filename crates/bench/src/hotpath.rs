//! Simulator throughput per floorplan and the `BENCH_hotpath.json` baseline.
//!
//! `experiments hotpath --json` times the end-to-end simulator on the
//! benchmark multiplier for the point SAM, the line SAM and the conventional
//! floorplan, plus one point-SAM factory group (the 1/2/4-MSF points of one
//! cell over one walk), and writes the resulting [`HotpathReport`] as the
//! `BENCH_hotpath.json` baseline. Each row is sampled interleaved
//! with a fixed calibration workload ([`legacy::vacant_path_len`]), so the
//! row's ns/instruction and its calibration ns/op see the same host speed.
//! `scripts/bench.sh --quick` gates on the ratio of the two. The speedups of
//! the earlier hot-path optimizations are recorded in `CHANGES.md`.

use crate::Scale;
use lsqca::experiment::{ExperimentConfig, Workload};
use lsqca::lattice::{CellGrid, Coord};
use lsqca::prelude::*;
use lsqca::workloads::Benchmark;
use lsqca_json::{Json, ToJson};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The frozen calibration workload, kept verbatim so its cost tracks only the
/// speed of the machine.
pub mod legacy {
    use lsqca::lattice::{CellGrid, Coord, LatticeError};
    use std::collections::{HashMap, VecDeque};

    /// The seed's vacant-path BFS with a `HashMap<Coord, u32>` frontier:
    /// the length of the shortest path from `from` to `to` through vacant
    /// cells, excluding `from` itself but including `to`.
    ///
    /// # Errors
    ///
    /// [`LatticeError::NoVacantPath`] if no vacant path exists.
    pub fn vacant_path_len(grid: &CellGrid, from: Coord, to: Coord) -> Result<u32, LatticeError> {
        if from == to {
            return Ok(0);
        }
        let mut dist: HashMap<Coord, u32> = HashMap::new();
        let mut queue = VecDeque::new();
        dist.insert(from, 0);
        queue.push_back(from);
        while let Some(cur) = queue.pop_front() {
            let d = dist[&cur];
            for next in cur.neighbors() {
                if !grid.in_bounds(next) || dist.contains_key(&next) {
                    continue;
                }
                if next == to {
                    return Ok(d + 1);
                }
                if grid.is_vacant(next) {
                    dist.insert(next, d + 1);
                    queue.push_back(next);
                }
            }
        }
        Err(LatticeError::NoVacantPath { from, to })
    }
}

/// How much wall time each measurement may spend.
#[derive(Debug, Clone, Copy)]
pub struct MeasureBudget {
    /// Samples per measurement; the minimum is reported.
    pub samples: usize,
    /// Target duration of one sample.
    pub sample_target: Duration,
    /// Warm-up duration before sampling.
    pub warmup: Duration,
}

impl MeasureBudget {
    /// The budget used for the published `BENCH_hotpath.json` baseline.
    pub fn baseline() -> Self {
        MeasureBudget {
            samples: 120,
            sample_target: Duration::from_millis(5),
            warmup: Duration::from_millis(20),
        }
    }

    /// A near-zero budget for shape-only tests: one call per sample.
    pub fn smoke() -> Self {
        MeasureBudget {
            samples: 1,
            sample_target: Duration::ZERO,
            warmup: Duration::ZERO,
        }
    }
}

/// Wall time per call of `row(i)` for each `i < rows`, and of the
/// calibration sampled right before it, in nanoseconds. The samples go round
/// robin (calibration, row 0, calibration, row 1, …) for every round of the
/// budget, so each row and its calibration see the same moments of host
/// speed, spread over the whole measurement; each reports its fastest sample.
fn measure_ns(
    budget: MeasureBudget,
    rows: usize,
    mut row: impl FnMut(usize),
    mut calibration: impl FnMut(),
) -> Vec<(f64, f64)> {
    let calibration_calls = calls_per_sample(budget, &mut calibration);
    let row_calls: Vec<u64> = (0..rows)
        .map(|i| calls_per_sample(budget, &mut || row(i)))
        .collect();
    let mut best = vec![(f64::INFINITY, f64::INFINITY); rows];
    for _ in 0..budget.samples.max(1) {
        for (i, (row_ns, calibration_ns)) in best.iter_mut().enumerate() {
            *calibration_ns = calibration_ns.min(sample_ns(calibration_calls, &mut calibration));
            *row_ns = row_ns.min(sample_ns(row_calls[i], &mut || row(i)));
        }
    }
    best
}

/// Calls of `f` that fill one sample of `budget`, estimated from a warm-up.
fn calls_per_sample(budget: MeasureBudget, f: &mut impl FnMut()) -> u64 {
    let warmup = Instant::now();
    let mut calls = 0u64;
    loop {
        f();
        calls += 1;
        if warmup.elapsed() >= budget.warmup {
            break;
        }
    }
    let per_call = warmup.elapsed().as_secs_f64() / calls as f64;
    ((budget.sample_target.as_secs_f64() / per_call.max(1e-9)) as u64).max(1)
}

/// Mean wall time per call over one sample of `calls` calls of `f`.
fn sample_ns(calls: u64, f: &mut impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..calls {
        f();
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// Absolute throughput of the end-to-end simulator on one floorplan.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Floorplan label, with the factory group for a grouped row.
    pub floorplan: String,
    /// Instructions in the simulated program.
    pub instructions: u64,
    /// Nanoseconds per simulated instruction: per trace record walked, so a
    /// factory group's row covers all of its points.
    pub ns_per_instruction: f64,
    /// Nanoseconds per run of the calibration workload (the frozen
    /// [`legacy::vacant_path_len`] on an open 48×48 grid), sampled
    /// interleaved with this row. The CI gate compares
    /// `ns_per_instruction / calibration_ns_per_op` between the committed
    /// baseline and a fresh run, so a slower machine shifts both sides alike.
    pub calibration_ns_per_op: f64,
}

impl ToJson for EndToEnd {
    fn to_json(&self) -> Json {
        Json::obj([
            ("floorplan", self.floorplan.to_json()),
            ("instructions", self.instructions.to_json()),
            ("ns_per_instruction", self.ns_per_instruction.to_json()),
            (
                "calibration_ns_per_op",
                self.calibration_ns_per_op.to_json(),
            ),
            (
                "instructions_per_second",
                (1e9 / self.ns_per_instruction.max(1e-9)).to_json(),
            ),
        ])
    }
}

/// The `BENCH_hotpath.json` baseline: end-to-end simulator throughput per
/// floorplan and for one factory group, each row with its own calibration.
#[derive(Debug, Clone)]
pub struct HotpathReport {
    /// Scale of the measured workload.
    pub scale: Scale,
    /// Absolute end-to-end throughput per floorplan.
    pub end_to_end: Vec<EndToEnd>,
}

impl ToJson for HotpathReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("schema", "lsqca-bench-hotpath-v2".to_json()),
            ("scale", self.scale.name().to_json()),
            ("end_to_end", self.end_to_end.to_json()),
        ])
    }
}

/// The workload the measurements run on: the mid-sized multiplier (Quick) or
/// the paper-sized instance (Full), compiled in process.
fn workload(scale: Scale) -> Workload {
    crate::WorkloadHandle::benchmark(Benchmark::Multiplier, scale)
        .workload()
        .clone()
}

/// Runs every measurement with the baseline budget.
pub fn generate(scale: Scale) -> HotpathReport {
    generate_with(scale, MeasureBudget::baseline())
}

/// Runs every measurement under an explicit time budget.
pub fn generate_with(scale: Scale, budget: MeasureBudget) -> HotpathReport {
    let workload = workload(scale);
    let instructions = workload.compiled().trace().len() as u64;
    let floorplans = [
        FloorplanKind::PointSam { banks: 1 },
        FloorplanKind::LineSam { banks: 1 },
        FloorplanKind::Conventional,
    ];
    let configs = floorplans.map(|floorplan| ExperimentConfig::new(floorplan, 1));
    // The last row walks the point SAM once for all of the paper's factory
    // counts, as every figure cell does.
    let mut labels: Vec<String> = floorplans.into_iter().map(FloorplanKind::label).collect();
    labels.push(format!("{}, 1/2/4 MSF group", labels[0]));
    let grid = CellGrid::new(48, 48);
    let (from, to) = (Coord::new(0, 0), Coord::new(47, 47));
    let end_to_end = measure_ns(
        budget,
        labels.len(),
        |i| match configs.get(i) {
            Some(config) => {
                black_box(workload.run(config));
            }
            None => {
                black_box(workload.run_factories(&configs[0], &crate::FACTORY_COUNTS));
            }
        },
        || {
            black_box(legacy::vacant_path_len(black_box(&grid), from, to).expect("open region"));
        },
    )
    .into_iter()
    .zip(labels)
    .map(|((run_ns, calibration_ns_per_op), floorplan)| EndToEnd {
        floorplan,
        instructions,
        ns_per_instruction: run_ns / instructions as f64,
        calibration_ns_per_op,
    })
    .collect();
    HotpathReport { scale, end_to_end }
}

/// Renders the report as a text table.
pub fn render(report: &HotpathReport) -> String {
    let rows: Vec<Vec<String>> = report
        .end_to_end
        .iter()
        .map(|e| {
            vec![
                format!("simulate {}", e.floorplan),
                format!("{:.2}", e.ns_per_instruction),
                format!("{:.0}", e.calibration_ns_per_op),
            ]
        })
        .collect();
    crate::render_table(
        &["measurement", "ns/instruction", "calibration ns/op"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_has_the_expected_shape() {
        // Shape-only with a near-zero time budget: timing assertions live in
        // `scripts/bench.sh`, not unit tests.
        let report = generate_with(Scale::Quick, MeasureBudget::smoke());
        assert_eq!(report.end_to_end.len(), 4);
        for row in &report.end_to_end {
            assert!(row.ns_per_instruction > 0.0);
            assert!(row.calibration_ns_per_op > 0.0);
        }
        assert_eq!(
            report.end_to_end[3].floorplan,
            "Point #SAM=1, 1/2/4 MSF group"
        );
        let json = report.to_json().pretty();
        assert!(json.contains("lsqca-bench-hotpath-v2"));
        assert_eq!(json.matches("\"calibration_ns_per_op\"").count(), 4);
    }

    #[test]
    fn calibration_bfs_measures_vacant_paths() {
        let open = CellGrid::new(5, 5);
        assert_eq!(
            legacy::vacant_path_len(&open, Coord::new(0, 0), Coord::new(3, 2)),
            Ok(5)
        );
        assert_eq!(
            legacy::vacant_path_len(&open, Coord::new(1, 1), Coord::new(1, 1)),
            Ok(0)
        );
        // A wall of occupied cells forces a detour through the bottom row.
        let mut walled = CellGrid::new(3, 3);
        walled.place(QubitTag(0), Coord::new(1, 0)).unwrap();
        walled.place(QubitTag(1), Coord::new(1, 1)).unwrap();
        assert_eq!(
            legacy::vacant_path_len(&walled, Coord::new(0, 0), Coord::new(2, 0)),
            Ok(6)
        );
        let mut blocked = CellGrid::new(3, 1);
        blocked.place(QubitTag(0), Coord::new(1, 0)).unwrap();
        assert!(matches!(
            legacy::vacant_path_len(&blocked, Coord::new(0, 0), Coord::new(2, 0)),
            Err(lsqca::lattice::LatticeError::NoVacantPath { .. })
        ));
    }
}
