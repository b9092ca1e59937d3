//! Shared harness code for regenerating every table and figure of the paper.
//!
//! The `experiments` binary renders its reports through [`report`]. Each
//! `figXX` module produces the data series of the corresponding
//! figure and can render it as a text table whose rows mirror what the paper
//! plots:
//!
//! * [`table1`] — the ISA reference table (Table I).
//! * [`fig08`] — memory reference locality of SELECT and the multiplier.
//! * [`fig13`] — CPI of every benchmark under every floorplan and factory count.
//! * [`fig14`] — hybrid-floorplan trade-off curves (density vs overhead).
//! * [`fig15`] — SELECT scaling with hybrid layouts.
//! * [`headline`] — the headline claims quoted in the abstract/intro.
//!
//! Every generator takes a [`Scale`]: `Quick` uses reduced workload instances
//! (seconds), `Full` uses the paper-sized instances (minutes).

#![forbid(unsafe_code)]

use lsqca::experiment::Workload;
use lsqca::prelude::*;
use lsqca::workloads::{Benchmark, BenchmarkConfig, InstanceSize};
use lsqca_json::{Json, ToJson};
use lsqca_store::{Lookup, ResultStore, StoreEvent};
use std::sync::OnceLock;

pub mod hotpath;
pub mod par;
pub mod supervisor;
pub mod telemetry;

pub use telemetry::telemetry_summary;

/// How large the workload instances should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced instances with the same structure; suitable for CI and benches.
    Quick,
    /// The paper-sized instances (400-qubit multiplier, 11×11 SELECT, ...).
    Full,
}

impl Scale {
    /// Parses `"quick"` / `"full"`.
    pub fn from_flag(full: bool) -> Scale {
        if full {
            Scale::Full
        } else {
            Scale::Quick
        }
    }

    /// The lowercase name used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }

    /// The workload instance size this scale simulates.
    pub fn instance_size(self) -> InstanceSize {
        match self {
            Scale::Quick => InstanceSize::Reduced,
            Scale::Full => InstanceSize::Paper,
        }
    }
}

/// Builds the benchmark circuit for the given scale (sweep drivers compile
/// through a [`WorkloadHandle`] instead).
pub fn instance(benchmark: Benchmark, scale: Scale) -> Circuit {
    match scale {
        Scale::Quick => benchmark.reduced_instance(),
        Scale::Full => benchmark.paper_instance(),
    }
}

/// A workload that compiles in process, at most once, on first use.
///
/// A handle knows its [`workload_key`](lsqca::workloads::workload_key)
/// without compiling, and result-store keys derive from it
/// ([`lsqca::experiment::result_key`]). So a sweep point served from the
/// result store, or a placeholder for a point another shard owns, never
/// compiles anything. The first point that misses compiles the workload, in
/// a `workload.compile` span and counted as `workloads.compiled`; every
/// later point, on any thread, reuses it.
pub struct WorkloadHandle {
    key: String,
    generator: BenchmarkConfig,
    compiler: CompilerConfig,
    workload: OnceLock<Workload>,
}

impl WorkloadHandle {
    /// A handle on the workload `generator` builds, compiled with `compiler`.
    pub fn new(generator: BenchmarkConfig, compiler: CompilerConfig) -> Self {
        WorkloadHandle {
            key: lsqca::workloads::workload_key(&generator.descriptor(), &compiler),
            generator,
            compiler,
            workload: OnceLock::new(),
        }
    }

    /// A handle on the benchmark instance for `scale`, with the default
    /// compiler configuration.
    pub fn benchmark(benchmark: Benchmark, scale: Scale) -> Self {
        WorkloadHandle::new(
            benchmark.config(scale.instance_size()),
            CompilerConfig::default(),
        )
    }

    /// The result-store key for running this workload under `config`,
    /// derived without compiling.
    pub fn result_key(&self, config: &ExperimentConfig) -> String {
        lsqca::experiment::result_key(&self.key, config)
    }

    /// The compiled workload, compiling it on the first call.
    pub fn workload(&self) -> &Workload {
        self.workload.get_or_init(|| {
            let _span = lsqca_telemetry::span("workload.compile");
            lsqca_telemetry::counter("workloads.compiled").inc();
            let artifact = CompiledWorkload::compile(
                self.key.as_str(),
                &self.generator.build(),
                self.compiler,
            );
            Workload::from_artifact(artifact)
        })
    }

    /// Whether [`WorkloadHandle::workload`] has compiled the workload yet.
    pub fn is_compiled(&self) -> bool {
        self.workload.get().is_some()
    }
}

/// The process-wide crash-safe result store every sweep driver runs through
/// (`$LSQCA_STORE_DIR` / `$LSQCA_NO_STORE` aware; see `lsqca_store`). A second
/// `experiments` invocation over the same sweep performs zero simulation, and
/// a SIGKILLed invocation resumes from its results log.
///
/// The store reads every shard's results log once, on its first use, and
/// afterwards answers from that snapshot plus this process's own
/// publications. So the `experiments` binary must first touch it only after
/// supervision ends: then `merge` and every post-supervisor render see every
/// worker's lines. (A worker's own view of other shards may be stale, which
/// only affects the placeholder rows of its discarded report.)
pub fn result_store() -> &'static ResultStore {
    static STORE: OnceLock<ResultStore> = OnceLock::new();
    STORE.get_or_init(ResultStore::from_env)
}

/// Runs `workload` under `config` through the process-wide result store and
/// returns the statistics: a verified stored record skips the simulation
/// entirely, a computed result is published durably before being returned.
/// Every figure field derives from these statistics. Only a miss this process
/// computes compiles the workload. The one-element case of [`stored_runs`].
pub fn stored_run(workload: &WorkloadHandle, config: &ExperimentConfig) -> ExecutionStats {
    stored_run_in(result_store(), workload, config)
}

/// [`stored_run`] against an explicit store — the fault-injection and
/// kill-resume tests drive this with a [`lsqca_store::FaultyIo`] backend.
pub fn stored_run_in(
    store: &ResultStore,
    workload: &WorkloadHandle,
    config: &ExperimentConfig,
) -> ExecutionStats {
    stored_runs_in(store, workload, config, &[config.factories])
        .pop()
        .expect("one result per factory count")
}

/// Runs `workload` under `base` at every factory count of `factories`
/// through the process-wide result store, returning the statistics in the
/// same order. Each point is keyed and probed exactly as [`stored_run`]
/// would; the points that miss are computed together, with one memory walk
/// shared by their factory counts ([`Workload::run_factories`]), and each
/// is published as its own record.
pub fn stored_runs(
    workload: &WorkloadHandle,
    base: &ExperimentConfig,
    factories: &[u32],
) -> Vec<ExecutionStats> {
    stored_runs_in(result_store(), workload, base, factories)
}

/// [`stored_runs`] against an explicit store.
pub fn stored_runs_in(
    store: &ResultStore,
    workload: &WorkloadHandle,
    base: &ExperimentConfig,
    factories: &[u32],
) -> Vec<ExecutionStats> {
    let configs: Vec<ExperimentConfig> = factories
        .iter()
        .map(|&factories| ExperimentConfig {
            factories,
            ..base.clone()
        })
        .collect();
    let keys: Vec<String> = configs.iter().map(|c| workload.result_key(c)).collect();
    // Both the hit and the computed path decode the stored payload, so a
    // resumed sweep is byte-identical to a clean one by construction. A
    // payload that fails to decode is unreachable past the record checksum
    // (the payload schema is part of the result key), but never trust a
    // store over a recomputation.
    let decode = |payload: &Json, config: &ExperimentConfig| {
        ExecutionStats::from_json(payload).unwrap_or_else(|_| workload.workload().run(config).stats)
    };
    let mut results: Vec<Option<ExecutionStats>> = vec![None; keys.len()];
    let mut misses: Vec<(usize, StoreEvent)> = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        // Under a shard plan, points owned by other shards (and quarantined
        // points) are never computed here: a stored record from any shard is
        // rendered as-is, an absent one as a placeholder row. Only the owning
        // shard's worker fills the gap, so shards never duplicate work.
        if !supervisor::should_compute(key) {
            results[i] = Some(
                store
                    .probe(key)
                    .and_then(|payload| ExecutionStats::from_json(&payload).ok())
                    .unwrap_or_default(),
            );
            continue;
        }
        match store.lookup(key) {
            Lookup::Hit(payload) => results[i] = Some(decode(&payload, &configs[i])),
            Lookup::Miss(event) => misses.push((i, event)),
        }
    }
    if !misses.is_empty() {
        // The in-flight marks make a mid-computation death attributable to
        // the group; each survives a panic/abort and clears once the shared
        // walk has produced its point.
        let missed_keys: Vec<&str> = misses.iter().map(|&(i, _)| keys[i].as_str()).collect();
        let guards = supervisor::InflightGuard::enter_all(&missed_keys);
        let counts: Vec<u32> = misses.iter().map(|&(i, _)| factories[i]).collect();
        let computed = workload.workload().run_factories(base, &counts);
        for (((i, event), stats), guard) in misses.into_iter().zip(computed).zip(guards) {
            drop(guard);
            let payload = stats.to_json();
            store.store_computed(&keys[i], &payload, &event);
            results[i] = Some(decode(&payload, &configs[i]));
        }
    }
    results
        .into_iter()
        .map(|stats| stats.expect("every point was probed, hit or computed"))
        .collect()
}

/// The base configuration of a factory-sweep cell on `floorplan`: every
/// sweep driver passes it to [`stored_runs`] with the sweep's factory
/// counts, which replace its own (placeholder) count.
fn cell_config(floorplan: FloorplanKind) -> ExperimentConfig {
    ExperimentConfig::new(floorplan, 1)
}

/// The factory counts evaluated in the paper's figures.
pub const FACTORY_COUNTS: [u32; 3] = [1, 2, 4];

/// Formats a floating-point cell with two decimals.
fn fmt2(x: f64) -> String {
    format!("{x:.2}")
}

/// Renders a simple aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let line = |cells: &[String], widths: &[usize]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&line(
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row, &widths));
        out.push('\n');
    }
    out
}

/// Table I: the instruction set reference.
pub mod table1 {
    use super::*;
    use lsqca::isa::instruction::example_instructions;
    use lsqca::isa::LatencyTable;

    /// One row of Table I.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Instruction category.
        pub kind: String,
        /// Mnemonic and operand shape.
        pub syntax: String,
        /// Latency column.
        pub latency: String,
    }

    impl ToJson for Row {
        fn to_json(&self) -> Json {
            Json::obj([
                ("kind", self.kind.to_json()),
                ("syntax", self.syntax.to_json()),
                ("latency", self.latency.to_json()),
            ])
        }
    }

    /// Generates every row of Table I from the ISA definition itself.
    pub fn rows() -> Vec<Row> {
        let table = LatencyTable::paper();
        example_instructions()
            .into_iter()
            .map(|instr| Row {
                kind: instr.kind().to_string(),
                syntax: instr.to_string(),
                latency: table.latency(&instr).to_string(),
            })
            .collect()
    }

    /// Renders Table I as text.
    pub fn render() -> String {
        let rows: Vec<Vec<String>> = rows()
            .into_iter()
            .map(|r| vec![r.kind, r.syntax, r.latency])
            .collect();
        render_table(&["type", "syntax (example operands)", "latency"], &rows)
    }
}

/// Fig. 8: memory reference locality of SELECT and the multiplier.
pub mod fig08 {
    use super::*;
    use lsqca::analysis::AccessLocalityReport;
    use lsqca::experiment::ExperimentConfig;
    use lsqca::workloads::{MultiplierConfig, SelectConfig};

    /// The locality analysis of one benchmark.
    #[derive(Debug, Clone)]
    pub struct BenchmarkLocality {
        /// Benchmark name.
        pub name: String,
        /// Number of logical qubits.
        pub qubits: u32,
        /// Locality summary.
        pub report: AccessLocalityReport,
        /// Sampled points of the reference-period CDF `(period, fraction)`.
        pub cdf_points: Vec<(u64, f64)>,
        /// Average beats between magic-state demands.
        pub beats_per_magic_state: Option<f64>,
    }

    impl ToJson for BenchmarkLocality {
        fn to_json(&self) -> Json {
            Json::obj([
                ("name", self.name.to_json()),
                ("qubits", self.qubits.to_json()),
                (
                    "report",
                    Json::obj([
                        ("referenced_qubits", self.report.referenced_qubits.to_json()),
                        ("total_references", self.report.total_references.to_json()),
                        (
                            "short_period_fraction",
                            self.report.short_period_fraction.to_json(),
                        ),
                        (
                            "sequential_fraction",
                            self.report.sequential_fraction.to_json(),
                        ),
                        (
                            "reference_period_median",
                            self.report.reference_periods.median().to_json(),
                        ),
                        (
                            "reference_period_mean",
                            self.report.reference_periods.mean().to_json(),
                        ),
                    ]),
                ),
                ("cdf_points", self.cdf_points.to_json()),
                (
                    "beats_per_magic_state",
                    self.beats_per_magic_state.to_json(),
                ),
            ])
        }
    }

    fn analyze(name: &str, generator: BenchmarkConfig) -> BenchmarkLocality {
        // Motivation-study assumptions: unbounded parallelism (conventional
        // floorplan) and instant magic states, with trace recording on.
        let config = ExperimentConfig::baseline(1)
            .with_trace()
            .with_infinite_magic();
        // The trace is not persisted, so this run never goes through the
        // result store: it compiles and simulates directly.
        let handle = WorkloadHandle::new(generator, CompilerConfig::default());
        let workload = handle.workload();
        let result = workload.run(&config);
        let qubits = workload.num_qubits();
        // The analysis reads only the run's memory trace: release the
        // compiled workload first, so its trace and the locality report's
        // period tables are never resident together.
        drop(handle);
        let (report, cdf_points) = {
            let _span = lsqca_telemetry::span("analysis.locality");
            let report =
                AccessLocalityReport::from_trace(&result.trace, Some(result.stats.magic_states));
            let cdf_points = report.reference_periods.log_spaced_points(2);
            (report, cdf_points)
        };
        BenchmarkLocality {
            name: name.to_string(),
            qubits,
            cdf_points,
            beats_per_magic_state: report.beats_per_magic_state,
            report,
        }
    }

    /// Generates the Fig. 8 data for both benchmarks, compiling each
    /// instance.
    pub fn generate(scale: Scale) -> Vec<BenchmarkLocality> {
        let (select_cfg, mult_cfg) = match scale {
            Scale::Quick => (
                SelectConfig::for_width(4),
                MultiplierConfig {
                    operand_bits: 12,
                    partial_products: None,
                },
            ),
            Scale::Full => (SelectConfig::paper_motivation(), MultiplierConfig::paper()),
        };
        vec![
            analyze("SELECT", BenchmarkConfig::Select(select_cfg)),
            analyze("multiplier", BenchmarkConfig::Multiplier(mult_cfg)),
        ]
    }

    /// Renders the Fig. 8 summary as text.
    pub fn render(scale: Scale) -> String {
        let data = generate(scale);
        let rows: Vec<Vec<String>> = data
            .iter()
            .map(|d| {
                vec![
                    d.name.clone(),
                    d.qubits.to_string(),
                    d.report.total_references.to_string(),
                    fmt2(d.report.short_period_fraction),
                    fmt2(d.report.sequential_fraction),
                    d.beats_per_magic_state
                        .map(fmt2)
                        .unwrap_or_else(|| "-".into()),
                ]
            })
            .collect();
        let mut out = render_table(
            &[
                "benchmark",
                "qubits",
                "references",
                "frac(period<=10)",
                "frac(sequential)",
                "beats/magic",
            ],
            &rows,
        );
        for d in &data {
            out.push_str(&format!("\nreference-period CDF for {}:\n", d.name));
            for (period, frac) in &d.cdf_points {
                out.push_str(&format!("  period<={period:>6}: {frac:.3}\n"));
            }
        }
        out
    }
}

/// Fig. 13: CPI of every benchmark under every floorplan and factory count.
pub mod fig13 {
    use super::*;

    /// One bar of Fig. 13.
    #[derive(Debug, Clone)]
    pub struct Point {
        /// Benchmark name.
        pub benchmark: String,
        /// Floorplan label.
        pub floorplan: String,
        /// Number of magic-state factories.
        pub factories: u32,
        /// Code beats per instruction.
        pub cpi: f64,
        /// Execution time in beats.
        pub beats: u64,
        /// Memory density.
        pub density: f64,
    }

    impl ToJson for Point {
        fn to_json(&self) -> Json {
            Json::obj([
                ("benchmark", self.benchmark.to_json()),
                ("floorplan", self.floorplan.to_json()),
                ("factories", self.factories.to_json()),
                ("cpi", self.cpi.to_json()),
                ("beats", self.beats.to_json()),
                ("density", self.density.to_json()),
            ])
        }
    }

    /// Generates every bar of Fig. 13 for the given benchmarks (defaults to all
    /// seven when `benchmarks` is empty). The `(benchmark × floorplan)` cells
    /// are simulated in parallel (see [`crate::par`]), each cell's factory
    /// counts over one shared memory walk ([`crate::stored_runs`]); output
    /// order matches the serial nesting of the paper's figure.
    pub fn generate(scale: Scale, benchmarks: &[Benchmark], factories: &[u32]) -> Vec<Point> {
        let list: Vec<Benchmark> = if benchmarks.is_empty() {
            Benchmark::ALL.to_vec()
        } else {
            benchmarks.to_vec()
        };
        // Each benchmark compiles on its first store miss.
        let workloads: Vec<WorkloadHandle> = list
            .iter()
            .map(|&benchmark| WorkloadHandle::benchmark(benchmark, scale))
            .collect();
        let floorplans = ArchConfig::paper_floorplans();

        let mut jobs = Vec::new();
        for i in 0..list.len() {
            for &floorplan in &floorplans {
                jobs.push((i, floorplan));
            }
        }
        // Each benchmark's first cell is issued before any benchmark's second,
        // so every compile starts at once instead of queueing behind the
        // paper multiplier's; the cells are reassembled by job index.
        let issue = crate::par::leaders_first(list.len(), floorplans.len());
        let cells = crate::par::par_map_issued(&jobs, &issue, |&(i, floorplan)| {
            crate::stored_runs(&workloads[i], &cell_config(floorplan), factories)
        });

        let mut points = Vec::new();
        for (i, benchmark) in list.iter().enumerate() {
            for (f_idx, &factories) in factories.iter().enumerate() {
                for (fp_idx, floorplan) in floorplans.iter().enumerate() {
                    let stats = &cells[i * floorplans.len() + fp_idx][f_idx];
                    points.push(Point {
                        benchmark: benchmark.name().to_string(),
                        floorplan: floorplan.label(),
                        factories,
                        cpi: stats.cpi(),
                        beats: stats.total_beats.as_u64(),
                        density: stats.memory_density,
                    });
                }
            }
        }
        points
    }

    /// Renders Fig. 13 as a text table.
    pub fn render(scale: Scale, benchmarks: &[Benchmark], factories: &[u32]) -> String {
        let rows: Vec<Vec<String>> = generate(scale, benchmarks, factories)
            .into_iter()
            .map(|p| {
                vec![
                    p.benchmark,
                    format!("{}", p.factories),
                    p.floorplan,
                    fmt2(p.cpi),
                    p.beats.to_string(),
                    fmt2(p.density),
                ]
            })
            .collect();
        render_table(
            &["benchmark", "MSF", "floorplan", "CPI", "beats", "density"],
            &rows,
        )
    }
}

/// Fig. 14: hybrid-floorplan trade-off between density and execution time.
pub mod fig14 {
    use super::*;

    /// One point of a Fig. 14 curve.
    #[derive(Debug, Clone)]
    pub struct Point {
        /// Benchmark name.
        pub benchmark: String,
        /// Floorplan label.
        pub floorplan: String,
        /// Number of magic-state factories.
        pub factories: u32,
        /// Hybrid fraction `f`.
        pub fraction: f64,
        /// Memory density (x-axis).
        pub density: f64,
        /// Execution-time overhead vs the conventional baseline (y-axis).
        pub overhead: f64,
    }

    impl ToJson for Point {
        fn to_json(&self) -> Json {
            Json::obj([
                ("benchmark", self.benchmark.to_json()),
                ("floorplan", self.floorplan.to_json()),
                ("factories", self.factories.to_json()),
                ("fraction", self.fraction.to_json()),
                ("density", self.density.to_json()),
                ("overhead", self.overhead.to_json()),
            ])
        }
    }

    /// The LSQCA floorplans swept in Fig. 14.
    pub fn floorplans() -> Vec<FloorplanKind> {
        vec![
            FloorplanKind::PointSam { banks: 1 },
            FloorplanKind::PointSam { banks: 2 },
            FloorplanKind::LineSam { banks: 1 },
            FloorplanKind::LineSam { banks: 4 },
        ]
    }

    /// Generates the trade-off curves. `fraction_step` is 0.05 in the paper.
    /// The per-benchmark baselines and the `(benchmark × floorplan ×
    /// fraction)` cells run in parallel, each cell's factory counts over one
    /// shared memory walk, each benchmark compiling on its first store miss;
    /// output order matches the serial nesting.
    pub fn generate(
        scale: Scale,
        benchmarks: &[Benchmark],
        factories: &[u32],
        fraction_step: f64,
    ) -> Vec<Point> {
        let list: Vec<Benchmark> = if benchmarks.is_empty() {
            Benchmark::ALL.to_vec()
        } else {
            benchmarks.to_vec()
        };
        let steps = (1.0 / fraction_step).round() as u32;
        let fraction_of = |step: u32| (step as f64 * fraction_step).min(1.0);
        let workloads: Vec<WorkloadHandle> = list
            .iter()
            .map(|&benchmark| WorkloadHandle::benchmark(benchmark, scale))
            .collect();
        let floorplans = floorplans();

        // Baselines per benchmark, one entry per factory count.
        let indices: Vec<usize> = (0..list.len()).collect();
        let baselines = crate::par::par_map(&indices, |&i| {
            crate::stored_runs(
                &workloads[i],
                &cell_config(FloorplanKind::Conventional),
                factories,
            )
        });

        let mut jobs = Vec::new();
        for i in 0..list.len() {
            for &floorplan in &floorplans {
                for step in 0..=steps {
                    jobs.push((i, floorplan, step));
                }
            }
        }
        let cells = crate::par::par_map(&jobs, |&(i, floorplan, step)| {
            let base = cell_config(floorplan).with_hybrid_fraction(fraction_of(step));
            crate::stored_runs(&workloads[i], &base, factories)
        });

        let cell_of = |i: usize, fp_idx: usize, step: u32| {
            &cells[(i * floorplans.len() + fp_idx) * (steps as usize + 1) + step as usize]
        };
        let mut points = Vec::new();
        for (i, benchmark) in list.iter().enumerate() {
            for (f_idx, &factories) in factories.iter().enumerate() {
                for (fp_idx, floorplan) in floorplans.iter().enumerate() {
                    for step in 0..=steps {
                        let stats = &cell_of(i, fp_idx, step)[f_idx];
                        points.push(Point {
                            benchmark: benchmark.name().to_string(),
                            floorplan: floorplan.label(),
                            factories,
                            fraction: fraction_of(step),
                            density: stats.memory_density,
                            overhead: stats.overhead_vs(&baselines[i][f_idx]),
                        });
                    }
                }
            }
        }
        points
    }

    /// Geometric-mean overhead and density across benchmarks for each
    /// `(floorplan, factories, fraction)` configuration (the GEOMEAN panel).
    pub fn geomean(points: &[Point]) -> Vec<Point> {
        use std::collections::BTreeMap;
        let mut groups: BTreeMap<(String, u32, String), Vec<&Point>> = BTreeMap::new();
        for p in points {
            groups
                .entry((
                    p.floorplan.clone(),
                    p.factories,
                    format!("{:.3}", p.fraction),
                ))
                .or_default()
                .push(p);
        }
        groups
            .into_iter()
            .map(|((floorplan, factories, _), ps)| {
                let n = ps.len() as f64;
                let overhead = (ps.iter().map(|p| p.overhead.ln()).sum::<f64>() / n).exp();
                let density = (ps.iter().map(|p| p.density.ln()).sum::<f64>() / n).exp();
                Point {
                    benchmark: "GEOMEAN".to_string(),
                    floorplan,
                    factories,
                    fraction: ps[0].fraction,
                    density,
                    overhead,
                }
            })
            .collect()
    }

    /// Renders Fig. 14 (including the GEOMEAN rows) as a text table.
    pub fn render(
        scale: Scale,
        benchmarks: &[Benchmark],
        factories: &[u32],
        fraction_step: f64,
    ) -> String {
        let mut points = generate(scale, benchmarks, factories, fraction_step);
        let mean = geomean(&points);
        points.extend(mean);
        let rows: Vec<Vec<String>> = points
            .into_iter()
            .map(|p| {
                vec![
                    p.benchmark,
                    format!("{}", p.factories),
                    p.floorplan,
                    fmt2(p.fraction),
                    fmt2(p.density),
                    fmt2(p.overhead),
                ]
            })
            .collect();
        render_table(
            &["benchmark", "MSF", "floorplan", "f", "density", "overhead"],
            &rows,
        )
    }
}

/// Fig. 15: SELECT scaling with hybrid layouts.
pub mod fig15 {
    use super::*;
    use lsqca::experiment::HotSetStrategy;
    use lsqca::workloads::SelectConfig;

    /// One point of Fig. 15.
    #[derive(Debug, Clone)]
    pub struct Point {
        /// Width of the Heisenberg lattice.
        pub instance_width: u32,
        /// Number of data qubits of the SELECT instance.
        pub qubits: u32,
        /// Floorplan label (with "Hybrid" prefix when registers are pinned).
        pub floorplan: String,
        /// Number of magic-state factories.
        pub factories: u32,
        /// Memory density.
        pub density: f64,
        /// Execution-time overhead vs the conventional baseline.
        pub overhead: f64,
    }

    impl ToJson for Point {
        fn to_json(&self) -> Json {
            Json::obj([
                ("instance_width", self.instance_width.to_json()),
                ("qubits", self.qubits.to_json()),
                ("floorplan", self.floorplan.to_json()),
                ("factories", self.factories.to_json()),
                ("density", self.density.to_json()),
                ("overhead", self.overhead.to_json()),
            ])
        }
    }

    /// Lattice widths used by the paper (Fig. 15) and by the quick mode.
    pub fn widths(scale: Scale) -> Vec<u32> {
        match scale {
            Scale::Quick => vec![5, 9],
            Scale::Full => vec![21, 41, 61, 81, 101],
        }
    }

    /// Generates the Fig. 15 points. For hybrid variants the control and
    /// temporal registers are pinned into the conventional region, as in the
    /// paper. The per-width baselines and the `(width × floorplan ×
    /// plain/hybrid)` cells run in parallel, each cell's factory counts over
    /// one shared memory walk, each SELECT instance compiling on its first
    /// store miss; output order matches the serial nesting.
    pub fn generate(scale: Scale, factories: &[u32], max_terms: Option<u64>) -> Vec<Point> {
        let widths = widths(scale);
        let instances: Vec<(u32, f64, WorkloadHandle)> = widths
            .iter()
            .map(|&width| {
                let mut select_cfg = SelectConfig::for_width(width);
                select_cfg.max_terms = max_terms;
                let qubits = select_cfg.total_qubits();
                let hybrid_fraction =
                    (select_cfg.control_bits() + select_cfg.temporal_bits()) as f64 / qubits as f64;
                let workload = WorkloadHandle::new(
                    BenchmarkConfig::Select(select_cfg),
                    CompilerConfig::default(),
                );
                (qubits, hybrid_fraction, workload)
            })
            .collect();

        // Baselines per width, one entry per factory count.
        let indices: Vec<usize> = (0..widths.len()).collect();
        let baselines = crate::par::par_map(&indices, |&i| {
            crate::stored_runs(
                &instances[i].2,
                &cell_config(FloorplanKind::Conventional),
                factories,
            )
        });

        // Plain LSQCA and hybrid (control + temporal registers pinned) cells.
        let floorplans = super::fig14::floorplans();
        let mut jobs = Vec::new();
        for i in 0..widths.len() {
            for &floorplan in &floorplans {
                for hybrid in [false, true] {
                    jobs.push((i, floorplan, hybrid));
                }
            }
        }
        let cells = crate::par::par_map(&jobs, |&(i, floorplan, hybrid)| {
            let (_, hybrid_fraction, ref workload) = instances[i];
            let mut base = cell_config(floorplan);
            if hybrid {
                base = base.with_hybrid_fraction(hybrid_fraction).with_hot_set(
                    HotSetStrategy::ByRole(vec![RegisterRole::Control, RegisterRole::Temporal]),
                );
            }
            crate::stored_runs(workload, &base, factories)
        });

        let mut points = Vec::new();
        for (i, &width) in widths.iter().enumerate() {
            let qubits = instances[i].0;
            for (f_idx, &factories) in factories.iter().enumerate() {
                for (fp_idx, floorplan) in floorplans.iter().enumerate() {
                    let baseline = &baselines[i][f_idx];
                    let cell = (i * floorplans.len() + fp_idx) * 2;
                    let plain = &cells[cell][f_idx];
                    let hybrid = &cells[cell + 1][f_idx];
                    points.push(Point {
                        instance_width: width,
                        qubits,
                        floorplan: floorplan.label(),
                        factories,
                        density: plain.memory_density,
                        overhead: plain.overhead_vs(baseline),
                    });
                    points.push(Point {
                        instance_width: width,
                        qubits,
                        floorplan: format!("Hybrid {}", floorplan.label()),
                        factories,
                        density: hybrid.memory_density,
                        overhead: hybrid.overhead_vs(baseline),
                    });
                }
            }
        }
        points
    }

    /// Renders Fig. 15 as a text table.
    pub fn render(scale: Scale, factories: &[u32], max_terms: Option<u64>) -> String {
        let rows: Vec<Vec<String>> = generate(scale, factories, max_terms)
            .into_iter()
            .map(|p| {
                vec![
                    p.instance_width.to_string(),
                    p.qubits.to_string(),
                    format!("{}", p.factories),
                    p.floorplan,
                    fmt2(p.density),
                    fmt2(p.overhead),
                ]
            })
            .collect();
        render_table(
            &["width", "qubits", "MSF", "floorplan", "density", "overhead"],
            &rows,
        )
    }
}

/// The `hybrid-migrate` sweep: runtime hot-set migration policies versus the
/// paper's static (compile-time) hot set, on hybrid floorplans.
///
/// For each benchmark × floorplan × policy the sweep reports total execution
/// time, the **seek cycles** (`memory_access_beats` — the beats spent moving
/// qubits through the SAM, the quantity migration exists to shrink), and the
/// migration cost the policy paid for it. Every run starts from the same
/// access-count hot set, so the `static` rows are the exact baseline the
/// dynamic policies are measured against (`seek_vs_static` / `vs_static`
/// ratios < 1 mean the policy wins).
pub mod hybrid_migrate {
    use super::*;

    /// The hybrid fraction the sweep pins (a small conventional region, where
    /// adapting its contents matters most).
    pub const FRACTION: f64 = 0.10;

    /// The floorplans compared: one of each bank flavour.
    pub fn floorplans() -> Vec<FloorplanKind> {
        vec![
            FloorplanKind::PointSam { banks: 1 },
            FloorplanKind::DualPointSam { banks: 1 },
            FloorplanKind::LineSam { banks: 1 },
        ]
    }

    /// One policy's measurement on one benchmark × floorplan.
    #[derive(Debug, Clone)]
    pub struct Point {
        /// Benchmark name.
        pub benchmark: String,
        /// Floorplan label.
        pub floorplan: String,
        /// Migration policy name (`static` is the baseline).
        pub policy: String,
        /// Hybrid fraction `f`.
        pub fraction: f64,
        /// Number of magic-state factories.
        pub factories: u32,
        /// Execution time in beats.
        pub beats: u64,
        /// Seek cycles: beats spent on SAM movement (loads, stores, seeks).
        pub seek_beats: u64,
        /// Beats spent on hot-set migration (movement + policy overhead).
        pub migration_beats: u64,
        /// Number of migrations applied.
        pub migrations: u64,
        /// Memory density of the floorplan.
        pub density: f64,
        /// Seek cycles relative to the static baseline (< 1 is a win).
        pub seek_vs_static: f64,
        /// Execution time relative to the static baseline (< 1 is a win).
        pub vs_static: f64,
    }

    impl ToJson for Point {
        fn to_json(&self) -> Json {
            Json::obj([
                ("benchmark", self.benchmark.to_json()),
                ("floorplan", self.floorplan.to_json()),
                ("policy", self.policy.to_json()),
                ("fraction", self.fraction.to_json()),
                ("factories", self.factories.to_json()),
                ("beats", self.beats.to_json()),
                ("seek_beats", self.seek_beats.to_json()),
                ("migration_beats", self.migration_beats.to_json()),
                ("migrations", self.migrations.to_json()),
                ("density", self.density.to_json()),
                ("seek_vs_static", self.seek_vs_static.to_json()),
                ("vs_static", self.vs_static.to_json()),
            ])
        }
    }

    /// Generates the sweep (defaults to SELECT and the multiplier when
    /// `benchmarks` is empty). Workloads compile on their first store miss
    /// like every other sweep. The `(benchmark × floorplan × policy)` cells
    /// run in parallel, each cell's factory counts over one shared memory
    /// walk; the points are then assembled in `(benchmark × factories ×
    /// floorplan × policy)` order, each `vs_static` ratio against the static
    /// policy's run at the same benchmark, factory count and floorplan.
    pub fn generate(scale: Scale, benchmarks: &[Benchmark], factories: &[u32]) -> Vec<Point> {
        let list: Vec<Benchmark> = if benchmarks.is_empty() {
            vec![Benchmark::Select, Benchmark::Multiplier]
        } else {
            benchmarks.to_vec()
        };
        let workloads: Vec<WorkloadHandle> = list
            .iter()
            .map(|&benchmark| WorkloadHandle::benchmark(benchmark, scale))
            .collect();
        let floorplans = floorplans();

        let mut jobs = Vec::new();
        for i in 0..list.len() {
            for &floorplan in &floorplans {
                for policy in PolicyKind::ALL {
                    jobs.push((i, floorplan, policy));
                }
            }
        }
        // Each benchmark's first cell is issued before any benchmark's second,
        // so both compiles start at once; the cells are reassembled by job
        // index.
        let issue = crate::par::leaders_first(list.len(), floorplans.len() * PolicyKind::ALL.len());
        let cells = crate::par::par_map_issued(&jobs, &issue, |&(i, floorplan, policy)| {
            let base = cell_config(floorplan)
                .with_hybrid_fraction(FRACTION)
                .with_migration(policy);
            crate::stored_runs(&workloads[i], &base, factories)
        });

        let static_index = PolicyKind::ALL
            .iter()
            .position(|&policy| policy == PolicyKind::Static)
            .expect("PolicyKind::ALL contains the static baseline");
        let ratio = |a: u64, b: u64| {
            if b == 0 {
                1.0
            } else {
                a as f64 / b as f64
            }
        };
        let mut points = Vec::new();
        for (i, benchmark) in list.iter().enumerate() {
            for (f_idx, &factories) in factories.iter().enumerate() {
                for (fp_idx, floorplan) in floorplans.iter().enumerate() {
                    let cell = (i * floorplans.len() + fp_idx) * PolicyKind::ALL.len();
                    let baseline = &cells[cell + static_index][f_idx];
                    for (p_idx, policy) in PolicyKind::ALL.iter().enumerate() {
                        let stats = &cells[cell + p_idx][f_idx];
                        points.push(Point {
                            benchmark: benchmark.name().to_string(),
                            floorplan: floorplan.label(),
                            policy: policy.name().to_string(),
                            fraction: FRACTION,
                            factories,
                            beats: stats.total_beats.as_u64(),
                            seek_beats: stats.memory_access_beats.as_u64(),
                            migration_beats: stats.migration_beats.as_u64(),
                            migrations: stats.migrations,
                            density: stats.memory_density,
                            seek_vs_static: ratio(
                                stats.memory_access_beats.as_u64(),
                                baseline.memory_access_beats.as_u64(),
                            ),
                            vs_static: ratio(
                                stats.total_beats.as_u64(),
                                baseline.total_beats.as_u64(),
                            ),
                        });
                    }
                }
            }
        }
        points
    }

    /// Renders the sweep as a text table.
    pub fn render(scale: Scale, benchmarks: &[Benchmark], factories: &[u32]) -> String {
        let rows: Vec<Vec<String>> = generate(scale, benchmarks, factories)
            .into_iter()
            .map(|p| {
                vec![
                    p.benchmark,
                    p.floorplan,
                    format!("{}", p.factories),
                    p.policy,
                    p.beats.to_string(),
                    p.seek_beats.to_string(),
                    p.migrations.to_string(),
                    p.migration_beats.to_string(),
                    fmt2(p.seek_vs_static),
                    fmt2(p.vs_static),
                ]
            })
            .collect();
        render_table(
            &[
                "benchmark",
                "floorplan",
                "MSF",
                "policy",
                "beats",
                "seek beats",
                "migrations",
                "mig beats",
                "seek/static",
                "time/static",
            ],
            &rows,
        )
    }
}

/// Ablation study of the two LSQCA-specific optimizations: the locality-aware
/// store (Sec. V-B) and in-memory operations (Sec. V-C).
pub mod ablation {
    use super::*;
    use lsqca::experiment::ExperimentConfig;

    /// One ablation configuration and its measured cost.
    #[derive(Debug, Clone)]
    pub struct Point {
        /// Benchmark name.
        pub benchmark: String,
        /// Floorplan label.
        pub floorplan: String,
        /// Whether the locality-aware store was enabled.
        pub locality_aware_store: bool,
        /// Whether in-memory instructions were emitted by the compiler.
        pub in_memory_ops: bool,
        /// Execution time in beats.
        pub beats: u64,
        /// Execution-time overhead vs the conventional baseline.
        pub overhead: f64,
    }

    impl ToJson for Point {
        fn to_json(&self) -> Json {
            Json::obj([
                ("benchmark", self.benchmark.to_json()),
                ("floorplan", self.floorplan.to_json()),
                ("locality_aware_store", self.locality_aware_store.to_json()),
                ("in_memory_ops", self.in_memory_ops.to_json()),
                ("beats", self.beats.to_json()),
                ("overhead", self.overhead.to_json()),
            ])
        }
    }

    /// Runs the 2×2 ablation (store policy × in-memory ops) for each benchmark
    /// on the given floorplan with one magic-state factory.
    ///
    /// Each arm (benchmark × in-memory ops) runs its three points as parallel
    /// jobs ([`crate::par::par_map_issued`]): the conventional baseline, the
    /// locality-aware store and the home store, the slowest, issued first.
    /// The arm's workload compiles in the first job that misses the result
    /// store; a warm store compiles nothing. The arms run one after another,
    /// so only one arm's workload is resident at a time: running both arms
    /// of each benchmark as one six-job list measured 33–35 MB peak RSS
    /// against 22 MB for one arm at a time (9-byte trace records, 2 threads,
    /// fresh store, 5 alternating runs each), for a best wall time of
    /// 0.36 s against 0.40 s. That peak would exceed fig8's 28.5 MB, the
    /// largest of the paper-scale commands.
    pub fn generate(
        scale: Scale,
        benchmarks: &[Benchmark],
        floorplan: FloorplanKind,
    ) -> Vec<Point> {
        let list: Vec<Benchmark> = if benchmarks.is_empty() {
            vec![
                Benchmark::Multiplier,
                Benchmark::Select,
                Benchmark::SquareRoot,
            ]
        } else {
            benchmarks.to_vec()
        };
        let locality_aware = ExperimentConfig::new(floorplan, 1);
        let configs = [
            ExperimentConfig::baseline(1),
            locality_aware.clone(),
            locality_aware.with_home_store(),
        ];
        let mut points = Vec::new();
        for benchmark in list {
            let cfg = benchmark.config(scale.instance_size());
            for in_memory_ops in [true, false] {
                let compiler = CompilerConfig {
                    use_in_memory_ops: in_memory_ops,
                    ..CompilerConfig::default()
                };
                // The compiler configuration is part of the workload key, so
                // the two ablation arms get distinct workloads and records.
                let workload = WorkloadHandle::new(cfg.clone(), compiler);
                // While one thread runs the home store, another runs the
                // other two points.
                let stats = crate::par::par_map_issued(&configs, &[2, 1, 0], |config| {
                    crate::stored_run(&workload, config)
                });
                let baseline = &stats[0];
                for (locality, stats) in [true, false].into_iter().zip(&stats[1..]) {
                    points.push(Point {
                        benchmark: benchmark.name().to_string(),
                        floorplan: floorplan.label(),
                        locality_aware_store: locality,
                        in_memory_ops,
                        beats: stats.total_beats.as_u64(),
                        overhead: stats.overhead_vs(baseline),
                    });
                }
            }
        }
        points
    }

    /// Renders the ablation as a text table.
    pub fn render(scale: Scale, benchmarks: &[Benchmark], floorplan: FloorplanKind) -> String {
        let rows: Vec<Vec<String>> = generate(scale, benchmarks, floorplan)
            .into_iter()
            .map(|p| {
                vec![
                    p.benchmark,
                    p.floorplan,
                    if p.in_memory_ops { "yes" } else { "no" }.to_string(),
                    if p.locality_aware_store { "yes" } else { "no" }.to_string(),
                    p.beats.to_string(),
                    fmt2(p.overhead),
                ]
            })
            .collect();
        render_table(
            &[
                "benchmark",
                "floorplan",
                "in-memory ops",
                "locality store",
                "beats",
                "overhead",
            ],
            &rows,
        )
    }
}

/// The headline claims of the abstract and Sec. VI.
pub mod headline {
    use super::*;
    use lsqca::experiment::{ExperimentConfig, HotSetStrategy};
    use lsqca::workloads::{MultiplierConfig, SelectConfig};

    /// One headline claim: what the paper reports vs what this reproduction
    /// measures.
    #[derive(Debug, Clone)]
    pub struct Claim {
        /// Description of the claim.
        pub description: String,
        /// The paper's density (fraction).
        pub paper_density: f64,
        /// The paper's execution-time overhead (ratio to baseline).
        pub paper_overhead: f64,
        /// Measured density.
        pub measured_density: f64,
        /// Measured overhead.
        pub measured_overhead: f64,
    }

    impl ToJson for Claim {
        fn to_json(&self) -> Json {
            Json::obj([
                ("description", self.description.to_json()),
                ("paper_density", self.paper_density.to_json()),
                ("paper_overhead", self.paper_overhead.to_json()),
                ("measured_density", self.measured_density.to_json()),
                ("measured_overhead", self.measured_overhead.to_json()),
            ])
        }
    }

    /// Evaluates the headline claims. `Quick` uses reduced instances, so only
    /// the qualitative shape (density ≫ 50%, overhead small) is meaningful
    /// there; `Full` matches the paper's instance sizes.
    ///
    /// The four points run as one parallel job list ([`crate::par::par_map`]):
    /// the multiplier on Line SAM and SELECT on hybrid Point SAM first, so
    /// both workloads start compiling at once, then their two conventional
    /// baselines. The ratios are assembled after the map.
    pub fn generate(scale: Scale) -> Vec<Claim> {
        // Claim 1: multiplier, line SAM, 1 bank, 1 MSF — ≈87% density, ≈6% overhead.
        let mult_cfg = match scale {
            Scale::Quick => MultiplierConfig {
                operand_bits: 20,
                partial_products: None,
            },
            Scale::Full => MultiplierConfig::paper(),
        };
        let multiplier = WorkloadHandle::new(
            BenchmarkConfig::Multiplier(mult_cfg),
            CompilerConfig::default(),
        );
        let multiplier_config = ExperimentConfig::new(FloorplanKind::LineSam { banks: 1 }, 1);

        // Claim 2: SELECT width 21, hybrid point SAM, 1 MSF — ≈92% density, ≈7% overhead.
        let (width, max_terms) = match scale {
            Scale::Quick => (6u32, Some(60u64)),
            Scale::Full => (21u32, None),
        };
        let mut select_cfg = SelectConfig::for_width(width);
        select_cfg.max_terms = max_terms;
        let fraction = (select_cfg.control_bits() + select_cfg.temporal_bits()) as f64
            / select_cfg.total_qubits() as f64;
        let select = WorkloadHandle::new(
            BenchmarkConfig::Select(select_cfg),
            CompilerConfig::default(),
        );
        let select_config = ExperimentConfig::new(FloorplanKind::PointSam { banks: 1 }, 1)
            .with_hybrid_fraction(fraction)
            .with_hot_set(HotSetStrategy::ByRole(vec![
                RegisterRole::Control,
                RegisterRole::Temporal,
            ]));

        let conventional = |config: &ExperimentConfig| ExperimentConfig {
            floorplan: FloorplanKind::Conventional,
            ..config.clone()
        };
        let jobs = [
            (&multiplier, multiplier_config.clone()),
            (&select, select_config.clone()),
            (&multiplier, conventional(&multiplier_config)),
            (&select, conventional(&select_config)),
        ];
        let stats = crate::par::par_map(&jobs, |(workload, config)| {
            crate::stored_run(workload, config)
        });
        let [multiplier_lsqca, select_lsqca, multiplier_baseline, select_baseline] =
            <[ExecutionStats; 4]>::try_from(stats).expect("one result per job");

        vec![
            Claim {
                description: "multiplier, Line SAM (1 bank), 1 MSF".to_string(),
                paper_density: 0.87,
                paper_overhead: 1.06,
                measured_density: multiplier_lsqca.memory_density,
                measured_overhead: multiplier_lsqca.overhead_vs(&multiplier_baseline),
            },
            Claim {
                description: format!("SELECT width {width}, Hybrid Point SAM, 1 MSF"),
                paper_density: 0.92,
                paper_overhead: 1.07,
                measured_density: select_lsqca.memory_density,
                measured_overhead: select_lsqca.overhead_vs(&select_baseline),
            },
        ]
    }

    /// Renders the claims as a text table.
    pub fn render(scale: Scale) -> String {
        let rows: Vec<Vec<String>> = generate(scale)
            .into_iter()
            .map(|c| {
                vec![
                    c.description,
                    fmt2(c.paper_density),
                    fmt2(c.measured_density),
                    fmt2(c.paper_overhead),
                    fmt2(c.measured_overhead),
                ]
            })
            .collect();
        render_table(
            &[
                "claim",
                "paper density",
                "measured density",
                "paper overhead",
                "measured overhead",
            ],
            &rows,
        )
    }
}

/// The deterministic generators `experiments all` renders, in report order.
/// `hotpath` is left out: its timings differ run to run.
pub const REPORT_COMMANDS: [&str; 8] = [
    "table1",
    "fig8",
    "fig13",
    "fig14",
    "fig15",
    "headline",
    "ablation",
    "hybrid-migrate",
];

/// Renders one `experiments` command's report at `scale`, as JSON or as text
/// tables: exactly the bytes the binary prints on stdout, less the final
/// newline. `all` renders every [`REPORT_COMMANDS`] report in order, each
/// under a `==== name ====` header line.
///
/// # Panics
///
/// Panics on a command other than `all`, `hotpath`, and the
/// [`REPORT_COMMANDS`].
pub fn report(command: &str, scale: Scale, json: bool) -> String {
    let full = scale == Scale::Full;
    let factories: Vec<u32> = if full {
        FACTORY_COUNTS.to_vec()
    } else {
        vec![1, 4]
    };
    let fraction_step = if full { 0.05 } else { 0.25 };
    let fig15_terms = if full { None } else { Some(200) };
    match command {
        "table1" => {
            if json {
                table1::rows().to_json().pretty()
            } else {
                table1::render()
            }
        }
        "fig8" => {
            if json {
                fig08::generate(scale).to_json().pretty()
            } else {
                fig08::render(scale)
            }
        }
        "fig13" => {
            if json {
                fig13::generate(scale, &[], &factories).to_json().pretty()
            } else {
                fig13::render(scale, &[], &factories)
            }
        }
        "fig14" => {
            if json {
                fig14::generate(scale, &[], &factories, fraction_step)
                    .to_json()
                    .pretty()
            } else {
                fig14::render(scale, &[], &factories, fraction_step)
            }
        }
        "fig15" => {
            if json {
                fig15::generate(scale, &factories, fig15_terms)
                    .to_json()
                    .pretty()
            } else {
                fig15::render(scale, &factories, fig15_terms)
            }
        }
        "headline" => {
            if json {
                headline::generate(scale).to_json().pretty()
            } else {
                headline::render(scale)
            }
        }
        "ablation" => {
            let floorplan = FloorplanKind::PointSam { banks: 1 };
            if json {
                ablation::generate(scale, &[], floorplan).to_json().pretty()
            } else {
                ablation::render(scale, &[], floorplan)
            }
        }
        "hybrid-migrate" => {
            if json {
                hybrid_migrate::generate(scale, &[], &factories)
                    .to_json()
                    .pretty()
            } else {
                hybrid_migrate::render(scale, &[], &factories)
            }
        }
        "hotpath" => {
            if json {
                hotpath::generate(scale).to_json().pretty()
            } else {
                hotpath::render(scale)
            }
        }
        "all" => REPORT_COMMANDS
            .iter()
            .map(|name| format!("==== {name} ====\n{}", report(name, scale, json)))
            .collect::<Vec<_>>()
            .join("\n"),
        other => panic!("unknown experiments command `{other}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_every_instruction() {
        let rows = table1::rows();
        assert_eq!(rows.len(), 21);
        let text = table1::render();
        assert!(text.contains("LD"));
        assert!(text.contains("variable"));
    }

    #[test]
    fn fig08_quick_generates_both_benchmarks() {
        let data = fig08::generate(Scale::Quick);
        assert_eq!(data.len(), 2);
        for d in &data {
            assert!(d.report.total_references > 0);
            assert!(!d.cdf_points.is_empty());
        }
        assert!(fig08::render(Scale::Quick).contains("SELECT"));
    }

    #[test]
    fn fig13_quick_covers_every_floorplan() {
        let points = fig13::generate(Scale::Quick, &[Benchmark::Ghz, Benchmark::SquareRoot], &[1]);
        assert_eq!(points.len(), 2 * 6);
        // The conventional baseline always has 50% density.
        for p in points.iter().filter(|p| p.floorplan == "Conventional") {
            assert!((p.density - 0.5).abs() < 1e-9);
        }
        // Single-bank LSQCA floorplans beat the 50% ceiling even on the small
        // quick-scale instances; multi-bank variants pay extra CR overhead that
        // only amortizes at the paper's register-file sizes.
        for p in points.iter().filter(|p| p.floorplan.ends_with("#SAM=1")) {
            assert!(p.density > 0.5, "{} density {}", p.floorplan, p.density);
        }
        for p in points.iter().filter(|p| p.floorplan != "Conventional") {
            assert!(p.density > 0.3, "{} density {}", p.floorplan, p.density);
        }
    }

    #[test]
    fn fig14_quick_trade_off_is_monotone_at_the_endpoints() {
        let points = fig14::generate(Scale::Quick, &[Benchmark::SquareRoot], &[1], 0.5);
        // f = 1.0 must match the baseline: density 0.5 and overhead ~1.
        for p in points.iter().filter(|p| (p.fraction - 1.0).abs() < 1e-9) {
            assert!(
                (p.density - 0.5).abs() < 0.02,
                "density {} at f=1",
                p.density
            );
            assert!(
                (p.overhead - 1.0).abs() < 0.05,
                "overhead {} at f=1",
                p.overhead
            );
        }
        // f = 0 has the highest density of the curve for single-bank SAMs (the
        // multi-bank variants only amortize their CR overhead at paper-sized
        // register files, so the quick-scale instances are excluded here).
        for floorplan in fig14::floorplans() {
            if !floorplan.label().ends_with("#SAM=1") {
                continue;
            }
            let curve: Vec<_> = points
                .iter()
                .filter(|p| p.floorplan == floorplan.label())
                .collect();
            let at_zero = curve.iter().find(|p| p.fraction == 0.0).unwrap();
            for p in &curve {
                assert!(at_zero.density >= p.density - 1e-9);
            }
        }
        let mean = fig14::geomean(&points);
        assert!(!mean.is_empty());
    }

    #[test]
    fn fig15_quick_produces_plain_and_hybrid_points() {
        let points = fig15::generate(Scale::Quick, &[1], Some(30));
        assert!(points.iter().any(|p| p.floorplan.starts_with("Hybrid")));
        assert!(points.iter().all(|p| p.density > 0.0 && p.overhead > 0.0));
        let text = fig15::render(Scale::Quick, &[1], Some(30));
        assert!(text.contains("Hybrid"));
    }

    #[test]
    fn hybrid_migrate_freq_decay_beats_the_static_hot_set_on_select() {
        // The subsystem's acceptance criterion: on the SELECT-Heisenberg
        // workload, FreqDecay migration reports fewer total seek cycles than
        // the static hot-set baseline, on every floorplan of the sweep.
        let points = hybrid_migrate::generate(Scale::Quick, &[Benchmark::Select], &[1]);
        assert_eq!(points.len(), 3 * 3);
        for floorplan in hybrid_migrate::floorplans() {
            let of = |policy: &str| {
                points
                    .iter()
                    .find(|p| p.floorplan == floorplan.label() && p.policy == policy)
                    .unwrap()
            };
            let pinned = of("static");
            let freq = of("freq-decay");
            assert_eq!(pinned.migrations, 0);
            assert!(freq.migrations > 0);
            assert!(
                freq.seek_beats < pinned.seek_beats,
                "{}: freq-decay seeks {} must beat static {}",
                floorplan.label(),
                freq.seek_beats,
                pinned.seek_beats
            );
            assert!(freq.seek_vs_static < 1.0);
            assert!((pinned.seek_vs_static - 1.0).abs() < 1e-12);
            // LRU zeroes seeks (it promotes before every cold access) but
            // pays for it in migrations — the comparison the sweep exists
            // to expose.
            let lru = of("lru");
            assert!(lru.migrations > freq.migrations);
            assert!(lru.seek_beats <= freq.seek_beats);
            assert!(lru.migration_beats > freq.migration_beats);
        }
        let text = hybrid_migrate::render(Scale::Quick, &[Benchmark::Select], &[1]);
        assert!(text.contains("freq-decay"));
        assert!(text.contains("seek/static"));
    }

    #[test]
    fn ablation_quick_shows_both_optimizations_helping() {
        let floorplan = FloorplanKind::PointSam { banks: 1 };
        let points = ablation::generate(Scale::Quick, &[Benchmark::Multiplier], floorplan);
        assert_eq!(points.len(), 4);
        let beats = |in_mem: bool, locality: bool| {
            points
                .iter()
                .find(|p| p.in_memory_ops == in_mem && p.locality_aware_store == locality)
                .unwrap()
                .beats
        };
        // The fully optimized configuration is the fastest of the four.
        let best = beats(true, true);
        assert!(best <= beats(false, true));
        assert!(best <= beats(true, false));
        assert!(best <= beats(false, false));
        assert!(
            ablation::render(Scale::Quick, &[Benchmark::SquareRoot], floorplan)
                .contains("locality store")
        );
    }

    #[test]
    fn headline_quick_shows_the_right_shape() {
        let claims = headline::generate(Scale::Quick);
        assert_eq!(claims.len(), 2);
        for c in &claims {
            // Density far above the 50% baseline and overhead not catastrophic.
            assert!(
                c.measured_density > 0.6,
                "{}: {}",
                c.description,
                c.measured_density
            );
            assert!(c.measured_overhead >= 1.0);
        }
    }
}
