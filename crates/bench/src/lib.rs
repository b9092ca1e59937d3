//! Shared harness code for regenerating every table and figure of the paper.
//!
//! The `experiments` binary renders its reports through [`report`]. Each
//! generator module produces the data series of one table, figure or study
//! and can render it as a text table whose rows mirror what the paper plots:
//!
//! * [`table1`] — the ISA reference table (Table I).
//! * [`fig08`] — memory reference locality of SELECT and the multiplier.
//! * [`fig13`] — CPI of every benchmark under every floorplan and factory count.
//! * [`fig14`] — hybrid-floorplan trade-off curves (density vs overhead).
//! * [`fig15`] — SELECT scaling with hybrid layouts.
//! * [`headline`] — the headline claims quoted in the abstract/intro.
//! * [`ablation`] — the locality-aware store and in-memory operations, each
//!   switched off.
//! * [`hybrid_migrate`] — runtime hot-set migration against the static hot
//!   set.
//!
//! Every generator but `table1` and `fig08` lists the points it needs as a
//! [`Plan`], runs it through the one executor ([`Plan::run`]) and assembles
//! its report from the [`Results`].
//!
//! Every generator but `table1` takes a [`Scale`]: `Quick` uses reduced
//! workload instances (seconds), `Full` uses the paper-sized instances
//! (minutes).

#![forbid(unsafe_code)]

use lsqca::experiment::Workload;
use lsqca::prelude::*;
use lsqca::workloads::{Benchmark, BenchmarkConfig, InstanceSize};
use lsqca_json::{Json, ToJson};
use lsqca_store::{Lookup, ResultStore, StoreEvent};
use std::collections::{HashMap, HashSet};
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
    /// `Full` when the `--full` flag is set, `Quick` otherwise.
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
///
/// This crate's own unit tests get a disabled store instead, so each of
/// their generator runs simulates every point it reports.
pub fn result_store() -> &'static ResultStore {
    static STORE: OnceLock<ResultStore> = OnceLock::new();
    STORE.get_or_init(|| {
        if cfg!(test) {
            ResultStore::disabled()
        } else {
            ResultStore::from_env()
        }
    })
}

/// [`stored_runs_in`] for one factory count: the statistics of `workload`
/// under `config`. The fault-injection and kill-resume tests drive this with
/// a [`lsqca_store::FaultyIo`] backend.
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
/// through `store`, returning the statistics in the same order: a verified
/// stored record skips the simulation entirely, a computed result is
/// published durably before being returned. Every figure field derives from
/// these statistics. Each point is keyed and probed on its own; the points
/// that miss are computed together, with one memory walk shared by their
/// factory counts ([`Workload::run_factories`]), and each is published as
/// its own record. Only a miss this process computes compiles the workload.
pub fn stored_runs_in(
    store: &ResultStore,
    workload: &WorkloadHandle,
    base: &ExperimentConfig,
    factories: &[u32],
) -> Vec<ExecutionStats> {
    let configs: Vec<ExperimentConfig> = factories
        .iter()
        .map(|&factories| point_config(base, factories))
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

/// `base` at `factories` magic-state factories: the configuration of one
/// point of a factory-sweep cell.
fn point_config(base: &ExperimentConfig, factories: u32) -> ExperimentConfig {
    ExperimentConfig {
        factories,
        ..base.clone()
    }
}

/// The base configuration of a factory-sweep cell on `floorplan`. Its own
/// factory count is a placeholder: a [`Plan`] runs the cell at each of its
/// factory counts instead.
fn cell_config(floorplan: FloorplanKind) -> ExperimentConfig {
    ExperimentConfig::new(floorplan, 1)
}

/// What a store-backed generator simulates: a list of cells, each a
/// workload under a base configuration, and one factory list that every
/// cell runs at (each count replaces the base's own).
///
/// A generator lists its cells, runs the plan through the one executor,
/// [`Plan::run`], and assembles its report from the [`Results`], reading
/// each point back by workload and configuration.
pub struct Plan<'a> {
    factories: Vec<u32>,
    cells: Vec<(&'a WorkloadHandle, ExperimentConfig)>,
}

impl<'a> Plan<'a> {
    /// An empty plan whose cells run at each of `factories`.
    pub fn new(factories: &[u32]) -> Self {
        Plan {
            factories: factories.to_vec(),
            cells: Vec::new(),
        }
    }

    /// Adds the cell running `workload` under `base`.
    pub fn cell(&mut self, workload: &'a WorkloadHandle, base: ExperimentConfig) {
        self.cells.push((workload, base));
    }

    /// The result keys of `cell`'s points, one per factory count.
    fn point_keys(&self, cell: usize) -> Vec<String> {
        let (workload, base) = &self.cells[cell];
        self.factories
            .iter()
            .map(|&factories| workload.result_key(&point_config(base, factories)))
            .collect()
    }

    /// The plan indices of the distinct cells, in the order
    /// [`Plan::run_in`] starts them.
    fn issue_order(&self) -> Vec<usize> {
        let mut listed = HashSet::new();
        let mut led = HashSet::new();
        let (mut order, rest): (Vec<usize>, Vec<usize>) = (0..self.cells.len())
            .filter(|&cell| listed.insert(self.point_keys(cell)))
            .partition(|&cell| led.insert(self.cells[cell].0.key.as_str()));
        order.extend(rest);
        order
    }

    /// Runs every cell through the process-wide [`result_store`].
    pub fn run(&self) -> Results {
        self.run_in(result_store())
    }

    /// The executor: runs each distinct cell once (a cell whose points an
    /// earlier cell has is left out), through [`stored_runs_in`] against
    /// `store`, on [`par::par_map`]'s threads, and keys every point's
    /// statistics by its result key. The cells start leaders first: the
    /// first cell of every workload in plan order, then every other cell in
    /// plan order. A workload compiles on its first store miss, so every
    /// compile starts before any workload's second cell, and no thread idles
    /// behind one long compile while other compiles wait in the queue.
    pub fn run_in(&self, store: &ResultStore) -> Results {
        let order = self.issue_order();
        let cells = par::par_map(&order, |&cell| {
            let (workload, base) = &self.cells[cell];
            stored_runs_in(store, workload, base, &self.factories)
        });
        Results(
            order
                .iter()
                .zip(cells)
                .flat_map(|(&cell, stats)| self.point_keys(cell).into_iter().zip(stats))
                .collect(),
        )
    }
}

/// The statistics of every point of a [`Plan`], by result key.
pub struct Results(HashMap<String, ExecutionStats>);

impl Results {
    /// The statistics of `workload` under `base` at `factories`.
    ///
    /// # Panics
    ///
    /// Panics if the plan had no such point.
    pub fn stats(
        &self,
        workload: &WorkloadHandle,
        base: &ExperimentConfig,
        factories: u32,
    ) -> &ExecutionStats {
        &self.0[&workload.result_key(&point_config(base, factories))]
    }
}

/// `benchmarks`, or `default` when `benchmarks` is empty.
fn or_default<'a>(benchmarks: &'a [Benchmark], default: &'a [Benchmark]) -> &'a [Benchmark] {
    if benchmarks.is_empty() {
        default
    } else {
        benchmarks
    }
}

/// A handle on each benchmark of [`or_default`]`(benchmarks, default)` at
/// `scale`.
fn benchmark_workloads(
    benchmarks: &[Benchmark],
    default: &[Benchmark],
    scale: Scale,
) -> Vec<(Benchmark, WorkloadHandle)> {
    let list = or_default(benchmarks, default);
    list.iter()
        .map(|&benchmark| (benchmark, WorkloadHandle::benchmark(benchmark, scale)))
        .collect()
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
    use lsqca::isa::latency::latency;

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
        example_instructions()
            .into_iter()
            .map(|instr| Row {
                kind: instr.kind().to_string(),
                syntax: instr.to_string(),
                latency: latency(&instr).to_string(),
            })
            .collect()
    }

    /// Renders Table I's rows as text.
    pub fn render(rows: &[Row]) -> String {
        let rows: Vec<Vec<String>> = rows
            .iter()
            .map(|r| vec![r.kind.clone(), r.syntax.clone(), r.latency.clone()])
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
    pub fn render(data: &[BenchmarkLocality]) -> String {
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
        for d in data {
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
    /// seven when `benchmarks` is empty): one [`Plan`] cell per `(benchmark ×
    /// floorplan)`, run at every factory count; output order matches the
    /// serial nesting of the paper's figure.
    pub fn generate(scale: Scale, benchmarks: &[Benchmark], factories: &[u32]) -> Vec<Point> {
        let workloads = benchmark_workloads(benchmarks, &Benchmark::ALL, scale);
        let floorplans = ArchConfig::paper_floorplans();
        let mut plan = Plan::new(factories);
        for (_, workload) in &workloads {
            for &floorplan in &floorplans {
                plan.cell(workload, cell_config(floorplan));
            }
        }
        let results = plan.run();

        let mut points = Vec::new();
        for (benchmark, workload) in &workloads {
            for &factories in factories {
                for &floorplan in &floorplans {
                    let stats = results.stats(workload, &cell_config(floorplan), factories);
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

    /// Renders Fig. 13's bars as a text table.
    pub fn render(points: &[Point]) -> String {
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| {
                vec![
                    p.benchmark.clone(),
                    format!("{}", p.factories),
                    p.floorplan.clone(),
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
    /// Each benchmark's [`Plan`] cells are its conventional baseline and its
    /// `(floorplan × fraction)` points, run at every factory count; output
    /// order matches the serial nesting.
    pub fn generate(
        scale: Scale,
        benchmarks: &[Benchmark],
        factories: &[u32],
        fraction_step: f64,
    ) -> Vec<Point> {
        let workloads = benchmark_workloads(benchmarks, &Benchmark::ALL, scale);
        let fractions: Vec<f64> = (0..=(1.0 / fraction_step).round() as u32)
            .map(|step| (step as f64 * fraction_step).min(1.0))
            .collect();
        let floorplans = floorplans();
        let baseline = cell_config(FloorplanKind::Conventional);
        let cell = |floorplan, fraction| cell_config(floorplan).with_hybrid_fraction(fraction);
        let mut plan = Plan::new(factories);
        for (_, workload) in &workloads {
            plan.cell(workload, baseline.clone());
            for &floorplan in &floorplans {
                for &fraction in &fractions {
                    plan.cell(workload, cell(floorplan, fraction));
                }
            }
        }
        let results = plan.run();

        let mut points = Vec::new();
        for (benchmark, workload) in &workloads {
            for &factories in factories {
                let baseline = results.stats(workload, &baseline, factories);
                for &floorplan in &floorplans {
                    for &fraction in &fractions {
                        let stats = results.stats(workload, &cell(floorplan, fraction), factories);
                        points.push(Point {
                            benchmark: benchmark.name().to_string(),
                            floorplan: floorplan.label(),
                            factories,
                            fraction,
                            density: stats.memory_density,
                            overhead: stats.overhead_vs(baseline),
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

    /// Renders Fig. 14's points, followed by their GEOMEAN rows, as a text
    /// table.
    pub fn render(points: &[Point]) -> String {
        let mean = geomean(points);
        let rows: Vec<Vec<String>> = points
            .iter()
            .chain(&mean)
            .map(|p| {
                vec![
                    p.benchmark.clone(),
                    format!("{}", p.factories),
                    p.floorplan.clone(),
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
    /// paper. Each width's [`Plan`] cells are its conventional baseline and
    /// its `(floorplan × plain/hybrid)` points, run at every factory count;
    /// output order matches the serial nesting.
    pub fn generate(scale: Scale, factories: &[u32], max_terms: Option<u64>) -> Vec<Point> {
        let instances: Vec<(u32, u32, f64, WorkloadHandle)> = widths(scale)
            .into_iter()
            .map(|width| {
                let mut select_cfg = SelectConfig::for_width(width);
                select_cfg.max_terms = max_terms;
                let qubits = select_cfg.total_qubits();
                let hybrid_fraction =
                    (select_cfg.control_bits() + select_cfg.temporal_bits()) as f64 / qubits as f64;
                let workload = WorkloadHandle::new(
                    BenchmarkConfig::Select(select_cfg),
                    CompilerConfig::default(),
                );
                (width, qubits, hybrid_fraction, workload)
            })
            .collect();
        let floorplans = super::fig14::floorplans();
        let baseline = cell_config(FloorplanKind::Conventional);
        let hybrid = |floorplan, fraction| {
            cell_config(floorplan)
                .with_hybrid_fraction(fraction)
                .with_hot_set(HotSetStrategy::ByRole(vec![
                    RegisterRole::Control,
                    RegisterRole::Temporal,
                ]))
        };
        let mut plan = Plan::new(factories);
        for (_, _, fraction, workload) in &instances {
            plan.cell(workload, baseline.clone());
            for &floorplan in &floorplans {
                plan.cell(workload, cell_config(floorplan));
                plan.cell(workload, hybrid(floorplan, *fraction));
            }
        }
        let results = plan.run();

        let mut points = Vec::new();
        for (width, qubits, fraction, workload) in &instances {
            for &factories in factories {
                let baseline = results.stats(workload, &baseline, factories);
                for &floorplan in &floorplans {
                    let plain = results.stats(workload, &cell_config(floorplan), factories);
                    let hybrid = results.stats(workload, &hybrid(floorplan, *fraction), factories);
                    for (label, stats) in [
                        (floorplan.label(), plain),
                        (format!("Hybrid {}", floorplan.label()), hybrid),
                    ] {
                        points.push(Point {
                            instance_width: *width,
                            qubits: *qubits,
                            floorplan: label,
                            factories,
                            density: stats.memory_density,
                            overhead: stats.overhead_vs(baseline),
                        });
                    }
                }
            }
        }
        points
    }

    /// Renders Fig. 15's points as a text table.
    pub fn render(points: &[Point]) -> String {
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| {
                vec![
                    p.instance_width.to_string(),
                    p.qubits.to_string(),
                    format!("{}", p.factories),
                    p.floorplan.clone(),
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
    /// `benchmarks` is empty): one [`Plan`] cell per `(benchmark × floorplan
    /// × policy)`, run at every factory count. The points are assembled in
    /// `(benchmark × factories × floorplan × policy)` order, each
    /// `vs_static` ratio against the static policy's run at the same
    /// benchmark, factory count and floorplan.
    pub fn generate(scale: Scale, benchmarks: &[Benchmark], factories: &[u32]) -> Vec<Point> {
        let default = [Benchmark::Select, Benchmark::Multiplier];
        let workloads = benchmark_workloads(benchmarks, &default, scale);
        let floorplans = floorplans();
        let cell = |floorplan, policy| {
            cell_config(floorplan)
                .with_hybrid_fraction(FRACTION)
                .with_migration(policy)
        };
        let mut plan = Plan::new(factories);
        for (_, workload) in &workloads {
            for &floorplan in &floorplans {
                for policy in PolicyKind::ALL {
                    plan.cell(workload, cell(floorplan, policy));
                }
            }
        }
        let results = plan.run();

        let ratio = |a: u64, b: u64| {
            if b == 0 {
                1.0
            } else {
                a as f64 / b as f64
            }
        };
        let mut points = Vec::new();
        for (benchmark, workload) in &workloads {
            for &factories in factories {
                for &floorplan in &floorplans {
                    let baseline =
                        results.stats(workload, &cell(floorplan, PolicyKind::Static), factories);
                    for policy in PolicyKind::ALL {
                        let stats = results.stats(workload, &cell(floorplan, policy), factories);
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

    /// Renders the sweep's points as a text table.
    pub fn render(points: &[Point]) -> String {
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| {
                vec![
                    p.benchmark.clone(),
                    p.floorplan.clone(),
                    format!("{}", p.factories),
                    p.policy.clone(),
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
    /// Each arm (benchmark × in-memory ops) is one workload with three cells
    /// at the factory list `[1]`: the home store (the slowest) first, then
    /// the locality-aware store and the conventional baseline. Every arm is
    /// in one [`Plan`], so the executor starts every arm's home-store cell,
    /// and with it every compile, before any arm's second cell.
    pub fn generate(
        scale: Scale,
        benchmarks: &[Benchmark],
        floorplan: FloorplanKind,
    ) -> Vec<Point> {
        let default = [
            Benchmark::Multiplier,
            Benchmark::Select,
            Benchmark::SquareRoot,
        ];
        let locality_aware = ExperimentConfig::new(floorplan, 1);
        let home = locality_aware.clone().with_home_store();
        let baseline = ExperimentConfig::baseline(1);
        let arms: Vec<(Benchmark, bool, WorkloadHandle)> = or_default(benchmarks, &default)
            .iter()
            .flat_map(|&benchmark| {
                let cfg = benchmark.config(scale.instance_size());
                [true, false].map(|in_memory_ops| {
                    let compiler = CompilerConfig {
                        use_in_memory_ops: in_memory_ops,
                    };
                    // The compiler configuration is part of the workload
                    // key, so the two arms get distinct workloads and records.
                    let workload = WorkloadHandle::new(cfg.clone(), compiler);
                    (benchmark, in_memory_ops, workload)
                })
            })
            .collect();
        let mut plan = Plan::new(&[1]);
        for (_, _, workload) in &arms {
            for config in [&home, &locality_aware, &baseline] {
                plan.cell(workload, config.clone());
            }
        }
        let results = plan.run();
        let mut points = Vec::new();
        for (benchmark, in_memory_ops, workload) in &arms {
            let baseline = results.stats(workload, &baseline, 1);
            for (locality, config) in [(true, &locality_aware), (false, &home)] {
                let stats = results.stats(workload, config, 1);
                points.push(Point {
                    benchmark: benchmark.name().to_string(),
                    floorplan: floorplan.label(),
                    locality_aware_store: locality,
                    in_memory_ops: *in_memory_ops,
                    beats: stats.total_beats.as_u64(),
                    overhead: stats.overhead_vs(baseline),
                });
            }
        }
        points
    }

    /// Renders the ablation's points as a text table.
    pub fn render(points: &[Point]) -> String {
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| {
                vec![
                    p.benchmark.clone(),
                    p.floorplan.clone(),
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
    /// The four points are one [`Plan`] at the factory list `[1]`: the
    /// multiplier on Line SAM and SELECT on hybrid Point SAM first, so both
    /// workloads start compiling at once, then their two conventional
    /// baselines. The ratios are assembled from the results.
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
        let mut plan = Plan::new(&[1]);
        plan.cell(&multiplier, multiplier_config.clone());
        plan.cell(&select, select_config.clone());
        plan.cell(&multiplier, conventional(&multiplier_config));
        plan.cell(&select, conventional(&select_config));
        let results = plan.run();
        let multiplier_lsqca = results.stats(&multiplier, &multiplier_config, 1);
        let multiplier_baseline = results.stats(&multiplier, &conventional(&multiplier_config), 1);
        let select_lsqca = results.stats(&select, &select_config, 1);
        let select_baseline = results.stats(&select, &conventional(&select_config), 1);

        vec![
            Claim {
                description: "multiplier, Line SAM (1 bank), 1 MSF".to_string(),
                paper_density: 0.87,
                paper_overhead: 1.06,
                measured_density: multiplier_lsqca.memory_density,
                measured_overhead: multiplier_lsqca.overhead_vs(multiplier_baseline),
            },
            Claim {
                description: format!("SELECT width {width}, Hybrid Point SAM, 1 MSF"),
                paper_density: 0.92,
                paper_overhead: 1.07,
                measured_density: select_lsqca.memory_density,
                measured_overhead: select_lsqca.overhead_vs(select_baseline),
            },
        ]
    }

    /// Renders the claims as a text table.
    pub fn render(claims: &[Claim]) -> String {
        let rows: Vec<Vec<String>> = claims
            .iter()
            .map(|c| {
                vec![
                    c.description.clone(),
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

/// `data` as pretty-printed JSON, or as the text table `render` makes of it.
fn show<T: ToJson + ?Sized>(json: bool, render: fn(&T) -> String, data: &T) -> String {
    if json {
        data.to_json().pretty()
    } else {
        render(data)
    }
}

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
        "table1" => show(json, table1::render, &table1::rows()),
        "fig8" => show(json, fig08::render, &fig08::generate(scale)),
        "fig13" => {
            let points = fig13::generate(scale, &[], &factories);
            show(json, fig13::render, &points)
        }
        "fig14" => {
            let points = fig14::generate(scale, &[], &factories, fraction_step);
            show(json, fig14::render, &points)
        }
        "fig15" => {
            let points = fig15::generate(scale, &factories, fig15_terms);
            show(json, fig15::render, &points)
        }
        "headline" => show(json, headline::render, &headline::generate(scale)),
        "ablation" => {
            let points = ablation::generate(scale, &[], FloorplanKind::PointSam { banks: 1 });
            show(json, ablation::render, &points)
        }
        "hybrid-migrate" => {
            let points = hybrid_migrate::generate(scale, &[], &factories);
            show(json, hybrid_migrate::render, &points)
        }
        "hotpath" => show(json, hotpath::render, &hotpath::generate(scale)),
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
    fn plans_issue_every_workloads_first_cell_first() {
        let [ghz, cat, bv] = [Benchmark::Ghz, Benchmark::Cat, Benchmark::Bv]
            .map(|benchmark| WorkloadHandle::benchmark(benchmark, Scale::Quick));
        let point = cell_config(FloorplanKind::PointSam { banks: 1 });
        let line = cell_config(FloorplanKind::LineSam { banks: 1 });
        let mut plan = Plan::new(&[1, 2]);
        plan.cell(&ghz, point.clone());
        plan.cell(&ghz, line.clone());
        plan.cell(&cat, point.clone());
        plan.cell(&ghz, point.clone().with_hybrid_fraction(0.5));
        plan.cell(&bv, line.clone());
        plan.cell(&cat, line.clone());
        // A repeat, with a different placeholder factory count.
        plan.cell(&ghz, point_config(&line, 4));
        assert_eq!(plan.issue_order(), vec![0, 2, 4, 1, 3, 5]);
        assert!(!ghz.is_compiled(), "ordering the cells compiles nothing");
    }

    /// The generator tests run against a disabled store, so a second run
    /// of the same sweep simulates every point again: none is served warm,
    /// from disk or from this process's earlier runs.
    #[test]
    fn generator_tests_simulate_every_point_on_every_run() {
        assert!(result_store().dir().is_none(), "the test store persists");
        for _ in 0..2 {
            let before = result_store().stats().computed;
            let points = fig13::generate(Scale::Quick, &[Benchmark::Ghz], &[1, 2]);
            let computed = result_store().stats().computed - before;
            assert!(computed >= points.len() as u64, "{computed} computed");
        }
        assert_eq!(
            result_store().stats().hits,
            0,
            "a point came from the store"
        );
    }

    #[test]
    fn table1_has_every_instruction() {
        let rows = table1::rows();
        assert_eq!(rows.len(), 21);
        let text = table1::render(&rows);
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
        assert!(fig08::render(&data).contains("SELECT"));
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
        let text = fig15::render(&points);
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
        let text = hybrid_migrate::render(&points);
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
        assert!(ablation::render(&points).contains("locality store"));
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
