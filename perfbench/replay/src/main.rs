//! Traced in-process replay of the pipeline benchmark's workloads.
//!
//! ```text
//! lsqca-perfbench-replay run --scale <quick|full> --out-dir <dir>
//!                            [--cache-dir <dir>] [--store-dir <dir>] <command>...
//! lsqca-perfbench-replay calibrate
//! ```
//!
//! `run` regenerates each `experiments` command's `--json` report from this
//! file's own copy of the figure generators, and times every call it makes
//! into the public entry points of the layer crates: the workload cache
//! (`WorkloadCache::load_or_compile`), the core facade (`Workload::result_key`,
//! `hot_qubits`, `result_from_stats`), the simulator (`SimulatorBuilder::build`,
//! `Simulator::execute`), the stats codec (`ExecutionStats::to_json` /
//! `from_json`), the result store (`ResultStore::load_or_compute`, self time
//! only), the locality analysis (`AccessLocalityReport::from_trace`) and the
//! report rendering (`to_json().pretty()`). Each report is written to
//! `<out-dir>/<command>.txt`, byte for byte what `experiments <command>
//! --json` prints, so the caller can prove the replay did the same work. The
//! last line of stdout is one JSON object of per-layer totals.
//!
//! Every command gets a fresh cache and store handle, as a fresh
//! `experiments` process would; without `--cache-dir` / `--store-dir` the
//! cache and store are disabled (`LSQCA_NO_CACHE=1`, `--no-store`). The
//! command `all` renders the eight generators with `==== name ====` headers.
//!
//! `calibrate` times the frozen legacy BFS
//! (`lsqca_bench::hotpath::legacy::vacant_path_len`) and prints its
//! nanoseconds per call, the same-machine calibration of `BENCH_hotpath.json`.

#![forbid(unsafe_code)]

use lsqca::analysis::AccessLocalityReport;
use lsqca::experiment::{ExperimentConfig, ExperimentResult, HotSetStrategy, Workload};
use lsqca::lattice::{CellGrid, Coord};
use lsqca::prelude::*;
use lsqca::sim::{SimOutcome, Simulator};
use lsqca::workloads::{BenchmarkConfig, CacheEvent, MultiplierConfig, SelectConfig};
use lsqca_bench::{
    ablation, fig08, fig13, fig14, fig15, headline, hybrid_migrate, par, table1, Scale,
    FACTORY_COUNTS,
};
use lsqca_json::{Json, ToJson};
use lsqca_store::{ResultStore, StoreEvent};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The generators `experiments all` renders, in its order.
const ALL_SECTIONS: [&str; 8] = [
    "table1",
    "fig8",
    "fig13",
    "fig14",
    "fig15",
    "headline",
    "ablation",
    "hybrid-migrate",
];

/// Busy time and call count of one timed entry point, summed over threads.
/// Both are plain statistics that publish no other data, hence `Relaxed`.
struct Meter {
    nanos: AtomicU64,
    calls: AtomicU64,
}

impl Meter {
    const fn new() -> Self {
        Meter {
            nanos: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        }
    }

    fn record(&self, elapsed: Duration) {
        self.nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = f();
        self.record(start.elapsed());
        result
    }

    fn seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

/// Sum of the simulated runs' statistics.
struct Tally(AtomicU64);

impl Tally {
    const fn new() -> Self {
        Tally(AtomicU64::new(0))
    }

    fn add(&self, value: u64) {
        self.0.fetch_add(value, Ordering::Relaxed);
    }

    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Every timed layer boundary of the replay. Each meter records self time:
/// no metered call runs inside another, except the store's compute closure,
/// whose time is subtracted from `store`.
struct Meters {
    acquire: Meter,
    acquire_hits: Meter,
    result_key: Meter,
    hot_qubits: Meter,
    result_from_stats: Meter,
    sim_build: Meter,
    sim_execute: Meter,
    stats_encode: Meter,
    stats_decode: Meter,
    store: Meter,
    store_hits: Meter,
    locality: Meter,
    render: Meter,
    instructions: Tally,
    beats: Tally,
    seek_beats: Tally,
    magic_wait_beats: Tally,
}

static METERS: Meters = Meters {
    acquire: Meter::new(),
    acquire_hits: Meter::new(),
    result_key: Meter::new(),
    hot_qubits: Meter::new(),
    result_from_stats: Meter::new(),
    sim_build: Meter::new(),
    sim_execute: Meter::new(),
    stats_encode: Meter::new(),
    stats_decode: Meter::new(),
    store: Meter::new(),
    store_hits: Meter::new(),
    locality: Meter::new(),
    render: Meter::new(),
    instructions: Tally::new(),
    beats: Tally::new(),
    seek_beats: Tally::new(),
    magic_wait_beats: Tally::new(),
};

/// `part / whole`, or 0 when nothing was measured.
fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

impl Meters {
    /// The per-layer totals, named as the benchmark reports them.
    fn report(&self) -> Json {
        let m = self;
        let attributed = [
            &m.acquire,
            &m.result_key,
            &m.hot_qubits,
            &m.result_from_stats,
            &m.sim_build,
            &m.sim_execute,
            &m.stats_encode,
            &m.stats_decode,
            &m.store,
            &m.locality,
            &m.render,
        ]
        .iter()
        .map(|meter| meter.seconds())
        .sum::<f64>();
        let instructions = m.instructions.get();
        Json::obj([
            ("workloads.acquire_s", Json::F64(m.acquire.seconds())),
            (
                "workloads.compiled",
                Json::U64(m.acquire.calls() - m.acquire_hits.calls()),
            ),
            ("workloads.hits", Json::U64(m.acquire_hits.calls())),
            (
                "workloads.hit_time_frac",
                Json::F64(share(m.acquire_hits.seconds(), m.acquire.seconds())),
            ),
            ("core.result_key_s", Json::F64(m.result_key.seconds())),
            ("core.result_key_calls", Json::U64(m.result_key.calls())),
            ("core.hot_qubits_s", Json::F64(m.hot_qubits.seconds())),
            ("core.hot_qubits_calls", Json::U64(m.hot_qubits.calls())),
            (
                "core.result_from_stats_s",
                Json::F64(m.result_from_stats.seconds()),
            ),
            ("sim.build_s", Json::F64(m.sim_build.seconds())),
            ("sim.builds", Json::U64(m.sim_build.calls())),
            ("sim.execute_s", Json::F64(m.sim_execute.seconds())),
            ("sim.instructions", Json::U64(instructions)),
            (
                "sim.ns_per_instruction",
                Json::F64(share(m.sim_execute.seconds() * 1e9, instructions as f64)),
            ),
            ("sim.beats", Json::U64(m.beats.get())),
            ("sim.seek_beats", Json::U64(m.seek_beats.get())),
            ("sim.magic_wait_beats", Json::U64(m.magic_wait_beats.get())),
            (
                "json.stats_s",
                Json::F64(m.stats_encode.seconds() + m.stats_decode.seconds()),
            ),
            ("json.encodes", Json::U64(m.stats_encode.calls())),
            ("json.decodes", Json::U64(m.stats_decode.calls())),
            ("store.self_s", Json::F64(m.store.seconds())),
            (
                "store.computed",
                Json::U64(m.store.calls() - m.store_hits.calls()),
            ),
            ("store.hits", Json::U64(m.store_hits.calls())),
            (
                "store.hit_time_frac",
                Json::F64(share(m.store_hits.seconds(), m.store.seconds())),
            ),
            ("analysis.locality_s", Json::F64(m.locality.seconds())),
            ("bench.render_s", Json::F64(m.render.seconds())),
            ("replay.attributed_s", Json::F64(attributed)),
            ("replay.points", Json::U64(m.sim_execute.calls())),
        ])
    }
}

/// One `experiments` process's view: its scale and its own cache and store.
struct Replay {
    scale: Scale,
    cache: WorkloadCache,
    store: ResultStore,
}

impl Replay {
    fn new(scale: Scale, cache_dir: Option<&Path>, store_dir: Option<&Path>) -> Self {
        Replay {
            scale,
            cache: cache_dir.map_or_else(WorkloadCache::disabled, WorkloadCache::at),
            store: store_dir.map_or_else(ResultStore::disabled, ResultStore::at),
        }
    }

    fn full(&self) -> bool {
        self.scale == Scale::Full
    }

    /// The factory counts the `experiments` binary sweeps at this scale.
    fn factory_counts(&self) -> Vec<u32> {
        if self.full() {
            FACTORY_COUNTS.to_vec()
        } else {
            vec![1, 4]
        }
    }

    /// `lsqca_bench::cached_workload_with`, timed.
    fn workload(
        &self,
        descriptor: &str,
        compiler: CompilerConfig,
        build: impl FnOnce() -> Circuit,
    ) -> Workload {
        let start = Instant::now();
        let (artifact, event) = self.cache.load_or_compile(descriptor, compiler, build);
        let elapsed = start.elapsed();
        METERS.acquire.record(elapsed);
        if matches!(event, CacheEvent::Hit) {
            METERS.acquire_hits.record(elapsed);
        }
        Workload::from_artifact(artifact)
    }

    /// `lsqca_bench::cached_workload`, timed.
    fn benchmark(&self, benchmark: Benchmark) -> Workload {
        let cfg = benchmark.config(self.scale.instance_size());
        self.workload(&cfg.descriptor(), CompilerConfig::default(), || cfg.build())
    }

    /// `Workload::run` split at its layer boundaries: hot-set selection,
    /// simulator build, trace execution.
    fn simulate(&self, workload: &Workload, config: &ExperimentConfig) -> SimOutcome {
        let hot = METERS.hot_qubits.time(|| workload.hot_qubits(config));
        let mut arch = ArchConfig::new(config.floorplan, config.factories)
            .with_hybrid_fraction(config.hybrid_fraction.clamp(0.0, 1.0));
        arch.locality_aware_store = config.locality_aware_store;
        let qubits = workload
            .num_qubits()
            .max(workload.compiled().memory_footprint())
            .max(1);
        let mut simulator = METERS.sim_build.time(|| {
            let mut builder = Simulator::builder(&arch, qubits)
                .hot_qubits(&hot)
                .config(config.sim);
            if let Some(policy) = config.migration {
                builder = builder.migration_policy(policy.build());
            }
            builder.build().expect("sweep configurations are valid")
        });
        let outcome = METERS
            .sim_execute
            .time(|| simulator.execute(workload.compiled()))
            .expect("compiled workloads simulate");
        let stats = &outcome.stats;
        METERS.instructions.add(stats.instruction_count);
        METERS.beats.add(stats.total_beats.as_u64());
        METERS.seek_beats.add(stats.memory_access_beats.as_u64());
        METERS.magic_wait_beats.add(stats.magic_wait_beats.as_u64());
        outcome
    }

    /// `lsqca_bench::stored_run` for configurations that do not record a
    /// trace, timed at every layer boundary.
    fn stored_run(&self, workload: &Workload, config: &ExperimentConfig) -> ExperimentResult {
        let key = METERS.result_key.time(|| workload.result_key(config));
        let mut compute_time = Duration::ZERO;
        let start = Instant::now();
        let (payload, event) = self.store.load_or_compute(&key, || {
            let compute_start = Instant::now();
            let outcome = self.simulate(workload, config);
            let payload = METERS.stats_encode.time(|| outcome.stats.to_json());
            compute_time = compute_start.elapsed();
            payload
        });
        let own = start.elapsed().saturating_sub(compute_time);
        METERS.store.record(own);
        if matches!(event, StoreEvent::Hit) {
            METERS.store_hits.record(own);
        }
        let stats = METERS
            .stats_decode
            .time(|| ExecutionStats::from_json(&payload))
            .expect("stored stats decode");
        METERS
            .result_from_stats
            .time(|| workload.result_from_stats(config, stats))
    }

    fn render<T: ToJson + ?Sized>(&self, rows: &T) -> String {
        METERS.render.time(|| rows.to_json().pretty())
    }

    /// What `experiments <command> --json` prints for one generator, without
    /// the trailing newline.
    fn report(&self, command: &str) -> String {
        match command {
            "table1" => METERS.render.time(|| table1::rows().to_json().pretty()),
            "fig8" => self.render(&self.fig8()),
            "fig13" => self.render(&self.fig13()),
            "fig14" => self.render(&self.fig14()),
            "fig15" => self.render(&self.fig15()),
            "headline" => self.render(&self.headline()),
            "ablation" => self.render(&self.ablation()),
            "hybrid-migrate" => self.render(&self.hybrid_migrate()),
            other => unreachable!("command `{other}` is validated by the caller"),
        }
    }

    /// Everything `experiments <command> --json` writes to stdout.
    fn stdout(&self, command: &str) -> String {
        if command == "all" {
            let mut out = String::new();
            for name in ALL_SECTIONS {
                out.push_str(&format!("==== {name} ====\n"));
                out.push_str(&self.report(name));
                out.push('\n');
            }
            out
        } else {
            self.report(command) + "\n"
        }
    }

    fn locality(&self, name: &str, workload: Workload) -> fig08::BenchmarkLocality {
        let config = ExperimentConfig::baseline(1)
            .with_trace()
            .with_infinite_magic();
        let outcome = self.simulate(&workload, &config);
        let (report, cdf_points) = METERS.locality.time(|| {
            let report =
                AccessLocalityReport::from_trace(&outcome.trace, Some(outcome.stats.magic_states));
            let cdf_points = report.reference_periods.log_spaced_points(2);
            (report, cdf_points)
        });
        fig08::BenchmarkLocality {
            name: name.to_string(),
            qubits: workload.num_qubits(),
            cdf_points,
            beats_per_magic_state: report.beats_per_magic_state,
            report,
        }
    }

    fn fig8(&self) -> Vec<fig08::BenchmarkLocality> {
        let (select_cfg, mult_cfg) = if self.full() {
            (SelectConfig::paper_motivation(), MultiplierConfig::paper())
        } else {
            (
                SelectConfig::for_width(4),
                MultiplierConfig {
                    operand_bits: 12,
                    partial_products: None,
                },
            )
        };
        [
            ("SELECT", BenchmarkConfig::Select(select_cfg)),
            ("multiplier", BenchmarkConfig::Multiplier(mult_cfg)),
        ]
        .into_iter()
        .map(|(name, cfg)| {
            let workload =
                self.workload(&cfg.descriptor(), CompilerConfig::default(), || cfg.build());
            self.locality(name, workload)
        })
        .collect()
    }

    fn fig13(&self) -> Vec<fig13::Point> {
        let list = Benchmark::ALL.to_vec();
        let workloads = par::par_map(&list, |&benchmark| self.benchmark(benchmark));
        let mut jobs = Vec::new();
        for (i, &benchmark) in list.iter().enumerate() {
            for factories in self.factory_counts() {
                for floorplan in ArchConfig::paper_floorplans() {
                    jobs.push((i, benchmark, factories, floorplan));
                }
            }
        }
        par::par_map(&jobs, |&(i, benchmark, factories, floorplan)| {
            let result =
                self.stored_run(&workloads[i], &ExperimentConfig::new(floorplan, factories));
            fig13::Point {
                benchmark: benchmark.name().to_string(),
                floorplan: floorplan.label(),
                factories,
                cpi: result.cpi,
                beats: result.total_beats.as_u64(),
                density: result.memory_density,
            }
        })
    }

    fn fig14(&self) -> Vec<fig14::Point> {
        let fraction_step: f64 = if self.full() { 0.05 } else { 0.25 };
        let steps = (1.0 / fraction_step).round() as u32;
        let list = Benchmark::ALL.to_vec();
        let factory_counts = self.factory_counts();
        let workloads = par::par_map(&list, |&benchmark| self.benchmark(benchmark));
        let mut baseline_keys = Vec::new();
        for i in 0..list.len() {
            for &factories in &factory_counts {
                baseline_keys.push((i, factories));
            }
        }
        let baselines = par::par_map(&baseline_keys, |&(i, factories)| {
            self.stored_run(&workloads[i], &ExperimentConfig::baseline(factories))
        });
        let mut jobs = Vec::new();
        for (i, &benchmark) in list.iter().enumerate() {
            for (f_idx, &factories) in factory_counts.iter().enumerate() {
                for floorplan in fig14::floorplans() {
                    for step in 0..=steps {
                        jobs.push((i, benchmark, f_idx, factories, floorplan, step));
                    }
                }
            }
        }
        par::par_map(
            &jobs,
            |&(i, benchmark, f_idx, factories, floorplan, step)| {
                let fraction = (step as f64 * fraction_step).min(1.0);
                let config =
                    ExperimentConfig::new(floorplan, factories).with_hybrid_fraction(fraction);
                let result = self.stored_run(&workloads[i], &config);
                fig14::Point {
                    benchmark: benchmark.name().to_string(),
                    floorplan: floorplan.label(),
                    factories,
                    fraction,
                    density: result.memory_density,
                    overhead: result.overhead_vs(&baselines[i * factory_counts.len() + f_idx]),
                }
            },
        )
    }

    fn fig15(&self) -> Vec<fig15::Point> {
        let max_terms = if self.full() { None } else { Some(200) };
        let widths = fig15::widths(self.scale);
        let factory_counts = self.factory_counts();
        let instances = par::par_map(&widths, |&width| {
            let mut select_cfg = SelectConfig::for_width(width);
            select_cfg.max_terms = max_terms;
            let qubits = select_cfg.total_qubits();
            let hybrid_fraction =
                (select_cfg.control_bits() + select_cfg.temporal_bits()) as f64 / qubits as f64;
            let cfg = BenchmarkConfig::Select(select_cfg);
            let workload =
                self.workload(&cfg.descriptor(), CompilerConfig::default(), || cfg.build());
            (qubits, hybrid_fraction, workload)
        });
        let mut baseline_keys = Vec::new();
        for i in 0..widths.len() {
            for &factories in &factory_counts {
                baseline_keys.push((i, factories));
            }
        }
        let baselines = par::par_map(&baseline_keys, |&(i, factories)| {
            self.stored_run(&instances[i].2, &ExperimentConfig::baseline(factories))
        });
        let mut jobs = Vec::new();
        for (i, &width) in widths.iter().enumerate() {
            for (f_idx, &factories) in factory_counts.iter().enumerate() {
                for floorplan in fig14::floorplans() {
                    jobs.push((i, width, f_idx, factories, floorplan));
                }
            }
        }
        par::par_flat_map(&jobs, |&(i, width, f_idx, factories, floorplan)| {
            let (qubits, hybrid_fraction, ref workload) = instances[i];
            let baseline = &baselines[i * factory_counts.len() + f_idx];
            let plain = self.stored_run(workload, &ExperimentConfig::new(floorplan, factories));
            let hybrid = self.stored_run(
                workload,
                &ExperimentConfig::new(floorplan, factories)
                    .with_hybrid_fraction(hybrid_fraction)
                    .with_hot_set(HotSetStrategy::ByRole(vec![
                        RegisterRole::Control,
                        RegisterRole::Temporal,
                    ])),
            );
            vec![
                fig15::Point {
                    instance_width: width,
                    qubits,
                    floorplan: floorplan.label(),
                    factories,
                    density: plain.memory_density,
                    overhead: plain.overhead_vs(baseline),
                },
                fig15::Point {
                    instance_width: width,
                    qubits,
                    floorplan: format!("Hybrid {}", floorplan.label()),
                    factories,
                    density: hybrid.memory_density,
                    overhead: hybrid.overhead_vs(baseline),
                },
            ]
        })
    }

    fn headline(&self) -> Vec<headline::Claim> {
        let mut claims = Vec::new();

        let mult_cfg = if self.full() {
            MultiplierConfig::paper()
        } else {
            MultiplierConfig {
                operand_bits: 20,
                partial_products: None,
            }
        };
        let cfg = BenchmarkConfig::Multiplier(mult_cfg);
        let workload = self.workload(&cfg.descriptor(), CompilerConfig::default(), || cfg.build());
        let config = ExperimentConfig::new(FloorplanKind::LineSam { banks: 1 }, 1);
        let lsqca = self.stored_run(&workload, &config);
        let baseline = self.stored_run(
            &workload,
            &ExperimentConfig {
                floorplan: FloorplanKind::Conventional,
                ..config.clone()
            },
        );
        claims.push(headline::Claim {
            description: "multiplier, Line SAM (1 bank), 1 MSF".to_string(),
            paper_density: 0.87,
            paper_overhead: 1.06,
            measured_density: lsqca.memory_density,
            measured_overhead: lsqca.overhead_vs(&baseline),
        });

        let (width, max_terms) = if self.full() {
            (21u32, None)
        } else {
            (6u32, Some(60u64))
        };
        let mut select_cfg = SelectConfig::for_width(width);
        select_cfg.max_terms = max_terms;
        let fraction = (select_cfg.control_bits() + select_cfg.temporal_bits()) as f64
            / select_cfg.total_qubits() as f64;
        let cfg = BenchmarkConfig::Select(select_cfg);
        let workload = self.workload(&cfg.descriptor(), CompilerConfig::default(), || cfg.build());
        let config = ExperimentConfig::new(FloorplanKind::PointSam { banks: 1 }, 1)
            .with_hybrid_fraction(fraction)
            .with_hot_set(HotSetStrategy::ByRole(vec![
                RegisterRole::Control,
                RegisterRole::Temporal,
            ]));
        let lsqca = self.stored_run(&workload, &config);
        let baseline = self.stored_run(
            &workload,
            &ExperimentConfig {
                floorplan: FloorplanKind::Conventional,
                ..config.clone()
            },
        );
        claims.push(headline::Claim {
            description: format!("SELECT width {width}, Hybrid Point SAM, 1 MSF"),
            paper_density: 0.92,
            paper_overhead: 1.07,
            measured_density: lsqca.memory_density,
            measured_overhead: lsqca.overhead_vs(&baseline),
        });
        claims
    }

    fn ablation(&self) -> Vec<ablation::Point> {
        let floorplan = FloorplanKind::PointSam { banks: 1 };
        let mut points = Vec::new();
        for benchmark in [
            Benchmark::Multiplier,
            Benchmark::Select,
            Benchmark::SquareRoot,
        ] {
            let cfg = benchmark.config(self.scale.instance_size());
            for in_memory_ops in [true, false] {
                let compiler = CompilerConfig {
                    use_in_memory_ops: in_memory_ops,
                    ..CompilerConfig::default()
                };
                let workload = self.workload(&cfg.descriptor(), compiler, || cfg.build());
                let baseline = self.stored_run(&workload, &ExperimentConfig::baseline(1));
                for locality in [true, false] {
                    let mut config = ExperimentConfig::new(floorplan, 1);
                    if !locality {
                        config = config.with_home_store();
                    }
                    let result = self.stored_run(&workload, &config);
                    points.push(ablation::Point {
                        benchmark: benchmark.name().to_string(),
                        floorplan: floorplan.label(),
                        locality_aware_store: locality,
                        in_memory_ops,
                        beats: result.total_beats.as_u64(),
                        overhead: result.overhead_vs(&baseline),
                    });
                }
            }
        }
        points
    }

    fn hybrid_migrate(&self) -> Vec<hybrid_migrate::Point> {
        let list = [Benchmark::Select, Benchmark::Multiplier];
        let workloads = par::par_map(&list, |&benchmark| self.benchmark(benchmark));
        let mut jobs = Vec::new();
        for (i, &benchmark) in list.iter().enumerate() {
            for factories in self.factory_counts() {
                for floorplan in hybrid_migrate::floorplans() {
                    jobs.push((i, benchmark, factories, floorplan));
                }
            }
        }
        par::par_flat_map(&jobs, |&(i, benchmark, factories, floorplan)| {
            let base = ExperimentConfig::new(floorplan, factories)
                .with_hybrid_fraction(hybrid_migrate::FRACTION);
            let runs: Vec<_> = PolicyKind::ALL
                .iter()
                .map(|&policy| {
                    let config = base.clone().with_migration(policy);
                    (policy, self.stored_run(&workloads[i], &config))
                })
                .collect();
            let baseline = &runs
                .iter()
                .find(|(policy, _)| *policy == PolicyKind::Static)
                .expect("PolicyKind::ALL contains the static baseline")
                .1;
            let ratio = |a: u64, b: u64| if b == 0 { 1.0 } else { a as f64 / b as f64 };
            runs.iter()
                .map(|(policy, result)| hybrid_migrate::Point {
                    benchmark: benchmark.name().to_string(),
                    floorplan: floorplan.label(),
                    policy: policy.name().to_string(),
                    fraction: hybrid_migrate::FRACTION,
                    factories,
                    beats: result.total_beats.as_u64(),
                    seek_beats: result.stats.memory_access_beats.as_u64(),
                    migration_beats: result.stats.migration_beats.as_u64(),
                    migrations: result.stats.migrations,
                    density: result.memory_density,
                    seek_vs_static: ratio(
                        result.stats.memory_access_beats.as_u64(),
                        baseline.stats.memory_access_beats.as_u64(),
                    ),
                    vs_static: ratio(result.total_beats.as_u64(), baseline.total_beats.as_u64()),
                })
                .collect()
        })
    }
}

/// Nanoseconds per call of the frozen legacy BFS on an open 48×48 grid:
/// the median of several timed batches.
fn calibrate() -> f64 {
    let grid = CellGrid::new(48, 48);
    let (from, to) = (Coord::new(0, 0), Coord::new(47, 47));
    let call = || {
        black_box(
            lsqca_bench::hotpath::legacy::vacant_path_len(black_box(&grid), from, to)
                .expect("open region"),
        );
    };
    // Size a batch to about 50 ms, then time seven of them.
    let start = Instant::now();
    let mut probe = 0u64;
    while start.elapsed() < Duration::from_millis(20) {
        call();
        probe += 1;
    }
    let per_call = start.elapsed().as_secs_f64() / probe as f64;
    let batch = ((0.05 / per_call) as u64).max(1);
    let mut samples: Vec<f64> = (0..7)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                call();
            }
            start.elapsed().as_secs_f64() * 1e9 / batch as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

struct RunArgs {
    scale: Scale,
    out_dir: PathBuf,
    cache_dir: Option<PathBuf>,
    store_dir: Option<PathBuf>,
    commands: Vec<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut scale = None;
    let mut out_dir = None;
    let mut cache_dir = None;
    let mut store_dir = None;
    let mut commands = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = || {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("`{arg}` requires a value"))
        };
        match arg.as_str() {
            "--scale" => {
                scale = Some(match value()?.as_str() {
                    "quick" => Scale::Quick,
                    "full" => Scale::Full,
                    other => return Err(format!("unknown scale `{other}`")),
                })
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value()?)),
            "--cache-dir" => cache_dir = Some(PathBuf::from(value()?)),
            "--store-dir" => store_dir = Some(PathBuf::from(value()?)),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            command if command == "all" || ALL_SECTIONS[1..].contains(&command) => {
                commands.push(command.to_string())
            }
            other => return Err(format!("unknown command `{other}`")),
        }
    }
    if commands.is_empty() {
        return Err("no command given".to_string());
    }
    Ok(RunArgs {
        scale: scale.ok_or("`--scale` is required")?,
        out_dir: out_dir.ok_or("`--out-dir` is required")?,
        cache_dir,
        store_dir,
        commands,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("calibrate") if args.len() == 1 => {
            println!(
                "{}",
                Json::obj([("calibration_ns_per_op", Json::F64(calibrate()))]).compact()
            );
            ExitCode::SUCCESS
        }
        Some("run") => {
            let run = match parse_run(&args[1..]) {
                Ok(run) => run,
                Err(message) => {
                    eprintln!("error: {message}");
                    return ExitCode::FAILURE;
                }
            };
            for command in &run.commands {
                let replay = Replay::new(
                    run.scale,
                    run.cache_dir.as_deref(),
                    run.store_dir.as_deref(),
                );
                let stdout = replay.stdout(command);
                let path = run.out_dir.join(format!("{command}.txt"));
                if let Err(err) = std::fs::write(&path, stdout) {
                    eprintln!("error: cannot write `{}`: {err}", path.display());
                    return ExitCode::FAILURE;
                }
            }
            println!("{}", METERS.report().compact());
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "usage: lsqca-perfbench-replay run --scale <quick|full> --out-dir <dir> \
                 [--cache-dir <dir>] [--store-dir <dir>] <command>... | calibrate"
            );
            ExitCode::FAILURE
        }
    }
}
