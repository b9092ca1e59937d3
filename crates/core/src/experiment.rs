//! High-level experiment runners.
//!
//! The benchmark harness and the examples all follow the same three steps:
//! compile a workload circuit once, pick an architecture configuration, and
//! simulate. [`Workload`] wraps a [`CompiledWorkload`] artifact so that
//! parameter sweeps (bank counts, factory counts, hybrid fractions) reuse the
//! expensive compilation and its execution trace (no per-run pass over the
//! instruction stream), and [`ExperimentResult`] carries the
//! numbers the paper reports: execution time, CPI, memory density, and the
//! overhead relative to the conventional baseline. Artifacts can also be
//! loaded from the on-disk cache (`lsqca_workloads::cache`) via
//! [`Workload::from_artifact`], in which case nothing is compiled at all.
//!
//! A result-store key is computable without compiling: [`result_key`] takes
//! the workload's [`workload_key`](lsqca_workloads::workload_key) (generator
//! descriptor, compiler configuration, ISA version, trace revision) and the
//! experiment configuration, so a sweep driver can probe the store first and
//! compile only on a miss.

use lsqca_analysis::{hot_set_by_role_map, hot_set_size};
use lsqca_arch::{ArchConfig, FloorplanKind, PolicyKind};
use lsqca_circuit::{Circuit, RegisterMap, RegisterRole};
use lsqca_compiler::CompilerConfig;
use lsqca_isa::trace_compile::ExecutionTrace;
use lsqca_lattice::{Beats, QubitTag};
use lsqca_sim::{ExecutionStats, MemoryTrace, SimConfig, SimError, Simulator};
use lsqca_workloads::CompiledWorkload;
use std::fmt;
use std::sync::OnceLock;

/// How the hot set of a hybrid floorplan is chosen.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum HotSetStrategy {
    /// Pick the most frequently referenced qubits of the compiled program
    /// (the paper's default for Fig. 14).
    #[default]
    ByAccessCount,
    /// Pin every qubit whose register has one of these roles (Fig. 15 pins the
    /// SELECT control and temporal registers).
    ByRole(Vec<RegisterRole>),
    /// Use an explicit list of qubits.
    Explicit(Vec<QubitTag>),
}

/// Configuration of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// The floorplan to simulate.
    pub floorplan: FloorplanKind,
    /// Number of magic-state factories.
    pub factories: u32,
    /// Hybrid-floorplan fraction `f` (0 = pure LSQCA).
    pub hybrid_fraction: f64,
    /// How hot qubits are selected when `hybrid_fraction > 0`.
    pub hot_set: HotSetStrategy,
    /// Use the locality-aware store policy (Sec. V-B). Enabled by default, as
    /// in the paper's evaluation; disable it for ablation studies.
    pub locality_aware_store: bool,
    /// Runtime hot-set migration policy for hybrid floorplans. `None` (the
    /// default) and [`PolicyKind::Static`] both keep the compile-time hot set
    /// pinned; [`PolicyKind::Lru`] / [`PolicyKind::FreqDecay`] promote and
    /// demote qubits between the conventional region and the SAM banks at
    /// runtime, metered into `ExecutionStats::migration_beats`.
    pub migration: Option<PolicyKind>,
    /// Simulator options.
    pub sim: SimConfig,
}

impl ExperimentConfig {
    /// A pure-LSQCA (or baseline) configuration with the paper's defaults.
    pub fn new(floorplan: FloorplanKind, factories: u32) -> Self {
        ExperimentConfig {
            floorplan,
            factories,
            hybrid_fraction: 0.0,
            hot_set: HotSetStrategy::default(),
            locality_aware_store: true,
            migration: None,
            sim: SimConfig::default(),
        }
    }

    /// The conventional-baseline configuration with the same factory count.
    pub fn baseline(factories: u32) -> Self {
        ExperimentConfig::new(FloorplanKind::Conventional, factories)
    }

    /// Returns a copy with the given hybrid fraction.
    pub fn with_hybrid_fraction(mut self, fraction: f64) -> Self {
        self.hybrid_fraction = fraction;
        self
    }

    /// Returns a copy with the given hot-set strategy.
    pub fn with_hot_set(mut self, strategy: HotSetStrategy) -> Self {
        self.hot_set = strategy;
        self
    }

    /// Returns a copy with a runtime hot-set migration policy attached (only
    /// meaningful for hybrid floorplans, where a conventional region exists
    /// to promote into).
    pub fn with_migration(mut self, policy: PolicyKind) -> Self {
        self.migration = Some(policy);
        self
    }

    /// Returns a copy with trace recording enabled.
    pub fn with_trace(mut self) -> Self {
        self.sim.record_trace = true;
        self
    }

    /// Returns a copy that assumes infinitely fast magic-state production
    /// (the Sec. III-B motivation-study assumption).
    pub fn with_infinite_magic(mut self) -> Self {
        self.sim.assume_infinite_magic = true;
        self
    }

    /// Returns a copy that stores qubits back to their home cells instead of
    /// using the locality-aware store (ablation of Sec. V-B). The in-memory
    /// operation ablation lives on the compiler side: build the workload with
    /// [`Workload::with_compiler`] and `use_in_memory_ops: false`.
    pub fn with_home_store(mut self) -> Self {
        self.locality_aware_store = false;
        self
    }

    fn arch_config(&self) -> ArchConfig {
        let mut arch = ArchConfig::new(self.floorplan, self.factories)
            .with_hybrid_fraction(self.hybrid_fraction.clamp(0.0, 1.0));
        arch.locality_aware_store = self.locality_aware_store;
        arch
    }

    /// A short label for tables, e.g. `"Line #SAM=2, f=0.30, 4 MSF"` (with
    /// `, lru` appended when a migration policy is attached).
    pub fn label(&self) -> String {
        let mut label = if self.hybrid_fraction > 0.0 && !self.floorplan.is_conventional() {
            format!(
                "{}, f={:.2}, {} MSF",
                self.floorplan.label(),
                self.hybrid_fraction,
                self.factories
            )
        } else {
            format!("{}, {} MSF", self.floorplan.label(), self.factories)
        };
        if let Some(policy) = self.migration {
            label.push_str(", ");
            label.push_str(policy.name());
        }
        label
    }

    /// The canonical, versioned encoding of every field, used in result-store
    /// keys. A pure Line #SAM=2 configuration with 4 factories encodes as
    ///
    /// ```text
    /// v1;floorplan=line;banks=2;factories=4;hybrid=0000000000000000;hot=access-count;store=locality;migration=none;trace=0;infinite-magic=0
    /// ```
    ///
    /// Each field is written explicitly, so a derive reorder or a `Debug`
    /// change cannot re-key the store. The encoding is injective: the hybrid
    /// fraction is its exact `f64` bit pattern, and no name or number in a
    /// field contains the `;`, `:` or `,` separators. Changing the format
    /// means bumping the leading version.
    pub fn canonical_encoding(&self) -> String {
        let floorplan = match self.floorplan {
            FloorplanKind::PointSam { .. } => "point",
            FloorplanKind::DualPointSam { .. } => "dual-point",
            FloorplanKind::LineSam { .. } => "line",
            FloorplanKind::Conventional => "conventional",
        };
        let hot = match &self.hot_set {
            HotSetStrategy::ByAccessCount => "access-count".to_string(),
            HotSetStrategy::ByRole(roles) => {
                let names: Vec<&str> = roles.iter().map(|r| r.name()).collect();
                format!("role:{}", names.join(","))
            }
            HotSetStrategy::Explicit(qubits) => {
                let indices: Vec<String> = qubits.iter().map(|q| q.0.to_string()).collect();
                format!("explicit:{}", indices.join(","))
            }
        };
        format!(
            "v1;floorplan={floorplan};banks={};factories={};hybrid={:016x};hot={hot};\
             store={};migration={};trace={};infinite-magic={}",
            self.floorplan.bank_count(),
            self.factories,
            self.hybrid_fraction.to_bits(),
            if self.locality_aware_store {
                "locality"
            } else {
                "home"
            },
            self.migration.map_or("none", PolicyKind::name),
            u8::from(self.sim.record_trace),
            u8::from(self.sim.assume_infinite_magic),
        )
    }
}

/// The content-addressed result-store key for running the workload
/// identified by `workload_key` under `config`.
///
/// `workload_key` is the [`workload_key`](lsqca_workloads::workload_key) of
/// the workload: the generator descriptor (every generator parameter plus
/// the generator's `REVISION`), the compiler configuration's canonical
/// encoding, the ISA version and the trace revision. Ad-hoc workloads carry
/// their payload hash in the descriptor instead
/// ([`CompiledWorkload::compile_adhoc`]). To it the key adds the complete
/// experiment configuration (floorplan, factories, hybrid fraction, hot-set
/// strategy, store policy, migration policy, simulator options, via
/// [`ExperimentConfig::canonical_encoding`]), the simulation-semantics
/// revision ([`lsqca_sim::RESULTS_REVISION`]) and the stats payload schema.
/// Changing any of them changes the key, so stale records are simply never
/// found again.
pub fn result_key(workload_key: &str, config: &ExperimentConfig) -> String {
    format!(
        "{workload_key}|experiment={}|sim=r{}|stats={}",
        config.canonical_encoding(),
        lsqca_sim::RESULTS_REVISION,
        lsqca_sim::STATS_SCHEMA,
    )
}

/// Every SAM address `trace` references, most referenced first, ties by
/// ascending index: `hot_set_by_access_count(program, usize::MAX)` of the
/// program the trace was lowered from, counted from the trace's operand
/// slots into a dense table instead of through `Program::stats()`.
fn rank_by_access_count(trace: &ExecutionTrace) -> Vec<QubitTag> {
    let mut counts = vec![0u64; trace.mem_bound() as usize];
    trace.for_each_memory_operand(|addr| counts[addr as usize] += 1);
    let mut ranked: Vec<(u64, u32)> = counts
        .iter()
        .enumerate()
        .filter(|&(_, &refs)| refs > 0)
        .map(|(addr, &refs)| (refs, addr as u32))
        .collect();
    ranked.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    ranked.into_iter().map(|(_, q)| QubitTag(q)).collect()
}

/// A compiled workload, ready to be simulated under many configurations.
#[derive(Debug, Clone)]
pub struct Workload {
    artifact: CompiledWorkload,
    /// Every referenced qubit, most referenced first (ties by ascending
    /// index), ranked on first use. `hot_set_by_access_count(program, k)` is
    /// exactly its length-`k` prefix, so sweeps rank once per workload.
    access_ranking: OnceLock<Vec<QubitTag>>,
}

impl Workload {
    /// Compiles `circuit` with the default compiler configuration.
    pub fn from_circuit(circuit: Circuit) -> Self {
        Workload::with_compiler(circuit, CompilerConfig::default())
    }

    /// Compiles `circuit` with an explicit compiler configuration. The
    /// circuit has no generator identity, so its key carries the payload hash
    /// of the compiled content ([`CompiledWorkload::compile_adhoc`]).
    pub fn with_compiler(circuit: Circuit, config: CompilerConfig) -> Self {
        Workload::from_artifact(CompiledWorkload::compile_adhoc(&circuit, config))
    }

    /// Wraps an existing artifact (e.g. one loaded from the on-disk cache of
    /// `lsqca_workloads::cache`) without compiling anything. Result keys are
    /// derived from the artifact's descriptor, which must be a workload key
    /// that determines the compiled content.
    pub fn from_artifact(artifact: CompiledWorkload) -> Self {
        Workload {
            artifact,
            access_ranking: OnceLock::new(),
        }
    }

    /// The compiled-workload artifact backing this workload.
    pub fn compiled(&self) -> &CompiledWorkload {
        &self.artifact
    }

    /// The workload's register structure (for role queries on the qubit
    /// space; the source circuit itself is not retained).
    pub fn registers(&self) -> &RegisterMap {
        self.artifact.registers()
    }

    /// Number of data qubits (SAM addresses) the workload needs.
    pub fn num_qubits(&self) -> u32 {
        self.artifact.num_qubits()
    }

    /// Selects the hot qubits for the given configuration.
    pub fn hot_qubits(&self, config: &ExperimentConfig) -> Vec<QubitTag> {
        if config.hybrid_fraction <= 0.0 || config.floorplan.is_conventional() {
            return Vec::new();
        }
        let count = hot_set_size(self.num_qubits(), config.hybrid_fraction);
        match &config.hot_set {
            HotSetStrategy::ByAccessCount => self.most_accessed(count),
            HotSetStrategy::ByRole(roles) => {
                // Role-based pinning uses the whole register set even when it
                // is smaller than `count`; `count` only caps the list.
                let mut hot = hot_set_by_role_map(self.artifact.registers(), roles);
                hot.truncate(count);
                hot
            }
            HotSetStrategy::Explicit(list) => {
                let mut hot = list.clone();
                hot.truncate(count);
                hot
            }
        }
    }

    /// The `count` most referenced qubits: the prefix of the ranking computed
    /// on first use, equal to `hot_set_by_access_count(program, count)`.
    fn most_accessed(&self, count: usize) -> Vec<QubitTag> {
        let ranking = self
            .access_ranking
            .get_or_init(|| rank_by_access_count(self.artifact.trace()));
        ranking[..count.min(ranking.len())].to_vec()
    }

    /// The content-addressed result-store key for running this workload under
    /// `config`: the free [`result_key`] of the artifact's descriptor.
    pub fn result_key(&self, config: &ExperimentConfig) -> String {
        result_key(self.artifact.descriptor(), config)
    }

    /// Reconstructs the [`ExperimentResult`] for `config` from previously
    /// computed statistics (a result-store hit) without simulating. Every
    /// derived field (CPI, hot-set size, labels) is recomputed exactly as
    /// [`Workload::run`] computes it, so a reconstructed result is
    /// indistinguishable from a fresh one — except the memory trace, which is
    /// not persisted and comes back empty (store-backed runners bypass the
    /// store when tracing is enabled).
    pub fn result_from_stats(
        &self,
        config: &ExperimentConfig,
        stats: ExecutionStats,
    ) -> ExperimentResult {
        ExperimentResult {
            workload: self.artifact.name().to_string(),
            config_label: config.label(),
            total_beats: stats.total_beats,
            cpi: stats.cpi(),
            memory_density: stats.memory_density,
            total_cells: stats.total_cells,
            hot_qubits: self.hot_qubits(config).len() as u32,
            stats,
            trace: MemoryTrace::new(),
        }
    }

    /// Simulates this workload (compiled exactly once, at construction or
    /// cache-load time) under `config`.
    ///
    /// # Panics
    ///
    /// Panics if the compiled program is malformed with respect to the memory
    /// model; the compiler only produces well-formed programs, so this
    /// indicates a corrupted artifact.
    pub fn run(&self, config: &ExperimentConfig) -> ExperimentResult {
        let hot = self.hot_qubits(config);
        let mut simulator = self.simulator(config, &hot);
        // The whole sweep stack funnels through `Simulator::execute` here, on
        // the artifact's execution trace.
        let _span = lsqca_telemetry::span("point.execute");
        let outcome = match simulator.execute(&self.artifact) {
            Ok(outcome) => outcome,
            Err(err) => self.failed(err),
        };
        ExperimentResult {
            workload: self.artifact.name().to_string(),
            config_label: config.label(),
            total_beats: outcome.stats.total_beats,
            cpi: outcome.stats.cpi(),
            memory_density: outcome.stats.memory_density,
            total_cells: outcome.stats.total_cells,
            hot_qubits: hot.len() as u32,
            stats: outcome.stats,
            trace: outcome.trace,
        }
    }

    /// Simulates this workload under `config` at every factory count of
    /// `factories` (the `factories` field of `config` is ignored) and returns
    /// the statistics in the same order. Each entry equals
    /// `self.run(&ExperimentConfig { factories: f, ..config.clone() }).stats`,
    /// but the factory counts share one simulator build and one memory walk
    /// (see [`Simulator::execute_factories`]).
    ///
    /// # Panics
    ///
    /// As [`Workload::run`].
    pub fn run_factories(
        &self,
        config: &ExperimentConfig,
        factories: &[u32],
    ) -> Vec<ExecutionStats> {
        let hot = self.hot_qubits(config);
        let mut simulator = self.simulator(config, &hot);
        let _span = lsqca_telemetry::span("point.execute");
        match simulator.execute_factories(&self.artifact, factories) {
            Ok(outcomes) => outcomes.into_iter().map(|outcome| outcome.stats).collect(),
            Err(err) => self.failed(err),
        }
    }

    /// Builds the simulator for `config` with the pinned hot set `hot`.
    fn simulator(&self, config: &ExperimentConfig, hot: &[QubitTag]) -> Simulator {
        let mut builder = Simulator::builder(&config.arch_config(), self.simulator_qubits())
            .hot_qubits(hot)
            .config(config.sim);
        if let Some(policy) = config.migration {
            builder = builder.migration_policy(policy.build());
        }
        builder
            .build()
            .unwrap_or_else(|err| panic!("invalid simulator configuration: {err}"))
    }

    /// Panics with a simulation failure of this workload's artifact.
    fn failed(&self, err: SimError) -> ! {
        panic!("simulation of `{}` failed: {err}", self.artifact.name())
    }

    /// The simulator's qubit capacity for this workload. The footprint is
    /// precomputed in the artifact, so sizing the simulator is O(1) per run
    /// instead of a pass over the program.
    fn simulator_qubits(&self) -> u32 {
        self.num_qubits()
            .max(self.artifact.memory_footprint())
            .max(1)
    }

    /// Runs `config` and the conventional baseline with the same factory count,
    /// returning `(lsqca, baseline)`.
    pub fn run_with_baseline(
        &self,
        config: &ExperimentConfig,
    ) -> (ExperimentResult, ExperimentResult) {
        let baseline = ExperimentConfig {
            floorplan: FloorplanKind::Conventional,
            ..config.clone()
        };
        (self.run(config), self.run(&baseline))
    }
}

/// The outcome of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// Name of the workload circuit.
    pub workload: String,
    /// Label of the architecture configuration.
    pub config_label: String,
    /// Execution time in code beats.
    pub total_beats: Beats,
    /// Code beats per (non-negligible) command.
    pub cpi: f64,
    /// Memory density of the simulated architecture.
    pub memory_density: f64,
    /// Total logical cells charged to the architecture.
    pub total_cells: u64,
    /// Number of qubits pinned in the conventional region.
    pub hot_qubits: u32,
    /// Full execution statistics.
    pub stats: ExecutionStats,
    /// Memory reference trace (empty unless enabled).
    pub trace: MemoryTrace,
}

impl ExperimentResult {
    /// Execution-time overhead relative to `baseline` (1.0 = equal).
    pub fn overhead_vs(&self, baseline: &ExperimentResult) -> f64 {
        self.stats.overhead_vs(&baseline.stats)
    }
}

impl fmt::Display for ExperimentResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {}: {} beats, CPI {:.2}, density {:.1}%",
            self.workload,
            self.config_label,
            self.total_beats.as_u64(),
            self.cpi,
            100.0 * self.memory_density
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsqca_workloads::Benchmark;

    fn workload() -> Workload {
        Workload::from_circuit(Benchmark::Multiplier.reduced_instance())
    }

    #[test]
    fn factory_sweep_equals_one_run_per_count() {
        let workload = workload();
        let config = ExperimentConfig::new(FloorplanKind::LineSam { banks: 2 }, 1)
            .with_hybrid_fraction(0.1)
            .with_migration(PolicyKind::Lru);
        let factories = [4, 1, 2];
        let swept = workload.run_factories(&config, &factories);
        assert_eq!(swept.len(), factories.len());
        for (stats, factories) in swept.iter().zip(factories) {
            let single = ExperimentConfig {
                factories,
                ..config.clone()
            };
            assert_eq!(stats, &workload.run(&single).stats);
        }
    }

    #[test]
    fn lsqca_beats_the_baseline_density_and_pays_some_time() {
        let w = workload();
        let config = ExperimentConfig::new(FloorplanKind::LineSam { banks: 1 }, 1);
        let (lsqca, baseline) = w.run_with_baseline(&config);
        assert!(lsqca.memory_density > baseline.memory_density);
        assert!((baseline.memory_density - 0.5).abs() < 1e-9);
        assert!(lsqca.total_beats >= baseline.total_beats);
        let overhead = lsqca.overhead_vs(&baseline);
        assert!(overhead >= 1.0);
        assert!(!lsqca.to_string().is_empty());
    }

    #[test]
    fn hybrid_fraction_trades_density_for_time() {
        let w = workload();
        let pure = w.run(&ExperimentConfig::new(
            FloorplanKind::PointSam { banks: 1 },
            1,
        ));
        let hybrid = w.run(
            &ExperimentConfig::new(FloorplanKind::PointSam { banks: 1 }, 1)
                .with_hybrid_fraction(0.5),
        );
        assert!(hybrid.memory_density < pure.memory_density);
        assert!(hybrid.total_beats <= pure.total_beats);
        assert!(hybrid.hot_qubits > 0);
    }

    #[test]
    fn role_based_hot_set_uses_the_register_structure() {
        let select = Workload::from_circuit(Benchmark::Select.reduced_instance());
        let config = ExperimentConfig::new(FloorplanKind::PointSam { banks: 1 }, 1)
            .with_hybrid_fraction(0.3)
            .with_hot_set(HotSetStrategy::ByRole(vec![
                RegisterRole::Control,
                RegisterRole::Temporal,
            ]));
        let hot = select.hot_qubits(&config);
        assert!(!hot.is_empty());
        let result = select.run(&config);
        assert!(result.hot_qubits > 0);
    }

    #[test]
    fn explicit_hot_set_is_respected() {
        let w = workload();
        let config = ExperimentConfig::new(FloorplanKind::LineSam { banks: 1 }, 1)
            .with_hybrid_fraction(0.1)
            .with_hot_set(HotSetStrategy::Explicit(vec![QubitTag(0), QubitTag(1)]));
        let hot = w.hot_qubits(&config);
        assert!(hot.contains(&QubitTag(0)));
    }

    #[test]
    fn artifact_backed_workloads_match_freshly_compiled_ones() {
        use lsqca_compiler::CompilerConfig;
        use lsqca_workloads::{CompiledWorkload, InstanceSize};
        let cfg = Benchmark::SquareRoot.config(InstanceSize::Reduced);
        let fresh = Workload::from_circuit(cfg.build());
        // Round-trip the artifact through its serialized form, as the on-disk
        // cache does, then run both under the same configuration.
        let artifact =
            CompiledWorkload::compile(cfg.descriptor(), &cfg.build(), CompilerConfig::default());
        let restored = CompiledWorkload::from_json(&artifact.to_json()).unwrap();
        let cached = Workload::from_artifact(restored);
        let config = ExperimentConfig::new(FloorplanKind::PointSam { banks: 1 }, 1)
            .with_hybrid_fraction(0.25);
        let a = fresh.run(&config);
        let b = cached.run(&config);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.hot_qubits, b.hot_qubits);
        assert_eq!(fresh.num_qubits(), cached.num_qubits());
        assert_eq!(fresh.registers(), cached.registers());
    }

    #[test]
    fn trace_and_infinite_magic_options_propagate() {
        let w = Workload::from_circuit(Benchmark::Ghz.reduced_instance());
        let result = w.run(
            &ExperimentConfig::new(FloorplanKind::Conventional, 1)
                .with_trace()
                .with_infinite_magic(),
        );
        assert!(!result.trace.is_empty());
    }

    #[test]
    fn labels_are_descriptive() {
        let plain = ExperimentConfig::new(FloorplanKind::LineSam { banks: 2 }, 4);
        assert_eq!(plain.label(), "Line #SAM=2, 4 MSF");
        let hybrid = plain.with_hybrid_fraction(0.25);
        assert!(hybrid.label().contains("f=0.25"));
        assert_eq!(ExperimentConfig::baseline(2).label(), "Conventional, 2 MSF");
        let migrating = hybrid.with_migration(PolicyKind::FreqDecay);
        assert!(migrating.label().ends_with(", freq-decay"));
    }

    #[test]
    fn migration_policies_run_through_the_experiment_facade() {
        let w = workload();
        let base = ExperimentConfig::new(FloorplanKind::PointSam { banks: 1 }, 1)
            .with_hybrid_fraction(0.15);
        let pinned = w.run(&base.clone().with_migration(PolicyKind::Static));
        assert_eq!(pinned.stats.migrations, 0);
        // The static policy is observationally the policy-free run.
        let plain = w.run(&base);
        assert_eq!(pinned.stats, plain.stats);
        let adaptive = w.run(&base.with_migration(PolicyKind::FreqDecay));
        // Determinism: the same adaptive run twice is identical.
        let again = w.run(
            &ExperimentConfig::new(FloorplanKind::PointSam { banks: 1 }, 1)
                .with_hybrid_fraction(0.15)
                .with_migration(PolicyKind::FreqDecay),
        );
        assert_eq!(adaptive.stats, again.stats);
    }

    #[test]
    fn reconstructed_results_match_fresh_runs() {
        let w = workload();
        let config = ExperimentConfig::new(FloorplanKind::PointSam { banks: 1 }, 1)
            .with_hybrid_fraction(0.25);
        let fresh = w.run(&config);
        let rebuilt = w.result_from_stats(&config, fresh.stats.clone());
        // Traces are not persisted; everything else must be identical.
        assert!(rebuilt.trace.is_empty());
        let mut fresh_no_trace = fresh.clone();
        fresh_no_trace.trace = lsqca_sim::MemoryTrace::new();
        assert_eq!(rebuilt, fresh_no_trace);
    }

    #[test]
    fn result_keys_cover_workload_and_configuration() {
        let w = workload();
        let config = ExperimentConfig::new(FloorplanKind::PointSam { banks: 1 }, 1);
        let key = w.result_key(&config);
        assert_eq!(key, w.result_key(&config), "keys are deterministic");
        assert!(key.contains("sim=r"));
        assert!(key.contains("isa=v"), "artifact descriptor embeds the ISA");
        // Any configuration change must change the key.
        assert_ne!(key, w.result_key(&config.clone().with_hybrid_fraction(0.5)));
        assert_ne!(
            key,
            w.result_key(&ExperimentConfig::new(
                FloorplanKind::LineSam { banks: 1 },
                1
            ))
        );
        assert_ne!(
            key,
            w.result_key(&config.clone().with_migration(PolicyKind::Lru))
        );
        // A different workload must change the key.
        let other = Workload::from_circuit(Benchmark::Cat.reduced_instance());
        assert_ne!(key, other.result_key(&config));
    }

    /// The canonical key is pinned byte for byte: a change to it re-keys every
    /// stored record, so it must be deliberate (and bump the encoding version
    /// or `RESULTS_REVISION`).
    #[test]
    fn result_keys_are_pinned() {
        let mut circuit = Circuit::new("golden", 3);
        circuit.h(0);
        circuit.cnot(0, 1);
        circuit.t(2);
        let w = Workload::from_circuit(circuit);
        // The ad-hoc payload hex is the artifact payload hash, so it moves
        // with the artifact schema and the trace text (the classical-slot
        // compaction of compiled traces moved it last); generator keys carry
        // no payload hash.
        let prefix = "adhoc:golden#payload=2943418b1ee18476\
                      |compiler=v1;in-memory-ops=1;expand-toffoli=1;expand-cz=1|isa=v1|trace=v1";
        let suffix = "|sim=r4|stats=lsqca-stats-v1";
        let pure = ExperimentConfig::new(FloorplanKind::LineSam { banks: 2 }, 4);
        let by_role = ExperimentConfig::new(FloorplanKind::PointSam { banks: 1 }, 2)
            .with_hybrid_fraction(0.3)
            .with_hot_set(HotSetStrategy::ByRole(vec![
                RegisterRole::Control,
                RegisterRole::Temporal,
            ]));
        let migrating = ExperimentConfig::new(FloorplanKind::DualPointSam { banks: 2 }, 1)
            .with_hybrid_fraction(0.25)
            .with_hot_set(HotSetStrategy::Explicit(vec![QubitTag(0), QubitTag(2)]))
            .with_migration(PolicyKind::FreqDecay)
            .with_home_store()
            .with_infinite_magic();
        for (config, experiment) in [
            (
                &pure,
                "v1;floorplan=line;banks=2;factories=4;hybrid=0000000000000000;\
                 hot=access-count;store=locality;migration=none;trace=0;infinite-magic=0",
            ),
            (
                &by_role,
                "v1;floorplan=point;banks=1;factories=2;hybrid=3fd3333333333333;\
                 hot=role:control,temporal;store=locality;migration=none;trace=0;\
                 infinite-magic=0",
            ),
            (
                &migrating,
                "v1;floorplan=dual-point;banks=2;factories=1;hybrid=3fd0000000000000;\
                 hot=explicit:0,2;store=home;migration=freq-decay;trace=0;\
                 infinite-magic=1",
            ),
        ] {
            assert_eq!(config.canonical_encoding(), experiment);
            assert_eq!(
                w.result_key(config),
                format!("{prefix}|experiment={experiment}{suffix}")
            );
        }
        // A generator workload's key needs no compiled artifact.
        let ghz = lsqca_workloads::BenchmarkConfig::Ghz(lsqca_workloads::GhzConfig { qubits: 8 });
        let key = lsqca_workloads::workload_key(&ghz.descriptor(), &CompilerConfig::default());
        assert_eq!(
            result_key(&key, &pure),
            "Ghz(GhzConfig { qubits: 8 })#rev1\
             |compiler=v1;in-memory-ops=1;expand-toffoli=1;expand-cz=1|isa=v1|trace=v1\
             |experiment=v1;floorplan=line;banks=2;factories=4;hybrid=0000000000000000;\
             hot=access-count;store=locality;migration=none;trace=0;infinite-magic=0\
             |sim=r4|stats=lsqca-stats-v1"
        );
    }

    /// Ad-hoc circuits have no generator identity: two different circuits
    /// under one name must still get different keys, and the same circuit
    /// must get the same key.
    #[test]
    fn same_name_adhoc_circuits_get_different_keys() {
        let circuit = |target: u32| {
            let mut c = Circuit::new("same-name", 3);
            c.h(0);
            c.cnot(0, target);
            c
        };
        let config = ExperimentConfig::new(FloorplanKind::PointSam { banks: 1 }, 1);
        let a = Workload::from_circuit(circuit(1));
        let b = Workload::from_circuit(circuit(2));
        assert_ne!(a.result_key(&config), b.result_key(&config));
        assert_eq!(
            a.result_key(&config),
            Workload::from_circuit(circuit(1)).result_key(&config)
        );
        // The compiler configuration is part of the key as well.
        let load_store = Workload::with_compiler(
            circuit(1),
            CompilerConfig {
                use_in_memory_ops: false,
                ..CompilerConfig::default()
            },
        );
        assert_ne!(a.result_key(&config), load_store.result_key(&config));
    }

    fn config_strategy() -> impl proptest::strategy::Strategy<Value = ExperimentConfig> {
        use proptest::prelude::*;
        // Small domains, so generated pairs often agree on a field; 0.1 + 0.2
        // and 0.3 differ only in the last bit.
        const FRACTIONS: [f64; 5] = [0.0, 0.25, 0.3, 0.1 + 0.2, 1.0];
        let floorplan = (0u32..4, 0u32..3).prop_map(|(kind, banks)| match kind {
            0 => FloorplanKind::PointSam { banks },
            1 => FloorplanKind::DualPointSam { banks },
            2 => FloorplanKind::LineSam { banks },
            _ => FloorplanKind::Conventional,
        });
        let hot_set = prop_oneof![
            Just(HotSetStrategy::ByAccessCount),
            proptest::collection::vec(0usize..RegisterRole::ALL.len(), 0..3).prop_map(|roles| {
                HotSetStrategy::ByRole(roles.into_iter().map(|r| RegisterRole::ALL[r]).collect())
            }),
            proptest::collection::vec(0u32..12, 0..3).prop_map(|qubits| {
                HotSetStrategy::Explicit(qubits.into_iter().map(QubitTag).collect())
            }),
        ];
        let flags = (
            proptest::bool::ANY,
            0usize..4,
            proptest::bool::ANY,
            proptest::bool::ANY,
        );
        (floorplan, 1u32..3, 0usize..FRACTIONS.len(), hot_set, flags).prop_map(
            |(floorplan, factories, fraction, hot_set, (locality, migration, trace, magic))| {
                ExperimentConfig {
                    floorplan,
                    factories,
                    hybrid_fraction: FRACTIONS[fraction],
                    hot_set,
                    locality_aware_store: locality,
                    migration: [None, Some(PolicyKind::Static), Some(PolicyKind::Lru)]
                        .get(migration)
                        .copied()
                        .unwrap_or(Some(PolicyKind::FreqDecay)),
                    sim: SimConfig {
                        record_trace: trace,
                        assume_infinite_magic: magic,
                    },
                }
            },
        )
    }

    proptest::proptest! {
        /// Two configurations share an encoding exactly when they are equal,
        /// so distinct sweep points can never collide in the store. Each case
        /// compares `a` with every configuration that differs from it in one
        /// field (taken from `other`), and with `other` itself.
        #[test]
        fn canonical_encoding_is_injective(a in config_strategy(), other in config_strategy()) {
            let neighbours = [
                ExperimentConfig { floorplan: other.floorplan, ..a.clone() },
                ExperimentConfig { factories: other.factories, ..a.clone() },
                ExperimentConfig { hybrid_fraction: other.hybrid_fraction, ..a.clone() },
                ExperimentConfig { hot_set: other.hot_set.clone(), ..a.clone() },
                ExperimentConfig { locality_aware_store: other.locality_aware_store, ..a.clone() },
                ExperimentConfig { migration: other.migration, ..a.clone() },
                ExperimentConfig {
                    sim: SimConfig { record_trace: other.sim.record_trace, ..a.sim },
                    ..a.clone()
                },
                ExperimentConfig {
                    sim: SimConfig { assume_infinite_magic: other.sim.assume_infinite_magic, ..a.sim },
                    ..a.clone()
                },
                other.clone(),
            ];
            for b in &neighbours {
                proptest::prop_assert_eq!(
                    a.canonical_encoding() == b.canonical_encoding(),
                    a == *b,
                    "{:?} vs {:?}",
                    a,
                    b
                );
            }
        }

        /// The same holds for whole result keys over generated compiler
        /// configurations: two `(compiler, experiment)` pairs share a key
        /// exactly when they are equal. Each case compares `a` with every pair
        /// that differs from it in one compiler field, in the experiment
        /// configuration, or in both.
        #[test]
        fn result_keys_are_injective(
            a in (compiler_strategy(), config_strategy()),
            other in (compiler_strategy(), config_strategy()),
        ) {
            use lsqca_circuit::DecomposeConfig;
            let key = |(compiler, config): &(CompilerConfig, ExperimentConfig)| {
                result_key(&lsqca_workloads::workload_key("Ghz#rev1", compiler), config)
            };
            let (ca, ea) = &a;
            let (cb, eb) = &other;
            let neighbours = [
                (CompilerConfig { use_in_memory_ops: cb.use_in_memory_ops, ..*ca }, ea.clone()),
                (
                    CompilerConfig {
                        decompose: DecomposeConfig {
                            expand_toffoli: cb.decompose.expand_toffoli,
                            ..ca.decompose
                        },
                        ..*ca
                    },
                    ea.clone(),
                ),
                (
                    CompilerConfig {
                        decompose: DecomposeConfig { expand_cz: cb.decompose.expand_cz, ..ca.decompose },
                        ..*ca
                    },
                    ea.clone(),
                ),
                (*ca, eb.clone()),
                other.clone(),
            ];
            for b in &neighbours {
                proptest::prop_assert_eq!(key(&a) == key(b), a == *b, "{:?} vs {:?}", a, b);
            }
        }
    }

    fn compiler_strategy() -> impl proptest::strategy::Strategy<Value = CompilerConfig> {
        use lsqca_circuit::DecomposeConfig;
        use proptest::prelude::*;
        (
            proptest::bool::ANY,
            proptest::bool::ANY,
            proptest::bool::ANY,
        )
            .prop_map(|(in_memory, toffoli, cz)| CompilerConfig {
                use_in_memory_ops: in_memory,
                decompose: DecomposeConfig {
                    expand_toffoli: toffoli,
                    expand_cz: cz,
                },
            })
    }

    /// The memoized ranking, counted from the trace columns, reproduces the
    /// `Program::stats()` selection of every registry benchmark at every
    /// size, tie order included, and stored-result reconstruction reports
    /// the same hot-set size as a fresh run.
    #[test]
    fn memoized_hot_sets_match_fresh_selection() {
        use lsqca_analysis::hot_set_by_access_count;
        for benchmark in Benchmark::ALL {
            let circuit = benchmark.reduced_instance();
            let program = &lsqca_compiler::compile(&circuit, CompilerConfig::default()).program;
            let w = Workload::from_circuit(circuit);
            let full = hot_set_by_access_count(program, usize::MAX);
            assert_eq!(w.most_accessed(usize::MAX), full, "{benchmark:?}");
            let n = w.num_qubits() as usize;
            for count in 0..=n + 1 {
                assert_eq!(
                    w.most_accessed(count),
                    full[..count.min(full.len())],
                    "{benchmark:?}, count {count}"
                );
            }
            for count in [0, 1, n / 2, n + 1] {
                assert_eq!(
                    w.most_accessed(count),
                    hot_set_by_access_count(program, count),
                    "{benchmark:?}, count {count}"
                );
            }
        }
        for benchmark in [Benchmark::Multiplier, Benchmark::Select] {
            let w = Workload::from_circuit(benchmark.reduced_instance());
            for config in [
                ExperimentConfig::new(FloorplanKind::PointSam { banks: 1 }, 1),
                ExperimentConfig::new(FloorplanKind::LineSam { banks: 2 }, 2)
                    .with_hybrid_fraction(0.3),
                ExperimentConfig::new(FloorplanKind::PointSam { banks: 1 }, 1)
                    .with_hybrid_fraction(0.2)
                    .with_hot_set(HotSetStrategy::ByRole(vec![RegisterRole::Control])),
            ] {
                let fresh = w.run(&config);
                let rebuilt = w.result_from_stats(&config, fresh.stats.clone());
                assert_eq!(rebuilt.hot_qubits, fresh.hot_qubits, "{benchmark:?}");
            }
        }
    }

    #[test]
    fn dual_point_floorplan_runs_end_to_end() {
        let w = workload();
        let dual = w.run(&ExperimentConfig::new(
            FloorplanKind::DualPointSam { banks: 1 },
            1,
        ));
        let single = w.run(&ExperimentConfig::new(
            FloorplanKind::PointSam { banks: 1 },
            1,
        ));
        // One extra cell + doubled CR: lower density (the CR overhead weighs
        // heavily on the reduced instance), far faster access.
        assert!(dual.memory_density < single.memory_density);
        assert!(dual.memory_density > 0.6);
        assert!(dual.total_beats < single.total_beats);
    }
}
