//! The dependency-driven code-beat scheduler.

mod interpret;
mod memory_pass;
mod timing;

use crate::config::SimConfig;
use crate::metrics::ExecutionStats;
use crate::trace::MemoryTrace;
pub use interpret::Classified;
use lsqca_arch::{ArchConfig, FloorplanKind, MemorySystem, MigrationPolicy};
use lsqca_isa::{ExecKind, ExecutionTrace, Instruction, OpInfo, Program, Slot};
use lsqca_lattice::{LatticeError, QubitTag};
use lsqca_workloads::CompiledWorkload;
use memory_pass::{bank_mode, BlockScratch, MemoryPass, BLOCK};
use std::error::Error;
use std::fmt;
use std::sync::OnceLock;
use std::time::Instant;
use timing::{LaneGroup, TimingContext, TimingLanes, LANES};

/// Registry counter of simulation runs performed by this process: one per
/// [`SimOutcome`] a run attempt is asked for (each factory count of a
/// trace-engine walk — which [`Simulator::execute`] funnels `Program`,
/// `ExecutionTrace`, and `CompiledWorkload` inputs through — plus every
/// [`Classified`] reference-interpreter run). The warm-store acceptance
/// tests assert this stays flat across a sweep served entirely from the
/// result store.
fn runs_counter() -> &'static lsqca_telemetry::Counter {
    static COUNTER: OnceLock<&'static lsqca_telemetry::Counter> = OnceLock::new();
    COUNTER.get_or_init(|| lsqca_telemetry::counter("sim.runs"))
}

/// Total simulation runs performed by this process so far (the registry's
/// `sim.runs` counter).
pub fn simulation_count() -> u64 {
    runs_counter().get()
}

/// Registry counter of memory walks performed by this process: one per
/// trace-engine walk, however many factory counts share it, and one per
/// [`Classified`] reference-interpreter run.
fn walks_counter() -> &'static lsqca_telemetry::Counter {
    static COUNTER: OnceLock<&'static lsqca_telemetry::Counter> = OnceLock::new();
    COUNTER.get_or_init(|| lsqca_telemetry::counter("sim.memory_walks"))
}

/// Total memory walks performed by this process so far (the registry's
/// `sim.memory_walks` counter). Below [`simulation_count`] exactly when
/// walks were shared across factory counts.
pub fn memory_walk_count() -> u64 {
    walks_counter().get()
}

/// Registry counters of the walk split: nanoseconds of thread time that
/// trace walks spent in the memory pass (`sim.memory_pass`) and in the
/// timing pass (`sim.timing_pass`), summed over every walk of the process.
/// Each walk reads the clock twice per block of records and adds its totals
/// once, when it ends.
fn pass_counters() -> &'static [&'static lsqca_telemetry::Counter; 2] {
    static COUNTERS: OnceLock<[&'static lsqca_telemetry::Counter; 2]> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        [
            lsqca_telemetry::counter("sim.memory_pass"),
            lsqca_telemetry::counter("sim.timing_pass"),
        ]
    })
}

/// Registry counter of full simulator warm-ups (constructions) in this
/// process: every successful [`SimulatorBuilder::build`]. CI asserts a
/// warm-store rerun performs zero of them.
fn builds_counter() -> &'static lsqca_telemetry::Counter {
    static COUNTER: OnceLock<&'static lsqca_telemetry::Counter> = OnceLock::new();
    COUNTER.get_or_init(|| lsqca_telemetry::counter("sim.warmed"))
}

/// Total simulator warm-ups (constructions) performed by this process so far
/// (the registry's `sim.warmed` counter).
pub fn warm_count() -> u64 {
    builds_counter().get()
}

/// An error raised by the simulator: an invalid configuration rejected at
/// construction, or a malformed instruction stream rejected during execution
/// (e.g. an in-memory operation on a qubit that is checked out to the CR).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// An instruction failed against the memory state.
    Instruction {
        /// Index of the offending instruction in the program.
        index: usize,
        /// The offending instruction; rendered as text only when the error is
        /// displayed, so the happy path never formats anything.
        instruction: Instruction,
        /// The underlying memory-system error.
        source: LatticeError,
    },
    /// The architecture bounds CR registers but provides zero register slots,
    /// so no `CX` (or any register-dependent instruction) could ever be
    /// scheduled. Detected at [`SimulatorBuilder::build`] so a sweep fails before
    /// executing a single instruction instead of panicking mid-program.
    NoCrSlots {
        /// Debug rendering of the offending floorplan.
        floorplan: String,
    },
    /// The run exceeded the configured instruction budget (the sharded-sweep
    /// per-point timeout hook, set via `LSQCA_INSTRUCTION_BUDGET` or
    /// [`SimulatorBuilder::instruction_budget`]): a deterministic stand-in for a
    /// wall-clock timeout, so a runaway point aborts the worker at the same
    /// instruction on every attempt and the supervisor can quarantine it.
    InstructionBudget {
        /// The budget that was exceeded, in instructions.
        budget: u64,
    },
}

impl SimError {
    /// Index of the offending instruction, when the error is tied to one.
    pub fn instruction_index(&self) -> Option<usize> {
        match self {
            SimError::Instruction { index, .. } => Some(*index),
            SimError::NoCrSlots { .. } | SimError::InstructionBudget { .. } => None,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Instruction {
                index,
                instruction,
                source,
            } => write!(f, "instruction {index} (`{instruction}`) failed: {source}"),
            SimError::NoCrSlots { floorplan } => write!(
                f,
                "floorplan {floorplan} bounds CR registers but provides no register slot"
            ),
            SimError::InstructionBudget { budget } => write!(
                f,
                "run exceeded the instruction budget of {budget} \
                 (LSQCA_INSTRUCTION_BUDGET)"
            ),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Instruction { source, .. } => Some(source),
            SimError::NoCrSlots { .. } | SimError::InstructionBudget { .. } => None,
        }
    }
}

/// The result of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Aggregate execution metrics.
    pub stats: ExecutionStats,
    /// The memory reference trace (empty unless trace recording was enabled).
    pub trace: MemoryTrace,
}

/// The typed error for a bounded-register floorplan with no register slot.
fn no_cr_slots(floorplan: &FloorplanKind) -> SimError {
    SimError::NoCrSlots {
        floorplan: format!("{floorplan:?}"),
    }
}

/// The code-beat-accurate simulator.
///
/// A `Simulator` owns the memory system (and the migration policy driving
/// it) for one run; the resource ready-times and the magic-state supplies
/// live in per-run timing lanes, one lane per factory count. Use
/// [`simulate`] for the common one-shot case.
/// Construct one with [`Simulator::builder`] and execute any input kind with
/// [`Simulator::execute`], or with [`Simulator::execute_factories`] to run
/// one input at several magic-state factory counts over one shared memory
/// walk; a reused simulator resets itself before each run.
#[derive(Debug, Clone)]
pub struct Simulator {
    memory: MemorySystem,
    config: SimConfig,
    unbounded_registers: bool,
    /// The memory pass's per-block output, read by every timing pass.
    block: BlockScratch,
    /// The construction inputs, kept so [`Simulator::reset`] can rebuild the
    /// pristine architectural state on demand. Rebuilding costs the same as
    /// the original construction and nothing is cloned up front, so the
    /// dominant build-once-run-once path (every sweep iteration) pays zero
    /// for the reuse support.
    arch: ArchConfig,
    num_qubits: u32,
    hot_qubits: Vec<QubitTag>,
    /// True once a run has mutated the architectural state.
    dirty: bool,
    /// Optional runtime hot-set migration policy. Consulted for every memory
    /// operand of every load/store/in-memory instruction; legal proposals are
    /// applied through [`MemorySystem::migrate`] and metered into
    /// `ExecutionStats::migration_beats`.
    migration: Option<Box<dyn MigrationPolicy>>,
    /// Abort a run after this many instructions with
    /// [`SimError::InstructionBudget`]. `None` (the default) never aborts.
    /// Deliberately *not* part of [`SimConfig`]: the budget is an execution
    /// guard, not an experiment parameter, and must not perturb result-store
    /// keys (which embed the experiment config).
    instruction_budget: Option<u64>,
}

impl Simulator {
    /// Starts building a simulator for `num_qubits` data qubits on the given
    /// architecture — the one construction path. Every knob (hot set, config,
    /// migration policy, instruction budget) is set on the
    /// [`SimulatorBuilder`], and the configuration is validated exactly once
    /// at [`SimulatorBuilder::build`].
    pub fn builder(arch: &ArchConfig, num_qubits: u32) -> SimulatorBuilder {
        SimulatorBuilder {
            arch: arch.clone(),
            num_qubits,
            hot_qubits: Vec::new(),
            config: SimConfig::default(),
            migration: None,
            instruction_budget: None,
        }
    }

    /// The validated construction behind [`SimulatorBuilder::build`]. Every
    /// successful pass counts as one full warm-up in [`warm_count`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoCrSlots`] if the architecture bounds CR registers
    /// (a non-conventional floorplan with at least one bank) yet provides zero
    /// register slots, a state no instruction stream could execute under.
    fn construct(
        arch: &ArchConfig,
        num_qubits: u32,
        hot_qubits: &[QubitTag],
        config: SimConfig,
    ) -> Result<Self, SimError> {
        let _span = lsqca_telemetry::span("sim.warm");
        let memory = MemorySystem::new(arch, num_qubits, hot_qubits);
        // The register-slot count is the memory system's own CR accounting:
        // `effective_cr_slots` floors the configured count at
        // `MemorySystem::MIN_CR_SLOTS` because the minimal CR charged by
        // `cr_cells` (the six-cell block of Fig. 10a / the two line columns
        // of Fig. 10b) already contains two register cells. On CR-less
        // floorplans the value only sizes the scheduler's slot array — the
        // slots impose no constraint there (see `unbounded_registers`).
        let cr_slots = memory.effective_cr_slots();
        // The conventional baseline has no CR, so register slots impose no
        // constraint; a hybrid floorplan whose hot set covers every qubit
        // (f = 1) degenerates to the same baseline, matching the paper's
        // statement that the f = 1 endpoint is the conventional floorplan.
        let unbounded_registers = arch.floorplan.is_conventional() || memory.bank_count() == 0;
        if !unbounded_registers && cr_slots == 0 {
            return Err(no_cr_slots(&arch.floorplan));
        }
        builds_counter().inc();
        Ok(Simulator {
            unbounded_registers,
            arch: arch.clone(),
            num_qubits,
            hot_qubits: hot_qubits.to_vec(),
            dirty: false,
            migration: None,
            memory,
            config,
            block: BlockScratch::default(),
            instruction_budget: env_instruction_budget(),
        })
    }

    /// The memory system being simulated (for density queries).
    pub fn memory(&self) -> &MemorySystem {
        &self.memory
    }

    /// Initializes `policy` with this simulator's qubit count and pinned hot
    /// set and attaches it. [`Simulator::reset`] re-initializes it, so
    /// consecutive runs each start from the compile-time hot set.
    fn attach_policy(&mut self, mut policy: Box<dyn MigrationPolicy>) {
        policy.begin(self.num_qubits, &self.hot_qubits);
        self.migration = Some(policy);
    }

    /// Detaches the migration policy, if any.
    pub fn clear_migration_policy(&mut self) {
        self.migration = None;
    }

    /// The attached migration policy's name, if any.
    pub fn migration_policy_name(&self) -> Option<&'static str> {
        self.migration.as_deref().map(MigrationPolicy::name)
    }

    /// Restores the simulator to its just-constructed state: the memory
    /// system and the migration policy. (Ready times, the skip guard and the
    /// magic-state supplies belong to per-run timing lanes, which every run
    /// builds fresh.)
    ///
    /// [`Simulator::execute`] calls this automatically when the simulator has
    /// already executed a program, so consecutive runs each start from the
    /// pristine architectural state rather than silently continuing from
    /// wherever the previous program left the memory. The restore rebuilds
    /// the memory system from the kept construction inputs, so the dominant
    /// build-once-run-once path (every sweep point) keeps no pristine copy
    /// and pays nothing for reuse.
    pub fn reset(&mut self) {
        self.memory = MemorySystem::new(&self.arch, self.num_qubits, &self.hot_qubits);
        if let Some(policy) = &mut self.migration {
            policy.begin(self.num_qubits, &self.hot_qubits);
        }
        self.dirty = false;
    }

    /// Starts a run: resets a dirty simulator and counts `runs` simulated
    /// points over one memory walk.
    fn begin_walk(&mut self, runs: usize) {
        runs_counter().add(runs as u64);
        walks_counter().inc();
        if self.dirty {
            self.reset();
        }
        self.dirty = true;
    }

    /// The pristine timing lanes for `factories` magic-state factories, one
    /// lane per count.
    fn timing_lanes<const W: usize>(&self, factories: &[u32]) -> TimingLanes<W> {
        TimingLanes::new(&self.arch, factories, &self.memory, self.num_qubits)
    }

    /// The memory-side statistics every run starts from.
    fn initial_stats(&self) -> ExecutionStats {
        ExecutionStats {
            memory_density: self.memory.memory_density(),
            total_cells: self.memory.total_cells(),
            ..ExecutionStats::default()
        }
    }

    /// Executes any [`Executable`] input — the single run entry point, and
    /// the one-element case of [`Simulator::execute_factories`] at the
    /// architecture's own factory count.
    ///
    /// The input kind selects the engine path: a [`Program`] is lowered into
    /// a fresh trace and executed through the trace engine, an
    /// [`ExecutionTrace`] or [`CompiledWorkload`] executes its trace
    /// directly (no per-run lowering), and a [`Classified`] pair
    /// drives the retained reference interpreter. All paths share one
    /// contract: each call starts from the pristine architectural state — if
    /// the simulator has already run (even a run that failed part-way),
    /// [`Simulator::reset`] is applied first, so execution is deterministic
    /// under reuse instead of silently continuing from mutated memory and
    /// ready-time state.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if the instruction stream is inconsistent with the
    /// memory state (for example, loading a qubit twice without storing it, or
    /// storing a qubit that was never checked out of its bank).
    pub fn execute(&mut self, input: &impl Executable) -> Result<SimOutcome, SimError> {
        let factories = self.arch.factories;
        let mut outcomes = input.execute_on(self, &[factories])?;
        Ok(outcomes.pop().expect("one outcome per factory count"))
    }

    /// Executes `input` once per entry of `factories`, as if on a simulator
    /// built with `ArchConfig { factories: f, ..arch }` for each `f`, and
    /// returns the outcomes in the same order (duplicates included).
    ///
    /// The factory count changes only *when* instructions start, never what
    /// the memory system does: construction, every bank operation and the
    /// migration policies are independent of time. So the trace engine walks
    /// memory once, and one timing pass per block advances every count
    /// together: each ready-table entry holds one lane per count, so a record
    /// is decoded once for all of them. Lists of more than four counts
    /// advance in groups of at most four lanes over the same block. A
    /// [`Classified`] input runs the reference interpreter once per count
    /// instead, resetting between runs, which makes it the oracle for the
    /// shared walk. A magic-buffer override on the architecture applies to
    /// every count.
    ///
    /// # Errors
    ///
    /// Returns exactly the error [`Simulator::execute`] returns for the same
    /// input at any of the counts: the earliest of the instruction budget, a
    /// missing CR slot, or a memory error. An empty `factories` list runs
    /// nothing and returns no outcome.
    pub fn execute_factories(
        &mut self,
        input: &impl Executable,
        factories: &[u32],
    ) -> Result<Vec<SimOutcome>, SimError> {
        if factories.is_empty() {
            return Ok(Vec::new());
        }
        input.execute_on(self, factories)
    }

    /// The [`ExecutionTrace`] engine path — the optimized engine, one memory
    /// walk shared by one timing lane per entry of `factories`.
    ///
    /// The trace is a struct-of-arrays rendering of the instruction stream
    /// (see [`lsqca_isa::trace_compile`]): opcodes and operand slots, with
    /// each opcode's execution kind, fixed-beat charge and dependency flags
    /// in one static table, so this walk tests precomputed flag bits over
    /// flat arrays instead of re-matching `Instruction` variants per step.
    ///
    /// The walk proceeds in blocks of [`BLOCK`] records: the **memory pass**
    /// (`engine/memory_pass.rs`), then the **timing pass** of each lane
    /// group (`engine/timing.rs`). This is exact because nothing in the
    /// memory pass reads a time: memory construction ignores the factory
    /// count, bank operations take qubits only, and migration policies are
    /// clocked by instruction index.
    ///
    /// Each outcome equals [`Simulator::execute_classified`]'s at its factory
    /// count; `engine/interpret.rs` states the contract.
    fn execute_trace(
        &mut self,
        trace: &ExecutionTrace,
        factories: &[u32],
    ) -> Result<Vec<SimOutcome>, SimError> {
        self.begin_walk(factories.len());
        if self.memory.bank_count() == 0 {
            self.walk_slots::<{ bank_mode::BANKLESS }>(trace, factories)
        } else if self.memory.bank_count() == 1 && self.memory.conventional_qubits() == 0 {
            self.walk_slots::<{ bank_mode::UNIFORM }>(trace, factories)
        } else {
            self.walk_slots::<{ bank_mode::RESOLVED }>(trace, factories)
        }
    }

    /// [`Simulator::walk`] under the bank mode `MODE` and the trace's slot
    /// type.
    fn walk_slots<const MODE: u8>(
        &mut self,
        trace: &ExecutionTrace,
        factories: &[u32],
    ) -> Result<Vec<SimOutcome>, SimError> {
        if trace.is_narrow() {
            self.walk::<MODE, u16>(trace, factories)
        } else {
            self.walk::<MODE, u32>(trace, factories)
        }
    }

    /// The blocked walk of [`Simulator::execute_trace`] under the bank mode
    /// `MODE`, over a trace whose operand slots are `S`.
    fn walk<const MODE: u8, S: Slot>(
        &mut self,
        trace: &ExecutionTrace,
        factories: &[u32],
    ) -> Result<Vec<SimOutcome>, SimError> {
        let mut groups: Vec<LaneGroup> = factories
            .chunks(LANES)
            .map(|group| LaneGroup::new(self, group, trace))
            .collect();
        let mut stats = self.initial_stats();
        let ctx = TimingContext {
            bounded_registers: !self.unbounded_registers,
            infinite_magic: self.config.assume_infinite_magic,
            record_trace: self.config.record_trace,
            floorplan: &self.arch.floorplan,
        };
        let mut pass = MemoryPass {
            memory: &mut self.memory,
            migration: self.migration.as_deref_mut(),
            budget: self.instruction_budget.unwrap_or(u64::MAX),
        };
        let block = &mut self.block;
        let len = trace.len();
        block.reserve(len, MODE == bank_mode::RESOLVED);

        // The walk split: one clock read after each pass of a block, each
        // read also starting the next pass.
        let mut pass_ns = [0u64; 2];
        let mut clock = Instant::now();
        let mut lap = |pass: usize| {
            let now = Instant::now();
            pass_ns[pass] += now.duration_since(clock).as_nanos() as u64;
            clock = now;
        };
        let mut failure = None;
        let mut start = 0;
        while start < len && failure.is_none() {
            let end = (start + BLOCK).min(len);
            // A failing memory pass stops at the offending record; the
            // timing pass still covers the records before it, where an
            // earlier missing-CR-slot error would take precedence.
            let memory_failure = pass
                .run::<MODE, S>(trace, start..end, &mut stats, block)
                .err();
            lap(0);
            let walked = memory_failure.as_ref().map_or(end, |&(index, _)| index);
            let advanced = groups
                .iter_mut()
                .try_for_each(|group| group.advance::<MODE, S>(trace, start..walked, block, &ctx));
            lap(1);
            failure = match (advanced, memory_failure) {
                (Err(err), _) => Some(err),
                // The single run claims the CX slot before the memory access,
                // so a slotless CX reports `NoCrSlots` over its memory error.
                // The slot table is identical across lanes.
                (Ok(()), Some((index, err))) => Some(
                    if OpInfo::of(trace.ops()[index]).exec == ExecKind::Cx
                        && ctx.bounded_registers
                        && groups[0].slotless()
                        && matches!(err, SimError::Instruction { .. })
                    {
                        no_cr_slots(ctx.floorplan)
                    } else {
                        err
                    },
                ),
                (Ok(()), None) => None,
            };
            start = end;
        }
        for (counter, ns) in pass_counters().iter().zip(pass_ns) {
            counter.add(ns);
        }
        if let Some(err) = failure {
            return Err(err);
        }

        let mut outcomes = Vec::with_capacity(factories.len());
        for group in groups {
            group.finish(&stats, &mut outcomes);
        }
        Ok(outcomes)
    }
}

mod sealed {
    /// The seal on [`Executable`](super::Executable): the set of input kinds
    /// the simulator can execute is fixed here, so the engine paths stay
    /// private and downstream code cannot smuggle in a fifth dispatch arm.
    pub trait Sealed {}

    impl Sealed for lsqca_isa::Program {}
    impl Sealed for lsqca_isa::ExecutionTrace {}
    impl Sealed for lsqca_workloads::CompiledWorkload {}
    impl Sealed for super::Classified<'_> {}
}

/// An input the simulator can execute through [`Simulator::execute`] and
/// [`Simulator::execute_factories`].
///
/// The trait is sealed: the implementors are exactly [`Program`] (lowered
/// into a fresh trace per run), [`ExecutionTrace`] and
/// [`CompiledWorkload`] (whose trace the compiler wrote, executed
/// directly), and [`Classified`]
/// (the reference interpreter). Each selects its engine path itself, so
/// callers never pick — or mismatch — a `run_*` variant again.
pub trait Executable: sealed::Sealed {
    /// Dispatches `simulator` onto the engine path for this input kind, one
    /// outcome per entry of the non-empty `factories`.
    #[doc(hidden)]
    fn execute_on(
        &self,
        simulator: &mut Simulator,
        factories: &[u32],
    ) -> Result<Vec<SimOutcome>, SimError>;
}

impl Executable for Program {
    fn execute_on(
        &self,
        simulator: &mut Simulator,
        factories: &[u32],
    ) -> Result<Vec<SimOutcome>, SimError> {
        simulator.execute_trace(&lsqca_isa::lower(self), factories)
    }
}

impl Executable for ExecutionTrace {
    fn execute_on(
        &self,
        simulator: &mut Simulator,
        factories: &[u32],
    ) -> Result<Vec<SimOutcome>, SimError> {
        simulator.execute_trace(self, factories)
    }
}

impl Executable for CompiledWorkload {
    fn execute_on(
        &self,
        simulator: &mut Simulator,
        factories: &[u32],
    ) -> Result<Vec<SimOutcome>, SimError> {
        simulator.execute_trace(self.trace(), factories)
    }
}

/// Builder for [`Simulator`] — the one construction path, validating the
/// whole configuration exactly once at [`SimulatorBuilder::build`].
///
/// ```
/// use lsqca_arch::{ArchConfig, FloorplanKind};
/// use lsqca_sim::Simulator;
///
/// let arch = ArchConfig::new(FloorplanKind::PointSam { banks: 1 }, 1);
/// let simulator = Simulator::builder(&arch, 16).build().unwrap();
/// assert!(simulator.memory().total_cells() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct SimulatorBuilder {
    arch: ArchConfig,
    num_qubits: u32,
    hot_qubits: Vec<QubitTag>,
    config: SimConfig,
    migration: Option<Box<dyn MigrationPolicy>>,
    /// `Some(budget)` overrides the process-wide `LSQCA_INSTRUCTION_BUDGET`
    /// default (including `Some(None)` = explicitly unguarded); `None`
    /// inherits it.
    instruction_budget: Option<Option<u64>>,
}

impl SimulatorBuilder {
    /// Pins `hot` into the conventional region of a hybrid floorplan (see
    /// [`MemorySystem::new`]).
    pub fn hot_qubits(mut self, hot: &[QubitTag]) -> Self {
        self.hot_qubits = hot.to_vec();
        self
    }

    /// Replaces the whole [`SimConfig`].
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Aborts runs after `budget` instructions with
    /// [`SimError::InstructionBudget`]; `None` disables the guard, including
    /// the process-wide `LSQCA_INSTRUCTION_BUDGET` default that otherwise
    /// applies.
    pub fn instruction_budget(mut self, budget: Option<u64>) -> Self {
        self.instruction_budget = Some(budget);
        self
    }

    /// Attaches a runtime hot-set [`MigrationPolicy`]; it is initialized
    /// with the qubit count and pinned hot set at build time. Pass the boxed
    /// policy from [`lsqca_arch::PolicyKind::build`] or a custom
    /// implementation.
    pub fn migration_policy(mut self, policy: Box<dyn MigrationPolicy>) -> Self {
        self.migration = Some(policy);
        self
    }

    /// Validates the configuration and builds the simulator.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoCrSlots`] if the architecture bounds CR
    /// registers (a non-conventional floorplan with at least one bank) yet
    /// provides zero register slots, a state no instruction stream could
    /// execute under.
    pub fn build(self) -> Result<Simulator, SimError> {
        let mut simulator =
            Simulator::construct(&self.arch, self.num_qubits, &self.hot_qubits, self.config)?;
        if let Some(budget) = self.instruction_budget {
            simulator.instruction_budget = budget;
        }
        if let Some(policy) = self.migration {
            simulator.attach_policy(policy);
        }
        Ok(simulator)
    }
}

/// The process-wide instruction budget `LSQCA_INSTRUCTION_BUDGET` selects:
/// a positive integer enables the guard, anything else (unset, empty, `0`,
/// non-numeric) disables it. Read once; every simulator constructed in this
/// process inherits it (override per instance with
/// [`SimulatorBuilder::instruction_budget`]).
fn env_instruction_budget() -> Option<u64> {
    static BUDGET: std::sync::OnceLock<Option<u64>> = std::sync::OnceLock::new();
    *BUDGET.get_or_init(|| {
        std::env::var("LSQCA_INSTRUCTION_BUDGET")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|&b| b > 0)
    })
}

/// Simulates `program` on the given architecture and returns the outcome.
///
/// `num_qubits` is the number of data qubits (SAM addresses) the program uses;
/// if the program references a higher address, the larger value is used.
/// `hot_qubits` lists qubits pinned into the conventional region of a hybrid
/// floorplan.
///
/// # Panics
///
/// Panics if the program is malformed with respect to the memory model (for
/// example, an in-memory operation on a qubit that is still checked out). Use
/// [`Program::validate`] and the compiler to produce well-formed programs, or
/// drive [`Simulator::execute`] directly to handle the error.
pub fn simulate(
    program: &Program,
    num_qubits: u32,
    arch: &ArchConfig,
    hot_qubits: &[QubitTag],
    config: SimConfig,
) -> SimOutcome {
    let footprint = program
        .iter()
        .flat_map(|i| i.memory_operands())
        .map(|m| m.index() + 1)
        .max()
        .unwrap_or(0);
    let qubits = num_qubits.max(footprint).max(1);
    // One construction path, one run entry point: the free function is the
    // builder + `execute` composed, nothing more.
    let mut simulator = match Simulator::builder(arch, qubits)
        .hot_qubits(hot_qubits)
        .config(config)
        .build()
    {
        Ok(simulator) => simulator,
        Err(err) => panic!("invalid simulator configuration: {err}"),
    };
    match simulator.execute(program) {
        Ok(outcome) => outcome,
        Err(err) => panic!("simulation of `{}` failed: {err}", program.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsqca_arch::FloorplanKind;
    use lsqca_isa::{ClassicalId, Instruction, MemAddr, RegId};
    use lsqca_lattice::Beats;

    fn point(factories: u32) -> ArchConfig {
        ArchConfig::new(FloorplanKind::PointSam { banks: 1 }, factories)
    }

    fn line(banks: u32, factories: u32) -> ArchConfig {
        ArchConfig::new(FloorplanKind::LineSam { banks }, factories)
    }

    fn sim(arch: &ArchConfig, qubits: u32) -> Simulator {
        Simulator::builder(arch, qubits).build().unwrap()
    }

    #[test]
    fn empty_program_finishes_instantly() {
        let program = Program::new("empty");
        let outcome = simulate(&program, 4, &point(1), &[], SimConfig::default());
        assert_eq!(outcome.stats.total_beats, Beats::ZERO);
        assert_eq!(outcome.stats.instruction_count, 0);
        assert_eq!(outcome.stats.cpi(), 0.0);
    }

    #[test]
    fn fixed_latency_instructions_accumulate_serially() {
        let mut program = Program::new("serial");
        // Three dependent in-memory gates on the same qubit in the conventional
        // floorplan: 3 + 2 + 2 beats.
        program.push(Instruction::HdM { mem: MemAddr(0) });
        program.push(Instruction::PhM { mem: MemAddr(0) });
        program.push(Instruction::PhM { mem: MemAddr(0) });
        let outcome = simulate(
            &program,
            1,
            &ArchConfig::conventional(1),
            &[],
            SimConfig::default(),
        );
        assert_eq!(outcome.stats.total_beats, Beats(7));
        assert_eq!(outcome.stats.command_count, 3);
    }

    #[test]
    fn independent_gates_overlap_on_the_conventional_floorplan() {
        let mut program = Program::new("parallel");
        for q in 0..8 {
            program.push(Instruction::HdM { mem: MemAddr(q) });
        }
        let outcome = simulate(
            &program,
            8,
            &ArchConfig::conventional(1),
            &[],
            SimConfig::default(),
        );
        // All eight Hadamards run concurrently.
        assert_eq!(outcome.stats.total_beats, Beats(3));
    }

    #[test]
    fn sam_bank_serializes_memory_accesses() {
        let mut program = Program::new("serialized");
        for q in 0..8 {
            program.push(Instruction::HdM { mem: MemAddr(q) });
        }
        let outcome = simulate(&program, 8, &point(1), &[], SimConfig::default());
        // A single scan cell forces the eight in-memory gates to take turns, so
        // the total is at least 8 gates × 3 beats.
        assert!(outcome.stats.total_beats >= Beats(24));
    }

    #[test]
    fn multi_bank_sam_recovers_parallelism() {
        let mut program = Program::new("banked");
        for q in 0..8 {
            program.push(Instruction::HdM { mem: MemAddr(q) });
        }
        let single = simulate(&program, 8, &line(1, 1), &[], SimConfig::default());
        let quad = simulate(&program, 8, &line(4, 1), &[], SimConfig::default());
        assert!(quad.stats.total_beats < single.stats.total_beats);
    }

    #[test]
    fn magic_state_supply_throttles_t_gates() {
        // Twenty magic-state requests with one factory: at least ~(20-3)*15 beats.
        let mut program = Program::new("magic");
        for i in 0..20u32 {
            program.push(Instruction::Pm { reg: RegId(0) });
            program.push(Instruction::MxC {
                reg: RegId(0),
                out: ClassicalId(i),
            });
        }
        let outcome = simulate(&program, 1, &point(1), &[], SimConfig::default());
        assert!(outcome.stats.total_beats >= Beats(250));
        assert_eq!(outcome.stats.magic_states, 20);
        assert!(outcome.stats.magic_wait_beats > Beats(100));

        // Four factories are four times faster (up to buffering effects).
        let four = simulate(&program, 1, &point(4), &[], SimConfig::default());
        assert!(four.stats.total_beats.as_u64() < outcome.stats.total_beats.as_u64() / 2);

        // The motivation-study mode removes the bottleneck entirely.
        let free = simulate(
            &program,
            1,
            &point(1),
            &[],
            SimConfig {
                assume_infinite_magic: true,
                ..SimConfig::default()
            },
        );
        assert!(free.stats.total_beats < Beats(60));
    }

    #[test]
    fn skip_waits_for_its_classical_value() {
        let mut program = Program::new("skip");
        program.push(Instruction::HdM { mem: MemAddr(0) }); // finishes at 3
        program.push(Instruction::MzM {
            mem: MemAddr(0),
            out: ClassicalId(0),
        }); // finishes at 3
        program.push(Instruction::Sk {
            cond: ClassicalId(0),
        });
        program.push(Instruction::PhM { mem: MemAddr(1) }); // independent qubit but guarded
        let outcome = simulate(
            &program,
            2,
            &ArchConfig::conventional(1),
            &[],
            SimConfig::default(),
        );
        // The guarded phase gate cannot start before beat 3 even though its
        // operand is free, so the total is 3 + 2.
        assert_eq!(outcome.stats.total_beats, Beats(5));
    }

    #[test]
    fn load_store_round_trip_runs_on_sam() {
        let mut program = Program::new("ldst");
        program.push(Instruction::Ld {
            mem: MemAddr(30),
            reg: RegId(0),
        });
        program.push(Instruction::HdC { reg: RegId(0) });
        program.push(Instruction::St {
            reg: RegId(0),
            mem: MemAddr(30),
        });
        let outcome = simulate(&program, 64, &point(1), &[], SimConfig::default());
        assert_eq!(outcome.stats.loads, 1);
        assert_eq!(outcome.stats.stores, 1);
        assert!(outcome.stats.total_beats > Beats(3));
        assert!(outcome.stats.memory_access_beats > Beats::ZERO);
    }

    #[test]
    fn malformed_programs_report_errors() {
        let mut program = Program::new("bad");
        program.push(Instruction::Ld {
            mem: MemAddr(0),
            reg: RegId(0),
        });
        // Loading the same qubit again without storing it is inconsistent.
        program.push(Instruction::Ld {
            mem: MemAddr(0),
            reg: RegId(1),
        });
        let mut simulator = sim(&point(1), 4);
        let err = simulator.execute(&program).unwrap_err();
        assert_eq!(err.instruction_index(), Some(1));
        assert!(err.to_string().contains("LD"));
    }

    #[test]
    fn construction_is_validated_up_front() {
        // Every floorplan the architecture model can currently express either
        // bounds registers with at least `MIN_CR_SLOTS` slots or lifts the
        // bound entirely, so `build` accepts them all; the typed error is
        // the contract for configurations that violate the invariant.
        let simulator = Simulator::builder(&point(1), 4).build();
        assert!(simulator.is_ok());

        let err = SimError::NoCrSlots {
            floorplan: "PointSam { banks: 1 }".to_string(),
        };
        assert_eq!(err.instruction_index(), None);
        assert!(err.to_string().contains("no register slot"));
        assert!(std::error::Error::source(&err).is_none());
    }

    #[test]
    fn rerunning_a_simulator_is_deterministic() {
        // A program whose outcome depends on the memory layout: rerunning it
        // on a dirty simulator used to continue from the mutated (locality-
        // shuffled) grid and produce different beat counts.
        let mut program = Program::new("rerun");
        for q in 0..12u32 {
            program.push(Instruction::Cx {
                control: MemAddr(q),
                target: MemAddr((q + 3) % 12),
            });
        }
        let mut simulator = sim(&point(1), 12);
        let first = simulator.execute(&program).unwrap();
        let second = simulator.execute(&program).unwrap();
        assert_eq!(first, second);
        // An explicit reset gives the same pristine start.
        simulator.reset();
        let third = simulator.execute(&program).unwrap();
        assert_eq!(first, third);
    }

    #[test]
    fn rerun_does_not_inherit_grown_slot_tables() {
        // Four bank-disjoint CXs contend for the two CR slots; the trailing
        // load/store touches RegId(5), growing the per-RegId ready table past
        // the CR slot count. A rerun must not treat the grown zeroed entries
        // as extra free ancilla slots (regression: reset() used to zero the
        // table without restoring its construction length).
        let mut program = Program::new("slot-growth");
        for q in 0..4u32 {
            program.push(Instruction::Cx {
                control: MemAddr(2 * q),
                target: MemAddr(2 * q + 1),
            });
        }
        program.push(Instruction::Ld {
            mem: MemAddr(16),
            reg: RegId(5),
        });
        program.push(Instruction::St {
            reg: RegId(5),
            mem: MemAddr(16),
        });
        let arch = line(8, 1);
        let mut simulator = sim(&arch, 32);
        let first = simulator.execute(&program).unwrap();
        let second = simulator.execute(&program).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn run_after_a_failed_run_starts_from_pristine_state() {
        let mut bad = Program::new("bad");
        bad.push(Instruction::Ld {
            mem: MemAddr(0),
            reg: RegId(0),
        });
        bad.push(Instruction::Ld {
            mem: MemAddr(0),
            reg: RegId(1),
        });
        let mut good = Program::new("good");
        good.push(Instruction::Ld {
            mem: MemAddr(0),
            reg: RegId(0),
        });
        good.push(Instruction::St {
            reg: RegId(0),
            mem: MemAddr(0),
        });
        let mut simulator = sim(&point(1), 4);
        let expected = simulator.execute(&good).unwrap();
        simulator.execute(&bad).unwrap_err();
        // The failed run left qubit 0 checked out; the next run must not see
        // that state.
        let outcome = simulator.execute(&good).unwrap();
        assert_eq!(outcome, expected);
    }

    #[test]
    fn repeated_store_reports_the_offending_instruction() {
        let mut program = Program::new("double-store");
        program.push(Instruction::Ld {
            mem: MemAddr(1),
            reg: RegId(0),
        });
        program.push(Instruction::St {
            reg: RegId(0),
            mem: MemAddr(1),
        });
        program.push(Instruction::St {
            reg: RegId(0),
            mem: MemAddr(1),
        });
        let mut simulator = sim(&point(1), 4);
        let err = simulator.execute(&program).unwrap_err();
        assert_eq!(err.instruction_index(), Some(2));
        assert!(matches!(
            err,
            SimError::Instruction {
                source: lsqca_lattice::LatticeError::QubitAlreadyPlaced { .. },
                ..
            }
        ));
        assert!(err.to_string().contains("ST"));
    }

    #[test]
    fn cx_counts_its_internal_loads_and_stores() {
        let mut program = Program::new("cx-implicit");
        program.push(Instruction::Cx {
            control: MemAddr(0),
            target: MemAddr(1),
        });
        program.push(Instruction::Cx {
            control: MemAddr(2),
            target: MemAddr(3),
        });
        let outcome = simulate(&program, 16, &point(1), &[], SimConfig::default());
        // The CX expansion loads the cheaper operand and stores it back, but
        // the program text contains no LD/ST: explicit and implicit counters
        // stay separate.
        assert_eq!(outcome.stats.loads, 0);
        assert_eq!(outcome.stats.stores, 0);
        assert_eq!(outcome.stats.implicit_loads, 2);
        assert_eq!(outcome.stats.implicit_stores, 2);
        assert!(outcome.stats.memory_access_beats > Beats::ZERO);
    }

    #[test]
    fn run_compiled_matches_run_and_skips_classification() {
        use lsqca_workloads::{Benchmark, CompiledWorkload, InstanceSize};
        let cfg = Benchmark::SquareRoot.config(InstanceSize::Reduced);
        let circuit = cfg.build();
        let config = lsqca_compiler::CompilerConfig::default();
        let workload = CompiledWorkload::compile(cfg.descriptor(), &circuit, config);
        let program = lsqca_compiler::compile(&circuit, config).program;
        let qubits = workload.num_qubits().max(workload.memory_footprint());
        let mut simulator = sim(&point(1), qubits);
        let via_program = simulator.execute(&program).unwrap();
        let via_artifact = simulator.execute(&workload).unwrap();
        assert_eq!(via_program, via_artifact);
        assert!(via_artifact.stats.command_count > 0);
    }

    #[test]
    #[should_panic(expected = "not parallel")]
    fn mismatched_class_vector_is_rejected() {
        let mut program = Program::new("mismatch");
        program.push(Instruction::HdM { mem: MemAddr(0) });
        let mut simulator = sim(&point(1), 1);
        let _ = simulator.execute(&Classified::new(&program, &[]));
    }

    #[test]
    fn trace_recording_captures_memory_references() {
        let mut program = Program::new("trace");
        program.push(Instruction::HdM { mem: MemAddr(0) });
        program.push(Instruction::Cx {
            control: MemAddr(0),
            target: MemAddr(1),
        });
        let outcome = simulate(
            &program,
            2,
            &ArchConfig::conventional(1),
            &[],
            SimConfig::default().with_trace(),
        );
        assert_eq!(outcome.trace.len(), 3);
        assert_eq!(outcome.trace.access_counts()[&MemAddr(0)], 2);
    }

    #[test]
    fn conventional_is_never_slower_than_point_sam() {
        // A chain of dependent CX gates touching many distinct qubits.
        let mut program = Program::new("chain");
        for q in 0..30u32 {
            program.push(Instruction::Cx {
                control: MemAddr(q),
                target: MemAddr(q + 1),
            });
        }
        let conventional = simulate(
            &program,
            31,
            &ArchConfig::conventional(1),
            &[],
            SimConfig::default(),
        );
        let sam = simulate(&program, 31, &point(1), &[], SimConfig::default());
        assert!(conventional.stats.total_beats <= sam.stats.total_beats);
        assert!(conventional.stats.memory_density <= sam.stats.memory_density);
    }

    #[test]
    fn migration_policy_promotes_a_hot_loop_qubit() {
        use lsqca_arch::PolicyKind;
        // Qubit 30 is hammered but the compile-time hot set pins qubit 0;
        // the frequency policy should promote 30 and strip its seek costs.
        let mut program = Program::new("loop");
        for _ in 0..40 {
            program.push(Instruction::HdM { mem: MemAddr(30) });
            program.push(Instruction::Cx {
                control: MemAddr(30),
                target: MemAddr(31),
            });
        }
        let arch = point(1).with_hybrid_fraction(0.05);
        let hot = [QubitTag(0), QubitTag(1)];
        let mut pinned = Simulator::builder(&arch, 64)
            .hot_qubits(&hot)
            .build()
            .unwrap();
        let static_run = pinned.execute(&program).unwrap();
        assert_eq!(static_run.stats.migrations, 0);

        let mut adaptive = Simulator::builder(&arch, 64)
            .hot_qubits(&hot)
            .migration_policy(PolicyKind::FreqDecay.build())
            .build()
            .unwrap();
        assert_eq!(adaptive.migration_policy_name(), Some("freq-decay"));
        let dynamic_run = adaptive.execute(&program).unwrap();
        assert!(dynamic_run.stats.migrations > 0);
        assert!(dynamic_run.stats.migration_beats > Beats::ZERO);
        assert!(
            dynamic_run.stats.memory_access_beats < static_run.stats.memory_access_beats,
            "promotion should strip seek beats ({} >= {})",
            dynamic_run.stats.memory_access_beats,
            static_run.stats.memory_access_beats
        );
        // Reruns re-begin the policy from the pinned hot set: deterministic.
        let again = adaptive.execute(&program).unwrap();
        assert_eq!(dynamic_run, again);
        // The static policy is observationally the pinned baseline.
        let mut inert = Simulator::builder(&arch, 64)
            .hot_qubits(&hot)
            .migration_policy(PolicyKind::Static.build())
            .build()
            .unwrap();
        let inert_run = inert.execute(&program).unwrap();
        assert_eq!(inert_run.stats.migrations, 0);
        assert_eq!(inert_run.stats.total_beats, static_run.stats.total_beats);
        // Detaching restores the plain simulator.
        adaptive.clear_migration_policy();
        assert_eq!(adaptive.migration_policy_name(), None);
        let detached = adaptive.execute(&program).unwrap();
        assert_eq!(detached, static_run);
    }

    #[test]
    fn store_time_proposals_are_dropped_not_applied() {
        use lsqca_arch::{FreqDecayPolicy, MigrationPolicy};
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        /// Wraps the frequency policy and counts its proposals, so the test
        /// can observe proposals the engine dropped (vs applied).
        #[derive(Debug, Clone)]
        struct Counting {
            inner: FreqDecayPolicy,
            proposals: Arc<AtomicU64>,
        }
        impl MigrationPolicy for Counting {
            fn name(&self) -> &'static str {
                "counting"
            }
            fn begin(&mut self, num_qubits: u32, hot: &[QubitTag]) {
                self.inner.begin(num_qubits, hot);
            }
            fn on_access(&mut self, qubit: QubitTag, now: u64) -> Option<QubitTag> {
                let proposal = self.inner.on_access(qubit, now);
                if proposal.is_some() {
                    self.proposals.fetch_add(1, Ordering::Relaxed);
                }
                proposal
            }
            fn applied(&mut self, promoted: QubitTag, demoted: QubitTag) {
                self.inner.applied(promoted, demoted);
            }
            fn boxed_clone(&self) -> Box<dyn MigrationPolicy> {
                Box::new(self.clone())
            }
        }

        // With the default margin (1.5) and one warm-up touch of the hot
        // qubit, qubit 9's score first crosses the promotion threshold at
        // its ST event — where it is checked out, so the proposal must be
        // dropped — and lands on the following LD instead.
        let mut program = Program::new("st-drop");
        program.push(Instruction::HdM { mem: MemAddr(0) });
        for _ in 0..2 {
            program.push(Instruction::Ld {
                mem: MemAddr(9),
                reg: RegId(0),
            });
            program.push(Instruction::St {
                reg: RegId(0),
                mem: MemAddr(9),
            });
        }
        let arch = point(1).with_hybrid_fraction(0.1);
        let hot = [QubitTag(0)];
        let proposals = Arc::new(AtomicU64::new(0));
        let mut simulator = Simulator::builder(&arch, 16)
            .hot_qubits(&hot)
            .migration_policy(Box::new(Counting {
                inner: FreqDecayPolicy::default(),
                proposals: Arc::clone(&proposals),
            }))
            .build()
            .unwrap();
        let outcome = simulator.execute(&program).unwrap();
        assert_eq!(outcome.stats.loads, 2);
        assert_eq!(outcome.stats.stores, 2);
        assert_eq!(outcome.stats.migrations, 1, "exactly one promotion lands");
        assert_eq!(
            proposals.load(Ordering::Relaxed),
            2,
            "the ST-time proposal is made but dropped, the LD-time one applied"
        );
    }

    #[test]
    fn hybrid_hot_set_reduces_execution_time() {
        // Repeatedly touch one hot qubit against many cold partners.
        let mut program = Program::new("hot");
        for q in 1..60u32 {
            program.push(Instruction::Cx {
                control: MemAddr(0),
                target: MemAddr(q),
            });
        }
        let arch = point(1);
        let pure = simulate(&program, 60, &arch, &[], SimConfig::default());
        let hybrid_arch = point(1).with_hybrid_fraction(0.02);
        let hybrid = simulate(
            &program,
            60,
            &hybrid_arch,
            &[QubitTag(0)],
            SimConfig::default(),
        );
        assert!(hybrid.stats.total_beats <= pure.stats.total_beats);
        assert!(hybrid.stats.memory_density < pure.stats.memory_density);
    }

    #[test]
    fn instruction_budget_aborts_a_runaway_run() {
        let mut program = Program::new("budgeted");
        for _ in 0..10 {
            program.push(Instruction::HdM { mem: MemAddr(0) });
        }
        let mut simulator = Simulator::builder(&point(1), 1)
            .instruction_budget(Some(4))
            .build()
            .unwrap();
        let err = simulator.execute(&program).unwrap_err();
        assert_eq!(err, SimError::InstructionBudget { budget: 4 });
        assert_eq!(err.instruction_index(), None);
        assert!(err.to_string().contains("LSQCA_INSTRUCTION_BUDGET"));
    }

    #[test]
    fn instruction_budget_survives_reset_and_is_invisible_when_not_hit() {
        let mut program = Program::new("under-budget");
        for _ in 0..3 {
            program.push(Instruction::HdM { mem: MemAddr(0) });
        }
        let mut plain = sim(&point(1), 1);
        let reference = plain.execute(&program).unwrap();

        let mut budgeted = Simulator::builder(&point(1), 1)
            .instruction_budget(Some(3))
            .build()
            .unwrap();
        // Two consecutive runs: the second goes through the auto-reset path
        // and must still be guarded (and still produce identical stats).
        for _ in 0..2 {
            let outcome = budgeted.execute(&program).unwrap();
            assert_eq!(outcome.stats, reference.stats);
        }
        let mut tighter = Simulator::builder(&point(1), 1)
            .instruction_budget(Some(2))
            .build()
            .unwrap();
        assert!(tighter.execute(&program).is_err());
    }

    #[test]
    fn builder_knobs_fold_into_the_config() {
        let mut program = Program::new("knobs");
        program.push(Instruction::Pm { reg: RegId(0) });
        program.push(Instruction::Cx {
            control: MemAddr(0),
            target: MemAddr(1),
        });
        let mut simulator = Simulator::builder(&point(1), 4)
            .config(SimConfig::motivation_study())
            .build()
            .unwrap();
        let outcome = simulator.execute(&program).unwrap();
        // Trace recording captured the two CX references; the unbounded
        // supply removed the acquisition wait entirely.
        assert_eq!(outcome.trace.len(), 2);
        assert_eq!(outcome.stats.magic_wait_beats, Beats::ZERO);
    }
}
