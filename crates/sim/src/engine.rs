//! The dependency-driven code-beat scheduler.

use crate::config::SimConfig;
use crate::metrics::ExecutionStats;
use crate::trace::MemoryTrace;
use lsqca_arch::{
    ArchConfig, FloorplanKind, MagicStateSupply, MemorySystem, MigrationPolicy, MsfConfig,
};
use lsqca_isa::trace_compile::flags;
use lsqca_isa::{
    ClassicalId, ExecKind, ExecutionTrace, Instruction, LatencyClass, MemAddr, Program, RegId,
};
use lsqca_lattice::{Beats, LatticeError, QubitTag};
use lsqca_workloads::CompiledWorkload;
use std::error::Error;
use std::fmt;
use std::ops::Range;
use std::sync::OnceLock;

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

/// Opt-in per-instance telemetry knobs, set on
/// [`SimulatorBuilder::telemetry`]. Separate from [`SimConfig`] for the same
/// reason the instruction budget is: telemetry observes a run, it is not an
/// experiment parameter, and must not perturb result-store keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryConfig {
    /// Attribute hot-loop time per [`ExecKind`]: during a trace walk, record
    /// each instruction's beat duration into a local log2 histogram and
    /// flush it to the registry's `sim.beats.<kind>` histograms when the run
    /// completes. Off by default; the disabled path costs one predictable
    /// branch per instruction (guarded by `scripts/bench.sh`'s end-to-end
    /// regression gate).
    pub beat_attribution: bool,
}

/// The process-wide [`TelemetryConfig`] default: `LSQCA_BEAT_HISTOGRAM=1`
/// enables beat attribution for every simulator built without an explicit
/// [`SimulatorBuilder::telemetry`] override. Read once.
fn env_telemetry_config() -> TelemetryConfig {
    static CONFIG: OnceLock<TelemetryConfig> = OnceLock::new();
    *CONFIG.get_or_init(|| TelemetryConfig {
        beat_attribution: std::env::var("LSQCA_BEAT_HISTOGRAM").is_ok_and(|v| v == "1"),
    })
}

/// Local, non-atomic per-[`ExecKind`] log2 beat histogram. The hot loop
/// increments plain array slots; [`BeatBuckets::flush`] pays the registry
/// atomics once per run.
struct BeatBuckets {
    buckets: Box<[[u64; lsqca_telemetry::HISTOGRAM_BUCKETS]; ExecKind::ALL.len()]>,
    sums: [u64; ExecKind::ALL.len()],
}

impl BeatBuckets {
    fn new() -> BeatBuckets {
        BeatBuckets {
            buckets: Box::new([[0; lsqca_telemetry::HISTOGRAM_BUCKETS]; ExecKind::ALL.len()]),
            sums: [0; ExecKind::ALL.len()],
        }
    }

    #[inline]
    fn record(&mut self, kind: ExecKind, beats: Beats) {
        let value = beats.as_u64();
        self.buckets[kind as usize][lsqca_telemetry::bucket_index(value)] += 1;
        self.sums[kind as usize] += value;
    }

    fn flush(&self) {
        for kind in ExecKind::ALL {
            let buckets = &self.buckets[kind as usize];
            if buckets.iter().all(|&n| n == 0) {
                continue;
            }
            lsqca_telemetry::histogram(&format!("sim.beats.{}", kind.name()))
                .absorb(buckets, self.sums[kind as usize]);
        }
    }
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

/// Instructions per block of the trace walk. The memory pass resolves one
/// block into the simulator's [`BlockScratch`], then every timing state
/// advances over the same block, so the block's trace columns and scratch
/// are still cache-resident when the timing passes read them.
const BLOCK: usize = 1024;

/// An absent entry of the bank column.
const NO_BANK: u32 = u32::MAX;

/// How scan-resource banks reach the timing pass. Both passes take the mode
/// as a const parameter, so each floorplan shape runs its own loop.
mod bank_mode {
    /// No banks at all (conventional floorplan): nothing serializes on a
    /// scan resource and the bank column is never written.
    pub const BANKLESS: u8 = 0;
    /// One SAM bank and no conventional region: every memory operand
    /// resolves to bank 0 (residence is constant over a run: checkout does
    /// not retag, and hot-set migration only exists on hybrid floorplans,
    /// which have conventional residents). Every scanning instruction
    /// serializes on bank 0 and the bank column is never written.
    /// Out-of-range operands still error identically: the memory access
    /// rejects them.
    pub const UNIFORM: u8 = 1;
    /// Banks are resolved per instruction into the bank column.
    pub const RESOLVED: u8 = 2;
}

/// Per-block output of the memory pass, owned by the simulator so its
/// columns are allocated once and reused across blocks and runs.
#[derive(Debug, Clone, Default)]
struct BlockScratch {
    /// Beats each instruction occupies after its start, magic wait excluded:
    /// the migration delay plus the memory or fixed-latency duration.
    cost: Vec<u64>,
    /// The migration-delay share of `cost`, which beat attribution leaves
    /// out. Sized and written only under a migration policy.
    delay: Vec<u64>,
    /// The distinct banks each instruction serializes on, resolved before
    /// migration can move an operand ([`NO_BANK`] when absent). Sized and
    /// written only under [`bank_mode::RESOLVED`].
    banks: Vec<[u32; 2]>,
}

impl BlockScratch {
    /// Sizes the columns a walk of `len` records writes.
    fn reserve(&mut self, len: usize, migrating: bool, resolve_banks: bool) {
        let rows = len.min(BLOCK);
        if self.cost.len() < rows {
            self.cost.resize(rows, 0);
        }
        if migrating && self.delay.len() < rows {
            self.delay.resize(rows, 0);
        }
        if resolve_banks && self.banks.len() < rows {
            self.banks.resize(rows, [NO_BANK; 2]);
        }
    }
}

/// The factory-dependent half of one run: every quantity that depends on
/// *when* instructions start. One timing state exists per factory count of
/// a walk; all of them observe the same memory evolution.
struct TimingState {
    magic: MagicStateSupply,
    /// Dense per-qubit ready times.
    mem_ready: Vec<Beats>,
    slot_ready: Vec<Beats>,
    /// Dense per-classical-value ready times.
    classical_ready: Vec<Beats>,
    bank_ready: Vec<Beats>,
    /// Start floor armed by an `SK`; it gates only the next instruction.
    guard: Beats,
    makespan: Beats,
    magic_wait: Beats,
    trace: MemoryTrace,
    /// Opt-in beat attribution: a run-local, non-atomic histogram whose
    /// registry atomics are paid once, when the run's outcome is produced.
    beats: Option<BeatBuckets>,
}

/// The run-wide inputs of a timing pass.
struct TimingContext<'a> {
    bounded_registers: bool,
    infinite_magic: bool,
    record_trace: bool,
    migrating: bool,
    floorplan: &'a FloorplanKind,
}

impl TimingState {
    /// The pristine timing state of `memory` under `arch` with `factories`
    /// magic-state factories. The buffer follows the factory count unless
    /// `arch` overrides it, exactly as a simulator built for that count.
    fn new(
        arch: &ArchConfig,
        factories: u32,
        memory: &MemorySystem,
        num_qubits: u32,
        beat_attribution: bool,
    ) -> TimingState {
        let buffer_capacity = ArchConfig {
            factories,
            ..arch.clone()
        }
        .magic_buffer_capacity();
        TimingState {
            magic: MagicStateSupply::new(MsfConfig {
                factories,
                beats_per_state: 15,
                buffer_capacity,
            }),
            mem_ready: vec![Beats::ZERO; num_qubits as usize],
            // The CX scheduler treats every entry as a claimable slot, so the
            // table starts at the memory system's CR slot count and grows
            // only when a program touches a `RegId` beyond it.
            slot_ready: vec![Beats::ZERO; memory.effective_cr_slots() as usize],
            classical_ready: Vec::new(),
            bank_ready: vec![Beats::ZERO; memory.bank_count()],
            guard: Beats::ZERO,
            makespan: Beats::ZERO,
            magic_wait: Beats::ZERO,
            trace: MemoryTrace::new(),
            beats: beat_attribution.then(BeatBuckets::new),
        }
    }

    fn mem_ready(&self, m: MemAddr) -> Beats {
        self.mem_ready
            .get(m.index() as usize)
            .copied()
            .unwrap_or(Beats::ZERO)
    }

    fn set_mem_ready(&mut self, m: MemAddr, t: Beats) {
        let idx = m.index() as usize;
        if idx >= self.mem_ready.len() {
            self.mem_ready.resize(idx + 1, Beats::ZERO);
        }
        self.mem_ready[idx] = t;
    }

    fn slot_ready(&self, r: RegId) -> Beats {
        self.slot_ready
            .get(r.index() as usize)
            .copied()
            .unwrap_or(Beats::ZERO)
    }

    fn set_slot_ready(&mut self, r: RegId, t: Beats) {
        let idx = r.index() as usize;
        if idx >= self.slot_ready.len() {
            self.slot_ready.resize(idx + 1, Beats::ZERO);
        }
        self.slot_ready[idx] = t;
    }

    fn classical_ready(&self, v: ClassicalId) -> Beats {
        self.classical_ready
            .get(v.index() as usize)
            .copied()
            .unwrap_or(Beats::ZERO)
    }

    fn set_classical_ready(&mut self, v: ClassicalId, t: Beats) {
        let idx = v.index() as usize;
        if idx >= self.classical_ready.len() {
            self.classical_ready.resize(idx + 1, Beats::ZERO);
        }
        self.classical_ready[idx] = t;
    }

    /// Presizes the ready tables for a trace walk, plus one scratch slot past
    /// every real operand: absent operands read slot 0 under a zero mask and
    /// write the scratch slot, so the dependency pass needs no per-operand
    /// branches at all. Reads of never-written entries return `Beats::ZERO`
    /// either way, so sizing up front is observationally free. `slot_ready`
    /// deliberately keeps its lazy growth instead: the CX slot claim scans
    /// the *current* table, and presizing it would hand CXs slots the
    /// program has not touched yet.
    fn presize(&mut self, trace: &ExecutionTrace) {
        let mem_bound = trace.mem_bound() as usize;
        if self.mem_ready.len() < mem_bound + 1 {
            self.mem_ready.resize(mem_bound + 1, Beats::ZERO);
        }
        let classical_bound = trace.classical_bound() as usize;
        if self.classical_ready.len() < classical_bound + 1 {
            self.classical_ready
                .resize(classical_bound + 1, Beats::ZERO);
        }
    }

    /// The timing pass: advances this state over the trace records in
    /// `range`, whose memory-side results the memory pass left in `scratch`
    /// (indexed from `range.start`) under the bank mode `MODE`. Requires
    /// [`TimingState::presize`].
    fn advance<const MODE: u8>(
        &mut self,
        trace: &ExecutionTrace,
        range: Range<usize>,
        scratch: &BlockScratch,
        ctx: &TimingContext<'_>,
    ) -> Result<(), SimError> {
        let len = range.len();
        let exec = &trace.exec_kinds()[range.clone()];
        let flag = &trace.flag_bits()[range.clone()];
        let mem0 = &trace.mem0()[range.clone()];
        let mem1 = &trace.mem1()[range.clone()];
        let reg0 = &trace.reg0()[range.clone()];
        let reg1 = &trace.reg1()[range.clone()];
        let cio = &trace.cio()[range];
        let cost = &scratch.cost[..len];
        let bounded_registers = ctx.bounded_registers;
        let infinite_magic = ctx.infinite_magic;
        let record_trace = ctx.record_trace;
        let migrating = ctx.migrating;

        // Any index past every real operand works as the write sink: nothing
        // in this run reads indices at or above the trace's bounds.
        let mem_scratch = self.mem_ready.len() - 1;
        let classical_scratch = self.classical_ready.len() - 1;

        // Disjoint field borrows, and the scalars in locals: the table
        // pointers and lengths stay in registers across the opaque
        // `magic.acquire` call below.
        let TimingState {
            magic,
            mem_ready,
            slot_ready,
            classical_ready,
            bank_ready,
            trace: mem_trace,
            beats,
            ..
        } = self;
        // Fixed-size tables as slices: their pointers and lengths are locals,
        // never reloaded from the state after the `magic.acquire` call.
        let mem_ready = &mut mem_ready[..];
        let classical_ready = &mut classical_ready[..];
        let bank_ready = &mut bank_ready[..];
        let mut guard = self.guard;
        let mut makespan = self.makespan;
        let mut magic_wait = self.magic_wait;
        // A single bank's ready time chains every scanning instruction, so
        // it lives in a register for the pass, not behind a store-to-load
        // round trip per instruction.
        let mut bank0 = if MODE == bank_mode::UNIFORM {
            bank_ready[0]
        } else {
            Beats::ZERO
        };

        for k in 0..len {
            let fl = flag[k];
            let kind = exec[k];
            let has_m0 = fl & flags::HAS_MEM0 != 0;
            let has_m1 = fl & flags::HAS_MEM1 != 0;
            let m0 = mem0[k];
            let m1 = mem1[k];

            // Dependency collection, branchless: absent operand slots encode
            // as 0 (see `trace_compile`), so the table read is always in
            // bounds, and a zero mask drops it below any real ready time.
            let dep0 = mem_ready[m0 as usize].0 & (has_m0 as u64).wrapping_neg();
            let dep1 = mem_ready[m1 as usize].0 & (has_m1 as u64).wrapping_neg();
            let depc = classical_ready[cio[k] as usize].0
                & ((fl & flags::HAS_CIN != 0) as u64).wrapping_neg();
            let mut start = Beats(guard.0.max(dep0).max(dep1).max(depc));
            guard = Beats::ZERO;
            if bounded_registers {
                if fl & flags::HAS_REG0 != 0 {
                    let ready = slot_ready
                        .get(reg0[k] as usize)
                        .copied()
                        .unwrap_or(Beats::ZERO);
                    start = start.max(ready);
                }
                if fl & flags::HAS_REG1 != 0 {
                    let ready = slot_ready
                        .get(reg1[k] as usize)
                        .copied()
                        .unwrap_or(Beats::ZERO);
                    start = start.max(ready);
                }
            }

            // Bank (scan-resource) serialization on the banks the memory
            // pass resolved.
            let scans = fl & flags::NEEDS_SCAN != 0;
            let mut banks = [NO_BANK; 2];
            if MODE == bank_mode::UNIFORM && scans {
                start = start.max(bank0);
            } else if MODE == bank_mode::RESOLVED {
                banks = scratch.banks[k];
                for b in banks {
                    if b != NO_BANK {
                        start = start.max(bank_ready[b as usize]);
                    }
                }
            }

            // An optimized CX claims one CR slot for its surgery ancilla.
            let mut cx_slot: Option<usize> = None;
            if kind == ExecKind::Cx && bounded_registers {
                let Some((slot, ready)) = slot_ready
                    .iter()
                    .copied()
                    .enumerate()
                    .min_by_key(|&(_, t)| t)
                else {
                    return Err(no_cr_slots(ctx.floorplan));
                };
                start = start.max(ready);
                cx_slot = Some(slot);
            }

            // The magic wait is the one timing-dependent part of a duration.
            let wait = if kind == ExecKind::Magic && !infinite_magic {
                magic.acquire(start).saturating_sub(start)
            } else {
                Beats::ZERO
            };
            magic_wait += wait;
            let finish = start + Beats(cost[k]) + wait;
            if let Some(beats) = beats.as_mut() {
                let migration = if migrating { scratch.delay[k] } else { 0 };
                beats.record(kind, Beats(cost[k] - migration) + wait);
            }

            // Bookkeeping: flag tests instead of instruction re-matching.
            // Ready-table writes are unconditional — an absent operand is
            // steered to the scratch slot past every real index, which is
            // never read, so no write needs a branch.
            if record_trace {
                if has_m0 {
                    mem_trace.record(MemAddr(m0), start.as_u64());
                }
                if has_m1 {
                    mem_trace.record(MemAddr(m1), start.as_u64());
                }
            }
            let w0 = if has_m0 { m0 as usize } else { mem_scratch };
            let w1 = if has_m1 { m1 as usize } else { mem_scratch };
            mem_ready[w0] = finish;
            mem_ready[w1] = finish;
            // Register slots are only ever read under bounded registers.
            if bounded_registers {
                if fl & flags::HAS_REG0 != 0 {
                    let idx = reg0[k] as usize;
                    if idx >= slot_ready.len() {
                        slot_ready.resize(idx + 1, Beats::ZERO);
                    }
                    slot_ready[idx] = finish;
                }
                if fl & flags::HAS_REG1 != 0 {
                    let idx = reg1[k] as usize;
                    if idx >= slot_ready.len() {
                        slot_ready.resize(idx + 1, Beats::ZERO);
                    }
                    slot_ready[idx] = finish;
                }
                if let Some(slot) = cx_slot {
                    slot_ready[slot] = finish;
                }
            }
            if MODE == bank_mode::UNIFORM && scans {
                bank0 = finish;
            } else if MODE == bank_mode::RESOLVED {
                for b in banks {
                    if b != NO_BANK {
                        bank_ready[b as usize] = finish;
                    }
                }
            }
            let wc = if fl & flags::HAS_COUT != 0 {
                cio[k] as usize
            } else {
                classical_scratch
            };
            classical_ready[wc] = finish;
            if kind == ExecKind::Skip {
                guard = finish;
            }
            makespan = makespan.max(finish);
        }
        if MODE == bank_mode::UNIFORM {
            bank_ready[0] = bank0;
        }
        self.guard = guard;
        self.makespan = makespan;
        self.magic_wait = magic_wait;
        Ok(())
    }

    /// The outcome of this state: the shared memory-side `stats` completed
    /// with this state's makespan and magic wait. Flushes the beat
    /// attribution, once per outcome.
    fn finish(self, stats: &ExecutionStats) -> SimOutcome {
        if let Some(beats) = &self.beats {
            beats.flush();
        }
        SimOutcome {
            stats: ExecutionStats {
                total_beats: self.makespan,
                magic_wait_beats: self.magic_wait,
                ..stats.clone()
            },
            trace: self.trace,
        }
    }
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
/// it) for one run; the resource ready-times and the magic-state supply live
/// in per-run timing states. Use [`simulate`] for the common one-shot case.
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
    /// Opt-in observation knobs (beat attribution); like the budget, not
    /// part of [`SimConfig`] so it never perturbs result-store keys.
    telemetry: TelemetryConfig,
}

impl Simulator {
    /// Starts building a simulator for `num_qubits` data qubits on the given
    /// architecture — the one construction path. Every knob (hot set, config,
    /// migration policy, instruction budget, trace recording) is set on the
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
            telemetry: None,
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
            telemetry: env_telemetry_config(),
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
    /// magic-state supply belong to per-run timing states, which every run
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

    /// The pristine timing state for `factories` magic-state factories.
    fn timing_state(&self, factories: u32) -> TimingState {
        TimingState::new(
            &self.arch,
            factories,
            &self.memory,
            self.num_qubits,
            self.telemetry.beat_attribution,
        )
    }

    /// The memory-side statistics every run starts from.
    fn initial_stats(&self) -> ExecutionStats {
        ExecutionStats {
            memory_density: self.memory.memory_density(),
            total_cells: self.memory.total_cells(),
            ..ExecutionStats::default()
        }
    }

    fn tag(m: MemAddr) -> QubitTag {
        QubitTag(m.index())
    }

    /// True if the instruction occupies the SAM bank's scan cell / scan line.
    fn needs_scan_resource(instr: &Instruction) -> bool {
        matches!(
            instr,
            Instruction::Ld { .. }
                | Instruction::St { .. }
                | Instruction::HdM { .. }
                | Instruction::PhM { .. }
                | Instruction::MxxM { .. }
                | Instruction::MzzM { .. }
                | Instruction::Cx { .. }
        )
    }

    /// Executes any [`Executable`] input — the single run entry point, and
    /// the one-element case of [`Simulator::execute_factories`] at the
    /// architecture's own factory count.
    ///
    /// The input kind selects the engine path: a [`Program`] is lowered into
    /// a fresh trace and executed through the trace engine, an
    /// [`ExecutionTrace`] or [`CompiledWorkload`] executes its pre-lowered
    /// trace directly (zero per-run lowering), and a [`Classified`] pair
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
    /// memory once and advances one timing state per count over it. A
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

    /// The [`Classified`] engine path — the **reference interpreter**,
    /// dispatching on `Instruction` enums per step, one full run per factory
    /// count.
    ///
    /// The production path is [`Simulator::execute_trace`]; this interpreter
    /// is retained as the executable specification the trace engine is
    /// checked against (the shadow-equivalence proptests in `tests/` drive it
    /// directly).
    ///
    /// # Panics
    ///
    /// Panics if `classes` is not parallel to the instruction stream; a
    /// mismatched vector means the caller is holding a stale artifact.
    fn execute_classified(
        &mut self,
        program: &Program,
        classes: &[LatencyClass],
        factories: &[u32],
    ) -> Result<Vec<SimOutcome>, SimError> {
        assert_eq!(
            classes.len(),
            program.len(),
            "latency-class vector is not parallel to the program"
        );
        factories
            .iter()
            .map(|&f| self.interpret(program, classes, f))
            .collect()
    }

    /// One reference-interpreter run at `factories` magic-state factories.
    fn interpret(
        &mut self,
        program: &Program,
        classes: &[LatencyClass],
        factories: u32,
    ) -> Result<SimOutcome, SimError> {
        self.begin_walk(1);
        let mut timing = self.timing_state(factories);
        let mut stats = self.initial_stats();

        for (index, instr) in program.iter().enumerate() {
            if let Some(budget) = self.instruction_budget {
                if index as u64 >= budget {
                    return Err(SimError::InstructionBudget { budget });
                }
            }
            let wrap = |source: LatticeError| SimError::Instruction {
                index,
                instruction: *instr,
                source,
            };

            // One-pass operand extraction: both lists are `Copy` and inline
            // (no heap allocation), computed once and reused for dependency
            // collection, bank serialization, and the ready-time updates below.
            let mems = instr.memory_operands();
            let regs = instr.register_operands();

            // Dependency collection.
            let mut start = std::mem::replace(&mut timing.guard, Beats::ZERO);
            for m in mems {
                start = start.max(timing.mem_ready(m));
            }
            if !self.unbounded_registers {
                for r in regs {
                    start = start.max(timing.slot_ready(r));
                }
            }
            if let Some(v) = instr.classical_input() {
                start = start.max(timing.classical_ready(v));
            }

            // Bank (scan-resource) serialization. An instruction references at
            // most `MAX_OPERANDS` banks, so the scratch list lives inline on
            // the stack instead of in a per-instruction `Vec`.
            let mut banks = [0usize; lsqca_isa::MAX_OPERANDS];
            let mut bank_count = 0usize;
            if Self::needs_scan_resource(instr) {
                for m in mems {
                    if let Some(b) = self.memory.bank_of(Self::tag(m)) {
                        if !banks[..bank_count].contains(&b) {
                            banks[bank_count] = b;
                            bank_count += 1;
                            start = start.max(timing.bank_ready[b]);
                        }
                    }
                }
            }

            // An optimized CX claims one CR slot for its surgery ancilla.
            let mut cx_slot: Option<usize> = None;
            if matches!(instr, Instruction::Cx { .. }) && !self.unbounded_registers {
                // `SimulatorBuilder::build` rejects the bounded-registers-
                // with-zero-slots state, so a slot always exists; the `else`
                // keeps the error typed instead of panicking if that
                // invariant is ever broken.
                let Some((slot, ready)) = timing
                    .slot_ready
                    .iter()
                    .copied()
                    .enumerate()
                    .min_by_key(|&(_, t)| t)
                else {
                    return Err(no_cr_slots(&self.arch.floorplan));
                };
                start = start.max(ready);
                cx_slot = Some(slot);
            }

            // Runtime hot-set migration: the policy observes every memory
            // operand of every bank-touching instruction and may propose
            // promoting the accessed qubit over a conventional-region victim.
            // Proposals are applied *before* the access (so a promoted
            // qubit's access is already conventional-free) and only when the
            // swap is legal — for a store the operand is checked out, so the
            // proposal is observed-and-dropped. Migration movement plus the
            // policy's bookkeeping overhead delay this instruction and are
            // metered separately from `memory_access_beats`.
            let mut migration_delay = Beats::ZERO;
            if let Some(policy) = &mut self.migration {
                if Self::needs_scan_resource(instr) {
                    for m in mems {
                        let qubit = Self::tag(m);
                        let Some(victim) = policy.on_access(qubit, index as u64) else {
                            continue;
                        };
                        if self.memory.is_checked_out(qubit) {
                            continue;
                        }
                        if let Ok(cost) = self.memory.migrate(qubit, victim) {
                            policy.applied(qubit, victim);
                            let total = cost + policy.overhead();
                            stats.migrations += 1;
                            stats.migration_beats += total;
                            migration_delay += total;
                        }
                    }
                }
            }

            // Duration.
            let duration = match *instr {
                Instruction::Ld { mem, .. } => {
                    stats.loads += 1;
                    let cost = self.memory.load(Self::tag(mem)).map_err(wrap)?;
                    stats.memory_access_beats += cost;
                    cost
                }
                Instruction::St { mem, .. } => {
                    stats.stores += 1;
                    let cost = self.memory.store(Self::tag(mem)).map_err(wrap)?;
                    stats.memory_access_beats += cost;
                    cost
                }
                Instruction::PzC { .. } | Instruction::PpC { .. } => Beats::ZERO,
                Instruction::Pm { .. } => {
                    stats.magic_states += 1;
                    let wait = if self.config.assume_infinite_magic {
                        Beats::ZERO
                    } else {
                        let available = timing.magic.acquire(start);
                        available.saturating_sub(start)
                    };
                    stats.magic_wait_beats += wait;
                    // One beat to move the state from the MSF port into the CR.
                    wait + Beats(1)
                }
                Instruction::HdC { .. } => Beats(3),
                Instruction::PhC { .. } => Beats(2),
                Instruction::MxC { .. } | Instruction::MzC { .. } => Beats::ZERO,
                Instruction::MxxC { .. } | Instruction::MzzC { .. } => Beats(1),
                Instruction::Sk { .. } => Beats::ZERO,
                Instruction::PzM { .. } | Instruction::PpM { .. } => Beats::ZERO,
                Instruction::HdM { mem } => {
                    let seek = self.memory.in_memory_seek(Self::tag(mem)).map_err(wrap)?;
                    stats.memory_access_beats += seek;
                    seek + Beats(3)
                }
                Instruction::PhM { mem } => {
                    let seek = self.memory.in_memory_seek(Self::tag(mem)).map_err(wrap)?;
                    stats.memory_access_beats += seek;
                    seek + Beats(2)
                }
                Instruction::MxM { .. } | Instruction::MzM { .. } => Beats::ZERO,
                Instruction::MxxM { mem, .. } | Instruction::MzzM { mem, .. } => {
                    let access = self
                        .memory
                        .in_memory_two_qubit_access(Self::tag(mem))
                        .map_err(wrap)?;
                    stats.memory_access_beats += access;
                    access + Beats(1)
                }
                Instruction::Cx { control, target } => {
                    // Runtime optimization (Sec. VI-A): load whichever operand is
                    // cheaper to fetch into the CR, access the other in memory,
                    // perform the two lattice-surgery measurements of the CNOT,
                    // and store the loaded operand back with the locality-aware
                    // policy — which parks it next to its partner, so repeated
                    // CNOTs over the same working set become cheap.
                    let (qc, qt) = (Self::tag(control), Self::tag(target));
                    let peek_c = self.memory.peek_load(qc).map_err(wrap)?;
                    let peek_t = self.memory.peek_load(qt).map_err(wrap)?;
                    let (loaded, other) = if peek_c <= peek_t { (qc, qt) } else { (qt, qc) };
                    let load = self.memory.load(loaded).map_err(wrap)?;
                    let access = self
                        .memory
                        .in_memory_two_qubit_access(other)
                        .map_err(wrap)?;
                    let store = self.memory.store(loaded).map_err(wrap)?;
                    // The internal load/store pair is counted separately from
                    // explicit LD/ST instructions: `stats.loads`/`stats.stores`
                    // track the program text, `implicit_*` track what the CX
                    // expansion issued under the hood. Their beats land in
                    // `memory_access_beats` either way.
                    stats.implicit_loads += 1;
                    stats.implicit_stores += 1;
                    stats.memory_access_beats += load + access + store;
                    // MZZ with the ancilla, then MXX with the target.
                    load + access + Beats(2) + store
                }
            };

            let finish = start + migration_delay + duration;

            // Bookkeeping.
            stats.instruction_count += 1;
            if !classes[index].is_negligible() {
                stats.command_count += 1;
            }
            if instr.is_in_memory() {
                stats.in_memory_ops += 1;
            }
            for m in mems {
                if self.config.record_trace {
                    timing.trace.record(m, start.as_u64());
                }
                timing.set_mem_ready(m, finish);
            }
            for r in regs {
                timing.set_slot_ready(r, finish);
            }
            if let Some(slot) = cx_slot {
                timing.slot_ready[slot] = finish;
            }
            for &b in &banks[..bank_count] {
                timing.bank_ready[b] = finish;
            }
            if let Some(v) = instr.classical_output() {
                timing.set_classical_ready(v, finish);
            }
            if matches!(instr, Instruction::Sk { .. }) {
                timing.guard = finish;
            }
            timing.makespan = timing.makespan.max(finish);
        }

        stats.total_beats = timing.makespan;
        Ok(SimOutcome {
            stats,
            trace: timing.trace,
        })
    }

    /// The [`ExecutionTrace`] engine path — the optimized engine, one memory
    /// walk shared by one timing state per entry of `factories`.
    ///
    /// The trace is a struct-of-arrays rendering of the instruction stream
    /// (see [`lsqca_isa::trace_compile`]): execution kind, fixed-beat charge,
    /// operand slots, and dependency flags are all resolved at lowering time,
    /// so this walk tests precomputed flag bits over flat arrays instead of
    /// re-matching `Instruction` variants per step.
    ///
    /// The walk proceeds in blocks of [`BLOCK`] records. The **memory pass**
    /// checks the budget, resolves the banks each record serializes on
    /// (before migration can move an operand), applies migration proposals,
    /// runs the load / store / seek / two-qubit access / fused CX, counts
    /// every memory-side statistic, and leaves each record's cost and banks
    /// in the block scratch. Then each **timing pass** advances its state over
    /// the block: dependency max, CR-slot claim, magic acquisition,
    /// ready-table writes, makespan, memory trace and beat histogram. This is
    /// exact because nothing in the memory pass reads a time: memory
    /// construction ignores the factory count, bank operations take qubits
    /// only, and migration policies are clocked by instruction index.
    ///
    /// Each outcome is observationally identical to
    /// [`Simulator::execute_classified`] (the retained reference interpreter)
    /// at its factory count — the shadow-equivalence proptests in `tests/`
    /// assert equality of the full outcome, errors included, over random
    /// programs and floorplans. The offending instruction in a
    /// [`SimError::Instruction`] is reconstructed from the trace record, so
    /// errors render identically to the interpreter's.
    fn execute_trace(
        &mut self,
        trace: &ExecutionTrace,
        factories: &[u32],
    ) -> Result<Vec<SimOutcome>, SimError> {
        self.begin_walk(factories.len());
        if self.memory.bank_count() == 0 {
            self.walk::<{ bank_mode::BANKLESS }>(trace, factories)
        } else if self.memory.bank_count() == 1 && self.memory.conventional_qubits() == 0 {
            self.walk::<{ bank_mode::UNIFORM }>(trace, factories)
        } else {
            self.walk::<{ bank_mode::RESOLVED }>(trace, factories)
        }
    }

    /// The blocked walk of [`Simulator::execute_trace`] under the bank mode
    /// `MODE`.
    fn walk<const MODE: u8>(
        &mut self,
        trace: &ExecutionTrace,
        factories: &[u32],
    ) -> Result<Vec<SimOutcome>, SimError> {
        let mut states: Vec<TimingState> = factories
            .iter()
            .map(|&f| {
                let mut state = self.timing_state(f);
                state.presize(trace);
                state
            })
            .collect();
        let mut stats = self.initial_stats();
        let ctx = TimingContext {
            bounded_registers: !self.unbounded_registers,
            infinite_magic: self.config.assume_infinite_magic,
            record_trace: self.config.record_trace,
            migrating: self.migration.is_some(),
            floorplan: &self.arch.floorplan,
        };
        let mut pass = MemoryPass {
            memory: &mut self.memory,
            migration: self.migration.as_deref_mut(),
            budget: self.instruction_budget.unwrap_or(u64::MAX),
        };
        let block = &mut self.block;
        let len = trace.len();
        block.reserve(len, ctx.migrating, MODE == bank_mode::RESOLVED);

        let mut start = 0;
        while start < len {
            let end = (start + BLOCK).min(len);
            // A failing memory pass stops at the offending record; the
            // timing passes still cover the records before it, where an
            // earlier missing-CR-slot error would take precedence.
            let failure = pass.run::<MODE>(trace, start..end, &mut stats, block).err();
            let walked = failure.as_ref().map_or(end, |&(index, _)| index);
            for state in &mut states {
                state.advance::<MODE>(trace, start..walked, block, &ctx)?;
            }
            if let Some((index, err)) = failure {
                // The single run claims the CX slot before the memory access,
                // so a slotless CX reports `NoCrSlots` over its memory error.
                // The slot table is identical across states.
                let slotless_cx = trace.exec_kinds()[index] == ExecKind::Cx
                    && ctx.bounded_registers
                    && states[0].slot_ready.is_empty();
                if slotless_cx && matches!(err, SimError::Instruction { .. }) {
                    return Err(no_cr_slots(ctx.floorplan));
                }
                return Err(err);
            }
            start = end;
        }

        Ok(states
            .into_iter()
            .map(|state| state.finish(&stats))
            .collect())
    }
}

/// The factory-independent half of a trace walk: the memory system and the
/// migration policy, which never read a time.
struct MemoryPass<'a> {
    memory: &'a mut MemorySystem,
    migration: Option<&'a mut (dyn MigrationPolicy + 'static)>,
    budget: u64,
}

impl MemoryPass<'_> {
    /// Runs the memory side of the records in `range`, counting memory-side
    /// statistics into `stats` and leaving each record's cost (and, under
    /// [`bank_mode::RESOLVED`], its banks) in `scratch`, indexed from
    /// `range.start`. Stops at the first failing record with its index.
    fn run<const MODE: u8>(
        &mut self,
        trace: &ExecutionTrace,
        range: Range<usize>,
        stats: &mut ExecutionStats,
        scratch: &mut BlockScratch,
    ) -> Result<(), (usize, SimError)> {
        let base = range.start;
        let exec = &trace.exec_kinds()[range.clone()];
        let flag = &trace.flag_bits()[range.clone()];
        let fixed = &trace.fixed_beats()[range.clone()];
        let mem0 = &trace.mem0()[range.clone()];
        let mem1 = &trace.mem1()[range.clone()];
        let len = range.len();
        let cost = &mut scratch.cost[..len];
        let MemoryPass {
            memory,
            migration,
            budget,
        } = self;
        let budget = *budget;
        // The counters live in a local for the block, so the opaque memory
        // calls below cannot force them through memory.
        let mut local = std::mem::take(stats);

        for k in 0..len {
            let index = base + k;
            if index as u64 >= budget {
                return Err((index, SimError::InstructionBudget { budget }));
            }
            let fl = flag[k];
            let kind = exec[k];
            // The instruction is only rendered on the (cold) error path.
            let wrap = |source: LatticeError| {
                (
                    index,
                    SimError::Instruction {
                        index,
                        instruction: trace.instruction(index),
                        source,
                    },
                )
            };
            let has_m0 = fl & flags::HAS_MEM0 != 0;
            let has_m1 = fl & flags::HAS_MEM1 != 0;
            let m0 = mem0[k];
            let m1 = mem1[k];
            let scans = fl & flags::NEEDS_SCAN != 0;

            // Banks resolve before migration can move an operand.
            if MODE == bank_mode::RESOLVED {
                let mut pair = [NO_BANK; 2];
                if scans {
                    if has_m0 {
                        if let Some(b) = memory.bank_of(QubitTag(m0)) {
                            pair[0] = b as u32;
                        }
                    }
                    if has_m1 {
                        if let Some(b) = memory.bank_of(QubitTag(m1)) {
                            if pair[0] != b as u32 {
                                pair[1] = b as u32;
                            }
                        }
                    }
                }
                scratch.banks[k] = pair;
            }

            // Runtime hot-set migration (see `interpret` for the policy
            // contract — proposals observed per memory operand, applied
            // before the access, dropped when checked out).
            let mut migration_delay = Beats::ZERO;
            if let Some(policy) = migration.as_deref_mut() {
                if scans {
                    // Canonical operand order: control before target for CX.
                    for (present, m) in [(has_m0, m0), (has_m1, m1)] {
                        if !present {
                            continue;
                        }
                        let qubit = QubitTag(m);
                        let Some(victim) = policy.on_access(qubit, index as u64) else {
                            continue;
                        };
                        if memory.is_checked_out(qubit) {
                            continue;
                        }
                        if let Ok(cost) = memory.migrate(qubit, victim) {
                            policy.applied(qubit, victim);
                            let total = cost + policy.overhead();
                            local.migrations += 1;
                            local.migration_beats += total;
                            migration_delay += total;
                        }
                    }
                }
                scratch.delay[k] = migration_delay.0;
            }

            // Duration: one match on the pre-resolved execution kind, with
            // the per-variant fixed-beat charges read from the trace. A magic
            // state's wait is left to the timing pass.
            let duration = match kind {
                ExecKind::Negligible | ExecKind::Skip => Beats::ZERO,
                ExecKind::Fixed => Beats(u64::from(fixed[k])),
                ExecKind::Load => {
                    local.loads += 1;
                    let cost = memory.load(QubitTag(m0)).map_err(wrap)?;
                    local.memory_access_beats += cost;
                    cost
                }
                ExecKind::Store => {
                    local.stores += 1;
                    let cost = memory.store(QubitTag(m0)).map_err(wrap)?;
                    local.memory_access_beats += cost;
                    cost
                }
                ExecKind::Magic => {
                    local.magic_states += 1;
                    // One beat to move the state from the MSF port into the CR.
                    Beats(u64::from(fixed[k]))
                }
                ExecKind::Seek => {
                    let seek = memory.in_memory_seek(QubitTag(m0)).map_err(wrap)?;
                    local.memory_access_beats += seek;
                    seek + Beats(u64::from(fixed[k]))
                }
                ExecKind::TwoQubitAccess => {
                    let access = memory
                        .in_memory_two_qubit_access(QubitTag(m0))
                        .map_err(wrap)?;
                    local.memory_access_beats += access;
                    access + Beats(u64::from(fixed[k]))
                }
                ExecKind::Cx => {
                    // Runtime optimization (Sec. VI-A): load the cheaper
                    // operand, access the other in memory, store the loaded
                    // one back, as one fused memory call (see `interpret`
                    // for the unfused executable spec).
                    let (load, access, store) =
                        memory.cx_access(QubitTag(m0), QubitTag(m1)).map_err(wrap)?;
                    local.implicit_loads += 1;
                    local.implicit_stores += 1;
                    local.memory_access_beats += load + access + store;
                    // MZZ with the ancilla, then MXX with the target.
                    load + access + Beats(u64::from(fixed[k])) + store
                }
            };
            cost[k] = (migration_delay + duration).0;

            local.instruction_count += 1;
            local.command_count += u64::from(kind != ExecKind::Negligible);
            local.in_memory_ops += u64::from(fl & flags::IN_MEMORY != 0);
        }
        *stats = local;
        Ok(())
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
/// [`CompiledWorkload`] (pre-lowered, executed directly), and [`Classified`]
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

/// A program paired with its precompiled latency-class vector: executing it
/// drives the retained **reference interpreter** instead of the trace
/// engine. This is the executable specification the shadow-equivalence
/// proptests check the optimized engine against.
#[derive(Debug, Clone, Copy)]
pub struct Classified<'a> {
    program: &'a Program,
    classes: &'a [LatencyClass],
}

impl<'a> Classified<'a> {
    /// Pairs `program` with its latency-class vector. The vector's length is
    /// checked at execution time, not here, so construction is free.
    pub fn new(program: &'a Program, classes: &'a [LatencyClass]) -> Self {
        Classified { program, classes }
    }
}

impl Executable for Classified<'_> {
    fn execute_on(
        &self,
        simulator: &mut Simulator,
        factories: &[u32],
    ) -> Result<Vec<SimOutcome>, SimError> {
        simulator.execute_classified(self.program, self.classes, factories)
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
    /// `Some` overrides the process-wide `LSQCA_BEAT_HISTOGRAM` default;
    /// `None` inherits it.
    telemetry: Option<TelemetryConfig>,
}

impl SimulatorBuilder {
    /// Pins `hot` into the conventional region of a hybrid floorplan (see
    /// [`MemorySystem::new`]).
    pub fn hot_qubits(mut self, hot: &[QubitTag]) -> Self {
        self.hot_qubits = hot.to_vec();
        self
    }

    /// Replaces the whole [`SimConfig`] (the trace-recording and
    /// infinite-magic knobs below are shorthands for its fields).
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Records the memory reference trace during runs
    /// ([`SimConfig::with_trace`] folded into the builder).
    pub fn record_trace(mut self) -> Self {
        self.config.record_trace = true;
        self
    }

    /// Models an unbounded magic-state supply (the motivation-study mode).
    pub fn infinite_magic(mut self) -> Self {
        self.config.assume_infinite_magic = true;
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

    /// Sets the [`TelemetryConfig`] for this instance, overriding the
    /// process-wide `LSQCA_BEAT_HISTOGRAM` default (in either direction).
    /// Telemetry observes runs without affecting results or result-store
    /// keys.
    pub fn telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = Some(telemetry);
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
        if let Some(telemetry) = self.telemetry {
            simulator.telemetry = telemetry;
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
    use lsqca_isa::Instruction;

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
        let workload = CompiledWorkload::compile(
            cfg.descriptor(),
            &cfg.build(),
            lsqca_compiler::CompilerConfig::default(),
        );
        let qubits = workload.num_qubits().max(workload.memory_footprint());
        let mut simulator = sim(&point(1), qubits);
        let via_program = simulator.execute(workload.program()).unwrap();
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
            .record_trace()
            .infinite_magic()
            .build()
            .unwrap();
        let outcome = simulator.execute(&program).unwrap();
        // `record_trace` captured the two CX references; `infinite_magic`
        // removed the acquisition wait entirely.
        assert_eq!(outcome.trace.len(), 2);
        assert_eq!(outcome.stats.magic_wait_beats, Beats::ZERO);
    }
}
