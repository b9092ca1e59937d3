//! The memory pass of a trace walk, run once per block for every factory
//! count: it checks the budget, resolves the banks each record serializes
//! on (before migration can move an operand), applies migration proposals,
//! runs the load / store / seek / two-qubit access / fused CX, counts every
//! memory-side statistic, and leaves each record's cost and banks in the
//! block scratch. Nothing here depends on when a record starts.
//!
//! A teleport record ([`ExecKind::Teleport`]) makes the same bank lookups,
//! migration offers and memory calls as its five instructions, in the same
//! order (`MZZ.M`'s and `PH.M`'s banks each resolved before that
//! instruction's migration), and leaves both costs and both banks in its
//! one row. The budget and the error index count instructions, so a run
//! stops inside a teleport exactly where the instruction-by-instruction
//! interpreter does.

use super::SimError;
use crate::metrics::ExecutionStats;
use lsqca_arch::lattice::{Beats, LatticeError, QubitTag};
use lsqca_arch::{MemorySystem, MigrationPolicy};
use lsqca_isa::trace_compile::{flags, TELEPORT_SURGERY_BEATS};
use lsqca_isa::{ExecKind, ExecutionTrace, OpInfo, Slot};
use std::ops::Range;

/// Records per block of the trace walk. The memory pass resolves one
/// block into the simulator's [`BlockScratch`], then each lane group (up to
/// [`LANES`](super::timing::LANES) factory counts, usually all of them)
/// advances over the same block in one timing pass, so the block's trace
/// columns and scratch are still cache-resident when the timing passes read
/// them.
pub(super) const BLOCK: usize = 1024;

/// An absent entry of the bank column.
pub(super) const NO_BANK: u32 = u32::MAX;

/// How scan-resource banks reach the timing pass. Both passes take the mode
/// as a const parameter, so each floorplan shape runs its own loop.
pub(super) mod bank_mode {
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
pub(super) struct BlockScratch {
    /// Beats each record occupies after its start, magic wait excluded:
    /// the migration delay plus the memory or fixed-latency duration. A
    /// teleport's is its `MZZ.M`'s.
    pub(super) cost: Vec<u64>,
    /// A teleport's `PH.M` cost; unwritten for every other record.
    pub(super) phase_cost: Vec<u64>,
    /// The distinct banks each record serializes on, resolved before
    /// migration can move an operand ([`NO_BANK`] when absent); a
    /// teleport's `MZZ.M` bank and its `PH.M` bank. Sized and written only
    /// under [`bank_mode::RESOLVED`].
    pub(super) banks: Vec<[u32; 2]>,
}

impl BlockScratch {
    /// Sizes the columns a walk of `len` records writes.
    pub(super) fn reserve(&mut self, len: usize, resolve_banks: bool) {
        let rows = len.min(BLOCK);
        if self.cost.len() < rows {
            self.cost.resize(rows, 0);
            self.phase_cost.resize(rows, 0);
        }
        if resolve_banks && self.banks.len() < rows {
            self.banks.resize(rows, [NO_BANK; 2]);
        }
    }
}

/// The factory-independent half of a trace walk: the memory system and the
/// migration policy, which never read a time.
pub(super) struct MemoryPass<'a> {
    pub(super) memory: &'a mut MemorySystem,
    pub(super) migration: Option<&'a mut (dyn MigrationPolicy + 'static)>,
    pub(super) budget: u64,
    /// The teleport records walked so far.
    pub(super) teleports: u64,
}

impl MemoryPass<'_> {
    /// Runs the memory side of the records in `range`, counting memory-side
    /// statistics into `stats` and leaving each record's cost (and, under
    /// [`bank_mode::RESOLVED`], its banks) in `scratch`, indexed from
    /// `range.start`. Stops at the first failing instruction. `S` is the
    /// trace's slot type.
    pub(super) fn run<const MODE: u8, S: Slot>(
        &mut self,
        trace: &ExecutionTrace,
        range: Range<usize>,
        stats: &mut ExecutionStats,
        scratch: &mut BlockScratch,
    ) -> Result<(), SimError> {
        let [slot0, slot1] = trace.slots::<S>();
        let op = &trace.ops()[range.clone()];
        let mem0 = &slot0[range.clone()];
        let mem1 = &slot1[range.clone()];
        let cost = &mut scratch.cost[..range.len()];
        let phase_cost = &mut scratch.phase_cost[..range.len()];
        let MemoryPass {
            memory,
            migration,
            budget,
            teleports,
        } = self;
        let budget = *budget;
        let over_budget = |index: usize| {
            (index as u64 >= budget).then_some(SimError::InstructionBudget { budget })
        };
        // The counters live in a local for the block, so the opaque memory
        // calls below cannot force them through memory.
        let mut local = std::mem::take(stats);
        // The instruction is only rendered on the (cold) error path.
        let fail = |index: usize, source: LatticeError| SimError::Instruction {
            index,
            instruction: trace.instruction(index),
            source,
        };

        for k in 0..cost.len() {
            // Every instruction before this record has run.
            let index = local.instruction_count as usize;
            if let Some(err) = over_budget(index) {
                return Err(err);
            }
            let OpInfo {
                exec: kind,
                flags: fl,
                fixed,
            } = OpInfo::of(op[k]);
            if kind == ExecKind::Teleport {
                // `PM r`, `MZZ.M r,m → 2`, `MX.C r → 1`, `SK 2`, `PH.M m`:
                // only `MZZ.M` (instruction `index + 1`) and `PH.M`
                // (`index + 4`) touch memory or scan.
                *teleports += 1;
                let m = QubitTag(mem0[k].value());
                let [zz_beats, ph_beats] = TELEPORT_SURGERY_BEATS;
                local.magic_states += 1;
                let mut banks = [NO_BANK; 2];
                if let Some(err) = over_budget(index + 1) {
                    return Err(err);
                }
                if MODE == bank_mode::RESOLVED {
                    banks[0] = bank_or_none(memory, m);
                }
                let delay = migrate(memory, migration, &mut local, m, index + 1);
                let access = memory
                    .in_memory_two_qubit_access(m)
                    .map_err(|source| fail(index + 1, source))?;
                local.memory_access_beats += access;
                cost[k] = (delay + access).0 + zz_beats;
                if let Some(err) = over_budget(index + 4) {
                    return Err(err);
                }
                if MODE == bank_mode::RESOLVED {
                    banks[1] = bank_or_none(memory, m);
                    scratch.banks[k] = banks;
                }
                let delay = migrate(memory, migration, &mut local, m, index + 4);
                let seek = memory
                    .in_memory_seek(m)
                    .map_err(|source| fail(index + 4, source))?;
                local.memory_access_beats += seek;
                phase_cost[k] = (delay + seek).0 + ph_beats;
                local.instruction_count += 5;
                // Every instruction but `MX.C` is a command; `MZZ.M` and
                // `PH.M` run in memory.
                local.command_count += 4;
                local.in_memory_ops += 2;
                continue;
            }
            let wrap = |source: LatticeError| fail(index, source);
            let has_m0 = fl & flags::HAS_MEM0 != 0;
            let has_m1 = fl & flags::HAS_MEM1 != 0;
            // Valid only under their flags: an absent memory operand's slot
            // may hold a register index. Every use below is guarded by
            // `has_m*` or by an execution kind that has the operand.
            let m0 = mem0[k].value();
            let m1 = mem1[k].value();
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
            if scans {
                // Canonical operand order: control before target for CX.
                for (present, m) in [(has_m0, m0), (has_m1, m1)] {
                    if present {
                        migration_delay +=
                            migrate(memory, migration, &mut local, QubitTag(m), index);
                    }
                }
            }

            // Duration: one match on the pre-resolved execution kind, with
            // the per-variant fixed-beat charges read from the opcode. A magic
            // state's wait is left to the timing pass.
            let duration = match kind {
                ExecKind::Negligible | ExecKind::Skip => Beats::ZERO,
                ExecKind::Fixed => Beats(u64::from(fixed)),
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
                    Beats(u64::from(fixed))
                }
                ExecKind::Seek => {
                    let seek = memory.in_memory_seek(QubitTag(m0)).map_err(wrap)?;
                    local.memory_access_beats += seek;
                    seek + Beats(u64::from(fixed))
                }
                ExecKind::TwoQubitAccess => {
                    let access = memory
                        .in_memory_two_qubit_access(QubitTag(m0))
                        .map_err(wrap)?;
                    local.memory_access_beats += access;
                    access + Beats(u64::from(fixed))
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
                    load + access + Beats(u64::from(fixed)) + store
                }
                ExecKind::Teleport => unreachable!("a teleport record takes its own arm"),
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

/// The bank `qubit` resides in, or [`NO_BANK`].
#[inline(always)]
fn bank_or_none(memory: &MemorySystem, qubit: QubitTag) -> u32 {
    memory.bank_of(qubit).map_or(NO_BANK, |b| b as u32)
}

/// Offers `policy` the access to `qubit` by record `index` and applies its
/// proposal unless `qubit` is checked out, counting the migration into
/// `stats`. Returns the delay the record pays: the migration's cost plus
/// the policy's overhead, or zero.
#[inline(always)]
fn migrate(
    memory: &mut MemorySystem,
    policy: &mut Option<&mut (dyn MigrationPolicy + 'static)>,
    stats: &mut ExecutionStats,
    qubit: QubitTag,
    index: usize,
) -> Beats {
    let Some(policy) = policy.as_deref_mut() else {
        return Beats::ZERO;
    };
    let Some(victim) = policy.on_access(qubit, index as u64) else {
        return Beats::ZERO;
    };
    if memory.is_checked_out(qubit) {
        return Beats::ZERO;
    }
    match memory.migrate(qubit, victim) {
        Ok(cost) => {
            policy.applied(qubit, victim);
            let total = cost + policy.overhead();
            stats.migrations += 1;
            stats.migration_beats += total;
            total
        }
        Err(_) => Beats::ZERO,
    }
}
