//! The reference interpreter, the executable specification of the
//! simulator: it matches on `Instruction` variants step by step, looks up
//! banks per instruction, runs the `CX` as five unfused memory calls, and
//! makes one full run per factory count. At every factory count the trace
//! engine (memory pass plus timing pass) must return the same
//! [`SimOutcome`], or the same typed [`SimError`] at the same instruction
//! index, rendered the same. The shadow-equivalence proptests in
//! `crates/sim/tests/shadow_trace.rs` hold the two equal over random
//! programs, floorplans, migration policies and factory lists, reaching
//! this path through [`Classified`].

use super::timing::TimingLanes;
use super::{Executable, SimError, SimOutcome, Simulator};
use lsqca_arch::lattice::{Beats, LatticeError, QubitTag};
use lsqca_isa::latency::is_negligible;
use lsqca_isa::{Instruction, MemAddr, Program};

/// The reference interpreter's read of a one-lane ready table: entries it
/// never wrote read as zero.
fn ready(table: &[[u64; 1]], index: u32) -> Beats {
    Beats(table.get(index as usize).map_or(0, |&[t]| t))
}

/// The reference interpreter's write to a one-lane ready table, growing it
/// on demand.
fn set_ready(table: &mut Vec<[u64; 1]>, index: u32, t: Beats) {
    let index = index as usize;
    if index >= table.len() {
        table.resize(index + 1, [0]);
    }
    table[index] = [t.0];
}

impl Simulator {
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

    /// The [`Classified`] engine path: one reference-interpreter run per
    /// factory count.
    pub(super) fn execute_classified(
        &mut self,
        program: &Program,
        factories: &[u32],
    ) -> Result<Vec<SimOutcome>, SimError> {
        factories
            .iter()
            .map(|&f| self.interpret(program, f))
            .collect()
    }

    /// One reference-interpreter run at `factories` magic-state factories.
    fn interpret(&mut self, program: &Program, factories: u32) -> Result<SimOutcome, SimError> {
        self.begin_walk(1);
        let mut timing: TimingLanes<1> = self.timing_lanes(&[factories]);
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
            let mut start = Beats(std::mem::take(&mut timing.guard[0]));
            for m in mems {
                start = start.max(ready(&timing.mem_ready, m.index()));
            }
            if !self.unbounded_registers {
                for r in regs {
                    start = start.max(ready(&timing.slot_ready, r.index()));
                }
            }
            if let Some(v) = instr.classical_input() {
                start = start.max(ready(&timing.classical_ready, v.index()));
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
                            start = start.max(Beats(timing.bank_ready[b][0]));
                        }
                    }
                }
            }

            // An optimized CX claims one CR slot for its surgery ancilla.
            let mut cx_slot: Option<usize> = None;
            if matches!(instr, Instruction::Cx { .. }) && !self.unbounded_registers {
                // Bounded registers come with the CR's slots.
                let (slot, ready) = timing
                    .slot_ready
                    .iter()
                    .map(|&[t]| t)
                    .enumerate()
                    .min_by_key(|&(_, t)| t)
                    .expect("bounded registers come with the CR's slots");
                start = start.max(Beats(ready));
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
                        let available = timing.magic[0].acquire(start);
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
            if !is_negligible(instr) {
                stats.command_count += 1;
            }
            if instr.is_in_memory() {
                stats.in_memory_ops += 1;
            }
            for m in mems {
                if self.config.record_trace {
                    timing.trace[0].record(m, start.as_u64());
                }
                set_ready(&mut timing.mem_ready, m.index(), finish);
            }
            for r in regs {
                set_ready(&mut timing.slot_ready, r.index(), finish);
            }
            if let Some(slot) = cx_slot {
                timing.slot_ready[slot] = [finish.0];
            }
            for &b in &banks[..bank_count] {
                timing.bank_ready[b] = [finish.0];
            }
            if let Some(v) = instr.classical_output() {
                set_ready(&mut timing.classical_ready, v.index(), finish);
            }
            if matches!(instr, Instruction::Sk { .. }) {
                timing.guard = [finish.0];
            }
            timing.makespan[0] = timing.makespan[0].max(finish.0);
        }

        stats.total_beats = Beats(timing.makespan[0]);
        let [trace] = timing.trace;
        Ok(SimOutcome { stats, trace })
    }
}

/// A program whose execution drives the **reference interpreter**, the
/// executable specification the trace engine is checked against, instead
/// of the trace engine.
#[derive(Debug, Clone, Copy)]
pub struct Classified<'a> {
    program: &'a Program,
}

impl<'a> Classified<'a> {
    /// Wraps `program` for the reference interpreter.
    pub fn new(program: &'a Program) -> Self {
        Classified { program }
    }
}

impl Executable for Classified<'_> {
    fn execute_on(
        &self,
        simulator: &mut Simulator,
        factories: &[u32],
    ) -> Result<Vec<SimOutcome>, SimError> {
        simulator.execute_classified(self.program, factories)
    }
}
