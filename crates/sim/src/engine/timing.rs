//! The timing pass of a trace walk: for up to four factory counts at once,
//! the dependency max, CR-slot claim, magic acquisition, ready-table writes,
//! makespan and memory reference profile of each record, one lane per
//! count. Its input is a block of trace records plus the `cost`,
//! `phase_cost` and `banks` columns.
//!
//! A teleport record (`PM r`, `MZZ.M r,m → 2`, `MX.C r → 1`, `SK 2`,
//! `PH.M m`) advances as its five instructions run in order: `PM` takes the
//! skip guard, its slot (under bounded registers) and a magic state (unless
//! magic is infinite); `MZZ.M` waits for `m`, the slot and its bank;
//! `MX.C` reads its slot only under bounded registers; `SK` waits for the
//! `MZZ.M` outcome and guards `PH.M`, which waits for its own bank (migration
//! may have moved `m`). The intermediate ready times stay in registers, and
//! each table, bank entry, `makespan` and `magic_wait` is written once.

use super::memory_pass::{bank_mode, BlockScratch, NO_BANK};
use super::{SimOutcome, Simulator};
use crate::metrics::ExecutionStats;
use crate::trace::MemoryTrace;
use lsqca_arch::lattice::Beats;
use lsqca_arch::{MagicStateSupply, MemorySystem};
use lsqca_isa::trace_compile::{flags, DEAD_SLOT, FIRST_LIVE_SLOT};
use lsqca_isa::{ExecKind, ExecutionTrace, MemAddr, OpInfo, Slot};
use std::ops::Range;

/// The factory-dependent half of a walk: every quantity that depends on
/// *when* instructions start, for `W` factory counts at once. Each ready
/// table holds one `[u64; W]` lane per entry, so a trace record is decoded
/// once and its dependencies resolve for every count; all lanes observe the
/// same memory evolution.
pub(super) struct TimingLanes<const W: usize> {
    pub(super) magic: [MagicStateSupply; W],
    /// Dense per-qubit ready times.
    pub(super) mem_ready: Vec<[u64; W]>,
    pub(super) slot_ready: Vec<[u64; W]>,
    /// Dense per-classical-value ready times.
    pub(super) classical_ready: Vec<[u64; W]>,
    pub(super) bank_ready: Vec<[u64; W]>,
    /// Start floor armed by an `SK`; it gates only the next instruction.
    pub(super) guard: [u64; W],
    pub(super) makespan: [u64; W],
    magic_wait: [u64; W],
    pub(super) trace: [MemoryTrace; W],
}

/// The run-wide inputs of a timing pass.
pub(super) struct TimingContext {
    pub(super) bounded_registers: bool,
    pub(super) infinite_magic: bool,
    pub(super) record_trace: bool,
}

impl<const W: usize> TimingLanes<W> {
    /// The pristine timing lanes of `memory`, lane `l` with `factories[l]`
    /// magic-state factories, exactly as a simulator built for that count.
    pub(super) fn new(factories: &[u32], memory: &MemorySystem, num_qubits: u32) -> TimingLanes<W> {
        assert_eq!(factories.len(), W, "one factory count per lane");
        TimingLanes {
            magic: std::array::from_fn(|l| MagicStateSupply::new(factories[l])),
            mem_ready: vec![[0; W]; num_qubits as usize],
            // The CX scheduler treats every entry as a claimable slot, so the
            // table starts at the memory system's CR slot count and grows
            // only when a program touches a `RegId` beyond it.
            slot_ready: vec![[0; W]; memory.cr_slots() as usize],
            classical_ready: Vec::new(),
            bank_ready: vec![[0; W]; memory.bank_count()],
            guard: [0; W],
            makespan: [0; W],
            magic_wait: [0; W],
            trace: std::array::from_fn(|_| MemoryTrace::new()),
        }
    }

    /// Presizes the ready tables for a trace walk, plus one scratch slot past
    /// every real operand: absent operands read entry 0 under a zero mask and
    /// write the scratch slot, so the dependency pass needs no per-operand
    /// branches. Reads of never-written entries return zero either way, so
    /// sizing up front is observationally free. (A compiled workload's
    /// trace names its classical values by live slot, so `classical_ready`
    /// holds four entries; see [`lsqca_isa::trace_compile`].) `slot_ready`
    /// keeps its lazy growth: the CX slot claim scans the *current* table,
    /// and presizing it would hand CXs slots the program has not touched
    /// yet. With `record_trace`, each lane's reference profile sizes its
    /// per-address table like `mem_ready`, so recording never regrows it.
    fn presize(&mut self, trace: &ExecutionTrace, record_trace: bool) {
        let mem_bound = trace.mem_bound() as usize;
        if self.mem_ready.len() < mem_bound + 1 {
            self.mem_ready.resize(mem_bound + 1, [0; W]);
        }
        let classical_bound = trace.classical_bound() as usize;
        if self.classical_ready.len() < classical_bound + 1 {
            self.classical_ready.resize(classical_bound + 1, [0; W]);
        }
        if record_trace {
            for lane in &mut self.trace {
                lane.reserve_addresses(mem_bound + 1);
            }
        }
    }

    /// The timing pass: advances every lane over the trace records in
    /// `range`, whose memory-side results the memory pass left in `scratch`
    /// (indexed from `range.start`) under the bank mode `MODE`; `S` is the
    /// trace's slot type. Requires [`TimingLanes::presize`].
    fn advance<const MODE: u8, S: Slot>(
        &mut self,
        trace: &ExecutionTrace,
        range: Range<usize>,
        scratch: &BlockScratch,
        ctx: &TimingContext,
    ) {
        let len = range.len();
        let [slot0, slot1] = trace.slots::<S>();
        let op = &trace.ops()[range.clone()];
        let (slot0, slot1) = (&slot0[range.clone()], &slot1[range.clone()]);
        // The shared slots under each of their roles.
        let (mem0, reg1) = (slot0, slot0);
        let (mem1, reg0) = (slot1, slot1);
        // Empty in a narrow trace, whose opcode bytes hold the classical
        // operands.
        let classical = trace.classical_column().get(range).unwrap_or(&[]);
        let cost = &scratch.cost[..len];
        let phase_cost = &scratch.phase_cost[..len];
        let bounded_registers = ctx.bounded_registers;
        let infinite_magic = ctx.infinite_magic;
        let record_trace = ctx.record_trace;

        // Any index past every real operand works as the write sink: nothing
        // in this run reads indices at or above the trace's bounds.
        let mem_scratch = self.mem_ready.len() - 1;
        let classical_scratch = self.classical_ready.len() - 1;

        // Disjoint field borrows, and the scalars in locals: the table
        // pointers and lengths stay in registers across the opaque
        // `magic.acquire` call below.
        let TimingLanes {
            magic,
            mem_ready,
            slot_ready,
            classical_ready,
            bank_ready,
            trace: mem_trace,
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
        // A single bank's ready times chain every scanning instruction, so
        // they live in registers for the pass, not behind a store-to-load
        // round trip per instruction.
        let mut bank0 = if MODE == bank_mode::UNIFORM {
            bank_ready[0]
        } else {
            [0; W]
        };

        for k in 0..len {
            let OpInfo {
                exec: kind,
                flags: fl,
                fixed,
            } = OpInfo::of(op[k]);
            if kind == ExecKind::Teleport {
                // The five instructions in order, their intermediate ready
                // times in registers and each table written once.
                let r = reg0[k].value() as usize;
                let m = mem0[k].value();
                // `PM` takes the guard, its slot, then a magic state.
                let mut pm = guard;
                if bounded_registers {
                    if let Some(ready) = slot_ready.get(r) {
                        max_lanes(&mut pm, ready);
                    }
                }
                let mut pm_finish = [0u64; W];
                for l in 0..W {
                    let wait = if infinite_magic {
                        0
                    } else {
                        magic[l].acquire(Beats(pm[l])).0.saturating_sub(pm[l])
                    };
                    magic_wait[l] += wait;
                    pm_finish[l] = pm[l] + u64::from(fixed) + wait;
                }
                // `MZZ.M` waits for `m`, the magic state's slot and its bank.
                let mut zz = mem_ready[m as usize];
                if bounded_registers {
                    max_lanes(&mut zz, &pm_finish);
                }
                let [zz_bank, ph_bank] = if MODE == bank_mode::RESOLVED {
                    scratch.banks[k]
                } else {
                    [NO_BANK; 2]
                };
                let zz_finish =
                    teleport_step::<W, MODE>(&mut zz, cost[k], &mut bank0, bank_ready, zz_bank);
                // `MX.C` reads its slot only under bounded registers and
                // takes no beats. `SK` waits for the `MZZ.M` outcome, takes
                // no beats, and guards `PH.M`, which then waits for `m` (both
                // ready at `zz_finish`) and its bank.
                let mx_finish = if bounded_registers { zz_finish } else { [0; W] };
                let mut ph = zz_finish;
                let ph_finish = teleport_step::<W, MODE>(
                    &mut ph,
                    phase_cost[k],
                    &mut bank0,
                    bank_ready,
                    ph_bank,
                );
                if record_trace {
                    for l in 0..W {
                        mem_trace[l].record(MemAddr(m), zz[l]);
                        mem_trace[l].record(MemAddr(m), ph[l]);
                    }
                }
                mem_ready[m as usize] = ph_finish;
                if bounded_registers {
                    *slot_mut(slot_ready, r) = mx_finish;
                }
                classical_ready[FIRST_LIVE_SLOT as usize] = zz_finish;
                classical_ready[DEAD_SLOT as usize] = mx_finish;
                guard = [0; W];
                // `MX.C` and `SK` finish by `zz_finish`, before `PH.M`.
                max_lanes(&mut makespan, &pm_finish);
                max_lanes(&mut makespan, &ph_finish);
                continue;
            }
            let has_m0 = fl & flags::HAS_MEM0 != 0;
            let has_m1 = fl & flags::HAS_MEM1 != 0;
            let mask0 = (has_m0 as u64).wrapping_neg();
            let mask1 = (has_m1 as u64).wrapping_neg();
            let maskc = ((fl & flags::HAS_CIN != 0) as u64).wrapping_neg();
            // An absent memory operand's slot can hold a register index, so
            // the index is masked by its presence bit.
            let m0 = mem0[k].value() & mask0 as u32;
            let m1 = mem1[k].value() & mask1 as u32;
            let cio = S::classical(op[k], classical, k) as usize;

            // Dependency collection, branchless: every index is in bounds
            // (masked memory operands read entry 0, and the classical slot is
            // 0 or a real value below `classical_bound`), and a zero mask
            // drops an absent operand's read below any real ready time.
            let dep0 = mem_ready[m0 as usize];
            let dep1 = mem_ready[m1 as usize];
            let depc = classical_ready[cio];
            let mut start = [0u64; W];
            for l in 0..W {
                start[l] = guard[l]
                    .max(dep0[l] & mask0)
                    .max(dep1[l] & mask1)
                    .max(depc[l] & maskc);
            }
            guard = [0; W];
            if bounded_registers {
                if fl & flags::HAS_REG0 != 0 {
                    if let Some(ready) = slot_ready.get(reg0[k].value() as usize) {
                        max_lanes(&mut start, ready);
                    }
                }
                if fl & flags::HAS_REG1 != 0 {
                    if let Some(ready) = slot_ready.get(reg1[k].value() as usize) {
                        max_lanes(&mut start, ready);
                    }
                }
            }

            // Bank (scan-resource) serialization on the banks the memory
            // pass resolved.
            let scans = fl & flags::NEEDS_SCAN != 0;
            let mut banks = [NO_BANK; 2];
            if MODE == bank_mode::UNIFORM && scans {
                max_lanes(&mut start, &bank0);
            } else if MODE == bank_mode::RESOLVED {
                banks = scratch.banks[k];
                for b in banks {
                    if b != NO_BANK {
                        max_lanes(&mut start, &bank_ready[b as usize]);
                    }
                }
            }

            // An optimized CX claims one CR slot per lane for its surgery
            // ancilla: the first slot with the lane's earliest ready time.
            let cx = kind == ExecKind::Cx && bounded_registers;
            let mut cx_slot = [0usize; W];
            if cx {
                let (first, rest) = slot_ready
                    .split_first()
                    .expect("bounded registers come with the CR's slots");
                let mut ready = *first;
                for (slot, times) in rest.iter().enumerate() {
                    for l in 0..W {
                        if times[l] < ready[l] {
                            ready[l] = times[l];
                            cx_slot[l] = slot + 1;
                        }
                    }
                }
                max_lanes(&mut start, &ready);
            }

            // The magic wait is the one timing-dependent part of a duration.
            let mut wait = [0u64; W];
            if kind == ExecKind::Magic && !infinite_magic {
                for l in 0..W {
                    wait[l] = magic[l].acquire(Beats(start[l])).0.saturating_sub(start[l]);
                    magic_wait[l] += wait[l];
                }
            }
            let mut finish = [0u64; W];
            for l in 0..W {
                finish[l] = start[l] + cost[k] + wait[l];
            }

            // Bookkeeping: flag tests instead of instruction re-matching.
            // Ready-table writes are unconditional — an absent operand is
            // steered to the scratch slot past every real index, which is
            // never read, so no write needs a branch.
            if record_trace {
                for l in 0..W {
                    if has_m0 {
                        mem_trace[l].record(MemAddr(m0), start[l]);
                    }
                    if has_m1 {
                        mem_trace[l].record(MemAddr(m1), start[l]);
                    }
                }
            }
            let w0 = if has_m0 { m0 as usize } else { mem_scratch };
            let w1 = if has_m1 { m1 as usize } else { mem_scratch };
            mem_ready[w0] = finish;
            mem_ready[w1] = finish;
            // Register slots are only ever read under bounded registers.
            if bounded_registers {
                if fl & flags::HAS_REG0 != 0 {
                    *slot_mut(slot_ready, reg0[k].value() as usize) = finish;
                }
                if fl & flags::HAS_REG1 != 0 {
                    *slot_mut(slot_ready, reg1[k].value() as usize) = finish;
                }
                if cx {
                    for l in 0..W {
                        slot_ready[cx_slot[l]][l] = finish[l];
                    }
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
                cio
            } else {
                classical_scratch
            };
            classical_ready[wc] = finish;
            if kind == ExecKind::Skip {
                guard = finish;
            }
            max_lanes(&mut makespan, &finish);
        }
        if MODE == bank_mode::UNIFORM {
            bank_ready[0] = bank0;
        }
        self.guard = guard;
        self.makespan = makespan;
        self.magic_wait = magic_wait;
    }

    /// Appends one outcome per lane to `outcomes`: the shared memory-side
    /// `stats` completed with the lane's makespan and magic wait.
    fn finish(self, stats: &ExecutionStats, outcomes: &mut Vec<SimOutcome>) {
        for (l, trace) in self.trace.into_iter().enumerate() {
            outcomes.push(SimOutcome {
                stats: ExecutionStats {
                    total_beats: Beats(self.makespan[l]),
                    magic_wait_beats: Beats(self.magic_wait[l]),
                    ..stats.clone()
                },
                trace,
            });
        }
    }
}

/// The scanning instruction of a teleport whose start has reached `start`
/// on every other input: serializes it on its bank under `MODE` (`bank0`
/// for a uniform bank, `bank` from the bank column when resolved), returns
/// its finish after `cost` beats and marks the bank busy until then.
#[inline(always)]
fn teleport_step<const W: usize, const MODE: u8>(
    start: &mut [u64; W],
    cost: u64,
    bank0: &mut [u64; W],
    bank_ready: &mut [[u64; W]],
    bank: u32,
) -> [u64; W] {
    if MODE == bank_mode::UNIFORM {
        max_lanes(start, bank0);
    } else if MODE == bank_mode::RESOLVED && bank != NO_BANK {
        max_lanes(start, &bank_ready[bank as usize]);
    }
    let finish = add_lanes(*start, cost);
    if MODE == bank_mode::UNIFORM {
        *bank0 = finish;
    } else if MODE == bank_mode::RESOLVED && bank != NO_BANK {
        bank_ready[bank as usize] = finish;
    }
    finish
}

/// The slot table's entry for register `index`, growing the table to it
/// first: it grows only when a record touches a register beyond it.
#[inline(always)]
fn slot_mut<const W: usize>(slot_ready: &mut Vec<[u64; W]>, index: usize) -> &mut [u64; W] {
    if index >= slot_ready.len() {
        slot_ready.resize(index + 1, [0; W]);
    }
    &mut slot_ready[index]
}

/// Every lane of `start` plus `cost`.
#[inline(always)]
fn add_lanes<const W: usize>(start: [u64; W], cost: u64) -> [u64; W] {
    start.map(|start| start + cost)
}

/// Raises every lane of `start` to at least the matching lane of `ready`.
#[inline(always)]
fn max_lanes<const W: usize>(start: &mut [u64; W], ready: &[u64; W]) {
    for l in 0..W {
        start[l] = start[l].max(ready[l]);
    }
}

/// The widest lane group: factory lists longer than this advance in groups
/// of at most `LANES` lanes over the same memory-pass block.
pub(super) const LANES: usize = 4;

/// The timing lanes of up to [`LANES`] factory counts of one walk, each
/// width its own monomorphized loop.
pub(super) enum LaneGroup {
    One(Box<TimingLanes<1>>),
    Two(Box<TimingLanes<2>>),
    Three(Box<TimingLanes<3>>),
    Four(Box<TimingLanes<4>>),
}

/// Evaluates `$body` with `$lanes` bound to the group's timing lanes,
/// whatever their width.
macro_rules! with_lanes {
    ($group:expr, $lanes:ident => $body:expr) => {
        match $group {
            LaneGroup::One($lanes) => $body,
            LaneGroup::Two($lanes) => $body,
            LaneGroup::Three($lanes) => $body,
            LaneGroup::Four($lanes) => $body,
        }
    };
}

impl LaneGroup {
    /// The presized, pristine lanes of `simulator` for `factories` (one to
    /// [`LANES`] counts) over `trace`.
    pub(super) fn new(
        simulator: &Simulator,
        factories: &[u32],
        trace: &ExecutionTrace,
    ) -> LaneGroup {
        fn lanes<const W: usize>(
            simulator: &Simulator,
            factories: &[u32],
            trace: &ExecutionTrace,
        ) -> Box<TimingLanes<W>> {
            let mut lanes = Box::new(simulator.timing_lanes(factories));
            lanes.presize(trace, simulator.config.record_trace);
            lanes
        }
        match factories.len() {
            1 => LaneGroup::One(lanes(simulator, factories, trace)),
            2 => LaneGroup::Two(lanes(simulator, factories, trace)),
            3 => LaneGroup::Three(lanes(simulator, factories, trace)),
            4 => LaneGroup::Four(lanes(simulator, factories, trace)),
            n => unreachable!("a lane group holds one to {LANES} factory counts, not {n}"),
        }
    }

    /// [`TimingLanes::advance`] on the group's lanes.
    pub(super) fn advance<const MODE: u8, S: Slot>(
        &mut self,
        trace: &ExecutionTrace,
        range: Range<usize>,
        scratch: &BlockScratch,
        ctx: &TimingContext,
    ) {
        with_lanes!(self, lanes => lanes.advance::<MODE, S>(trace, range, scratch, ctx))
    }

    /// [`TimingLanes::finish`] on the group's lanes.
    pub(super) fn finish(self, stats: &ExecutionStats, outcomes: &mut Vec<SimOutcome>) {
        with_lanes!(self, lanes => lanes.finish(stats, outcomes))
    }
}

/// The timing kernel at its narrow input: a hand-built trace block with its
/// `cost` and `banks` columns set directly, and no memory pass.
#[cfg(test)]
mod tests {
    use super::*;
    use lsqca_arch::{ArchConfig, FloorplanKind};
    use lsqca_isa::{ClassicalId, Instruction, Program, RegId};

    /// Runs `$check::<W>()` for 1-, 2- and 4-lane groups.
    macro_rules! each_width {
        ($check:ident) => {{
            $check::<1>();
            $check::<2>();
            $check::<4>();
        }};
    }

    /// Advances pristine lanes on `floorplan` (lane `l` with `l + 1`
    /// factories, unbounded magic, memory trace on) over `records` under
    /// `MODE`, after `setup` has adjusted them.
    fn run<const W: usize, const MODE: u8>(
        floorplan: FloorplanKind,
        records: &[Instruction],
        (cost, banks): (&[u64], &[[u32; 2]]),
        bounded_registers: bool,
        setup: impl FnOnce(&mut TimingLanes<W>),
    ) -> TimingLanes<W> {
        let trace = lsqca_isa::lower(&Program::from_iter(records.iter().copied()));
        let arch = ArchConfig::new(floorplan, 1);
        let memory = MemorySystem::new(&arch, 8, &[]);
        let factories: Vec<u32> = (1..=W as u32).collect();
        let mut lanes = TimingLanes::new(&factories, &memory, 8);
        lanes.presize(&trace, true);
        setup(&mut lanes);
        let ctx = TimingContext {
            bounded_registers,
            infinite_magic: true,
            record_trace: true,
        };
        let scratch = BlockScratch {
            cost: cost.to_vec(),
            phase_cost: vec![0; cost.len()],
            banks: banks.to_vec(),
        };
        if trace.is_narrow() {
            lanes.advance::<MODE, u16>(&trace, 0..trace.len(), &scratch, &ctx)
        } else {
            lanes.advance::<MODE, u32>(&trace, 0..trace.len(), &scratch, &ctx)
        }
        lanes
    }

    /// Asserts that every lane recorded exactly `references`, the expected
    /// `(qubit, start beat)` list in program order.
    fn assert_starts<const W: usize>(lanes: &TimingLanes<W>, references: &[(u32, u64)]) {
        let expected = MemoryTrace::of(references);
        for (l, trace) in lanes.trace.iter().enumerate() {
            assert_eq!(trace, &expected, "lane {l}");
        }
    }

    fn hd(q: u32) -> Instruction {
        Instruction::HdM { mem: MemAddr(q) }
    }

    fn uniform_serializes_scanning_records<const W: usize>() {
        // Two scanning in-memory gates on distinct qubits, then a
        // non-scanning preparation.
        let records = [hd(0), hd(1), Instruction::PzM { mem: MemAddr(2) }];
        let columns = (&[3, 3, 1][..], &[][..]);
        let point = FloorplanKind::PointSam { banks: 1 };
        let uniform = run::<W, { bank_mode::UNIFORM }>(point, &records, columns, false, |_| {});
        assert_starts(&uniform, &[(0, 0), (1, 3), (2, 0)]);
        assert_eq!((uniform.makespan, uniform.bank_ready[0]), ([6; W], [6; W]));
        // The same block without banks overlaps the two gates.
        let conventional = FloorplanKind::Conventional;
        let bankless =
            run::<W, { bank_mode::BANKLESS }>(conventional, &records, columns, false, |_| {});
        assert_starts(&bankless, &[(0, 0), (1, 0), (2, 0)]);
    }

    #[test]
    fn uniform_mode_serializes_scanning_records() {
        each_width!(uniform_serializes_scanning_records);
    }

    fn resolved_runs_two_banks_in_parallel<const W: usize>() {
        // The bank column alone decides what serializes: records 0 and 2
        // share bank 0, record 1 runs on bank 1 beside them, and the CX
        // spans both banks.
        let cx = Instruction::Cx {
            control: MemAddr(3),
            target: MemAddr(4),
        };
        let banks = [[0, NO_BANK], [1, NO_BANK], [0, NO_BANK], [1, 0]];
        let lanes = run::<W, { bank_mode::RESOLVED }>(
            FloorplanKind::PointSam { banks: 2 },
            &[hd(0), hd(1), hd(2), cx],
            (&[3, 3, 3, 4], &banks),
            false,
            |_| {},
        );
        assert_starts(&lanes, &[(0, 0), (1, 0), (2, 3), (3, 6), (4, 6)]);
        assert_eq!(lanes.bank_ready, [[10; W], [10; W]]);
        assert_eq!(lanes.makespan, [10; W]);
    }

    #[test]
    fn resolved_mode_runs_two_banks_in_parallel() {
        each_width!(resolved_runs_two_banks_in_parallel);
    }

    fn cx_claims_the_first_earliest_slot<const W: usize>() {
        // Per lane, the slot ready times tie at their minimum; the first
        // tied slot (marked) is the one a CX claims.
        let table: [[u64; 4]; 4] = [
            [4, 2, 9, 2], // slot 1
            [1, 3, 1, 1], // slot 0
            [6, 6, 2, 2], // slot 2
            [5, 5, 5, 5], // slot 0
        ];
        let claimed = [1, 0, 2, 0];
        let cx = Instruction::Cx {
            control: MemAddr(0),
            target: MemAddr(1),
        };
        let lanes = run::<W, { bank_mode::BANKLESS }>(
            FloorplanKind::PointSam { banks: 1 },
            &[cx],
            (&[10], &[]),
            true,
            |lanes| {
                let slots = (0..4).map(|slot| std::array::from_fn(|l| table[l][slot]));
                lanes.slot_ready = slots.collect();
            },
        );
        for l in 0..W {
            let finish = table[l][claimed[l]] + 10;
            let mut expected = table[l];
            expected[claimed[l]] = finish;
            let got: Vec<u64> = lanes.slot_ready.iter().map(|ready| ready[l]).collect();
            assert_eq!(
                (got, lanes.makespan[l]),
                (expected.to_vec(), finish),
                "lane {l}"
            );
        }
    }

    #[test]
    fn cx_claims_the_first_earliest_slot_in_each_lane() {
        each_width!(cx_claims_the_first_earliest_slot);
    }

    fn skip_guards_only_the_next_record<const W: usize>() {
        // A narrow trace keeps the classical operand in its opcode bytes, a
        // wide one (an operand past the opcode bits) in its own column.
        for value in [ClassicalId(2), ClassicalId(9)] {
            let mem = MemAddr(0);
            let records = [
                hd(0),
                Instruction::MzM { mem, out: value },
                Instruction::MxM {
                    mem: MemAddr(3),
                    out: ClassicalId(3),
                },
                Instruction::Sk { cond: value },
                Instruction::PhM { mem: MemAddr(1) },
                Instruction::PhM { mem: MemAddr(2) },
                Instruction::HdC { reg: RegId(0) },
            ];
            let columns = (&[3, 0, 0, 0, 2, 2, 3][..], &[][..]);
            let conventional = FloorplanKind::Conventional;
            let lanes =
                run::<W, { bank_mode::BANKLESS }>(conventional, &records, columns, false, |_| {});
            // The SK waits for the measurement it reads (beat 3), not the
            // other one; the record after it starts no earlier, the one
            // after that is free again.
            assert_starts(&lanes, &[(0, 0), (0, 3), (3, 0), (1, 3), (2, 0)]);
            assert_eq!((lanes.guard, lanes.makespan), ([0; W], [5; W]));
        }
    }

    #[test]
    fn skip_guard_gates_only_the_next_record() {
        each_width!(skip_guards_only_the_next_record);
    }
}
