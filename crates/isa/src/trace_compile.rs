//! Dense, pre-resolved execution traces of LSQCA instruction streams.
//!
//! The simulator's inner loop used to re-discover the same static facts about
//! every instruction on every run: its operand lists (`memory_operands`,
//! `register_operands`), whether it occupies a SAM scan resource, whether it
//! is an in-memory operation, its latency class, and — via a 21-arm `match`
//! — which duration rule applies. All of that is a pure function of the
//! instruction variant, so it is computed **once per instruction**, as the
//! instruction is appended, and stored in a dense struct-of-arrays
//! [`ExecutionTrace`]:
//!
//! ```text
//! compile ──InstructionSink::push──▶ ExecutionTrace ──Simulator::execute──▶ ExecutionStats
//!  (one pass)                          (flat SoA columns)                    (identical to
//!                                                                             the interpreter)
//! ```
//!
//! The trace is an [`InstructionSink`]: the compiler writes each instruction
//! straight into it, so the experiment pipeline never materializes a
//! [`Program`]. [`lower`] replays a `Program` through the same sink, for the
//! `Program` executable and for tests that compare the two compiled forms.
//!
//! Every static fact about a record is a pure function of its opcode, so the
//! trace stores only the opcode and looks the rest up in [`OPCODES`], one
//! 22-entry table: the execution kind (the pre-resolved duration dispatch
//! arm, [`ExecKind`]), a flags byte (operand shape, scan-resource,
//! in-memory, classical in/out) and the fixed beat component. The opcode
//! also serves the cold paths: reconstructing an [`Instruction`] for
//! `SimError::Instruction`, and serialization ([`ExecutionTrace::encode`]),
//! which is lossless, so the trace is the whole compiled instruction stream.
//!
//! # Teleport records
//!
//! Opcodes 0–20 are one instruction each. Opcode 21 is an in-memory T-gate
//! teleportation, the five instructions `PM r`, `MZZ.M r,m → 2`,
//! `MX.C r → 1`, `SK 2`, `PH.M m` ([`teleport`]) as one record: `m` in slot
//! 0, `r` in slot 1, and the classical slots [`FIRST_LIVE_SLOT`] and
//! [`DEAD_SLOT`] implied. A trace writes one when it is handed a teleport
//! in those slots ([`InstructionSink::push_teleport`], which
//! `lsqca_compiler::compile_into` calls for every T gate), and [`lower`]
//! and [`ExecutionTrace::decode`] fold every exact window of the five
//! instructions ([`teleport_operands`], the one matcher) the same way.
//! Everything else stays one record per instruction. Every count and index
//! the trace reports outward is in instructions:
//! [`ExecutionTrace::instructions`] and [`ExecutionTrace::encode`] expand a
//! teleport to its five instructions, so the encoded text does not depend
//! on the folding.
//!
//! # Record layout
//!
//! A record is one byte of opcode plus its operand slots, in one of two
//! widths fixed for the whole trace:
//!
//! ```text
//!  narrow (5 B):  op+cio │ slot 0      │ slot 1
//!                 u8     │ u16         │ u16
//!
//!  wide (13 B):   op     │ slot 0      │ slot 1      │ slot 2
//!                 u8     │ u32         │ u32         │ u32
//!
//!                        │ mem0 / reg1 │ mem1 / reg0 │ cio
//! ```
//!
//! The opcode takes the low [`OPCODE_BITS`] bits of its byte (22 opcodes
//! need 5). A trace is *narrow* while every memory address and register
//! index is below 2¹⁶ and every classical operand is below
//! [`NARROW_CLASSICAL`]: slots 0 and 1 are `u16` and the classical operand
//! (`cio`) rides in the two bits above the opcode. Otherwise it is *wide*:
//! the opcode byte holds the opcode alone and all three slots are `u32`. The
//! width is a function of the records alone: a push that does not fit
//! widens the trace once, so equal record sequences compare equal however
//! they were built. The readers of the slots are generic over their type
//! ([`Slot`]) and pick it once per trace ([`ExecutionTrace::slots`]);
//! [`Slot::classical`] reads `cio` from wherever that width keeps it.
//!
//! No instruction has more than three operands, and no opcode has both
//! operands of a shared slot ([`SHARED_SLOTS`]): a record stores `mem0` in
//! slot 0 if it has one and `reg1` there otherwise, and `mem1` in slot 1 if it
//! has one and `reg0` there otherwise. A slot is therefore valid for a role
//! only where the role's flag is set; elsewhere it holds whatever the other
//! role put there, or 0. A reader that indexes a table with a slot must mask
//! it by the role's flag first. `cio` is 0 when the record has no classical
//! operand.
//!
//! A trace built through [`ExecutionTrace::with_shape`] from the
//! [`TraceShape`] of the same instruction stream is allocated once, at its
//! final size and width.
//!
//! # Classical slots
//!
//! A trace stores whatever classical operands it is given, and
//! `classical_bound` is one past the highest. The compiler emits *live
//! slots* (`lsqca_compiler::compile_into`), numbered so that the engine's
//! per-value ready table needs only as many entries as values are live at
//! once:
//!
//! - slot [`UNWRITTEN_SLOT`] (0) is never written: a read of a value that no
//!   earlier record wrote reads it;
//! - slot [`DEAD_SLOT`] (1) takes every write that no later record reads;
//! - slots from [`FIRST_LIVE_SLOT`] (2) on each hold one live value from its
//!   write to its last read, the lowest free slot first.
//!
//! The only live values of a compiled trace are T gates' `MZZ` outcomes,
//! each read by its `SK` two instructions later, so a compiled workload
//! uses at most slots 1 and 2, has `classical_bound` of at most 3 and is
//! narrow unless an operand reaches 2¹⁶. [`ExecutionTrace::instructions`]
//! and [`ExecutionTrace::encode`] therefore report slots, not
//! per-measurement identifiers, on a compiled workload's trace. A
//! [`Program`], [`lower`]ed or [`decode`](ExecutionTrace::decode)d, keeps
//! its own identifiers (each compiled measurement has its own), so its
//! teleports stay five records and its trace is wide once an identifier
//! reaches [`NARROW_CLASSICAL`]. [`ExecutionTrace::compact_classical`]
//! renumbers any trace into live slots; no compile path calls it: it is the
//! reference the compiler's emission is tested against, and the shadow
//! proptests check that a renumbered trace executes exactly like the
//! original.

use crate::instruction::Instruction;
use crate::operand::{ClassicalId, MemAddr, RegId};
use crate::program::{InstructionSink, Program};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// The live classical slot that no record writes: a read of a value nothing
/// wrote before it reads this slot, whose ready time stays 0.
pub const UNWRITTEN_SLOT: u32 = 0;

/// The live classical slot that takes every write no later record reads.
/// Nothing reads it.
pub const DEAD_SLOT: u32 = 1;

/// The lowest live classical slot a live value takes.
pub const FIRST_LIVE_SLOT: u32 = 2;

/// The low bits of a record's opcode byte that hold its opcode; a narrow
/// record keeps its classical operand in the bits above them.
pub const OPCODE_BITS: u32 = 5;

/// The opcode bits of an opcode byte.
const OPCODE_MASK: u8 = (1 << OPCODE_BITS) - 1;

/// The first classical operand a narrow record cannot hold: two bits sit
/// above the opcode.
pub const NARROW_CLASSICAL: u32 = 4;

/// Revision of the trace lowering: the encoded form ([`ExecutionTrace::encode`]:
/// opcode numbering and operand order) and the meaning of a record (the static
/// per-opcode metadata baked into it).
///
/// Compiled-workload artifacts embed this number next to `ISA_VERSION`, and
/// every workload key (hence every result key) mixes it in: bump it whenever
/// lowering changes what a record encodes to or means, so stale traces are
/// quarantined and recompiled instead of silently driving the engine with an
/// older contract. The in-memory column layout is not part of it: a layout
/// change that keeps every encoded byte and every meaning keeps the revision.
/// Neither is the numbering of classical operands: a trace in live slots
/// and one with per-measurement identifiers share the revision, because
/// either executes identically ([`ExecutionTrace::compact_classical`]), so
/// an artifact written before the compiler emitted live slots still loads
/// and runs unchanged.
pub const TRACE_REVISION: u32 = 1;

/// The pre-resolved duration dispatch arm of one trace record.
///
/// The interpreter's 21-arm duration `match` collapses into nine execution
/// kinds, plus [`ExecKind::Teleport`] for the five-instruction teleport
/// record; everything variant-specific beyond the kind (the fixed beat
/// component, operand shape) lives in the rest of the opcode's [`OpInfo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ExecKind {
    /// Fixed zero-beat latency, excluded from CPI command counts.
    Negligible,
    /// Fixed non-zero latency (`fixed` holds the duration).
    Fixed,
    /// `LD`: variable-latency load through the memory controller.
    Load,
    /// `ST`: variable-latency store through the memory controller.
    Store,
    /// `PM`: wait for the magic-state supply, then `fixed` beats to move the
    /// state into the CR.
    Magic,
    /// In-memory unitary: scan seek plus `fixed` beats of surgery.
    Seek,
    /// In-memory joint measurement: two-qubit scan access plus `fixed` beats.
    TwoQubitAccess,
    /// The optimized `CX` expansion (peek both, load the cheaper operand,
    /// access the other in memory, store back; `fixed` beats of surgery).
    Cx,
    /// `SK`: zero-beat, but arms the skip guard for the next instruction.
    Skip,
    /// An in-memory T-gate teleportation, `PM r`, `MZZ.M r,m → 2`,
    /// `MX.C r → 1`, `SK 2`, `PH.M m` (see the
    /// [module docs](self#teleport-records)): `fixed` holds `PM`'s beat;
    /// `MZZ.M` and `PH.M` add their surgery beats to their accesses.
    Teleport,
}

/// Flag bits of one opcode ([`OpInfo::flags`]).
pub mod flags {
    /// Record has a first SAM operand (`mem0`).
    pub const HAS_MEM0: u8 = 1 << 0;
    /// Record has a second SAM operand (`mem1`); implies [`HAS_MEM0`].
    pub const HAS_MEM1: u8 = 1 << 1;
    /// Record has a first CR operand (`reg0`).
    pub const HAS_REG0: u8 = 1 << 2;
    /// Record has a second CR operand (`reg1`); implies [`HAS_REG0`].
    pub const HAS_REG1: u8 = 1 << 3;
    /// Instruction occupies its SAM bank's scan cell / scan line.
    pub const NEEDS_SCAN: u8 = 1 << 4;
    /// Instruction operates on SAM contents in place (`Instruction::is_in_memory`).
    pub const IN_MEMORY: u8 = 1 << 5;
    /// Record reads a classical value (`cio` column; only `SK`).
    pub const HAS_CIN: u8 = 1 << 6;
    /// Record writes a classical value (`cio` column; the measurements).
    pub const HAS_COUT: u8 = 1 << 7;
}

/// The operand roles that share a slot, as pairs of [`flags`] bits: slot 0
/// holds `mem0` or `reg1`, slot 1 holds `mem1` or `reg0`. No record sets both
/// bits of a pair.
pub const SHARED_SLOTS: [(u8, u8); 2] = [
    (flags::HAS_MEM0, flags::HAS_REG1),
    (flags::HAS_MEM1, flags::HAS_REG0),
];

/// The static columns of one opcode, shared by every record of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpInfo {
    /// The pre-resolved duration dispatch arm.
    pub exec: ExecKind,
    /// The operand shape and resource bits ([`flags`]).
    pub flags: u8,
    /// The fixed beat component of the duration.
    pub fixed: u8,
}

impl OpInfo {
    /// The static columns of opcode `op`.
    ///
    /// `op` may be a record's whole opcode byte: only its low
    /// [`OPCODE_BITS`] bits are read.
    ///
    /// # Panics
    ///
    /// Panics if those bits are not an opcode (a trace holds none such).
    #[inline(always)]
    pub fn of(op: u8) -> OpInfo {
        OPCODES[usize::from(op & OPCODE_MASK)]
    }
}

/// The static columns of every opcode, indexed by opcode: the one place the
/// per-variant latency class, operand shape and scan/in-memory flags of
/// Table I are written down for the engine.
pub const OPCODES: [OpInfo; 22] = {
    use flags::*;
    use ExecKind as E;
    const fn op(exec: ExecKind, flags: u8, fixed: u8) -> OpInfo {
        OpInfo { exec, flags, fixed }
    }
    const LOAD_STORE: u8 = HAS_MEM0 | HAS_REG0 | NEEDS_SCAN;
    const MEASURE_C: u8 = HAS_REG0 | HAS_COUT;
    const JOINT_C: u8 = HAS_REG0 | HAS_REG1 | HAS_COUT;
    const PREPARE_M: u8 = HAS_MEM0 | IN_MEMORY;
    const SEEK_M: u8 = HAS_MEM0 | NEEDS_SCAN | IN_MEMORY;
    const MEASURE_M: u8 = HAS_MEM0 | IN_MEMORY | HAS_COUT;
    const JOINT_M: u8 = HAS_MEM0 | HAS_REG0 | NEEDS_SCAN | IN_MEMORY | HAS_COUT;
    [
        op(E::Load, LOAD_STORE, 0),                                 // 0 LD
        op(E::Store, LOAD_STORE, 0),                                // 1 ST
        op(E::Negligible, HAS_REG0, 0),                             // 2 PZ.C
        op(E::Negligible, HAS_REG0, 0),                             // 3 PP.C
        op(E::Magic, HAS_REG0, 1),                                  // 4 PM
        op(E::Fixed, HAS_REG0, 3),                                  // 5 HD.C
        op(E::Fixed, HAS_REG0, 2),                                  // 6 PH.C
        op(E::Negligible, MEASURE_C, 0),                            // 7 MX.C
        op(E::Negligible, MEASURE_C, 0),                            // 8 MZ.C
        op(E::Fixed, JOINT_C, 1),                                   // 9 MXX.C
        op(E::Fixed, JOINT_C, 1),                                   // 10 MZZ.C
        op(E::Skip, HAS_CIN, 0),                                    // 11 SK
        op(E::Negligible, PREPARE_M, 0),                            // 12 PZ.M
        op(E::Negligible, PREPARE_M, 0),                            // 13 PP.M
        op(E::Seek, SEEK_M, 3),                                     // 14 HD.M
        op(E::Seek, SEEK_M, 2),                                     // 15 PH.M
        op(E::Negligible, MEASURE_M, 0),                            // 16 MX.M
        op(E::Negligible, MEASURE_M, 0),                            // 17 MZ.M
        op(E::TwoQubitAccess, JOINT_M, 1),                          // 18 MXX.M
        op(E::TwoQubitAccess, JOINT_M, 1),                          // 19 MZZ.M
        op(E::Cx, HAS_MEM0 | HAS_MEM1 | NEEDS_SCAN | IN_MEMORY, 2), // 20 CX
        op(E::Teleport, SEEK_M | HAS_REG0, 1),                      // 21 teleport
    ]
};

/// The opcode of a teleport record.
const TELEPORT_OPCODE: u8 = 21;

/// The fixed beats a teleport's `MZZ.M` and `PH.M` add to their memory
/// accesses: their opcodes' [`OpInfo::fixed`].
pub const TELEPORT_SURGERY_BEATS: [u64; 2] = [OPCODES[19].fixed as u64, OPCODES[15].fixed as u64];

/// The five instructions of an in-memory T-gate teleportation on CR slot
/// `reg` and SAM address `mem`, as `lsqca_compiler` lowers every T gate
/// with in-memory operations on: the magic state (`PM`), its joint
/// measurement with `mem` into `zz`, the magic qubit's measurement into
/// `mx`, the skip on `zz`, and the phase correction.
pub fn teleport(reg: RegId, mem: MemAddr, zz: ClassicalId, mx: ClassicalId) -> [Instruction; 5] {
    use Instruction::*;
    [
        Pm { reg },
        MzzM { reg, mem, out: zz },
        MxC { reg, out: mx },
        Sk { cond: zz },
        PhM { mem },
    ]
}

/// The operands `(reg, mem, zz, mx)` for which `window` is exactly
/// [`teleport`]`(reg, mem, zz, mx)`, or `None`. The one matcher of the
/// teleport shape: [`lower`] and [`ExecutionTrace::decode`] fold the
/// windows it accepts, and a trace writes the fold as one record when
/// `zz` and `mx` are the live slots the compiler gives them.
pub fn teleport_operands(
    window: &[Instruction],
) -> Option<(RegId, MemAddr, ClassicalId, ClassicalId)> {
    let &[Instruction::Pm { reg }, Instruction::MzzM { mem, out: zz, .. }, Instruction::MxC { out: mx, .. }, ..] =
        window
    else {
        return None;
    };
    (window == teleport(reg, mem, zz, mx)).then_some((reg, mem, zz, mx))
}

/// The teleport record of [`teleport`]`(reg, mem, zz, mx)`, if a trace
/// stores those five instructions as one: when `zz` and `mx` are
/// [`FIRST_LIVE_SLOT`] and [`DEAD_SLOT`].
fn teleport_record(
    reg: RegId,
    mem: MemAddr,
    zz: ClassicalId,
    mx: ClassicalId,
) -> Option<(u8, [u32; 2], u32)> {
    ((zz.0, mx.0) == (FIRST_LIVE_SLOT, DEAD_SLOT)).then_some((TELEPORT_OPCODE, [mem.0, reg.0], 0))
}

/// The type of operand slots 0 and 1: `u16` in a narrow trace, `u32` in a
/// wide one (see the [module docs](self#record-layout)).
pub trait Slot: Copy + sealed::Sealed {
    /// Slots 0 and 1 of `trace`, or `None` if its slots have the other type.
    fn columns(trace: &ExecutionTrace) -> Option<[&[Self]; 2]>;

    /// The operand the slot holds.
    fn value(self) -> u32;

    /// The classical operand of record `index` of a trace with slots of
    /// this type, whose opcode byte is `op` and whose
    /// [`ExecutionTrace::classical_column`] is `column`: the bits above the
    /// opcode in a narrow trace, `column[index]` in a wide one.
    fn classical(op: u8, column: &[u32], index: usize) -> u32;
}

mod sealed {
    /// The seal on [`Slot`](super::Slot): `u16` and `u32` are the only slot
    /// types.
    pub trait Sealed {}

    impl Sealed for u16 {}
    impl Sealed for u32 {}
}

impl Slot for u16 {
    fn columns(trace: &ExecutionTrace) -> Option<[&[u16]; 2]> {
        match &trace.slots {
            Slots::Narrow([slot0, slot1]) => Some([slot0, slot1]),
            Slots::Wide(_) => None,
        }
    }

    #[inline(always)]
    fn value(self) -> u32 {
        u32::from(self)
    }

    #[inline(always)]
    fn classical(op: u8, _: &[u32], _: usize) -> u32 {
        u32::from(op >> OPCODE_BITS)
    }
}

impl Slot for u32 {
    fn columns(trace: &ExecutionTrace) -> Option<[&[u32]; 2]> {
        match &trace.slots {
            Slots::Wide([slot0, slot1, _]) => Some([slot0, slot1]),
            Slots::Narrow(_) => None,
        }
    }

    #[inline(always)]
    fn value(self) -> u32 {
        self
    }

    #[inline(always)]
    fn classical(_: u8, column: &[u32], index: usize) -> u32 {
        column[index]
    }
}

/// The operand slots of every record.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Slots {
    /// Slots 0 and 1; the classical operand rides in the opcode byte.
    Narrow([Vec<u16>; 2]),
    /// Slots 0 and 1, and the classical operand.
    Wide([Vec<u32>; 3]),
}

impl Default for Slots {
    fn default() -> Self {
        Slots::Narrow(Default::default())
    }
}

/// True if a record with these slot values and classical operand fits the
/// narrow layout.
fn fits_narrow(largest_slot: u32, classical: u32) -> bool {
    largest_slot <= u32::from(u16::MAX) && classical < NARROW_CLASSICAL
}

/// The record count and width of an instruction stream, counted without
/// storing it: push the stream here, then into
/// [`ExecutionTrace::with_shape`] of the result, which it fills without
/// reallocating.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TraceShape {
    records: usize,
    /// The largest value slot 0 or slot 1 takes.
    largest_slot: u32,
    /// The largest classical operand.
    largest_classical: u32,
}

impl TraceShape {
    /// Number of records pushed: one per instruction, and one per folded
    /// teleport.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Counts one record with these slot values and classical operand.
    fn count(&mut self, (_, [slot0, slot1], cio): (u8, [u32; 2], u32)) {
        self.records += 1;
        self.largest_slot = self.largest_slot.max(slot0).max(slot1);
        self.largest_classical = self.largest_classical.max(cio);
    }
}

impl InstructionSink for TraceShape {
    fn push(&mut self, instr: Instruction) {
        self.count(record(instr));
    }

    fn push_teleport(&mut self, reg: RegId, mem: MemAddr, zz: ClassicalId, mx: ClassicalId) {
        match teleport_record(reg, mem, zz, mx) {
            Some(record) => self.count(record),
            None => teleport(reg, mem, zz, mx)
                .into_iter()
                .for_each(|i| self.push(i)),
        }
    }
}

/// A program lowered into dense struct-of-arrays execution records.
///
/// Columns are parallel vectors, one entry per record (an instruction, or a
/// folded teleport; see the [module docs](self#teleport-records)): the opcode byte
/// and two `u16` operand slots in a narrow trace (5 bytes per record, the
/// classical operand in the opcode byte), or the opcode and three `u32`
/// slots in a wide one (13 bytes); see the
/// [module docs](self#record-layout) for the slot roles and the width.
/// Everything else about a record comes from its opcode's [`OpInfo`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ExecutionTrace {
    /// The opcode bytes: the opcode, and in a narrow trace the classical
    /// operand above it.
    op: Vec<u8>,
    slots: Slots,
    /// One past the highest SAM address referenced (0 if none): the engine
    /// presizes its per-address ready table to this bound so the loop indexes
    /// directly instead of bounds-probing per access.
    mem_bound: u32,
    /// One past the highest classical operand referenced (0 if none).
    classical_bound: u32,
}

impl ExecutionTrace {
    /// An empty trace.
    pub fn new() -> Self {
        ExecutionTrace::default()
    }

    /// An empty trace allocated for the stream `shape` counted: every column
    /// holds exactly `shape.records()` records, at the width those records
    /// need. Pushing that stream fills it without reallocating.
    pub fn with_shape(shape: &TraceShape) -> Self {
        let n = shape.records;
        let slots = if fits_narrow(shape.largest_slot, shape.largest_classical) {
            Slots::Narrow([Vec::with_capacity(n), Vec::with_capacity(n)])
        } else {
            Slots::Wide(std::array::from_fn(|_| Vec::with_capacity(n)))
        };
        ExecutionTrace {
            op: Vec::with_capacity(n),
            slots,
            mem_bound: 0,
            classical_bound: 0,
        }
    }

    /// Number of records: one per instruction, and one per folded teleport.
    pub fn len(&self) -> usize {
        self.op.len()
    }

    /// Number of instructions the records hold: a teleport record holds
    /// five.
    pub fn instruction_count(&self) -> usize {
        let teleports = self
            .op
            .iter()
            .filter(|&&op| op & OPCODE_MASK == TELEPORT_OPCODE);
        self.len() + 4 * teleports.count()
    }

    /// True if the trace has no records.
    pub fn is_empty(&self) -> bool {
        self.op.is_empty()
    }

    /// The opcode bytes. [`OpInfo::of`] gives each one's static columns; in
    /// a narrow trace a byte also holds its record's classical operand
    /// ([`Slot::classical`]).
    #[inline]
    pub fn ops(&self) -> &[u8] {
        &self.op
    }

    /// True if the trace is narrow: every memory address and register index
    /// is below 2¹⁶ and every classical operand below [`NARROW_CLASSICAL`],
    /// so slots 0 and 1 are `u16`.
    pub fn is_narrow(&self) -> bool {
        matches!(self.slots, Slots::Narrow(_))
    }

    /// Slots 0 and 1: `mem0` or `reg1`, and `mem1` or `reg0`. A slot is valid
    /// for a role only where the role's flag is set; elsewhere it may hold
    /// the other role's operand.
    ///
    /// # Panics
    ///
    /// Panics unless `S` is the trace's slot type (`u16` exactly when
    /// [`ExecutionTrace::is_narrow`]).
    #[inline]
    pub fn slots<S: Slot>(&self) -> [&[S]; 2] {
        match S::columns(self) {
            Some(columns) => columns,
            None => panic!(
                "the trace's operand slots are not {}",
                std::any::type_name::<S>()
            ),
        }
    }

    /// The classical operand column of a wide trace, one entry per record;
    /// empty in a narrow trace, whose opcode bytes hold the classical
    /// operands. [`Slot::classical`] reads either.
    #[inline]
    pub fn classical_column(&self) -> &[u32] {
        match &self.slots {
            Slots::Narrow(_) => &[],
            Slots::Wide([_, _, cio]) => cio,
        }
    }

    /// The classical in/out operand of record `index`: valid where
    /// [`flags::HAS_CIN`] or [`flags::HAS_COUT`] is set, 0 elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn classical(&self, index: usize) -> u32 {
        match &self.slots {
            Slots::Narrow(_) => u32::from(self.op[index] >> OPCODE_BITS),
            Slots::Wide([_, _, cio]) => cio[index],
        }
    }

    /// Bytes allocated for the columns: each one's capacity times its
    /// element size. A trace built by [`ExecutionTrace::with_shape`] holds
    /// exactly 5 (narrow) or 13 (wide) bytes per record.
    pub fn heap_bytes(&self) -> usize {
        let slots = match &self.slots {
            Slots::Narrow(columns) => columns.iter().map(|c| 2 * c.capacity()).sum::<usize>(),
            Slots::Wide(columns) => columns.iter().map(|c| 4 * c.capacity()).sum(),
        };
        self.op.capacity() + slots
    }

    /// Calls `visit` with every SAM operand, in instruction order (`mem0`
    /// before `mem1`): a teleport's address twice, once for its `MZZ.M` and
    /// once for its `PH.M`.
    pub fn for_each_memory_operand(&self, mut visit: impl FnMut(u32)) {
        fn each<S: Slot>(trace: &ExecutionTrace, visit: &mut impl FnMut(u32)) {
            let [slot0, slot1] = trace.slots::<S>();
            for ((&op, &m0), &m1) in trace.op.iter().zip(slot0).zip(slot1) {
                let fl = OpInfo::of(op).flags;
                if fl & flags::HAS_MEM0 != 0 {
                    visit(m0.value());
                }
                if fl & flags::HAS_MEM1 != 0 {
                    visit(m1.value());
                } else if op & OPCODE_MASK == TELEPORT_OPCODE {
                    visit(m0.value());
                }
            }
        }
        if self.is_narrow() {
            each::<u16>(self, &mut visit);
        } else {
            each::<u32>(self, &mut visit);
        }
    }

    /// The opcode of record `index`, without its classical operand.
    fn opcode(&self, index: usize) -> u8 {
        self.op[index] & OPCODE_MASK
    }

    /// Slots 0 and 1 of record `index`, widened.
    fn slot_values(&self, index: usize) -> [u32; 2] {
        match &self.slots {
            Slots::Narrow([slot0, slot1]) => [slot0[index].into(), slot1[index].into()],
            Slots::Wide([slot0, slot1, _]) => [slot0[index], slot1[index]],
        }
    }

    /// Turns a narrow trace wide, keeping every column's capacity: the
    /// classical operands move from the opcode bytes into slot 2.
    fn widen(&mut self) {
        if let Slots::Narrow(narrow) = &self.slots {
            let widened = |column: &Vec<u16>| {
                let mut wide = Vec::with_capacity(column.capacity());
                wide.extend(column.iter().map(|&value| u32::from(value)));
                wide
            };
            let mut cio = Vec::with_capacity(self.op.capacity());
            cio.extend(self.op.iter().map(|&op| u32::from(op >> OPCODE_BITS)));
            self.slots = Slots::Wide([widened(&narrow[0]), widened(&narrow[1]), cio]);
            for op in &mut self.op {
                *op &= OPCODE_MASK;
            }
        }
    }

    /// Appends the record of opcode `op` with slot values `slots` and
    /// classical operand `cio`, widening the trace first if they do not fit
    /// a narrow record.
    fn push_record(&mut self, (op, [slot0, slot1], cio): (u8, [u32; 2], u32)) {
        use flags::*;
        let fl = OpInfo::of(op).flags;
        if fl & HAS_MEM0 != 0 {
            self.mem_bound = self.mem_bound.max(slot0 + 1);
        }
        if fl & HAS_MEM1 != 0 {
            self.mem_bound = self.mem_bound.max(slot1 + 1);
        }
        if fl & (HAS_CIN | HAS_COUT) != 0 {
            self.classical_bound = self.classical_bound.max(cio + 1);
        } else if op == TELEPORT_OPCODE {
            self.classical_bound = self.classical_bound.max(FIRST_LIVE_SLOT + 1);
        }
        if !fits_narrow(slot0.max(slot1), cio) {
            self.widen();
        }
        match &mut self.slots {
            Slots::Narrow([column0, column1]) => {
                // `fits_narrow` held, or the trace would be wide by now.
                self.op.push(op | ((cio as u8) << OPCODE_BITS));
                column0.push(slot0 as u16);
                column1.push(slot1 as u16);
            }
            Slots::Wide([column0, column1, column2]) => {
                self.op.push(op);
                column0.push(slot0);
                column1.push(slot1);
                column2.push(cio);
            }
        }
    }

    /// One past the highest SAM address referenced by any record.
    pub fn mem_bound(&self) -> u32 {
        self.mem_bound
    }

    /// One past the highest classical operand referenced by any record: in
    /// live slots, the number of slots the trace uses.
    pub fn classical_bound(&self) -> u32 {
        self.classical_bound
    }

    /// This trace with its classical operands renumbered into live slots
    /// (see the [module docs](self#classical-slots)), one record per
    /// instruction: a teleport record comes out as its five instructions'
    /// records. The renumbered trace executes exactly as the original: every
    /// `SK` reads the slot of the value it read before, nothing overwrites
    /// that slot in between, and a read of a never-written value reads
    /// [`UNWRITTEN_SLOT`], which no record writes. Deterministic and
    /// idempotent, and exact for any trace; its width follows its records,
    /// like any trace's.
    ///
    /// The compiler emits these slots directly, so nothing on a compile path
    /// calls this: it is the reference the emitted traces are tested
    /// against. Two passes over the instructions:
    ///
    /// - backward, marking each write that a later `SK` reads (its value is
    ///   live) and each read that is the last one of its value;
    /// - forward, giving each live value the lowest free slot from
    ///   [`FIRST_LIVE_SLOT`] on, freeing it after the value's last read, and
    ///   sending every dead write to [`DEAD_SLOT`].
    ///
    /// A value written twice is two values.
    pub fn compact_classical(&self) -> ExecutionTrace {
        use flags::{HAS_CIN, HAS_COUT};
        let ids = self.classical_bound as usize;
        // Per write: some later read sees it. Per read: it is the last read
        // of its value. No instruction is both, so one mark per instruction
        // serves both.
        let mut marked = vec![false; self.instruction_count()];
        let mut read_later = vec![false; ids];
        let mut k = marked.len();
        for instr in self.instructions().rev() {
            k -= 1;
            let (op, _, id) = record(instr);
            let fl = OpInfo::of(op).flags;
            // A read with no read after it is its value's last; a write with
            // a read after it is live. Either way the mark flips the flag.
            if fl & (HAS_CIN | HAS_COUT) != 0 && (fl & HAS_CIN != 0) != read_later[id as usize] {
                marked[k] = true;
                read_later[id as usize] = !read_later[id as usize];
            }
        }

        let mut compacted = ExecutionTrace::new();
        let mut slot_of = vec![UNWRITTEN_SLOT; ids];
        let mut free = BinaryHeap::new();
        let mut fresh = FIRST_LIVE_SLOT;
        for (instr, &live) in self.instructions().zip(&marked) {
            let (op, slots, id) = record(instr);
            let fl = OpInfo::of(op).flags;
            let id = id as usize;
            let slot = if fl & HAS_CIN != 0 {
                let slot = slot_of[id];
                if live && slot != UNWRITTEN_SLOT {
                    free.push(Reverse(slot));
                }
                slot
            } else if fl & HAS_COUT == 0 {
                0
            } else if live {
                let slot = free.pop().map_or_else(
                    || {
                        fresh += 1;
                        fresh - 1
                    },
                    |Reverse(slot)| slot,
                );
                slot_of[id] = slot;
                slot
            } else {
                DEAD_SLOT
            };
            compacted.push_record((op, slots, slot));
        }
        compacted
    }

    /// The instructions the records hold, in order: a teleport record's five
    /// ([`teleport`]), every other record's one. Their classical operands
    /// are the records', so on a compiled workload's trace they are live
    /// slots.
    pub fn instructions(&self) -> impl DoubleEndedIterator<Item = Instruction> + '_ {
        (0..self.len()).flat_map(move |k| {
            let (op, [slot0, slot1]) = (self.opcode(k), self.slot_values(k));
            let (window, n) = if op == TELEPORT_OPCODE {
                let (zz, mx) = (ClassicalId(FIRST_LIVE_SLOT), ClassicalId(DEAD_SLOT));
                (teleport(RegId(slot1), MemAddr(slot0), zz, mx), 5)
            } else {
                let mut operands = [0u32; 5];
                let n = operands_of((op, [slot0, slot1], self.classical(k)), &mut operands);
                match reconstruct(op, &operands[..n]) {
                    Some(instr) => ([instr; 5], 1),
                    None => unreachable!("trace record {k} holds an invalid opcode"),
                }
            };
            window.into_iter().take(n)
        })
    }

    /// The instruction at instruction index `index` (a teleport record
    /// holds five) — the cold path for `SimError::Instruction` and for
    /// display, which scans the records before it; the hot loop never calls
    /// this.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below [`ExecutionTrace::instruction_count`].
    #[cold]
    pub fn instruction(&self, index: usize) -> Instruction {
        match self.instructions().nth(index) {
            Some(instr) => instr,
            None => panic!("instruction {index} is past the end of the trace"),
        }
    }

    /// Serializes the trace to its compact artifact text: one entry per
    /// instruction (`;`-separated), a teleport record's five included, each
    /// the hex opcode followed by its hex operand values (`.`-separated,
    /// canonical order: memory operands, register operands, classical
    /// in/out).
    ///
    /// Only the opcode and operand values are stored — the static columns
    /// are the opcode's [`OpInfo`], and the bounds, width and teleport
    /// records are rebuilt by [`ExecutionTrace::decode`].
    pub fn encode(&self) -> String {
        let mut text = String::with_capacity(self.len() * 6);
        let mut operands = [0u32; 5];
        for (index, instr) in self.instructions().enumerate() {
            if index > 0 {
                text.push(';');
            }
            let record = record(instr);
            push_hex(&mut text, u32::from(record.0));
            let n = operands_of(record, &mut operands);
            for &operand in &operands[..n] {
                text.push('.');
                push_hex(&mut text, operand);
            }
        }
        text
    }

    /// Decodes [`ExecutionTrace::encode`] output, folding every exact
    /// teleport window as [`lower`] does.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceDecodeError`] for unknown opcodes, operand counts
    /// that do not match the opcode's shape, or malformed hex fields.
    pub fn decode(text: &str) -> Result<Self, TraceDecodeError> {
        let mut trace = ExecutionTrace::new();
        if text.is_empty() {
            return Ok(trace);
        }
        let mut error = None;
        let instructions = text.split(';').enumerate().map_while(|(index, record)| {
            decode_instruction(index, record)
                .map_err(|err| error = Some(err))
                .ok()
        });
        fold(instructions, &mut trace);
        match error {
            Some(err) => Err(err),
            None => Ok(trace),
        }
    }
}

/// The instruction entry `index` of [`ExecutionTrace::encode`] text holds.
fn decode_instruction(index: usize, record: &str) -> Result<Instruction, TraceDecodeError> {
    let mut fields = record.split('.');
    let op = parse_hex(fields.next().unwrap_or(""), index)?;
    let mut operands = [0u32; 5];
    let mut n = 0;
    for field in fields {
        if n == operands.len() {
            return Err(TraceDecodeError {
                what: format!("record {index} has too many operand fields"),
            });
        }
        operands[n] = parse_hex(field, index)?;
        n += 1;
    }
    let op = u8::try_from(op).unwrap_or(u8::MAX);
    reconstruct(op, &operands[..n]).ok_or_else(|| TraceDecodeError {
        what: format!(
            "record {index}: opcode {op} with {n} operand field(s) \
             matches no instruction shape"
        ),
    })
}

/// Writes the operands of the record `(op, slots, cio)` of one instruction
/// into `operands` in canonical (encode) order — memory operands, register
/// operands, classical in/out — and returns how many there are.
fn operands_of((op, [slot0, slot1], cio): (u8, [u32; 2], u32), operands: &mut [u32; 5]) -> usize {
    use flags::*;
    let fl = OpInfo::of(op).flags;
    let mut n = 0;
    for (role, value) in [
        (HAS_MEM0, slot0),
        (HAS_MEM1, slot1),
        (HAS_REG0, slot1),
        (HAS_REG1, slot0),
        (HAS_CIN | HAS_COUT, cio),
    ] {
        if fl & role != 0 {
            operands[n] = value;
            n += 1;
        }
    }
    n
}

/// The opcode and slot values of `instr`'s record: slot 0 holds `mem0` or
/// `reg1`, slot 1 `mem1` or `reg0`, slot 2 the classical operand; absent
/// operands are 0. This is the **only** place that matches on the
/// instruction variant; everything downstream reads the opcode's [`OpInfo`]
/// and the slots.
fn record(instr: Instruction) -> (u8, [u32; 2], u32) {
    use Instruction::*;
    match instr {
        Ld { mem, reg } => (0, [mem.0, reg.0], 0),
        St { reg, mem } => (1, [mem.0, reg.0], 0),
        PzC { reg } => (2, [0, reg.0], 0),
        PpC { reg } => (3, [0, reg.0], 0),
        Pm { reg } => (4, [0, reg.0], 0),
        HdC { reg } => (5, [0, reg.0], 0),
        PhC { reg } => (6, [0, reg.0], 0),
        MxC { reg, out } => (7, [0, reg.0], out.0),
        MzC { reg, out } => (8, [0, reg.0], out.0),
        MxxC { reg1, reg2, out } => (9, [reg2.0, reg1.0], out.0),
        MzzC { reg1, reg2, out } => (10, [reg2.0, reg1.0], out.0),
        Sk { cond } => (11, [0, 0], cond.0),
        PzM { mem } => (12, [mem.0, 0], 0),
        PpM { mem } => (13, [mem.0, 0], 0),
        HdM { mem } => (14, [mem.0, 0], 0),
        PhM { mem } => (15, [mem.0, 0], 0),
        MxM { mem, out } => (16, [mem.0, 0], out.0),
        MzM { mem, out } => (17, [mem.0, 0], out.0),
        MxxM { reg, mem, out } => (18, [mem.0, reg.0], out.0),
        MzzM { reg, mem, out } => (19, [mem.0, reg.0], out.0),
        Cx { control, target } => (20, [control.0, target.0], 0),
    }
}

/// Appending an instruction lowers it into its record, widening the trace
/// first if it does not fit a narrow record; a teleport in the live slots
/// the compiler gives it becomes one record.
impl InstructionSink for ExecutionTrace {
    fn push(&mut self, instr: Instruction) {
        self.push_record(record(instr));
    }

    fn push_teleport(&mut self, reg: RegId, mem: MemAddr, zz: ClassicalId, mx: ClassicalId) {
        match teleport_record(reg, mem, zz, mx) {
            Some(record) => self.push_record(record),
            None => teleport(reg, mem, zz, mx)
                .into_iter()
                .for_each(|i| self.push(i)),
        }
    }
}

/// Pushes `instructions` into `sink`, each exact teleport window
/// ([`teleport_operands`]) through one [`InstructionSink::push_teleport`].
fn fold(instructions: impl IntoIterator<Item = Instruction>, sink: &mut impl InstructionSink) {
    let mut window = Vec::with_capacity(5);
    for instr in instructions {
        window.push(instr);
        if window.len() == 5 {
            match teleport_operands(&window) {
                Some((reg, mem, zz, mx)) => {
                    sink.push_teleport(reg, mem, zz, mx);
                    window.clear();
                }
                None => sink.push(window.remove(0)),
            }
        }
    }
    // The end of the stream cuts any window these begin.
    window.into_iter().for_each(|instr| sink.push(instr));
}

fn push_hex(text: &mut String, value: u32) {
    use fmt::Write;
    let _ = write!(text, "{value:x}");
}

fn parse_hex(field: &str, index: usize) -> Result<u32, TraceDecodeError> {
    if field.is_empty() {
        return Err(TraceDecodeError {
            what: format!("record {index} has an empty field"),
        });
    }
    u32::from_str_radix(field, 16).map_err(|_| TraceDecodeError {
        what: format!("record {index}: `{field}` is not a hex operand"),
    })
}

/// Rebuilds an [`Instruction`] from an opcode and its operand values in
/// canonical (encode) order. `None` if the opcode or operand count is
/// invalid — the decode-side shape validation.
fn reconstruct(op: u8, operands: &[u32]) -> Option<Instruction> {
    use Instruction::*;
    let instr = match (op, operands) {
        (0, &[m, r]) => Ld {
            mem: MemAddr(m),
            reg: RegId(r),
        },
        (1, &[m, r]) => St {
            reg: RegId(r),
            mem: MemAddr(m),
        },
        (2, &[r]) => PzC { reg: RegId(r) },
        (3, &[r]) => PpC { reg: RegId(r) },
        (4, &[r]) => Pm { reg: RegId(r) },
        (5, &[r]) => HdC { reg: RegId(r) },
        (6, &[r]) => PhC { reg: RegId(r) },
        (7, &[r, v]) => MxC {
            reg: RegId(r),
            out: ClassicalId(v),
        },
        (8, &[r, v]) => MzC {
            reg: RegId(r),
            out: ClassicalId(v),
        },
        (9, &[r1, r2, v]) => MxxC {
            reg1: RegId(r1),
            reg2: RegId(r2),
            out: ClassicalId(v),
        },
        (10, &[r1, r2, v]) => MzzC {
            reg1: RegId(r1),
            reg2: RegId(r2),
            out: ClassicalId(v),
        },
        (11, &[v]) => Sk {
            cond: ClassicalId(v),
        },
        (12, &[m]) => PzM { mem: MemAddr(m) },
        (13, &[m]) => PpM { mem: MemAddr(m) },
        (14, &[m]) => HdM { mem: MemAddr(m) },
        (15, &[m]) => PhM { mem: MemAddr(m) },
        (16, &[m, v]) => MxM {
            mem: MemAddr(m),
            out: ClassicalId(v),
        },
        (17, &[m, v]) => MzM {
            mem: MemAddr(m),
            out: ClassicalId(v),
        },
        (18, &[m, r, v]) => MxxM {
            reg: RegId(r),
            mem: MemAddr(m),
            out: ClassicalId(v),
        },
        (19, &[m, r, v]) => MzzM {
            reg: RegId(r),
            mem: MemAddr(m),
            out: ClassicalId(v),
        },
        (20, &[c, t]) => Cx {
            control: MemAddr(c),
            target: MemAddr(t),
        },
        _ => return None,
    };
    Some(instr)
}

/// Lowers `program` into a fresh [`ExecutionTrace`]: the program's
/// instructions pushed through the trace's [`InstructionSink`], each exact
/// teleport window ([`teleport_operands`]) through
/// [`InstructionSink::push_teleport`]. The trace keeps the program's
/// classical identifiers, so a window becomes one record only where they
/// are the live slots a compiled teleport takes.
pub fn lower(program: &Program) -> ExecutionTrace {
    let mut trace = ExecutionTrace::with_shape(&TraceShape {
        records: program.len(),
        ..TraceShape::default()
    });
    fold(program.iter().copied(), &mut trace);
    trace
}

/// Why a serialized trace was rejected by [`ExecutionTrace::decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDecodeError {
    /// Description of the malformed content.
    pub what: String,
}

impl fmt::Display for TraceDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed execution trace: {}", self.what)
    }
}

impl std::error::Error for TraceDecodeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::example_instructions;
    use crate::latency::{is_negligible, latency};
    use proptest::prelude::*;

    fn example_program() -> Program {
        let mut program = Program::new("every-variant");
        for instr in example_instructions() {
            program.push(instr);
        }
        program
    }

    /// Every opcode once, each operand a different value, so an operand
    /// stored in the wrong slot cannot hide behind an equal one. The trace
    /// is narrow: its classical operand is below [`NARROW_CLASSICAL`].
    fn distinct_operand_program() -> Program {
        use crate::instruction::Instruction::*;
        let (mem, mem2) = (MemAddr(3), MemAddr(5));
        let (reg, reg2) = (RegId(7), RegId(11));
        let out = ClassicalId(2);
        let mut program = Program::new("distinct-operands");
        for instr in [
            Ld { mem, reg },
            St { reg, mem },
            PzC { reg },
            PpC { reg },
            Pm { reg },
            HdC { reg },
            PhC { reg },
            MxC { reg, out },
            MzC { reg, out },
            MxxC {
                reg1: reg,
                reg2,
                out,
            },
            MzzC {
                reg1: reg,
                reg2,
                out,
            },
            Sk { cond: out },
            PzM { mem },
            PpM { mem },
            HdM { mem },
            PhM { mem },
            MxM { mem, out },
            MzM { mem, out },
            MxxM { reg, mem, out },
            MzzM { reg, mem, out },
            Cx {
                control: mem,
                target: mem2,
            },
        ] {
            program.push(instr);
        }
        program
    }

    #[test]
    fn shared_slots_never_hold_two_present_operands() {
        let program = distinct_operand_program();
        let trace = lower(&program);
        let mut opcodes: Vec<u8> = (0..trace.len()).map(|k| trace.opcode(k)).collect();
        opcodes.sort_unstable();
        opcodes.dedup();
        assert_eq!(opcodes, (0..21).collect::<Vec<u8>>(), "every opcode once");
        for (i, instr) in program.iter().enumerate() {
            let fl = OpInfo::of(trace.ops()[i]).flags;
            for (a, b) in SHARED_SLOTS {
                assert!(
                    fl & a == 0 || fl & b == 0,
                    "{instr}: roles {a:#x} and {b:#x}"
                );
            }
            assert_eq!(trace.instruction(i), *instr);
        }
        assert_eq!(ExecutionTrace::decode(&trace.encode()).unwrap(), trace);
    }

    #[test]
    fn encoding_round_trips() {
        let trace = lower(&example_program());
        assert_eq!(ExecutionTrace::decode(&trace.encode()).unwrap(), trace);
    }

    #[test]
    fn records_reconstruct_their_instructions() {
        let program = example_program();
        let trace = lower(&program);
        assert_eq!(trace.len(), program.len());
        for (index, instr) in program.iter().enumerate() {
            assert_eq!(trace.instruction(index), *instr, "record {index}");
        }
    }

    #[test]
    fn opcode_table_agrees_with_instruction_metadata() {
        // The opcode table is the one place that re-derives per-variant
        // facts; this pins every entry to the Instruction/latency-table
        // metadata, and every slot to its operand, so the two can never
        // drift apart silently.
        let program = distinct_operand_program();
        let trace = lower(&program);
        // Every opcode but the teleport's, which the next test covers.
        assert_eq!(trace.len() + 1, OPCODES.len());
        let [slot0, slot1] = trace.slots::<u16>();
        for (i, instr) in program.iter().enumerate() {
            let info = OpInfo::of(trace.ops()[i]);
            let fl = info.flags;
            let mems = instr.memory_operands();
            let regs = instr.register_operands();
            let mem_count =
                usize::from(fl & flags::HAS_MEM0 != 0) + usize::from(fl & flags::HAS_MEM1 != 0);
            let reg_count =
                usize::from(fl & flags::HAS_REG0 != 0) + usize::from(fl & flags::HAS_REG1 != 0);
            assert_eq!(mem_count, mems.len(), "{instr}");
            assert_eq!(reg_count, regs.len(), "{instr}");
            // The role views: mem0 and reg1 in slot 0, mem1 and reg0 in slot 1.
            if !mems.is_empty() {
                assert_eq!(u32::from(slot0[i]), mems[0].0, "{instr}: mem0");
            }
            if mems.len() > 1 {
                assert_eq!(u32::from(slot1[i]), mems[1].0, "{instr}: mem1");
            }
            if !regs.is_empty() {
                assert_eq!(u32::from(slot1[i]), regs[0].0, "{instr}: reg0");
            }
            if regs.len() > 1 {
                assert_eq!(u32::from(slot0[i]), regs[1].0, "{instr}: reg1");
            }
            assert_eq!(
                fl & flags::IN_MEMORY != 0,
                instr.is_in_memory(),
                "{instr}: IN_MEMORY"
            );
            assert_eq!(
                fl & flags::HAS_CIN != 0,
                instr.classical_input().is_some(),
                "{instr}: HAS_CIN"
            );
            assert_eq!(
                fl & flags::HAS_COUT != 0,
                instr.classical_output().is_some(),
                "{instr}: HAS_COUT"
            );
            if let Some(v) = instr.classical_input().or(instr.classical_output()) {
                assert_eq!(trace.classical(i), v.0, "{instr}: cio");
            }
            // Negligible exec kind ⟺ negligible latency class; the engine's
            // CPI bookkeeping relies on this equivalence.
            assert_eq!(
                info.exec == ExecKind::Negligible,
                is_negligible(instr),
                "{instr}: negligible"
            );
            // A fixed-latency instruction charges exactly its Table I beats.
            if let Some(beats) = latency(instr).fixed_beats() {
                let charged = if info.exec == ExecKind::Fixed {
                    u64::from(info.fixed)
                } else {
                    0
                };
                assert_eq!(charged, beats, "{instr}: fixed beats");
            }
            // The scan-resource set is the engine's historical list.
            use Instruction::*;
            let needs_scan = matches!(
                instr,
                Ld { .. }
                    | St { .. }
                    | HdM { .. }
                    | PhM { .. }
                    | MxxM { .. }
                    | MzzM { .. }
                    | Cx { .. }
            );
            assert_eq!(
                fl & flags::NEEDS_SCAN != 0,
                needs_scan,
                "{instr}: NEEDS_SCAN"
            );
        }
    }

    /// `program` pushed into a trace allocated from its counted shape.
    fn shaped(program: &Program) -> ExecutionTrace {
        let mut shape = TraceShape::default();
        program.iter().for_each(|&instr| shape.push(instr));
        let mut trace = ExecutionTrace::with_shape(&shape);
        program.iter().for_each(|&instr| trace.push(instr));
        trace
    }

    /// `program`'s shaped trace is wide at 13 bytes a record, holds its
    /// records, equals the trace that widened on its way, and survives the
    /// codec.
    fn assert_widened(program: &Program) {
        let wide = shaped(program);
        assert!(!wide.is_narrow());
        assert_eq!(wide.heap_bytes(), 13 * wide.len());
        for (index, instr) in program.iter().enumerate() {
            assert_eq!(wide.instruction(index), *instr, "record {index}");
        }
        // A narrow trace widened by its last push equals the wide-built one,
        // and either survives the codec.
        assert_eq!(lower(program), wide);
        assert_eq!(ExecutionTrace::decode(&wide.encode()).unwrap(), wide);
    }

    /// A teleport in the compiler's live slots lowers, decodes and is
    /// pushed as one record, which expands back to its five instructions
    /// and encodes as they do. Every near miss stays one record per
    /// instruction: one register, address or classical slot changed, other
    /// classical operands, the window cut by the end of the stream, and the
    /// load/store shape of a T gate.
    #[test]
    fn the_teleport_fold_takes_exactly_the_teleport() {
        use Instruction::*;
        let (reg, mem) = (RegId(3), MemAddr(7));
        let (zz, mx) = (ClassicalId(FIRST_LIVE_SLOT), ClassicalId(DEAD_SLOT));
        let exact = teleport(reg, mem, zz, mx);
        let folded = lower(&Program::from_iter(exact));
        let info = OpInfo::of(folded.ops()[0]);
        assert_eq!((folded.len(), info.exec), (1, ExecKind::Teleport));
        // `PM`'s beat, then `MZZ.M`'s and `PH.M`'s surgery.
        assert_eq!(info.fixed, OPCODES[4].fixed);
        assert_eq!(
            TELEPORT_SURGERY_BEATS,
            [exact[1], exact[4]].map(|instr| u64::from(OpInfo::of(record(instr).0).fixed))
        );
        assert!(folded.instructions().eq(exact));
        assert_eq!(folded.instruction_count(), 5);
        assert_eq!(folded.instruction(4), exact[4]);
        assert_eq!((folded.mem_bound(), folded.classical_bound()), (8, 3));
        let mut memory_operands = Vec::new();
        folded.for_each_memory_operand(|m| memory_operands.push(m));
        assert_eq!(memory_operands, [7, 7]);
        let mut pushed = ExecutionTrace::new();
        let mut shape = TraceShape::default();
        pushed.push_teleport(reg, mem, zz, mx);
        shape.push_teleport(reg, mem, zz, mx);
        assert_eq!((&pushed, shape.records()), (&folded, 1));
        let unfolded = shaped(&Program::from_iter(exact));
        assert_eq!(unfolded.len(), 5);
        assert_eq!(folded.encode(), unfolded.encode());
        assert_eq!(ExecutionTrace::decode(&unfolded.encode()).unwrap(), folded);

        let (other_reg, other_mem) = (RegId(4), MemAddr(8));
        let cr = RegId(4);
        let mut misses: Vec<Vec<Instruction>> = [
            (0, Pm { reg: other_reg }),
            (
                1,
                MzzM {
                    reg: other_reg,
                    mem,
                    out: zz,
                },
            ),
            (
                1,
                MzzM {
                    reg,
                    mem: other_mem,
                    out: zz,
                },
            ),
            (
                2,
                MxC {
                    reg: other_reg,
                    out: mx,
                },
            ),
            (4, PhM { mem: other_mem }),
            (1, MzzM { reg, mem, out: mx }),
            (2, MxC { reg, out: zz }),
            (3, Sk { cond: mx }),
        ]
        .into_iter()
        .map(|(k, miss)| {
            let mut records = exact;
            records[k] = miss;
            records.to_vec()
        })
        .collect();
        misses.push(teleport(reg, mem, ClassicalId(5), ClassicalId(6)).to_vec());
        misses.push(exact[..4].to_vec());
        misses.push(vec![
            Pm { reg },
            Ld { mem, reg: cr },
            MzzC {
                reg1: reg,
                reg2: cr,
                out: zz,
            },
            MxC { reg, out: mx },
            Sk { cond: zz },
            PhC { reg: cr },
            St { reg: cr, mem },
        ]);
        for records in misses {
            let trace = lower(&Program::from_iter(records.iter().copied()));
            assert_eq!(trace.len(), records.len(), "{records:?}");
            assert!(trace.instructions().eq(records.iter().copied()));
            assert_eq!(ExecutionTrace::decode(&trace.encode()).unwrap(), trace);
        }

        // A teleport folds in place after a `PM` that begins none, and past
        // 2¹⁶ in a wide trace.
        let far = teleport(reg, MemAddr(70_000), zz, mx);
        let stream: Vec<Instruction> = [Pm { reg }].into_iter().chain(exact).chain(far).collect();
        let trace = lower(&Program::from_iter(stream.iter().copied()));
        assert!(!trace.is_narrow());
        assert_eq!((trace.len(), trace.instruction_count()), (3, 11));
        assert!(trace.instructions().eq(stream.iter().copied()));
        assert_eq!(ExecutionTrace::decode(&trace.encode()).unwrap(), trace);
    }

    #[test]
    fn narrow_records_cost_five_bytes_and_a_large_operand_widens() {
        let program = distinct_operand_program();
        let narrow = shaped(&program);
        assert!(narrow.is_narrow());
        assert_eq!(narrow.heap_bytes(), 5 * narrow.len());
        assert_eq!(narrow, lower(&program));

        // One operand at 2¹⁶ widens every record, slot values intact.
        let mut large = program.clone();
        large.push(Instruction::Ld {
            mem: MemAddr(70_000),
            reg: RegId(65_536),
        });
        assert_widened(&large);
        assert_eq!(shaped(&large).mem_bound(), 70_001);
        // The width follows the records: 65 535 still fits.
        let edge = Program::from_iter([Instruction::HdM {
            mem: MemAddr(u32::from(u16::MAX)),
        }]);
        assert!(lower(&edge).is_narrow());
    }

    #[test]
    fn a_classical_operand_past_the_opcode_bits_widens_narrow_slots() {
        use crate::instruction::Instruction::{MzM, Sk};
        let program = distinct_operand_program();
        let last = NARROW_CLASSICAL - 1;
        for (out, narrow) in [(last, true), (NARROW_CLASSICAL, false)] {
            let mut classical = program.clone();
            classical.push(MzM {
                mem: MemAddr(3),
                out: ClassicalId(out),
            });
            classical.push(Sk {
                cond: ClassicalId(out),
            });
            let trace = shaped(&classical);
            assert_eq!(trace.is_narrow(), narrow, "classical operand {out}");
            if narrow {
                assert_eq!(trace.heap_bytes(), 5 * trace.len());
                assert_eq!(trace, lower(&classical));
            } else {
                assert_widened(&classical);
            }
            let records = classical.len();
            assert_eq!(trace.classical(records - 1), out);
            assert_eq!(trace.classical_bound(), out + 1);
        }
    }

    #[test]
    fn bounds_cover_the_highest_operands() {
        use crate::instruction::Instruction::*;
        let mut program = Program::new("bounds");
        program.push(Cx {
            control: MemAddr(7),
            target: MemAddr(41),
        });
        program.push(MzM {
            mem: MemAddr(3),
            out: ClassicalId(9),
        });
        let trace = lower(&program);
        assert_eq!(trace.mem_bound(), 42);
        assert_eq!(trace.classical_bound(), 10);
        assert_eq!(lower(&Program::new("empty")).mem_bound(), 0);
    }

    /// The slot column of the classical records, in order.
    fn classical_slots(trace: &ExecutionTrace) -> Vec<u32> {
        (0..trace.len())
            .filter(|&k| OpInfo::of(trace.ops()[k]).flags & (flags::HAS_CIN | flags::HAS_COUT) != 0)
            .map(|k| trace.classical(k))
            .collect()
    }

    /// For every `SK`, the index of the record that last wrote the value it
    /// reads, or `None` when nothing did: what the engine's classical ready
    /// table resolves, by identifier or by slot alike.
    fn reaching_writes(trace: &ExecutionTrace) -> Vec<Option<usize>> {
        let mut writer = std::collections::HashMap::new();
        let mut reads = Vec::new();
        for k in 0..trace.len() {
            let fl = OpInfo::of(trace.ops()[k]).flags;
            let value = trace.classical(k);
            if fl & flags::HAS_CIN != 0 {
                reads.push(writer.get(&value).copied());
            } else if fl & flags::HAS_COUT != 0 {
                writer.insert(value, k);
            }
        }
        reads
    }

    fn compacted(program: &Program) -> ExecutionTrace {
        lower(program).compact_classical()
    }

    /// A value written twice, a read of a never-written value, dead writes,
    /// and a live value whose slot is taken while another value's reads are
    /// still pending. The comments give each record's slot.
    fn rewrites_and_unwritten_reads() -> Program {
        use crate::instruction::Instruction::{MxC, MzC, Sk};
        let reg = RegId(0);
        let write = |v| MzC {
            reg,
            out: ClassicalId(v),
        };
        let read = |v| Sk {
            cond: ClassicalId(v),
        };
        Program::from_iter([
            write(5), // slot 2
            MxC {
                reg,
                out: ClassicalId(6),
            }, // never read: slot 1
            read(5),  // last read of the first 5: frees slot 2
            read(7),  // nothing wrote 7 yet: slot 0
            write(5), // the second 5 reuses slot 2
            read(5),
            write(9), // slot 2 is still held by 5: slot 3
            read(5),  // last read of the second 5: frees slot 2
            write(7), // lowest free: slot 2
            read(9),  // frees slot 3
            read(7),
            write(9), // a second 9 nothing reads: slot 1
        ])
    }

    #[test]
    fn compaction_assigns_the_lowest_free_live_slot() {
        let program = rewrites_and_unwritten_reads();
        let trace = compacted(&program);
        assert_eq!(
            classical_slots(&trace),
            [2, 1, 2, 0, 2, 2, 3, 2, 2, 3, 2, 1]
        );
        assert_eq!(trace.classical_bound(), 4);
        assert_eq!(reaching_writes(&trace), reaching_writes(&lower(&program)));
        assert_eq!(
            trace.instruction(3),
            Instruction::Sk {
                cond: ClassicalId(UNWRITTEN_SLOT)
            }
        );
    }

    #[test]
    fn compaction_bounds_are_slot_counts() {
        use crate::instruction::Instruction::{MxC, Sk};
        let quantum_only = Program::from_iter([Instruction::HdM { mem: MemAddr(4) }]);
        assert_eq!(compacted(&quantum_only).classical_bound(), 0);
        let dead = Program::from_iter([MxC {
            reg: RegId(1),
            out: ClassicalId(40),
        }]);
        assert_eq!(compacted(&dead).classical_bound(), DEAD_SLOT + 1);
        let unwritten = Program::from_iter([Sk {
            cond: ClassicalId(40),
        }]);
        assert_eq!(compacted(&unwritten).classical_bound(), UNWRITTEN_SLOT + 1);
        // Everything but the classical operands is untouched.
        let program = distinct_operand_program();
        let (plain, trace) = (lower(&program), compacted(&program));
        let opcodes = |trace: &ExecutionTrace| -> Vec<u8> {
            (0..trace.len()).map(|k| trace.opcode(k)).collect()
        };
        assert_eq!(trace.slots::<u16>(), plain.slots::<u16>());
        assert_eq!(opcodes(&trace), opcodes(&plain));
        assert_eq!(trace.mem_bound(), plain.mem_bound());
    }

    #[test]
    fn compaction_is_idempotent_and_round_trips() {
        for program in [
            example_program(),
            distinct_operand_program(),
            rewrites_and_unwritten_reads(),
        ] {
            let trace = compacted(&program);
            assert_eq!(trace.compact_classical(), trace, "{}", program.name());
            assert_eq!(ExecutionTrace::decode(&trace.encode()).unwrap(), trace);
        }
    }

    fn any_classical_program() -> impl Strategy<Value = Program> {
        use crate::instruction::Instruction::*;
        proptest::collection::vec((0u32..5, 0u32..6), 0..80).prop_map(|ops| {
            Program::from_iter(ops.into_iter().map(|(op, v)| {
                let (reg, out) = (RegId(v), ClassicalId(v));
                match op {
                    0 | 1 => Sk { cond: out },
                    2 => MzC { reg, out },
                    3 => MzzM {
                        reg,
                        mem: MemAddr(v),
                        out,
                    },
                    _ => HdC { reg },
                }
            }))
        })
    }

    proptest! {
        /// Over random reads and rewrites of a small value space, every `SK`
        /// of the compacted trace resolves to the same write as in the
        /// original, slot 0 is never written, slot 1 is never read, and the
        /// pass is idempotent and survives the artifact codec.
        #[test]
        fn compaction_preserves_every_reaching_write(program in any_classical_program()) {
            let plain = lower(&program);
            let trace = compacted(&program);
            prop_assert_eq!(reaching_writes(&trace), reaching_writes(&plain));
            for k in 0..trace.len() {
                let fl = OpInfo::of(trace.ops()[k]).flags;
                if fl & flags::HAS_COUT != 0 {
                    prop_assert!(trace.classical(k) != UNWRITTEN_SLOT, "record {}", k);
                }
                if fl & flags::HAS_CIN != 0 {
                    prop_assert!(trace.classical(k) != DEAD_SLOT, "record {}", k);
                }
            }
            prop_assert_eq!(&trace.compact_classical(), &trace);
            prop_assert_eq!(&ExecutionTrace::decode(&trace.encode()).unwrap(), &trace);
        }
    }

    #[test]
    fn empty_traces_round_trip() {
        let trace = lower(&Program::new("empty"));
        assert!(trace.is_empty());
        assert_eq!(trace.encode(), "");
        assert_eq!(ExecutionTrace::decode("").unwrap(), trace);
    }

    #[test]
    fn malformed_trace_text_is_rejected() {
        // Unknown opcode.
        let err = ExecutionTrace::decode("7f.0").unwrap_err();
        assert!(err.to_string().contains("no instruction shape"));
        // Operand count mismatching the opcode's shape (LD needs two).
        assert!(ExecutionTrace::decode("0.1").is_err());
        // Non-hex operand and empty field.
        assert!(ExecutionTrace::decode("0.xyz.1").is_err());
        assert!(ExecutionTrace::decode("0..1").is_err());
        // Too many fields.
        assert!(ExecutionTrace::decode("0.1.2.3.4.5.6").is_err());
        // Errors render through the std Error trait.
        let err = ExecutionTrace::decode("zz").unwrap_err();
        assert!(std::error::Error::source(&err).is_none());
        assert!(err.to_string().contains("malformed execution trace"));
    }
}
