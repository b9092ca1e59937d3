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
//! Per record the trace stores the execution kind (the pre-resolved duration
//! dispatch arm, [`ExecKind`]), a flags byte (operand shape, scan-resource,
//! in-memory, classical in/out), the fixed beat component, and three operand
//! slots. The raw opcode is kept in its own column that only the cold paths
//! read: reconstructing an [`Instruction`] for `SimError::Instruction`, and
//! serialization ([`ExecutionTrace::encode`]), which is lossless, so the
//! trace is the whole compiled instruction stream.
//!
//! # Record layout
//!
//! A record is 16 bytes, one entry in each of seven columns:
//!
//! ```text
//!  op  exec flags fixed │ slot 0      │ slot 1      │ slot 2
//!  u8   u8   u8    u8   │ u32         │ u32         │ u32
//!                       │ mem0 / reg1 │ mem1 / reg0 │ cio
//! ```
//!
//! No instruction has more than three operands, and no opcode has both
//! operands of a shared slot ([`SHARED_SLOTS`]): a record stores `mem0` in
//! slot 0 if it has one and `reg1` there otherwise, and `mem1` in slot 1 if it
//! has one and `reg0` there otherwise. The per-role views
//! ([`ExecutionTrace::mem0`] … [`ExecutionTrace::cio`]) are therefore valid
//! only where the role's flag is set; elsewhere they read whatever the slot
//! holds, which may be another role's operand. A reader that indexes a table
//! with a view must mask it by the role's flag first. Slot 2 holds 0 when the
//! record has no classical operand.

use crate::instruction::Instruction;
use crate::operand::{ClassicalId, MemAddr, RegId};
use crate::program::{InstructionSink, Program};
use std::fmt;

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
pub const TRACE_REVISION: u32 = 1;

/// The pre-resolved duration dispatch arm of one trace record.
///
/// The interpreter's 21-arm duration `match` collapses into these nine
/// execution kinds; everything variant-specific beyond the kind (the fixed
/// beat component, operand shape) lives in the other trace columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ExecKind {
    /// Fixed zero-beat latency, excluded from CPI command counts.
    Negligible,
    /// Fixed non-zero latency (`fixed_beats` holds the duration).
    Fixed,
    /// `LD`: variable-latency load through the memory controller.
    Load,
    /// `ST`: variable-latency store through the memory controller.
    Store,
    /// `PM`: wait for the magic-state supply, then `fixed_beats` to move the
    /// state into the CR.
    Magic,
    /// In-memory unitary: scan seek plus `fixed_beats` of surgery.
    Seek,
    /// In-memory joint measurement: two-qubit scan access plus `fixed_beats`.
    TwoQubitAccess,
    /// The optimized `CX` expansion (peek both, load the cheaper operand,
    /// access the other in memory, store back; `fixed_beats` of surgery).
    Cx,
    /// `SK`: zero-beat, but arms the skip guard for the next instruction.
    Skip,
}

impl ExecKind {
    /// Every kind, in `repr(u8)` discriminant order — `ALL[k as usize] == k`.
    pub const ALL: [ExecKind; 9] = [
        ExecKind::Negligible,
        ExecKind::Fixed,
        ExecKind::Load,
        ExecKind::Store,
        ExecKind::Magic,
        ExecKind::Seek,
        ExecKind::TwoQubitAccess,
        ExecKind::Cx,
        ExecKind::Skip,
    ];

    /// Stable lower-snake name, used to key per-kind telemetry
    /// (`sim.beats.<name>` histograms).
    pub const fn name(self) -> &'static str {
        match self {
            ExecKind::Negligible => "negligible",
            ExecKind::Fixed => "fixed",
            ExecKind::Load => "load",
            ExecKind::Store => "store",
            ExecKind::Magic => "magic",
            ExecKind::Seek => "seek",
            ExecKind::TwoQubitAccess => "two_qubit_access",
            ExecKind::Cx => "cx",
            ExecKind::Skip => "skip",
        }
    }
}

/// Flag bits of one trace record (the `flags` column).
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

/// A program lowered into dense struct-of-arrays execution records.
///
/// Columns are parallel vectors, one entry per instruction: four byte
/// columns and three `u32` operand slots, 16 bytes per record (see the
/// [module docs](self) for the slot roles). The hot loop streams `exec` /
/// `flags` / `fixed_beats` / operand slots and never touches `op`, which
/// exists for the cold paths only (error reconstruction and serialization).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ExecutionTrace {
    op: Vec<u8>,
    exec: Vec<ExecKind>,
    flags: Vec<u8>,
    fixed: Vec<u8>,
    /// `mem0`, or `reg1` in a record without a SAM operand.
    slot0: Vec<u32>,
    /// `mem1`, or `reg0` in a record without a second SAM operand.
    slot1: Vec<u32>,
    /// The classical input or output; 0 in a record without one.
    slot2: Vec<u32>,
    /// One past the highest SAM address referenced (0 if none): the engine
    /// presizes its per-address ready table to this bound so the loop indexes
    /// directly instead of bounds-probing per access.
    mem_bound: u32,
    /// One past the highest classical identifier referenced (0 if none).
    classical_bound: u32,
}

impl ExecutionTrace {
    /// An empty trace.
    pub fn new() -> Self {
        ExecutionTrace::default()
    }

    /// Number of records (one per instruction).
    pub fn len(&self) -> usize {
        self.exec.len()
    }

    /// True if the trace has no records.
    pub fn is_empty(&self) -> bool {
        self.exec.is_empty()
    }

    /// The execution-kind column.
    #[inline]
    pub fn exec_kinds(&self) -> &[ExecKind] {
        &self.exec
    }

    /// The flags column (see [`flags`]).
    #[inline]
    pub fn flag_bits(&self) -> &[u8] {
        &self.flags
    }

    /// The fixed beat component column.
    #[inline]
    pub fn fixed_beats(&self) -> &[u8] {
        &self.fixed
    }

    /// The first SAM operand: slot 0, valid only where [`flags::HAS_MEM0`]
    /// is set (elsewhere it may hold `reg1`).
    #[inline]
    pub fn mem0(&self) -> &[u32] {
        &self.slot0
    }

    /// The second SAM operand: slot 1, valid only where [`flags::HAS_MEM1`]
    /// is set (elsewhere it may hold `reg0`).
    #[inline]
    pub fn mem1(&self) -> &[u32] {
        &self.slot1
    }

    /// The first CR operand: slot 1, valid only where [`flags::HAS_REG0`]
    /// is set (elsewhere it may hold `mem1`).
    #[inline]
    pub fn reg0(&self) -> &[u32] {
        &self.slot1
    }

    /// The second CR operand: slot 0, valid only where [`flags::HAS_REG1`]
    /// is set (elsewhere it may hold `mem0`).
    #[inline]
    pub fn reg1(&self) -> &[u32] {
        &self.slot0
    }

    /// The classical in/out operand: slot 2, valid where [`flags::HAS_CIN`]
    /// or [`flags::HAS_COUT`] is set (0 elsewhere).
    #[inline]
    pub fn cio(&self) -> &[u32] {
        &self.slot2
    }

    /// One past the highest SAM address referenced by any record.
    pub fn mem_bound(&self) -> u32 {
        self.mem_bound
    }

    /// One past the highest classical identifier referenced by any record.
    pub fn classical_bound(&self) -> u32 {
        self.classical_bound
    }

    fn reserve(&mut self, additional: usize) {
        self.op.reserve(additional);
        self.exec.reserve(additional);
        self.flags.reserve(additional);
        self.fixed.reserve(additional);
        self.slot0.reserve(additional);
        self.slot1.reserve(additional);
        self.slot2.reserve(additional);
    }

    /// Reconstructs the instruction behind record `index` — the cold path for
    /// `SimError::Instruction` and for display; the hot loop never calls this.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn instruction(&self, index: usize) -> Instruction {
        use flags::*;
        let fl = self.flags[index];
        let mut operands = [0u32; 5];
        let mut n = 0;
        if fl & HAS_MEM0 != 0 {
            operands[n] = self.mem0()[index];
            n += 1;
        }
        if fl & HAS_MEM1 != 0 {
            operands[n] = self.mem1()[index];
            n += 1;
        }
        if fl & HAS_REG0 != 0 {
            operands[n] = self.reg0()[index];
            n += 1;
        }
        if fl & HAS_REG1 != 0 {
            operands[n] = self.reg1()[index];
            n += 1;
        }
        if fl & (HAS_CIN | HAS_COUT) != 0 {
            operands[n] = self.cio()[index];
            n += 1;
        }
        match reconstruct(self.op[index], &operands[..n]) {
            Some(instr) => instr,
            None => unreachable!("trace record {index} holds an invalid opcode"),
        }
    }

    /// Serializes the trace to its compact artifact text: one record per
    /// instruction (`;`-separated), each record the hex opcode followed by
    /// its hex operand values (`.`-separated, canonical order: memory
    /// operands, register operands, classical in/out).
    ///
    /// Only the opcode and operand slots are stored — every derived column
    /// (execution kind, flags, fixed beats, bounds) is a pure function of
    /// the opcode and is rebuilt by [`ExecutionTrace::decode`].
    pub fn encode(&self) -> String {
        use flags::*;
        let mut text = String::with_capacity(self.len() * 6);
        for index in 0..self.len() {
            if index > 0 {
                text.push(';');
            }
            let fl = self.flags[index];
            push_hex(&mut text, self.op[index] as u32);
            if fl & HAS_MEM0 != 0 {
                text.push('.');
                push_hex(&mut text, self.mem0()[index]);
            }
            if fl & HAS_MEM1 != 0 {
                text.push('.');
                push_hex(&mut text, self.mem1()[index]);
            }
            if fl & HAS_REG0 != 0 {
                text.push('.');
                push_hex(&mut text, self.reg0()[index]);
            }
            if fl & HAS_REG1 != 0 {
                text.push('.');
                push_hex(&mut text, self.reg1()[index]);
            }
            if fl & (HAS_CIN | HAS_COUT) != 0 {
                text.push('.');
                push_hex(&mut text, self.cio()[index]);
            }
        }
        text
    }

    /// Decodes [`ExecutionTrace::encode`] output.
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
        for (index, record) in text.split(';').enumerate() {
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
            let instr = reconstruct(op, &operands[..n]).ok_or_else(|| TraceDecodeError {
                what: format!(
                    "record {index}: opcode {op} with {n} operand field(s) \
                     matches no instruction shape"
                ),
            })?;
            trace.push(instr);
        }
        Ok(trace)
    }
}

/// Appending an instruction lowers it into its record. This is the **only**
/// place that matches on the instruction variant; everything downstream reads
/// the precomputed columns.
impl InstructionSink for ExecutionTrace {
    fn push(&mut self, instr: Instruction) {
        use flags::*;
        use ExecKind as E;
        use Instruction::*;
        // (opcode, exec kind, fixed beats, shape flags, m0, m1, r0, r1, cio),
        // absent operands 0; the roles then fold into the three slots.
        let (op, exec, fixed, fl, m0, m1, r0, r1, cio) = match instr {
            Ld { mem, reg } => (
                0,
                E::Load,
                0,
                HAS_MEM0 | HAS_REG0 | NEEDS_SCAN,
                mem.0,
                0,
                reg.0,
                0,
                0,
            ),
            St { reg, mem } => (
                1,
                E::Store,
                0,
                HAS_MEM0 | HAS_REG0 | NEEDS_SCAN,
                mem.0,
                0,
                reg.0,
                0,
                0,
            ),
            PzC { reg } => (2, E::Negligible, 0, HAS_REG0, 0, 0, reg.0, 0, 0),
            PpC { reg } => (3, E::Negligible, 0, HAS_REG0, 0, 0, reg.0, 0, 0),
            Pm { reg } => (4, E::Magic, 1, HAS_REG0, 0, 0, reg.0, 0, 0),
            HdC { reg } => (5, E::Fixed, 3, HAS_REG0, 0, 0, reg.0, 0, 0),
            PhC { reg } => (6, E::Fixed, 2, HAS_REG0, 0, 0, reg.0, 0, 0),
            MxC { reg, out } => (
                7,
                E::Negligible,
                0,
                HAS_REG0 | HAS_COUT,
                0,
                0,
                reg.0,
                0,
                out.0,
            ),
            MzC { reg, out } => (
                8,
                E::Negligible,
                0,
                HAS_REG0 | HAS_COUT,
                0,
                0,
                reg.0,
                0,
                out.0,
            ),
            MxxC { reg1, reg2, out } => (
                9,
                E::Fixed,
                1,
                HAS_REG0 | HAS_REG1 | HAS_COUT,
                0,
                0,
                reg1.0,
                reg2.0,
                out.0,
            ),
            MzzC { reg1, reg2, out } => (
                10,
                E::Fixed,
                1,
                HAS_REG0 | HAS_REG1 | HAS_COUT,
                0,
                0,
                reg1.0,
                reg2.0,
                out.0,
            ),
            Sk { cond } => (11, E::Skip, 0, HAS_CIN, 0, 0, 0, 0, cond.0),
            PzM { mem } => (
                12,
                E::Negligible,
                0,
                HAS_MEM0 | IN_MEMORY,
                mem.0,
                0,
                0,
                0,
                0,
            ),
            PpM { mem } => (
                13,
                E::Negligible,
                0,
                HAS_MEM0 | IN_MEMORY,
                mem.0,
                0,
                0,
                0,
                0,
            ),
            HdM { mem } => (
                14,
                E::Seek,
                3,
                HAS_MEM0 | NEEDS_SCAN | IN_MEMORY,
                mem.0,
                0,
                0,
                0,
                0,
            ),
            PhM { mem } => (
                15,
                E::Seek,
                2,
                HAS_MEM0 | NEEDS_SCAN | IN_MEMORY,
                mem.0,
                0,
                0,
                0,
                0,
            ),
            MxM { mem, out } => (
                16,
                E::Negligible,
                0,
                HAS_MEM0 | IN_MEMORY | HAS_COUT,
                mem.0,
                0,
                0,
                0,
                out.0,
            ),
            MzM { mem, out } => (
                17,
                E::Negligible,
                0,
                HAS_MEM0 | IN_MEMORY | HAS_COUT,
                mem.0,
                0,
                0,
                0,
                out.0,
            ),
            MxxM { reg, mem, out } => (
                18,
                E::TwoQubitAccess,
                1,
                HAS_MEM0 | HAS_REG0 | NEEDS_SCAN | IN_MEMORY | HAS_COUT,
                mem.0,
                0,
                reg.0,
                0,
                out.0,
            ),
            MzzM { reg, mem, out } => (
                19,
                E::TwoQubitAccess,
                1,
                HAS_MEM0 | HAS_REG0 | NEEDS_SCAN | IN_MEMORY | HAS_COUT,
                mem.0,
                0,
                reg.0,
                0,
                out.0,
            ),
            Cx { control, target } => (
                20,
                E::Cx,
                2,
                HAS_MEM0 | HAS_MEM1 | NEEDS_SCAN | IN_MEMORY,
                control.0,
                target.0,
                0,
                0,
                0,
            ),
        };
        if fl & HAS_MEM0 != 0 {
            self.mem_bound = self.mem_bound.max(m0 + 1);
        }
        if fl & HAS_MEM1 != 0 {
            self.mem_bound = self.mem_bound.max(m1 + 1);
        }
        if fl & (HAS_CIN | HAS_COUT) != 0 {
            self.classical_bound = self.classical_bound.max(cio + 1);
        }
        debug_assert!(SHARED_SLOTS
            .iter()
            .all(|&(a, b)| fl & a == 0 || fl & b == 0));
        self.op.push(op);
        self.exec.push(exec);
        self.flags.push(fl);
        self.fixed.push(fixed);
        self.slot0.push(if fl & HAS_MEM0 != 0 { m0 } else { r1 });
        self.slot1.push(if fl & HAS_MEM1 != 0 { m1 } else { r0 });
        self.slot2.push(cio);
    }
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
/// instructions pushed through the trace's [`InstructionSink`].
pub fn lower(program: &Program) -> ExecutionTrace {
    let mut trace = ExecutionTrace::new();
    trace.reserve(program.len());
    for &instr in program.iter() {
        trace.push(instr);
    }
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
    use crate::latency::{LatencyClass, LatencyTable};

    fn example_program() -> Program {
        let mut program = Program::new("every-variant");
        for instr in example_instructions() {
            program.push(instr);
        }
        program
    }

    /// Every opcode once, each operand a different value, so an operand
    /// stored in the wrong slot cannot hide behind an equal one.
    fn distinct_operand_program() -> Program {
        use crate::instruction::Instruction::*;
        let (mem, mem2) = (MemAddr(3), MemAddr(5));
        let (reg, reg2) = (RegId(7), RegId(11));
        let out = ClassicalId(13);
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
        let mut opcodes = trace.op.clone();
        opcodes.sort_unstable();
        opcodes.dedup();
        assert_eq!(opcodes, (0..21).collect::<Vec<u8>>(), "every opcode once");
        for (i, instr) in program.iter().enumerate() {
            let fl = trace.flag_bits()[i];
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
    fn static_columns_agree_with_instruction_metadata() {
        // The lowering table is the one place that re-derives per-variant
        // facts; this pins every column to the Instruction/LatencyTable
        // metadata so the two can never drift apart silently.
        let table = LatencyTable::paper();
        let program = distinct_operand_program();
        let trace = lower(&program);
        for (i, instr) in program.iter().enumerate() {
            let fl = trace.flag_bits()[i];
            let mems = instr.memory_operands();
            let regs = instr.register_operands();
            let mem_count =
                usize::from(fl & flags::HAS_MEM0 != 0) + usize::from(fl & flags::HAS_MEM1 != 0);
            let reg_count =
                usize::from(fl & flags::HAS_REG0 != 0) + usize::from(fl & flags::HAS_REG1 != 0);
            assert_eq!(mem_count, mems.len(), "{instr}");
            assert_eq!(reg_count, regs.len(), "{instr}");
            if !mems.is_empty() {
                assert_eq!(trace.mem0()[i], mems[0].0, "{instr}");
            }
            if mems.len() > 1 {
                assert_eq!(trace.mem1()[i], mems[1].0, "{instr}");
            }
            if !regs.is_empty() {
                assert_eq!(trace.reg0()[i], regs[0].0, "{instr}");
            }
            if regs.len() > 1 {
                assert_eq!(trace.reg1()[i], regs[1].0, "{instr}");
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
                assert_eq!(trace.cio()[i], v.0, "{instr}: cio");
            }
            // Negligible exec kind ⟺ negligible latency class; the engine's
            // CPI bookkeeping relies on this equivalence.
            assert_eq!(
                trace.exec_kinds()[i] == ExecKind::Negligible,
                table.classify(instr) == LatencyClass::Negligible,
                "{instr}: negligible"
            );
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
