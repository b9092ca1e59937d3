//! Static latency information for the instruction set (Table I, latency column).
//!
//! Instructions either have a *fixed* latency in code beats or a *variable*
//! latency decided at runtime by the memory controller (loads, stores, magic-state
//! fetches, in-memory gates whose seek distance depends on the SAM layout). The
//! table here is the architectural contract; the simulator resolves the variable
//! entries against a concrete SAM model.

use crate::instruction::Instruction;
use crate::program::Program;
use std::fmt;

/// Code-beat latency of one instruction as specified by the ISA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstructionLatency {
    /// The instruction always takes exactly this many code beats.
    Fixed(u64),
    /// The latency depends on the memory layout / runtime state.
    Variable,
}

impl InstructionLatency {
    /// The fixed beat count, if this latency is fixed.
    pub fn fixed_beats(self) -> Option<u64> {
        match self {
            InstructionLatency::Fixed(beats) => Some(beats),
            InstructionLatency::Variable => None,
        }
    }

    /// True if the latency is resolved at runtime.
    pub fn is_variable(self) -> bool {
        matches!(self, InstructionLatency::Variable)
    }
}

impl fmt::Display for InstructionLatency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstructionLatency::Fixed(b) => write!(f, "{b} beat"),
            InstructionLatency::Variable => f.write_str("variable"),
        }
    }
}

/// The architectural latency table (Table I).
///
/// ```
/// use lsqca_isa::{Instruction, LatencyTable, RegId, InstructionLatency};
/// let table = LatencyTable::paper();
/// assert_eq!(
///     table.latency(&Instruction::HdC { reg: RegId(0) }),
///     InstructionLatency::Fixed(3)
/// );
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LatencyTable {
    _private: (),
}

impl LatencyTable {
    /// The latency table as published in the paper.
    pub const fn paper() -> Self {
        LatencyTable { _private: () }
    }

    /// The ISA latency of `instruction`.
    pub fn latency(&self, instruction: &Instruction) -> InstructionLatency {
        use Instruction::*;
        use InstructionLatency::{Fixed, Variable};
        match instruction {
            Ld { .. } | St { .. } => Variable,
            PzC { .. } | PpC { .. } => Fixed(0),
            Pm { .. } => Variable,
            HdC { .. } => Fixed(3),
            PhC { .. } => Fixed(2),
            MxC { .. } | MzC { .. } => Fixed(0),
            MxxC { .. } | MzzC { .. } => Fixed(1),
            Sk { .. } => Variable,
            PzM { .. } | PpM { .. } => Fixed(0),
            HdM { .. } | PhM { .. } => Variable,
            MxM { .. } | MzM { .. } => Fixed(0),
            MxxM { .. } | MzzM { .. } => Variable,
            Cx { .. } => Variable,
        }
    }

    /// True if the instruction has negligible (zero-beat) fixed latency; the
    /// paper ignores such instructions when counting commands for CPI.
    pub fn is_negligible(&self, instruction: &Instruction) -> bool {
        self.latency(instruction) == InstructionLatency::Fixed(0)
    }

    /// The compact [`LatencyClass`] of `instruction`.
    pub fn classify(&self, instruction: &Instruction) -> LatencyClass {
        match self.latency(instruction) {
            InstructionLatency::Fixed(0) => LatencyClass::Negligible,
            InstructionLatency::Fixed(_) => LatencyClass::Command,
            InstructionLatency::Variable => LatencyClass::Variable,
        }
    }

    /// Precompiles the latency class of every instruction of `program` into a
    /// vector parallel to the instruction stream, so per-instruction consumers
    /// (the simulator's CPI bookkeeping, program statistics) replace the
    /// per-instruction latency match with a single array read.
    pub fn classify_program(&self, program: &Program) -> Vec<LatencyClass> {
        program.iter().map(|instr| self.classify(instr)).collect()
    }
}

/// Compact per-instruction latency classification, precompiled per program by
/// [`LatencyTable::classify_program`] so hot loops read a dense byte vector
/// instead of re-matching on the instruction variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum LatencyClass {
    /// Fixed zero-beat latency; excluded from CPI command counts.
    Negligible,
    /// Fixed non-zero latency (a counted command).
    Command,
    /// Latency resolved at runtime by the memory controller (also counted).
    Variable,
}

impl LatencyClass {
    /// True for the zero-beat fixed class the paper excludes from CPI.
    #[inline]
    pub fn is_negligible(self) -> bool {
        matches!(self, LatencyClass::Negligible)
    }

    /// The stable single-byte encoding used by serialized class vectors
    /// (compiled-workload artifacts store one ASCII digit per instruction).
    #[inline]
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Decodes [`LatencyClass::as_u8`]; `None` for any other byte.
    #[inline]
    pub fn from_u8(byte: u8) -> Option<LatencyClass> {
        match byte {
            0 => Some(LatencyClass::Negligible),
            1 => Some(LatencyClass::Command),
            2 => Some(LatencyClass::Variable),
            _ => None,
        }
    }
}

impl fmt::Display for LatencyClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LatencyClass::Negligible => "negligible",
            LatencyClass::Command => "command",
            LatencyClass::Variable => "variable",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::example_instructions;
    use crate::operand::{ClassicalId, MemAddr, RegId};

    #[test]
    fn table_one_fixed_latencies() {
        let t = LatencyTable::paper();
        assert_eq!(
            t.latency(&Instruction::PzC { reg: RegId(0) }),
            InstructionLatency::Fixed(0)
        );
        assert_eq!(
            t.latency(&Instruction::HdC { reg: RegId(0) }),
            InstructionLatency::Fixed(3)
        );
        assert_eq!(
            t.latency(&Instruction::PhC { reg: RegId(0) }),
            InstructionLatency::Fixed(2)
        );
        assert_eq!(
            t.latency(&Instruction::MzzC {
                reg1: RegId(0),
                reg2: RegId(1),
                out: ClassicalId(0)
            }),
            InstructionLatency::Fixed(1)
        );
        assert_eq!(
            t.latency(&Instruction::MxM {
                mem: MemAddr(0),
                out: ClassicalId(0)
            }),
            InstructionLatency::Fixed(0)
        );
    }

    #[test]
    fn table_one_variable_latencies() {
        let t = LatencyTable::paper();
        for instr in example_instructions() {
            assert_eq!(
                t.latency(&instr).is_variable(),
                instr.has_variable_latency(),
                "latency table and instruction metadata disagree for {instr}"
            );
        }
    }

    #[test]
    fn negligible_instructions_are_the_zero_beat_ones() {
        let t = LatencyTable::paper();
        assert!(t.is_negligible(&Instruction::PzC { reg: RegId(0) }));
        assert!(t.is_negligible(&Instruction::MzM {
            mem: MemAddr(0),
            out: ClassicalId(0)
        }));
        assert!(!t.is_negligible(&Instruction::HdC { reg: RegId(0) }));
        assert!(!t.is_negligible(&Instruction::Ld {
            mem: MemAddr(0),
            reg: RegId(0)
        }));
    }

    #[test]
    fn classes_agree_with_the_latency_table() {
        let t = LatencyTable::paper();
        for instr in example_instructions() {
            let class = t.classify(&instr);
            assert_eq!(class.is_negligible(), t.is_negligible(&instr), "{instr}");
            assert_eq!(
                class == LatencyClass::Variable,
                t.latency(&instr).is_variable(),
                "{instr}"
            );
        }
    }

    #[test]
    fn classify_program_is_parallel_to_the_stream() {
        use crate::program::Program;
        let t = LatencyTable::paper();
        let mut program = Program::new("classes");
        for instr in example_instructions() {
            program.push(instr);
        }
        let classes = t.classify_program(&program);
        assert_eq!(classes.len(), program.len());
        for (instr, class) in program.iter().zip(&classes) {
            assert_eq!(*class, t.classify(instr));
        }
        assert_eq!(LatencyClass::Negligible.to_string(), "negligible");
        assert_eq!(LatencyClass::Command.to_string(), "command");
        assert_eq!(LatencyClass::Variable.to_string(), "variable");
    }

    #[test]
    fn class_byte_encoding_round_trips() {
        for class in [
            LatencyClass::Negligible,
            LatencyClass::Command,
            LatencyClass::Variable,
        ] {
            assert_eq!(LatencyClass::from_u8(class.as_u8()), Some(class));
        }
        assert_eq!(LatencyClass::from_u8(3), None);
        assert_eq!(LatencyClass::from_u8(255), None);
    }

    #[test]
    fn latency_display() {
        assert_eq!(InstructionLatency::Fixed(2).to_string(), "2 beat");
        assert_eq!(InstructionLatency::Variable.to_string(), "variable");
        assert_eq!(InstructionLatency::Fixed(2).fixed_beats(), Some(2));
        assert_eq!(InstructionLatency::Variable.fixed_beats(), None);
    }
}
