//! Static latency information for the instruction set (Table I, latency column).
//!
//! Instructions either have a *fixed* latency in code beats or a *variable*
//! latency decided at runtime by the memory controller (loads, stores, magic-state
//! fetches, in-memory gates whose seek distance depends on the SAM layout). The
//! table here is the architectural contract; the simulator resolves the variable
//! entries against a concrete SAM model.
//!
//! The table is fixed, so it is a set of free functions: [`latency`] and
//! [`is_negligible`].

use crate::instruction::Instruction;
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

/// The ISA latency of `instruction`: the latency column of Table I.
///
/// ```
/// use lsqca_isa::latency::latency;
/// use lsqca_isa::{Instruction, InstructionLatency, RegId};
/// assert_eq!(
///     latency(&Instruction::HdC { reg: RegId(0) }),
///     InstructionLatency::Fixed(3)
/// );
/// ```
pub fn latency(instruction: &Instruction) -> InstructionLatency {
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
pub fn is_negligible(instruction: &Instruction) -> bool {
    latency(instruction) == InstructionLatency::Fixed(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::example_instructions;
    use crate::operand::{ClassicalId, MemAddr, RegId};

    #[test]
    fn table_one_fixed_latencies() {
        assert_eq!(
            latency(&Instruction::PzC { reg: RegId(0) }),
            InstructionLatency::Fixed(0)
        );
        assert_eq!(
            latency(&Instruction::HdC { reg: RegId(0) }),
            InstructionLatency::Fixed(3)
        );
        assert_eq!(
            latency(&Instruction::PhC { reg: RegId(0) }),
            InstructionLatency::Fixed(2)
        );
        assert_eq!(
            latency(&Instruction::MzzC {
                reg1: RegId(0),
                reg2: RegId(1),
                out: ClassicalId(0)
            }),
            InstructionLatency::Fixed(1)
        );
        assert_eq!(
            latency(&Instruction::MxM {
                mem: MemAddr(0),
                out: ClassicalId(0)
            }),
            InstructionLatency::Fixed(0)
        );
    }

    #[test]
    fn table_one_variable_latencies() {
        for instr in example_instructions() {
            assert_eq!(
                latency(&instr).is_variable(),
                instr.has_variable_latency(),
                "latency table and instruction metadata disagree for {instr}"
            );
        }
    }

    #[test]
    fn negligible_instructions_are_the_zero_beat_ones() {
        assert!(is_negligible(&Instruction::PzC { reg: RegId(0) }));
        assert!(is_negligible(&Instruction::MzM {
            mem: MemAddr(0),
            out: ClassicalId(0)
        }));
        assert!(!is_negligible(&Instruction::HdC { reg: RegId(0) }));
        assert!(!is_negligible(&Instruction::Ld {
            mem: MemAddr(0),
            reg: RegId(0)
        }));
    }

    #[test]
    fn latency_display() {
        assert_eq!(InstructionLatency::Fixed(2).to_string(), "2 beat");
        assert_eq!(InstructionLatency::Variable.to_string(), "variable");
        assert_eq!(InstructionLatency::Fixed(2).fixed_beats(), Some(2));
        assert_eq!(InstructionLatency::Variable.fixed_beats(), None);
    }
}
