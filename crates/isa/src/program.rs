//! LSQCA programs: ordered instruction sequences plus summary statistics.

use crate::instruction::{Instruction, InstructionKind};
use crate::latency::is_negligible;
use crate::operand::{ClassicalId, MemAddr, RegId};
use crate::trace_compile::teleport;
use crate::validate::{validate_program, ValidationReport};
use std::collections::BTreeMap;
use std::fmt;

/// A destination for an instruction stream: the one interface the compiler
/// emits through. [`Program`] keeps the instructions as written;
/// [`ExecutionTrace`](crate::ExecutionTrace) lowers each one into its
/// execution record as it arrives, and a teleport into one record.
pub trait InstructionSink {
    /// Appends one instruction.
    fn push(&mut self, instruction: Instruction);

    /// Appends an in-memory T-gate teleportation, the five instructions of
    /// [`teleport`]`(reg, mem, zz, mx)`. The default pushes them one by
    /// one; a sink that stores a teleport as one record overrides it.
    fn push_teleport(&mut self, reg: RegId, mem: MemAddr, zz: ClassicalId, mx: ClassicalId) {
        for instruction in teleport(reg, mem, zz, mx) {
            self.push(instruction);
        }
    }
}

/// An ordered sequence of LSQCA instructions with a name.
///
/// A program is the unit the compiler produces and the simulator executes. The
/// paper counts "commands" excluding negligible-latency instructions when
/// computing CPI; [`ProgramStats`] exposes both counts.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Program {
    name: String,
    instructions: Vec<Instruction>,
}

impl Program {
    /// Creates an empty program with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Program {
            name: name.into(),
            instructions: Vec::new(),
        }
    }

    /// The program name (usually the benchmark it was compiled from).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends an instruction.
    pub fn push(&mut self, instruction: Instruction) {
        self.instructions.push(instruction);
    }

    /// Appends every instruction from an iterator.
    pub fn extend<I: IntoIterator<Item = Instruction>>(&mut self, instructions: I) {
        self.instructions.extend(instructions);
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// True if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// The instructions as a slice.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Iterates over the instructions in program order.
    pub fn iter(&self) -> impl Iterator<Item = &Instruction> {
        self.instructions.iter()
    }

    /// Validates operand usage; see [`validate_program`].
    pub fn validate(&self) -> Result<ValidationReport, crate::validate::ValidationError> {
        validate_program(self)
    }

    /// Computes summary statistics for the program.
    pub fn stats(&self) -> ProgramStats {
        let mut stats = ProgramStats::default();
        let mut mem_touch: BTreeMap<MemAddr, u64> = BTreeMap::new();
        for instr in &self.instructions {
            stats.instruction_count += 1;
            if !is_negligible(instr) {
                stats.command_count += 1;
            }
            *stats.kind_counts.entry(instr.kind()).or_insert(0) += 1;
            if instr.consumes_magic_state() {
                stats.magic_state_count += 1;
            }
            if instr.is_in_memory() {
                stats.in_memory_count += 1;
            }
            for m in instr.memory_operands() {
                *mem_touch.entry(m).or_insert(0) += 1;
            }
            if let Some(out) = instr.classical_output() {
                stats.max_classical_id = Some(
                    stats
                        .max_classical_id
                        .map_or(out, |cur: ClassicalId| cur.max(out)),
                );
            }
            for r in instr.register_operands() {
                stats.max_register_id =
                    Some(stats.max_register_id.map_or(r, |cur: RegId| cur.max(r)));
            }
        }
        stats.memory_reference_counts = mem_touch;
        stats
    }

    /// The number of distinct SAM addresses referenced by the program, which is
    /// the number of data qubits the memory must hold.
    pub fn memory_footprint(&self) -> usize {
        self.stats().memory_reference_counts.len()
    }
}

impl InstructionSink for Program {
    fn push(&mut self, instruction: Instruction) {
        Program::push(self, instruction);
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "; program {}", self.name)?;
        for instr in &self.instructions {
            writeln!(f, "{instr}")?;
        }
        Ok(())
    }
}

impl FromIterator<Instruction> for Program {
    fn from_iter<T: IntoIterator<Item = Instruction>>(iter: T) -> Self {
        let mut p = Program::new("anonymous");
        p.extend(iter);
        p
    }
}

impl<'a> IntoIterator for &'a Program {
    type Item = &'a Instruction;
    type IntoIter = std::slice::Iter<'a, Instruction>;
    fn into_iter(self) -> Self::IntoIter {
        self.instructions.iter()
    }
}

/// Summary statistics of a [`Program`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ProgramStats {
    /// Total number of instructions, including negligible-latency ones.
    pub instruction_count: u64,
    /// Number of non-negligible instructions (the CPI denominator in the paper).
    pub command_count: u64,
    /// Number of magic states consumed (`PM` count).
    pub magic_state_count: u64,
    /// Number of in-memory instructions.
    pub in_memory_count: u64,
    /// Instruction count per Table I category.
    pub kind_counts: BTreeMap<InstructionKind, u64>,
    /// How many instructions reference each SAM address.
    pub memory_reference_counts: BTreeMap<MemAddr, u64>,
    /// The largest register identifier used, if any.
    pub max_register_id: Option<RegId>,
    /// The largest classical identifier written, if any.
    pub max_classical_id: Option<ClassicalId>,
}

impl ProgramStats {
    /// Average magic states consumed per non-negligible command; `None` if the
    /// program has no commands.
    pub fn magic_states_per_command(&self) -> Option<f64> {
        if self.command_count == 0 {
            None
        } else {
            Some(self.magic_state_count as f64 / self.command_count as f64)
        }
    }
}

impl fmt::Display for ProgramStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} instructions ({} commands), {} magic states, {} memory qubits",
            self.instruction_count,
            self.command_count,
            self.magic_state_count,
            self.memory_reference_counts.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_program() -> Program {
        let mut p = Program::new("sample");
        p.push(Instruction::PzM { mem: MemAddr(0) });
        p.push(Instruction::PzM { mem: MemAddr(1) });
        p.push(Instruction::Ld {
            mem: MemAddr(0),
            reg: RegId(0),
        });
        p.push(Instruction::Pm { reg: RegId(1) });
        p.push(Instruction::MzzC {
            reg1: RegId(0),
            reg2: RegId(1),
            out: ClassicalId(0),
        });
        p.push(Instruction::Sk {
            cond: ClassicalId(0),
        });
        p.push(Instruction::PhC { reg: RegId(0) });
        p.push(Instruction::St {
            reg: RegId(0),
            mem: MemAddr(0),
        });
        p.push(Instruction::Cx {
            control: MemAddr(0),
            target: MemAddr(1),
        });
        p
    }

    #[test]
    fn push_and_iterate() {
        let p = sample_program();
        assert_eq!(p.len(), 9);
        assert!(!p.is_empty());
        assert_eq!(p.name(), "sample");
        assert_eq!(p.iter().count(), 9);
        assert_eq!((&p).into_iter().count(), 9);
    }

    #[test]
    fn stats_count_commands_and_magic() {
        let stats = sample_program().stats();
        assert_eq!(stats.instruction_count, 9);
        // Negligible: the two PZ.M. Everything else counts as a command.
        assert_eq!(stats.command_count, 7);
        assert_eq!(stats.magic_state_count, 1);
        assert_eq!(stats.memory_reference_counts.len(), 2);
        assert_eq!(stats.memory_reference_counts[&MemAddr(0)], 4);
        assert_eq!(stats.max_register_id, Some(RegId(1)));
        assert_eq!(stats.max_classical_id, Some(ClassicalId(0)));
        assert!(stats.magic_states_per_command().unwrap() > 0.0);
        assert!(!stats.to_string().is_empty());
    }

    #[test]
    fn memory_footprint_counts_distinct_addresses() {
        assert_eq!(sample_program().memory_footprint(), 2);
        assert_eq!(Program::new("empty").memory_footprint(), 0);
        assert_eq!(
            Program::new("empty").stats().magic_states_per_command(),
            None
        );
    }

    #[test]
    fn collect_from_iterator() {
        let p: Program = vec![
            Instruction::PzC { reg: RegId(0) },
            Instruction::HdC { reg: RegId(0) },
        ]
        .into_iter()
        .collect();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn display_contains_every_instruction() {
        let p = sample_program();
        let text = p.to_string();
        assert!(text.contains("; program sample"));
        assert!(text.contains("LD m0 c0"));
        assert!(text.contains("CX m0 m1"));
        assert_eq!(text.lines().count(), 10);
    }
}
