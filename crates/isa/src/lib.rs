//! The LSQCA instruction set architecture (Table I of the paper).
//!
//! LSQCA programs are sequences of instructions over three operand spaces:
//!
//! * **Memory qubit addresses** ([`MemAddr`]) — abstract locations in Scan-Access
//!   Memory (SAM). The controller, not the program, decides which physical cell an
//!   address currently maps to.
//! * **Register qubit identifiers** ([`RegId`]) — slots of the Computational
//!   Register (CR) or, with a hybrid floorplan, cells of the attached conventional
//!   region.
//! * **Classical value identifiers** ([`ClassicalId`]) — storage for measurement
//!   outcomes, used by the `SK` (skip) instruction for adaptive execution.
//!
//! The characteristic instructions are `LD`/`ST`, which move logical qubits between
//! SAM and CR with *variable* latency; all other instructions have the fixed
//! latencies listed in Table I. In-memory variants (`*.M`) operate on qubits while
//! they stay in SAM, using the scan cell/line as the surgery ancilla.
//!
//! # Example
//!
//! ```
//! use lsqca_isa::{Instruction, MemAddr, Program, RegId, ClassicalId};
//!
//! let mut program = Program::new("teleport-t-gate");
//! program.push(Instruction::Pm { reg: RegId(0) });
//! program.push(Instruction::MzzM {
//!     reg: RegId(0),
//!     mem: MemAddr(5),
//!     out: ClassicalId(0),
//! });
//! program.push(Instruction::Sk { cond: ClassicalId(0) });
//! program.push(Instruction::PhM { mem: MemAddr(5) });
//! assert_eq!(program.len(), 4);
//! assert!(program.validate().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Version of the instruction set this crate implements.
///
/// The on-disk compiled-workload artifacts (`lsqca_workloads::cache`) embed
/// this number in their cache key and in the artifact document itself, so a
/// change to the instruction set or the latency table
/// invalidates every previously cached artifact instead of silently serving
/// instruction streams compiled against an older contract. Bump it whenever
/// any of those change shape or meaning.
pub const ISA_VERSION: u32 = 1;

pub mod instruction;
pub mod latency;
pub mod operand;
pub mod program;
pub mod trace_compile;
pub mod validate;

pub use instruction::{Instruction, InstructionKind, OperandLocation};
pub use latency::{InstructionLatency, LatencyClass, LatencyTable};
pub use operand::{ClassicalId, MemAddr, Operands, RegId, MAX_OPERANDS};
pub use program::{InstructionSink, Program, ProgramStats};
pub use trace_compile::{
    lower, ExecKind, ExecutionTrace, OpInfo, Slot, TraceDecodeError, TraceShape, OPCODES,
    TRACE_REVISION,
};
pub use validate::{ValidationError, ValidationReport};
