//! Convenience re-exports of the most commonly used types.
//!
//! ```
//! use lsqca::prelude::*;
//!
//! let config = ExperimentConfig::new(FloorplanKind::PointSam { banks: 1 }, 1);
//! assert_eq!(config.factories, 1);
//! ```

pub use crate::experiment::{ExperimentConfig, ExperimentResult, HotSetStrategy, Workload};
pub use lsqca_arch::lattice::{Beats, QubitTag};
pub use lsqca_arch::{ArchConfig, FloorplanKind, MemorySystem, MigrationPolicy, PolicyKind};
pub use lsqca_circuit::{Circuit, Gate, RegisterRole};
pub use lsqca_compiler::{compile, CompilerConfig};
pub use lsqca_isa::{Instruction, MemAddr, Program, RegId};
pub use lsqca_sim::{simulate, ExecutionStats, SimConfig};
pub use lsqca_workloads::{Benchmark, CompiledWorkload, InstanceSize, WorkloadCache};
