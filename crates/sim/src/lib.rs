//! Code-beat-accurate simulator for LSQCA and conventional floorplans.
//!
//! This is the reproduction of the simulator described in Sec. VI-A of the
//! paper: it executes an LSQCA instruction stream against an architectural model
//! and reports execution time in code beats, CPI (beats per non-negligible
//! command), and memory density.
//!
//! The scheduling model is a dependency-driven list schedule:
//!
//! * every memory qubit, CR register slot, and classical value carries a
//!   ready-time;
//! * every SAM bank is a serial resource (its scan cell / scan line can serve
//!   one load, store, or in-memory access at a time);
//! * magic states come from the shared [`MagicStateSupply`] at one state per 15
//!   beats per factory, buffered as in the paper;
//! * `SK` makes the following instruction wait for its classical condition and
//!   the taken path is always executed;
//! * the conventional baseline has no CR, so register-slot constraints are
//!   lifted and all memory accesses are unit-latency, reproducing the paper's
//!   optimistic baseline with unbounded parallelism.
//!
//! [`MagicStateSupply`]: lsqca_arch::MagicStateSupply
//!
//! # Example
//!
//! ```
//! use lsqca_arch::{ArchConfig, FloorplanKind};
//! use lsqca_circuit::Circuit;
//! use lsqca_compiler::{compile, CompilerConfig};
//! use lsqca_sim::{simulate, SimConfig};
//!
//! let mut circuit = Circuit::new("demo", 4);
//! for q in 0..4 {
//!     circuit.prep_z(q);
//!     circuit.h(q);
//!     circuit.t(q);
//!     circuit.measure_z(q);
//! }
//! let compiled = compile(&circuit, CompilerConfig::default());
//! let arch = ArchConfig::new(FloorplanKind::PointSam { banks: 1 }, 1);
//! let outcome = simulate(&compiled.program, compiled.num_qubits, &arch, &[], SimConfig::default());
//! assert!(outcome.stats.total_beats.as_u64() > 0);
//! assert_eq!(outcome.stats.magic_states, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod metrics;
pub mod trace;

pub use config::SimConfig;
pub use engine::{
    memory_walk_count, simulate, simulation_count, warm_count, Classified, Executable, SimError,
    SimOutcome, Simulator, SimulatorBuilder, TelemetryConfig,
};
pub use metrics::{ExecutionStats, StatsDecodeError, STATS_SCHEMA};
pub use trace::{MemoryTrace, TraceEvent};

/// Revision of the simulation semantics, mixed into every result-store key.
///
/// Bump this whenever a change anywhere in the simulation stack (scheduler,
/// memory model, latency table, migration policies) alters the numbers a run
/// produces for an unchanged workload and configuration; stored records keyed
/// under the old revision then become unreachable and every point recomputes,
/// exactly like `ISA_VERSION` invalidates compiled-workload artifacts.
pub const RESULTS_REVISION: u32 = 4;
