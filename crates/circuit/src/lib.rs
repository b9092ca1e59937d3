//! Logical-level quantum circuit IR for the LSQCA reproduction.
//!
//! Benchmark programs enter the toolchain as circuits over a small logical gate
//! set (Clifford + T + Toffoli + measurements). This crate provides:
//!
//! * [`gate`] — the [`Gate`] enum and helpers.
//! * [`circuit`] — the [`Circuit`] container with builder-style
//!   methods and named [`registers`](register::RegisterMap) (control / temporal /
//!   system registers for SELECT, operand registers for arithmetic, ...).
//! * [`decompose`] — lowering passes: Toffoli → Clifford+T (the standard
//!   seven-T-gate network), multi-controlled Pauli → Toffoli ladder and
//!   CZ → H·CNOT·H, producing the Clifford+T+measurement form the LSQCA
//!   compiler consumes.
//! * [`stats`] — gate counting (T-count, Toffoli count, two-qubit count).
//!
//! # Example
//!
//! ```
//! use lsqca_circuit::{Circuit, Gate};
//!
//! let mut c = Circuit::new("bell", 2);
//! c.h(0);
//! c.cnot(0, 1);
//! c.measure_z(0);
//! c.measure_z(1);
//! assert_eq!(c.len(), 4);
//! assert_eq!(c.stats().two_qubit_gates, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod circuit;
pub mod decompose;
pub mod gate;
pub mod register;
pub mod stats;

pub use circuit::Circuit;
pub use decompose::{lower_each, lower_to_clifford_t};
pub use gate::{Gate, Qubit};
pub use register::{RegisterMap, RegisterRole};
pub use stats::CircuitStats;
