//! Static and trace-based analysis of memory reference patterns (Sec. III-B).
//!
//! The paper motivates LSQCA by analyzing how benchmark programs touch their
//! logical qubits: reference periods show strong temporal locality, reference
//! timestamps show sequential (spatial) locality, a few qubits are much hotter
//! than the rest, and magic states are demanded faster than a single factory can
//! produce them. This crate computes those quantities from either a compiled
//! [`Program`](lsqca_isa::Program) (static analysis) or a simulated run's
//! reference profile ([`MemoryTrace`](lsqca_sim::MemoryTrace)), and selects
//! the hot set used by the hybrid floorplan of Sec. VI-C.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hotset;
pub mod reference;

pub use hotset::{hot_set_by_access_count, hot_set_by_role, hot_set_by_role_map, hot_set_size};
pub use reference::{AccessLocalityReport, CumulativeDistribution};
