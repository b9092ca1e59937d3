//! # LSQCA — Load/Store Quantum Computer Architecture
//!
//! A from-scratch reproduction of *"LSQCA: Resource-Efficient Load/Store
//! Architecture for Limited-Scale Fault-Tolerant Quantum Computing"*
//! (HPCA 2025). The library models surface-code floorplans in which a small
//! **Computational Register (CR)** performs logical operations while a dense
//! **Scan-Access Memory (SAM)** stores idle logical qubits, connected by
//! load/store instructions with variable latency that is hidden behind the
//! magic-state bottleneck and program access locality.
//!
//! The crate is a facade over the workspace:
//!
//! | module | contents |
//! |---|---|
//! | [`lattice`] | code beats, qubit tags and the point SAM's cell grid (`arch::lattice`) |
//! | [`isa`] | the LSQCA instruction set (Table I), programs, execution traces |
//! | [`circuit`] | logical circuit IR, registers, decomposition |
//! | [`workloads`] | the seven benchmark generators of the evaluation |
//! | [`compiler`] | circuit → LSQCA program lowering (Sec. VI-A) |
//! | [`arch`] | point/line SAM, multi-bank memories, MSFs, hybrid floorplans |
//! | [`sim`] | the code-beat-accurate simulator |
//! | [`analysis`] | access-locality analysis and hot-set selection |
//! | [`experiment`] | one-call experiment runners used by the benches |
//!
//! # Quick start
//!
//! ```
//! use lsqca::experiment::{ExperimentConfig, Workload};
//! use lsqca::arch::FloorplanKind;
//! use lsqca::workloads::Benchmark;
//!
//! // Compile a (reduced) GHZ benchmark once...
//! let workload = Workload::from_circuit(Benchmark::Ghz.reduced_instance());
//!
//! // ...and compare a line SAM against the conventional baseline.
//! let lsqca = workload.run(&ExperimentConfig::new(FloorplanKind::LineSam { banks: 1 }, 1));
//! let baseline = workload.run(&ExperimentConfig::new(FloorplanKind::Conventional, 1));
//!
//! assert!(lsqca.memory_density > baseline.memory_density);
//! assert!(lsqca.total_beats >= baseline.total_beats);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lsqca_analysis as analysis;
pub use lsqca_arch as arch;
pub use lsqca_arch::lattice;
pub use lsqca_circuit as circuit;
pub use lsqca_compiler as compiler;
pub use lsqca_isa as isa;
pub use lsqca_sim as sim;
pub use lsqca_workloads as workloads;

pub mod experiment;
pub mod prelude;
