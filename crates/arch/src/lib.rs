//! Architecture models of the LSQCA paper.
//!
//! This crate turns the floorplan designs of Sec. IV–V into executable latency
//! and capacity models:
//!
//! * [`config`] — [`ArchConfig`]: which floorplan (point SAM,
//!   line SAM, conventional), how many SAM banks, how many magic-state factories,
//!   and the hybrid-floorplan fraction `f`.
//! * [`lattice`] — the surface-code substrate: [`Beats`](lattice::Beats),
//!   [`QubitTag`](lattice::QubitTag), the point SAM's [`CellGrid`](lattice::CellGrid)
//!   occupancy map, the point SAM's move costs and [`LatticeError`](lattice::LatticeError).
//! * [`ledger`] — the [`CheckoutLedger`]: the dense
//!   per-bank bit set of qubits currently checked out to the CR, backing the
//!   banks' store-side validation and `n + ports`-cell invariants.
//! * [`point`] — the point-SAM bank: one scan cell per port, sliding-puzzle
//!   loads (`W + H` seek plus `6·min(W,H) + 5·|W−H|` transport), locality-aware
//!   stores into the vacant cell nearest the CR. A **two-port** bank adds a
//!   second port and scan cell on the east edge: every access goes through
//!   the cheaper side and the two-vacancy move protocol is always active.
//! * [`line`](mod@line) — the line-SAM bank: a scan line, loads costing the row distance,
//!   locality-aware stores into the most recently accessed row.
//! * [`memory`] — [`MemorySystem`]: hybrid floorplans (hot
//!   qubits in a conventional 1/2-density region, cold qubits distributed
//!   round-robin over SAM banks of the floorplan's one flavour),
//!   memory-density accounting, the load / store / in-memory access latencies
//!   the simulator consumes, the cross-bank checkout audit, and runtime
//!   hot-set migration ([`MemorySystem::migrate`]).
//! * [`floorplan`] — the pluggable [`MigrationPolicy`] trait with its
//!   [`StaticPolicy`] / [`LruPolicy`] / [`FreqDecayPolicy`] implementations.
//! * [`msf`] — the magic-state factory model (one state per 15 beats per factory,
//!   buffer of `2 × factories`).
//!
//! The paper fixes the rest of the machine, and so does this crate: the CR
//! has two register cells ([`MemorySystem::CR_SLOTS`]), a factory distills a
//! state every 15 beats into a buffer of `2 × factories`, and the point SAM's
//! move costs are those of Fig. 4. None of these is a setting.
//!
//! # Example
//!
//! ```
//! use lsqca_arch::{ArchConfig, FloorplanKind, MemorySystem};
//! use lsqca_arch::lattice::QubitTag;
//!
//! // 400 data qubits in a single line-SAM bank: ≈87% memory density.
//! let config = ArchConfig::new(FloorplanKind::LineSam { banks: 1 }, 1);
//! let memory = MemorySystem::new(&config, 400, &[]);
//! let density = memory.memory_density();
//! assert!(density > 0.85 && density < 0.90);
//! assert!(memory.is_resident(QubitTag(0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod floorplan;
pub mod lattice;
pub mod ledger;
pub mod line;
pub mod memory;
pub mod msf;
pub mod point;

pub use config::{ArchConfig, FloorplanKind};
pub use floorplan::{FreqDecayPolicy, LruPolicy, MigrationPolicy, PolicyKind, StaticPolicy};
pub use ledger::CheckoutLedger;
pub use line::LineSamBank;
pub use memory::{MemorySystem, Residence};
pub use msf::MagicStateSupply;
pub use point::PointSamBank;
