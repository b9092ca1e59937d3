//! Surface-code lattice substrate for the LSQCA reproduction.
//!
//! This crate models the *logical* layer of a surface-code fault-tolerant quantum
//! computer as the LSQCA paper does: the chip is a two-dimensional grid of
//! surface-code **cells** (each cell is one code patch of distance `d`), time is
//! measured in **code beats** (`d` syndrome-measurement cycles), and computation is
//! carried out by a small set of primitive protocols — lattice surgery, patch
//! moves, expansion/contraction, transversal and deformation-based single-qubit
//! operations — each with a fixed latency in code beats (Fig. 4 of the paper).
//!
//! The crate provides:
//!
//! * [`geom`] — integer grid geometry (coordinates, rectangles, directions).
//! * [`pauli`] — single- and multi-qubit Pauli operators used to describe logical
//!   measurements.
//! * [`cell`] — cell kinds (data, auxiliary, scan, register, port, factory) and
//!   occupancy.
//! * [`grid`] — the [`CellGrid`] occupancy map, used by the SAM models to
//!   simulate sliding-puzzle loads and stores.
//! * [`patch`] — logical patches and boundary orientations.
//! * [`protocol`] — primitive fault-tolerant protocols and their code-beat
//!   latencies.
//! * [`query`] — the [`VacancyIndex`] behind the grid's nearest-vacant
//!   query.
//! * [`timing`] — the [`Beats`] time unit.
//!
//! # Example
//!
//! ```
//! use lsqca_lattice::grid::CellGrid;
//! use lsqca_lattice::geom::Coord;
//! use lsqca_lattice::cell::QubitTag;
//!
//! // A 4x4 memory region holding one logical qubit.
//! let mut grid = CellGrid::new(4, 4);
//! grid.place(QubitTag(7), Coord::new(2, 1)).unwrap();
//! assert_eq!(grid.position_of(QubitTag(7)), Some(Coord::new(2, 1)));
//! assert_eq!(grid.occupied_count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod error;
pub mod geom;
pub mod grid;
pub mod patch;
pub mod pauli;
pub mod protocol;
pub mod query;
pub mod timing;

pub use cell::{CellKind, CellState, QubitTag};
pub use error::LatticeError;
pub use geom::{Coord, Direction, Rect};
pub use grid::CellGrid;
pub use patch::{BoundaryOrientation, Patch, PatchId};
pub use pauli::{Pauli, PauliProduct};
pub use protocol::{PrimitiveOp, ProtocolLatencies};
pub use query::VacancyIndex;
pub use timing::Beats;
