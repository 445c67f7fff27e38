//! Domain connectivity for dynamic overset grids — the DCF3D analogue of
//! the OVERFLOW-D reproduction.
//!
//! Moving-grid simulations must re-establish intergrid connectivity at every
//! timestep: cut holes where grids intersect solid surfaces, identify the
//! inter-grid boundary points (IGBPs), search donor cells in overlapping
//! grids, and interpolate boundary values. This crate implements:
//!
//! * [`holes`] — analytic hole cutting and fringe/IGBP identification,
//! * [`donor`] — the stencil-walk donor search with Newton inversion of the
//!   trilinear cell map,
//! * [`inverse_map`] — DCF3D-style auxiliary Cartesian inverse maps: O(1)
//!   walk seeds, coarse occupancy masks for request pruning, and ternary
//!   solid masks for masked hole cutting,
//! * [`interp`] — trilinear interpolation of the conserved state,
//! * [`serial`] — the single-address-space connectivity solution (Y-MP
//!   baseline and validation reference),
//! * [`protocol`] — the distributed donor-search protocol (bounding-box
//!   routing, asynchronous request service, candidate forwarding, and the
//!   "nth-level restart" donor cache),
//! * [`kernels`] — lane-batched (SIMD) forms of the trilinear Newton
//!   inversion and the hole cutter's containment tests, bit-identical to
//!   the scalar code per lane.
//!
//! Each operation has exactly one entry point, taking its acceleration
//! context explicitly — the optional inverse map(s) and a caller-owned
//! [`ConnArena`] that also carries the lane [`Isa`](overset_solver::Isa):
//!
//! | operation | entry |
//! |---|---|
//! | hole cut + fringe | [`cut_holes_and_find_fringe_arena`] |
//! | distributed connectivity | [`connect_distributed_arena`] |
//! | serial connectivity | [`connect_serial_arena`] |
//! | one donor walk | [`walk_search`] (`relaxed`, `isa` explicit) |
//!
//! Callers that want the defaults pass `None, &mut ConnArena::new()`
//! (scalar lanes, cold buffers); results are bit-identical either way.

pub mod arena;
pub mod donor;
pub mod holes;
pub mod interp;
pub mod inverse_map;
pub mod kernels;
pub mod protocol;
pub mod serial;

pub use arena::ConnArena;
pub use donor::{walk_search, walk_search_batch, BatchQuery, Donor, SearchCost, SearchOutcome};
pub use holes::{cut_holes_and_find_fringe_arena, Igbp};
pub use interp::{interpolate, weights};
pub use inverse_map::{
    classify_solids_into, occupancy_admits, occupancy_admits_posed, BinClass, InverseMap,
    FLOPS_PER_INCR_UPDATE, OCC_ALL, OCC_WORDS,
};
pub use protocol::{connect_distributed_arena, ConnStats, DonorCache, Topology};
pub use serial::{connect_serial_arena, SerialCache, SerialConnStats};
