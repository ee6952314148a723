//! Torus geometry, tessellations and spatial indexing for the `hycap`
//! network simulator.
//!
//! The ICDCS 2010 paper "Capacity Scaling in Mobile Wireless Ad Hoc Network
//! with Infrastructure Support" models the network extension `O` as a unit
//! torus (a square with wrap-around conditions, Definition 1). Every other
//! crate in this workspace builds on the primitives defined here:
//!
//! * [`Point`] and [`Vec2`] — positions on the unit torus and displacement
//!   vectors between them, with the wrap-aware metric [`Point::torus_dist`].
//! * [`Torus`] — the network extension itself, carrying the scaling factor
//!   `f(n)` used to renormalize constant distances (Remark 1 of the paper).
//! * [`SquareGrid`] — the regular square tessellations used by routing
//!   scheme A (squarelet area `Θ(1/f²)`), scheme B (constant-area squarelets)
//!   and by the density estimators of Theorem 1 / Lemma 1.
//! * [`HexLattice`] — the hexagonal cellular layout of routing & scheduling
//!   scheme C (Definition 13).
//! * [`SpatialHash`] — an `O(1)`-per-query neighbor index used by the
//!   scheduler to evaluate the protocol interference model efficiently,
//!   and [`CellChains`], the per-slot cell chains behind its per-node
//!   queries.
//! * [`Cut`] implementations — simple closed curves dividing `O` into an
//!   inside and an outside, used by the cut upper bound of Lemma 6.
//! * [`sample`] — random sampling helpers (uniform disk, Box–Muller normal,
//!   …) built on `rand` only.
//!
//! # Example
//!
//! ```
//! use hycap_geom::{Point, SquareGrid};
//!
//! let grid = SquareGrid::with_cells_per_side(8);
//! let p = Point::new(0.93, 0.07);
//! let q = Point::new(0.05, 0.98);
//! // Distances wrap around the torus boundary.
//! assert!(p.torus_dist(q) < 0.2);
//! // Cell indexing covers the whole torus.
//! assert!(grid.cell_of(p).index() < grid.cell_count());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cut;
mod grid;
mod hex;
mod point;
pub mod sample;
mod spatial;
mod torus;

pub use cut::{Cut, DiskCut, HalfStripCut, RectCut};
pub use grid::{Cell, GridPath, Leg, SquareGrid};
pub use hex::{HexCell, HexLattice};
pub use point::{Point, Vec2};
pub use spatial::{
    clamp_index_radius, CellChains, OccupancyScratch, RebuildKind, SpatialHash, MAX_INDEX_RADIUS,
    MIN_INDEX_RADIUS,
};
pub use torus::Torus;

/// Numerical tolerance used by geometric comparisons in tests and debug
/// assertions throughout the workspace.
pub const EPS: f64 = 1e-9;
