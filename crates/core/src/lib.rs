//! # hycap — capacity scaling of hybrid mobile ad hoc networks
//!
//! A faithful, executable reproduction of
//! *W. Huang, X. Wang, Q. Zhang, "Capacity Scaling in Mobile Wireless Ad
//! Hoc Network with Infrastructure Support", IEEE ICDCS 2010.*
//!
//! The paper determines the per-node throughput capacity of a network of
//! `n` mobile users (moving around home-points placed in `m = Θ(n^M)`
//! clusters on a torus of side `f(n) = n^α`) supported by `k = Θ(n^K)`
//! base stations wired with bandwidth `c(n)`. This crate exposes the
//! paper's results as code:
//!
//! * [`Order`] — exact `Θ(n^p·(log n)^q)` arithmetic;
//! * [`ModelExponents`] / [`MobilityRegime`] — the strong/weak/trivial
//!   regime classification (Theorem 1, Section V);
//! * [`theory`] — Table I capacities, optimal transmission ranges, and the
//!   Figure 3 phase diagram (`capacity_exponent`, `phase_surface`);
//! * [`bounds`] — the Lemma 6/7 cut upper bound and the Lemma 8 access
//!   bound, measured by Monte-Carlo scheduling;
//! * [`Scenario`] — the one-stop experiment API tying together the
//!   substrate crates (`hycap-geom`, `hycap-mobility`, `hycap-wireless`,
//!   `hycap-infra`, `hycap-routing`, `hycap-sim`).
//!
//! # Quickstart
//!
//! ```
//! use hycap::{ModelExponents, Scenario};
//!
//! // A dense network (α = 1/4) with uniform home-points, k = n^0.75 base
//! // stations and constant aggregate backbone bandwidth (ϕ = 0).
//! let exps = ModelExponents::new(0.25, 1.0, 0.0, 0.75, 0.0).unwrap();
//! println!("theory: {}", hycap::theory::capacity_with_bs(
//!     exps.classify().unwrap(), &exps));
//!
//! let report = Scenario::builder(exps, 200).seed(42).build().measure(100).unwrap();
//! assert!(report.lambda >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
mod order;
mod regime;
mod scenario;
pub mod theory;

pub use bounds::{access_upper_bound, cut_upper_bound, CutBound};
pub use order::Order;
pub use regime::{MobilityRegime, ModelExponents, RealizedParams, RegimeError};
pub use scenario::{FlowScenarioReport, Realization, Scenario, ScenarioBuilder, ScenarioReport};
pub use theory::{
    capacity_exponent, capacity_no_bs, capacity_with_bs, dominance, infrastructure_order,
    mobility_order, optimal_range, phase_surface, Dominance, Table1Row,
};

/// Re-export of the observability crate: metric sinks, invariant probes
/// and snapshots for the observed measurement entry points.
pub use hycap_obs as obs;
