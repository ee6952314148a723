//! Routing schemes A, B and C, baselines and the permutation traffic model
//! (Definitions 11–13 of the ICDCS 2010 paper).
//!
//! * [`TrafficMatrix`] — the uniform permutation traffic of Section II-B.
//! * [`SchemeAPlan`] — mobility-exploiting squarelet-hop relaying
//!   (Definition 11), optimal in the strong-mobility regime:
//!   `λ = Θ(1/f(n))`.
//! * [`SchemeBPlan`] — infrastructure relaying through squarelet-local BS
//!   groups and the wired backbone (Definition 12), optimal in the
//!   infrastructure-dominant state: `λ = Θ(min(k²c/n, k/n))`; the
//!   cluster-grouped variant covers the weak-mobility regime (Theorem 7).
//! * [`SchemeCPlan`] — the cellular TDMA scheme for the trivial-mobility
//!   regime (Definition 13, Theorem 9).
//! * [`SchemeLPlan`] — the L-maximum-hop hybrid of the paper's reference
//!   \[9\]: short flows stay ad hoc, long flows ride the infrastructure.
//! * [`baselines`] — Gupta–Kumar static multihop and the Corollary 3
//!   clustered-static rate.
//!
//! Plans are *compile-time* artifacts: they map every flow onto the
//! resources it consumes (squarelet edges, BS access groups, backbone
//! wires). The `hycap-sim` crate measures how much service each resource
//! actually receives under the `S*` scheduler and turns plan + measurement
//! into a capacity estimate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
mod groups;
mod scheme_a;
mod scheme_b;
mod scheme_c;
mod scheme_l;
mod traffic;

pub use baselines::{clustered_connectivity_range, clustered_static_rate, StaticMultihopPlan};
pub use scheme_a::{edge_key, EdgeKey, SchemeAPlan};
pub use scheme_b::{DegradedSchemeB, FlowB, SchemeBPlan};
pub use scheme_c::SchemeCPlan;
pub use scheme_l::SchemeLPlan;
pub use traffic::TrafficMatrix;
