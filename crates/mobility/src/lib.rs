//! Home-point mobility models and clustered node placement.
//!
//! This crate implements Section II-A of the ICDCS 2010 paper:
//!
//! * [`kernel`] — the shape function `s(d)` of Definition 2: an arbitrary
//!   non-increasing function with finite support that characterizes the
//!   stationary spatial distribution `φ_i(X) ∝ s(f(n)·‖X − X_i^h‖)` of a
//!   node around its home-point.
//! * [`placement`] — the clustered model of Definition 3: `m = Θ(n^M)`
//!   clusters of radius `r = Θ(n^-R)`, uniformly placed, with home-points
//!   uniform inside a uniformly chosen cluster.
//! * [`process`] — concrete stationary ergodic mobility processes sharing a
//!   given stationary kernel: i.i.d. resampling, tethered random walk,
//!   discrete Ornstein–Uhlenbeck, Brownian motion on the torus and the
//!   static (degenerate) process.
//! * [`population`] — a complete mobile population: home-points + kernel +
//!   per-node process, advanced slot by slot.
//! * [`slot_rng`] — counter-based per-slot random streams: [`SlotRng`]
//!   derives slot `s`'s generator from `(seed, s)` so stateless processes
//!   can rederive any slot's snapshot without replaying earlier slots.
//! * [`density`] — the local density `ρ(X)` of Definition 7 and the
//!   uniformly-dense condition of Definition 8 / Theorem 1.
//! * [`trace`] — mobility-trace recording, CSV exchange, and estimation of
//!   the model's ingredients (home-points, kernel, contacts) from traces.
//!
//! # Example
//!
//! ```
//! use hycap_mobility::{ClusteredModel, Kernel, MobilityKind, Population, PopulationConfig};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let config = PopulationConfig::builder(400)
//!     .alpha(0.25)
//!     .clusters(ClusteredModel::uniform())
//!     .kernel(Kernel::uniform_disk(1.0))
//!     .mobility(MobilityKind::IidStationary)
//!     .build();
//! let mut pop = Population::generate(&config, &mut rng);
//! pop.advance(&mut rng);
//! assert_eq!(pop.positions().len(), 400);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod density;
pub mod kernel;
pub mod placement;
pub mod population;
pub mod process;
pub mod slot_rng;
pub mod trace;

pub use density::{DensityStats, UniformityReport};
pub use kernel::Kernel;
pub use placement::{ClusteredModel, HomePoints};
pub use population::{
    Population, PopulationConfig, PopulationConfigBuilder, SlotPositionStream, SlotSampler,
};
pub use process::{MobilityKind, NodeProcess};
pub use slot_rng::SlotRng;
pub use trace::{ContactStats, Trace, TraceError};
