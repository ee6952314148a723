//! Capacity-measurement engines for the hybrid MANET model: fluid
//! (flow-level) and packet-level simulation, plus the scaling-sweep harness.
//!
//! The paper's feasible-throughput notion (Definition 5) asks for a
//! scheduling scheme under which every node sustains `g(n)` bits per second
//! end to end. This crate measures it two ways:
//!
//! * [`FluidEngine`] — Monte-Carlo service-rate estimation per resource
//!   (squarelet edge, access group, backbone wire) combined with a routing
//!   plan's load map: `λ = min service/load`, through one entry point,
//!   [`FluidEngine::run`]. Fast; used for `n`-sweeps.
//! * [`PacketEngine`] — a slotted queueing simulator with real buffers,
//!   through one entry point, [`PacketEngine::run`]: relay chains or
//!   schemes A, B and C under open-loop injection or finite flows. Slower;
//!   validates the fluid numbers.
//! * [`sweep`] — geometric `n` ladders, log–log exponent fits and an
//!   order-preserving parallel driver, used by every Table-I / Figure-3
//!   experiment.
//! * [`WorkerPool`] — a persistent worker pool backing slot-sharded fluid
//!   runs ([`Sampling::Materialized`]), packet replications and the bench
//!   drivers; combined with counter-based mobility streams
//!   (`hycap_mobility::SlotRng`), measurements are bit-identical at any
//!   thread count.
//! * [`faults`] — deterministic seeded fault injection (BS crashes, wire
//!   cuts/degradation, Bernoulli outages) with graceful degradation wired
//!   through both engines; an empty schedule is bit-identical to the
//!   fault-free path.
//! * [`cache`] — a content-addressed on-disk result store keyed by the
//!   scenario digest: warm lookups replay stored `f64` bits (and metrics
//!   snapshots) byte-identically, and any corruption degrades to a miss,
//!   never a wrong answer. It is also the store a killed sweep resumes
//!   from.
//!
//! # Example
//!
//! ```
//! use hycap_mobility::{Kernel, Population, PopulationConfig};
//! use hycap_routing::{SchemeAPlan, TrafficMatrix};
//! use hycap_sim::{FluidEngine, FluidPlan, FluidRun, HybridNetwork};
//! use hycap_sim::obs::Observer;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let config = PopulationConfig::builder(300).alpha(0.25).build();
//! let pop = Population::generate(&config, &mut rng);
//! let homes = pop.home_points().points().to_vec();
//! let traffic = TrafficMatrix::permutation(300, &mut rng);
//! let plan = SchemeAPlan::build(&homes, &traffic, 300f64.powf(0.25));
//! let net = HybridNetwork::ad_hoc(pop);
//! let spec = FluidRun::new(100, 7, None);
//! let report = FluidEngine::default()
//!     .run(&net, FluidPlan::A(&plan), spec, &mut Observer::noop())
//!     .unwrap()
//!     .into_complete("scheme A")
//!     .unwrap();
//! assert!(report.base.lambda >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
pub mod cache;
mod draws;
mod engine;
mod events;
pub mod faults;
mod flows;
mod fluid;
mod groups;
mod packet;
mod pool;
pub mod sweep;

pub use budget::{BudgetExceeded, BudgetMeter, Budgeted, RunBudget};
pub use cache::{
    scenario_digest, CacheDiskStats, CacheEntry, CacheStats, CacheValue, GcReport, ResultCache,
    ENGINE_VERSION,
};
pub use draws::{DrawParty, SharedDraws, SlotRead};
pub use engine::{HybridNetwork, SlotView};
pub use events::{Event, EventQueue, FlowRng, Time};
pub use faults::{FaultEvent, FaultInjector, FaultSchedule, FaultTally, OutagePolicy};
pub use flows::{ArrivalProcess, FlowRunStats, FlowSizes, FlowSpec, FlowWorkload};
pub use fluid::{
    Bottleneck, DegradedFluidReport, FluidEngine, FluidPlan, FluidReport, FluidRun, Sampling,
};
pub use packet::{
    FaultReport, PacingTrace, PacketEngine, PacketPlan, PacketReport, PacketRun, PacketStats,
    PacketWorkload,
};
pub use pool::{JobPanic, WorkerPool};
pub use sweep::{
    fit_linear, fit_loglog, geometric_ns, load_ladder, parallel_map, parallel_map_observed,
    FitResult,
};

/// Re-export of the observability crate so downstream code can construct
/// [`hycap_obs::Observer`]s for [`FluidEngine::run`] and
/// [`PacketEngine::run`] without naming `hycap-obs` directly.
pub use hycap_obs as obs;
