//! The fluid (flow-level) capacity engine.
//!
//! For a compiled routing plan, the per-node capacity is the largest uniform
//! rate `λ` such that no resource is overloaded: every squarelet edge,
//! access group and backbone wire must serve its flows. The engine measures
//! each wireless resource's *service rate* — how many `S*`-scheduled pairs
//! can move its traffic per slot — by Monte-Carlo slot sampling, then takes
//! the bottleneck ratio
//!
//! ```text
//! λ = min over resources   service_rate(resource) / load(resource)
//! ```
//!
//! This is exactly the computation behind Lemma 5 (`Θ(1/f)` for scheme A)
//! and Theorem 5 (`Θ(min(k²c/n, k/n))` for scheme B), with the ergodic
//! averages replaced by finite-sample estimates. The packet-level engine
//! ([`crate::packet`]) validates these estimates with real queues.
//!
//! Every measurement is one call, [`FluidEngine::run`]. A [`FluidPlan`]
//! names the scheme and its plan; a [`FluidRun`] spec carries the slot
//! count, the seed and [`Sampling`] mode, an optional fault schedule and an
//! optional [`RunBudget`]; an [`Observer`] receives metrics and probe
//! verdicts. One slot loop serves every combination: budget charge, fault
//! mask, slot positions, `S*` schedule, then credit each scheduled pair to
//! the resource it serves.
//!
//! A run gives one seed, and the network picks how slots are drawn from it:
//!
//! * a *counter-samplable* model (i.i.d. or static — see
//!   [`HybridNetwork::counter_samplable`]) draws any slot's snapshot as a
//!   pure function of `(seed, slot)`, so with a [`WorkerPool`] the slot
//!   range splits into contiguous chunks, one per pool thread, and without
//!   one it runs as a single inline chunk. The chunks draw through one
//!   shared read-only [`SlotView`];
//! * a history-dependent model (tethered walk, OU, Brownian) must advance
//!   slot by slot, so it walks a private copy of the population in slot
//!   order from `StdRng::seed_from_u64(seed)`, as one chunk on the calling
//!   thread, whatever the pool;
//! * [`Sampling::Streamed`] replays the counter streams in chunks of at
//!   most `chunk` points straight into the spatial index, so no step
//!   materializes the `n + k` position snapshot — what makes `n = 10⁶`
//!   ladder points routine. It needs counter-samplable mobility.
//!
//! Either way a run is a pure function of the network, the plan and the
//! spec, and it leaves the network untouched.
//!
//! Every per-chunk accumulator holds integer-valued counts (exactly
//! representable in `f64`), chunks reduce in slot order, and snapshots
//! merge partition-independently — so materialized and streamed reports
//! and snapshots are bit-identical to each other at any pool size and any
//! stream chunk size. A fault-free run and an empty fault schedule take the
//! same path and give the same bits.

use crate::budget::{BudgetMeter, Budgeted, RunBudget};
use crate::engine::{check_range, SlotSource};
use crate::faults::{FaultInjector, FaultSchedule, FaultTally, OutagePolicy};
use crate::groups::GroupMap;
use crate::pool::{chunk_ranges, WorkerPool};
use crate::{HybridNetwork, SlotView};
use hycap_errors::HycapError;
use hycap_geom::{clamp_index_radius, Cell, Point, SquareGrid};
use hycap_infra::{Backbone, LinkMask};
use hycap_obs::{MemorySink, MetricsSink, Observer, Snapshot, SpanTimer};
use hycap_routing::{edge_key, EdgeKey, SchemeAPlan, SchemeBPlan};
use hycap_wireless::{
    critical_range, schedule_memoized_observed, schedule_observed, schedule_prebuilt_observed,
    SStarScheduler, ScheduleMemo, ScheduledPair, SlotWorkspace,
};
use std::ops::Range;
use std::sync::Arc;

/// What limited the measured capacity.
#[derive(Debug, Clone, PartialEq)]
pub enum Bottleneck {
    /// A squarelet edge of scheme A (by canonical edge key).
    WirelessEdge(EdgeKey),
    /// The access phase of scheme B in the given group.
    Access(usize),
    /// The wired backbone (phase II of scheme B).
    Backbone,
    /// A resource with offered load received no service during the sample —
    /// the estimate is 0 and more slots (or a denser network) are needed.
    Starved,
    /// No resource was loaded (e.g. empty traffic).
    Unconstrained,
}

/// The result of a fluid capacity measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct FluidReport {
    /// Measured per-node capacity (units of the wireless bandwidth `W = 1`):
    /// the **minimum** service/load ratio over loaded resources — the rate
    /// every flow can sustain simultaneously.
    pub lambda: f64,
    /// The **median** service/load ratio over loaded wireless resources
    /// (still capped by the backbone where applicable). The min and the
    /// median share the same Θ order asymptotically (Lemma 1 makes all
    /// squarelets statistically alike), but the min carries a heavy
    /// finite-sample tail penalty; exponent fits should use this field.
    pub lambda_typical: f64,
    /// The limiting resource.
    pub bottleneck: Bottleneck,
    /// Slots sampled.
    pub slots: usize,
    /// Mean number of `S*`-scheduled pairs per slot (a load-independent
    /// wellness indicator: `Θ(n)` in uniformly dense networks by Lemma 3).
    pub scheduled_pairs_per_slot: f64,
}

/// A fluid measurement with per-cause accounting of what faults did to the
/// run. A fault-free run reports `k_alive_mean = k`, no outage slots, every
/// flow on the infrastructure and an empty tally.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedFluidReport {
    /// The measurement itself. With no faults or an empty fault schedule
    /// this is the fault-free report.
    pub base: FluidReport,
    /// Mean alive-BS count over the sampled slots (`k` when nothing failed).
    pub k_alive_mean: f64,
    /// Slots during which at least one BS was down.
    pub outage_slots: usize,
    /// Scheme-B flows still riding the infrastructure at end of run
    /// (classified against the durable, scripted fault state). Equals the
    /// plan's flow count for scheme A or a fault-free run.
    pub infra_flows: usize,
    /// Scheme-B flows re-routed to the ad-hoc fallback because their source
    /// or destination BS group was fully dead. Always 0 for scheme A.
    pub fallback_flows: usize,
    /// BS groups that lost every base station. Always 0 for scheme A.
    pub dead_groups: usize,
    /// What the injector applied during the run, by cause.
    pub tally: FaultTally,
}

impl DegradedFluidReport {
    /// Fraction of flows on the ad-hoc fallback, in `[0, 1]`.
    pub fn fallback_fraction(&self) -> f64 {
        let total = self.infra_flows + self.fallback_flows;
        if total == 0 {
            return 0.0;
        }
        self.fallback_flows as f64 / total as f64
    }
}

/// The scheme a fluid run measures, with its compiled plan.
#[derive(Debug, Clone, Copy)]
pub enum FluidPlan<'a> {
    /// Scheme A: each scheduled MS–MS pair is credited to the squarelet
    /// edge joining the pair's *home* squarelets (same or edge-adjacent),
    /// and λ bottlenecks against the plan's edge loads (Lemma 5).
    A(&'a SchemeAPlan),
    /// Scheme B: each scheduled MS–BS pair is credited to the BS's group
    /// when the MS is homed in that group (phases I/III), and λ
    /// bottlenecks the access phases against the plan's access loads and
    /// phase II against the Theorem 5 wire feasibility.
    B(&'a SchemeBPlan),
}

/// How a fluid run draws each slot's positions. The mobility model picks
/// the draw itself (see the module docs); the mode only says whether
/// snapshots are materialized or streamed.
pub enum Sampling<'a> {
    /// Whole `n + k` snapshots from `seed`. A counter-samplable network
    /// shards the slots over `pool` in contiguous chunks when one is given
    /// and runs them inline otherwise; reports and snapshots do not depend
    /// on the pool size. A history-dependent network walks them in order on
    /// the calling thread and ignores `pool`.
    ///
    /// A counter-samplable run builds one [`SlotView`] of the network
    /// ([`HybridNetwork::slot_view`]) and every chunk reads positions
    /// through a clone of it: the home-points, kernel and norm (or the
    /// per-node processes of a kernel mixture) and the BS tail are shared
    /// behind `Arc`s, so a chunk adds only its own position buffer and
    /// workspace.
    Materialized {
        /// Seed of the run's slot draw.
        seed: u64,
        /// Pool the slot chunks fan out over; `None` runs one inline chunk.
        pool: Option<&'a WorkerPool>,
    },
    /// The counter streams of `seed`, replayed `chunk` points at a time
    /// straight into the spatial index: peak live memory is the index plus
    /// `O(chunk)` scratch, never a position array. Bit-identical to
    /// [`Sampling::Materialized`] for every `chunk`.
    Streamed {
        /// Seed of the per-slot streams.
        seed: u64,
        /// Positions per streamed batch (positive).
        chunk: usize,
    },
}

/// What one [`FluidEngine::run`] measures: slots, seed and sampling mode,
/// faults and budget. Build it with [`FluidRun::new`] or
/// [`FluidRun::streamed`], then add [`FluidRun::faults`] and
/// [`FluidRun::budget`] as needed.
pub struct FluidRun<'a> {
    /// Slots to sample (at least one).
    pub slots: usize,
    /// Where slot positions come from.
    pub sampling: Sampling<'a>,
    /// Fault schedule and the spectrum policy for dead base stations. Each
    /// run replays the schedule with fresh injectors, so repeated runs are
    /// independent and reproducible; an empty schedule is the fault-free
    /// run.
    pub faults: Option<(&'a FaultSchedule, OutagePolicy)>,
    /// Cap on slots, events or wall time. An exhausted budget yields
    /// [`Budgeted::Interrupted`] with every per-slot figure normalized over
    /// the slots that completed.
    pub budget: Option<RunBudget>,
}

impl<'a> FluidRun<'a> {
    /// `slots` slots drawn from `seed`, sharded over `pool` when given and
    /// the network is counter-samplable.
    pub fn new(slots: usize, seed: u64, pool: Option<&'a WorkerPool>) -> Self {
        FluidRun::with_sampling(slots, Sampling::Materialized { seed, pool })
    }

    /// `slots` slots from the counter streams of `seed`, streamed `chunk`
    /// positions at a time.
    pub fn streamed(slots: usize, seed: u64, chunk: usize) -> Self {
        FluidRun::with_sampling(slots, Sampling::Streamed { seed, chunk })
    }

    fn with_sampling(slots: usize, sampling: Sampling<'a>) -> Self {
        FluidRun {
            slots,
            sampling,
            faults: None,
            budget: None,
        }
    }

    /// Injects `schedule` under `policy`.
    pub fn faults(mut self, schedule: &'a FaultSchedule, policy: OutagePolicy) -> Self {
        self.faults = Some((schedule, policy));
        self
    }

    /// Runs under `budget`.
    pub fn budget(mut self, budget: RunBudget) -> Self {
        self.budget = Some(budget);
        self
    }
}

/// The fluid capacity engine: `S*` scheduling with guard factor `Δ` and
/// range constant `c_T` (`R_T = c_T/√n`).
///
/// The defaults `Δ = 0.5`, `c_T = 0.4` maximize the `S*` activity constant
/// `Θ(c_T²)·e^{-π(1+Δ)²c_T²}` (Lemma 3) so finite networks yield
/// well-conditioned estimates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FluidEngine {
    delta: f64,
    c_t: f64,
    range_override: Option<f64>,
    // The static-position schedule memo. Always on outside the unit test
    // that checks it against recomputation.
    memoize: bool,
}

impl FluidEngine {
    /// Creates an engine with explicit protocol parameters.
    pub fn new(delta: f64, c_t: f64) -> Self {
        assert!(
            c_t > 0.0 && c_t.is_finite(),
            "c_T must be positive, got {c_t}"
        );
        assert!(
            delta >= 0.0 && delta.is_finite(),
            "Δ must be non-negative, got {delta}"
        );
        FluidEngine {
            delta,
            c_t,
            range_override: None,
            memoize: true,
        }
    }

    /// Overrides the transmission range with an explicit value instead of
    /// the default `c_T/√n`. A range that is not positive and finite makes
    /// [`FluidEngine::run`] return [`HycapError::InvalidParameter`].
    ///
    /// The override implements Table I's *optimal transmission range*
    /// column: `c_T/√n` is only optimal in uniformly dense networks
    /// (Theorem 2); the weak regime needs `Θ(r√(m/n))` — the inverse of the
    /// in-cluster node density — or the `S*` guard zones are never clear
    /// and every link starves (the `R_T` ablation bench quantifies this).
    pub fn with_range(mut self, range: f64) -> Self {
        self.range_override = Some(range);
        self
    }

    /// The transmission range used for `n` mobile stations.
    pub fn range_for(&self, n: usize) -> f64 {
        self.range_override
            .unwrap_or_else(|| critical_range(n, self.c_t))
    }

    /// The guard factor `Δ`.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The range constant `c_T`.
    pub fn c_t(&self) -> f64 {
        self.c_t
    }

    /// Measures `plan` on `net` as `spec` says.
    ///
    /// `obs` receives per-slot schedule metrics and the feasibility probe,
    /// then the run-level metrics and probes: the Theorem 5 backbone budget
    /// for scheme B (masked over surviving wires under faults) and the
    /// fault-tally consistency probe for faulted runs. Every chunk records
    /// into its own recording observer when `obs` is active; the chunk
    /// snapshots merge in slot order and fold into `obs` with
    /// [`Observer::absorb`]. Observation never draws from an RNG, so the
    /// report is bit-identical for any observer.
    ///
    /// The result is [`Budgeted::Complete`] unless `spec.budget` tripped. A
    /// budgeted faulted run classifies flows against the fault state its
    /// last chunk reached.
    ///
    /// # Errors
    ///
    /// * [`HycapError::InvalidParameter`] when `slots == 0`, the range
    ///   override is not positive and finite, or a streamed run has
    ///   `chunk == 0` or meets history-dependent mobility;
    /// * [`HycapError::MissingInfrastructure`] for scheme B on a network
    ///   without base stations;
    /// * [`HycapError::Mismatch`] when the plan was compiled for a
    ///   different node population than `net`;
    /// * schedule validation errors from [`FaultInjector::new`], and
    ///   re-classification errors from [`SchemeBPlan::degrade`].
    pub fn run<S: MetricsSink>(
        &self,
        net: &HybridNetwork,
        plan: FluidPlan<'_>,
        spec: FluidRun<'_>,
        obs: &mut Observer<S>,
    ) -> Result<Budgeted<DegradedFluidReport>, HycapError> {
        let FluidRun {
            slots,
            sampling,
            faults,
            budget,
        } = spec;
        if slots == 0 {
            return Err(HycapError::invalid("slots", "need at least one slot"));
        }
        check_range(self.range_override)?;
        if let Sampling::Streamed { chunk: 0, .. } = sampling {
            return Err(HycapError::invalid("chunk", "need a positive chunk size"));
        }
        let k = net.k();
        let bandwidth = match (plan, net.base_stations()) {
            (FluidPlan::B(_), None) => return Err(HycapError::MissingInfrastructure("scheme B")),
            (_, bs) => bs.map_or(0.0, |bs| bs.bandwidth()),
        };
        let mut injector = None;
        let mut policy = OutagePolicy::RadioOff;
        if let Some((schedule, outage)) = faults {
            let fresh = FaultInjector::new(k, schedule)?;
            // An empty schedule is the fault-free run, bit for bit.
            injector = (!schedule.is_empty()).then_some(fresh);
            policy = outage;
        }
        let spec = ChunkSpec {
            resources: Resources::of(plan, net.n(), k)?,
            injector,
            policy,
            meter: budget.map(|b| b.meter()),
            n: net.n(),
            k,
            frozen: net.positions_static(),
        };
        let timer = SpanTimer::start();
        // Every chunk records on its own sink, which keeps span durations
        // when `obs`'s sink does; the merged snapshot folds into `obs`.
        let record = obs.active().then(|| obs.sink.timed());
        let chunks: Vec<ChunkOut> = match (sampling, net.slot_view()) {
            (Sampling::Streamed { seed, chunk }, view) => {
                // Streaming replays counter streams: a walk has none.
                let view = view?;
                let draw = Draw::Streamed {
                    view: &view,
                    seed,
                    chunk,
                };
                vec![self.recorded_chunk(record, &spec, 0..slots, draw)?]
            }
            (Sampling::Materialized { seed, pool }, Ok(view)) => {
                // Every chunk draws through a clone of one read-only view:
                // it shares the home-points, processes and BS tail, so no
                // chunk copies the network.
                let engine = *self;
                let jobs: Vec<_> = chunk_ranges(slots, pool.map_or(1, WorkerPool::threads))
                    .into_iter()
                    .map(|range| {
                        let draw = Draw::Source(SlotSource::Counter(view.clone(), seed));
                        let spec = spec.clone();
                        move || engine.recorded_chunk(record, &spec, range, draw)
                    })
                    .collect();
                let results = match pool {
                    Some(pool) => pool.run(jobs),
                    None => jobs.into_iter().map(|job| job()).collect(),
                };
                results.into_iter().collect::<Result<_, _>>()?
            }
            (Sampling::Materialized { seed, .. }, Err(_)) => {
                // A walk advances slot by slot: one chunk, here.
                let draw = Draw::Source(SlotSource::new(net, seed));
                vec![self.recorded_chunk(record, &spec, 0..slots, draw)?]
            }
        };
        let mut acc = Acc::new(spec.resources.len());
        let mut tally = FaultTally::default();
        let mut merged = record.map(|_| Snapshot::default());
        let mut end_state = None;
        for chunk in chunks {
            acc.absorb(&chunk.acc);
            if let (Some(m), Some(s)) = (merged.as_mut(), chunk.snap.as_ref()) {
                m.merge(s);
            }
            if let Some(injector) = chunk.injector {
                tally.absorb(&injector.tally());
                end_state = Some(injector);
            }
        }
        let cut = spec.meter.as_ref().and_then(BudgetMeter::exceeded);
        let totals = Totals {
            // A partial report normalizes by the slots that actually ran,
            // so its per-slot rates stay meaningful estimates.
            slots: if cut.is_some() {
                acc.slots_done.max(1) as usize
            } else {
                slots
            },
            completed: cut.map(|_| acc.slots_done),
            acc,
            k,
            faults: end_state.map(|injector| (injector, tally)),
        };
        let report = match merged {
            Some(mut merged) => {
                let sink = MemorySink::with_timings_when(record == Some(true));
                let mut run_obs = Observer::new(sink).with_probes();
                let report = finalize(plan, &totals, bandwidth, timer, &mut run_obs)?;
                merged.merge(&run_obs.snapshot());
                obs.absorb(&merged);
                report
            }
            None => finalize(plan, &totals, bandwidth, timer, obs)?,
        };
        Ok(match cut {
            None => Budgeted::Complete(report),
            Some(exceeded) => Budgeted::Interrupted {
                partial: report,
                completed_slots: totals.acc.slots_done,
                requested_slots: slots as u64,
                exceeded,
            },
        })
    }

    /// [`FluidEngine::chunk`] into a fresh recording observer when `record`
    /// is `Some(timed)` (the chunk's snapshot comes back with it; span
    /// durations are kept when `timed` holds), into a no-op one otherwise.
    fn recorded_chunk(
        &self,
        record: Option<bool>,
        spec: &ChunkSpec,
        slots: Range<usize>,
        draw: Draw<'_>,
    ) -> Result<ChunkOut, HycapError> {
        let Some(timed) = record else {
            return self.chunk(spec, slots, draw, &mut Observer::noop());
        };
        let mut obs = Observer::new(MemorySink::with_timings_when(timed)).with_probes();
        let mut out = self.chunk(spec, slots, draw, &mut obs)?;
        out.snap = Some(obs.snapshot());
        Ok(out)
    }

    /// The slot loop, over one contiguous chunk of slots: budget charge,
    /// fault mask, positions, `S*` schedule, credit. Every slot draw and
    /// both schemes run through it; a pooled run calls it once per chunk.
    fn chunk<S: MetricsSink>(
        &self,
        spec: &ChunkSpec,
        slots: Range<usize>,
        mut draw: Draw<'_>,
        obs: &mut Observer<S>,
    ) -> Result<ChunkOut, HycapError> {
        let (n, k) = (spec.n, spec.k);
        let range = self.range_for(n);
        let scheduler = SStarScheduler::new(self.delta);
        let index_radius = clamp_index_radius(scheduler.protocol().guard_radius(range));
        let streamed = matches!(draw, Draw::Streamed { .. });
        // Each chunk replays the schedule with its own injector: `seek`
        // fast-forwards the durable state untallied, so summed per-chunk
        // tallies reproduce the single-chunk tally exactly.
        let mut injector = spec.injector.clone().map(|mut injector| {
            injector.seek(slots.start);
            injector
        });
        let mut acc = Acc::new(spec.resources.len());
        let mut buf: Vec<Point> = Vec::new();
        let mut alive = Vec::new();
        let mut ws = SlotWorkspace::new();
        let mut pairs: Vec<ScheduledPair> = Vec::new();
        // Sound only over frozen, materialized positions; the memo re-checks
        // the alive mask itself, so fault transitions invalidate it per slot.
        let mut memo = (self.memoize && !streamed && spec.frozen).then(ScheduleMemo::new);
        for slot in slots {
            if spec
                .meter
                .as_ref()
                .is_some_and(|meter| !meter.charge_slot())
            {
                break;
            }
            if let Some(injector) = injector.as_mut() {
                injector.advance_to(slot);
                injector.fill_alive(n, spec.policy, &mut alive);
                let alive_now = injector.alive_count();
                acc.alive_sum += alive_now;
                if alive_now < k {
                    acc.outage_slots += 1;
                }
            }
            let mask = injector.is_some().then_some(alive.as_slice());
            let tag = slot as u64;
            match &mut draw {
                Draw::Source(source) => source.draw_into(tag, &mut buf),
                Draw::Streamed { view, seed, chunk } => {
                    let mut drawn = Ok(());
                    ws.hash_mut()
                        .try_rebuild_streamed(n + k, index_radius, |emit| {
                            drawn = view.stream(*seed, tag, *chunk, &mut buf, emit);
                        })?;
                    drawn?;
                }
            }
            if streamed {
                schedule_prebuilt_observed(&scheduler, range, mask, tag, &mut ws, &mut pairs, obs);
            } else if let Some(memo) = memo.as_mut() {
                schedule_memoized_observed(
                    memo, &scheduler, &buf, range, mask, tag, &mut ws, &mut pairs, obs,
                );
            } else {
                schedule_observed(&scheduler, &buf, range, mask, tag, &mut ws, &mut pairs, obs);
            }
            acc.total_pairs += pairs.len();
            let bs_mask = injector.as_ref().map(FaultInjector::mask);
            for &pair in &pairs {
                spec.resources.credit(pair, n, bs_mask, &mut acc);
            }
            acc.slots_done += 1;
        }
        Ok(ChunkOut {
            acc,
            injector,
            snap: None,
        })
    }
}

impl Default for FluidEngine {
    fn default() -> Self {
        FluidEngine::new(0.5, 0.4)
    }
}

/// Where one chunk's slot positions come from: the network's slot source
/// drawn whole, or the run's read-only [`SlotView`] streamed.
enum Draw<'r> {
    Source(SlotSource),
    Streamed {
        view: &'r SlotView,
        seed: u64,
        chunk: usize,
    },
}

/// What every chunk of one run shares. Cloning shares the resource tables,
/// so pooled chunk jobs never copy a plan.
#[derive(Debug, Clone)]
struct ChunkSpec {
    resources: Resources,
    /// A fresh injector for a faulted run; each chunk seeks its own clone.
    injector: Option<FaultInjector>,
    policy: OutagePolicy,
    meter: Option<BudgetMeter>,
    /// Mobile stations `n` and base stations `k` of the network.
    n: usize,
    k: usize,
    /// Whether slot positions never change (the schedule memo's premise).
    frozen: bool,
}

/// One chunk's result: its tallies, its injector's end state, and its
/// snapshot when it recorded one.
struct ChunkOut {
    acc: Acc,
    injector: Option<FaultInjector>,
    snap: Option<Snapshot>,
}

/// The wireless resources a run credits service to, indexed like the
/// plan's loads: scheme A's loaded squarelet edges in the key order of
/// [`SchemeAPlan::edge_load`], or scheme B's access groups.
#[derive(Debug, Clone)]
enum Resources {
    A {
        grid: SquareGrid,
        /// Home squarelet index of every MS.
        cells: Arc<[u32]>,
        /// Loaded edge keys, sorted.
        edges: Arc<[EdgeKey]>,
    },
    B(Arc<GroupMap>),
}

impl Resources {
    fn of(plan: FluidPlan<'_>, n: usize, k: usize) -> Result<Self, HycapError> {
        match plan {
            FluidPlan::A(plan) => {
                let cells = Arc::clone(plan.home_cells());
                if cells.len() != n {
                    return Err(HycapError::Mismatch {
                        what: "scheme-A plan and network MS count",
                        left: cells.len(),
                        right: n,
                    });
                }
                Ok(Resources::A {
                    grid: *plan.grid(),
                    cells,
                    edges: plan.edge_load().iter().map(|&(edge, _)| edge).collect(),
                })
            }
            FluidPlan::B(plan) => Ok(Resources::B(Arc::new(GroupMap::of(plan, n, k)?))),
        }
    }

    fn len(&self) -> usize {
        match self {
            Resources::A { edges, .. } => edges.len(),
            Resources::B(groups) => groups.count,
        }
    }

    /// Credits one scheduled pair to the resource it serves, if any.
    #[inline]
    fn credit(&self, pair: ScheduledPair, n: usize, bs_mask: Option<&LinkMask>, acc: &mut Acc) {
        match self {
            Resources::A { grid, cells, edges } => {
                if pair.a >= n || pair.b >= n {
                    return; // MS–BS contacts do not serve scheme A
                }
                let cell = |i: usize| -> Cell { grid.cell_from_index(cells[i] as usize) };
                let (ca, cb) = (cell(pair.a), cell(pair.b));
                if ca == cb || grid.manhattan(ca, cb) == 1 {
                    acc.credited += 1;
                    // A contact on an edge no flow crosses serves nothing.
                    if let Ok(e) = edges.binary_search(&edge_key(ca, cb)) {
                        acc.service[e] += 1.0;
                    }
                }
            }
            Resources::B(groups) => {
                let (ms, bs) = if pair.a < n && pair.b >= n {
                    (pair.a, pair.b - n)
                } else if pair.b < n && pair.a >= n {
                    (pair.b, pair.a - n)
                } else {
                    return;
                };
                // Under OccupySpectrum a dead BS can still be scheduled; it
                // serves nothing. Under RadioOff it is never scheduled.
                if bs_mask.is_some_and(|mask| !mask.bs_alive(bs)) {
                    return;
                }
                if let Some(g) = groups.access_group(ms, bs) {
                    acc.service[g] += 1.0;
                    acc.credited += 1;
                }
            }
        }
    }
}

/// Per-chunk tallies. Every field is a sum of per-slot contributions
/// (service counts are integer-valued f64s well below 2^53), so absorbing
/// any contiguous partition reproduces the single-chunk totals exactly —
/// what makes pooled runs bit-identical to inline ones.
#[derive(Debug)]
struct Acc {
    /// Service per resource, indexed like [`Resources`].
    service: Vec<f64>,
    total_pairs: usize,
    /// Pairs credited to a resource of the scheme: same-or-adjacent
    /// squarelet contacts (A) or in-group access contacts (B).
    credited: u64,
    alive_sum: usize,
    outage_slots: usize,
    /// Slots this chunk actually processed: equals the chunk length unless
    /// a run budget cut the loop short.
    slots_done: u64,
}

impl Acc {
    fn new(resources: usize) -> Self {
        Acc {
            service: vec![0.0; resources],
            total_pairs: 0,
            credited: 0,
            alive_sum: 0,
            outage_slots: 0,
            slots_done: 0,
        }
    }

    fn absorb(&mut self, other: &Acc) {
        for (mine, theirs) in self.service.iter_mut().zip(&other.service) {
            *mine += theirs;
        }
        self.total_pairs += other.total_pairs;
        self.credited += other.credited;
        self.alive_sum += other.alive_sum;
        self.outage_slots += other.outage_slots;
        self.slots_done += other.slots_done;
    }
}

/// A run's merged chunk tallies, ready to finalize.
struct Totals {
    acc: Acc,
    /// Slots the per-slot figures normalize by: the requested count, or
    /// the completed count when a budget cut the run short.
    slots: usize,
    k: usize,
    /// The end-of-run fault state (the last chunk's injector) and the
    /// summed tally; `None` for a fault-free run.
    faults: Option<(FaultInjector, FaultTally)>,
    /// Completed slots when a budget cut the run short.
    completed: Option<u64>,
}

/// Median of a mutable slice (0 for an empty slice).
fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Scheme A bottleneck scan over the plan's edge loads, with `service`
/// indexed like them. Returns `(lambda, lambda_typical, bottleneck)`.
fn scheme_a_bottleneck(
    plan: &SchemeAPlan,
    slots: usize,
    service: &[f64],
) -> (f64, f64, Bottleneck) {
    let mut lambda = f64::INFINITY;
    let mut bottleneck = Bottleneck::Unconstrained;
    let mut ratios = Vec::with_capacity(plan.edge_load().len());
    // `edge_load` is sorted by key, so a strict `<` keeps the smallest
    // key among tied minima: the reported bottleneck is deterministic.
    for (&(edge, load), &served) in plan.edge_load().iter().zip(service) {
        let rate = served / slots as f64;
        let this = rate / load;
        ratios.push(this);
        if rate == 0.0 {
            lambda = 0.0;
            bottleneck = Bottleneck::Starved;
            continue;
        }
        if this < lambda {
            lambda = this;
            bottleneck = Bottleneck::WirelessEdge(edge);
        }
    }
    if lambda.is_infinite() {
        lambda = 0.0;
    }
    (lambda, median(&mut ratios), bottleneck)
}

/// Scheme B bottleneck scan: the backbone rate seeds λ, then each loaded
/// access group may lower it. Returns `(lambda, lambda_typical, bottleneck)`.
fn scheme_b_bottleneck(
    access_load: &[f64],
    service: &[f64],
    slots: usize,
    backbone_rate: f64,
) -> (f64, f64, Bottleneck) {
    let mut lambda = backbone_rate;
    let mut bottleneck = if lambda.is_finite() {
        Bottleneck::Backbone
    } else {
        Bottleneck::Unconstrained
    };
    let mut ratios = Vec::with_capacity(access_load.len());
    for (g, &load) in access_load.iter().enumerate() {
        if load == 0.0 {
            continue;
        }
        let rate = service[g] / slots as f64;
        let this = rate / load;
        ratios.push(this);
        if rate == 0.0 {
            lambda = 0.0;
            bottleneck = Bottleneck::Starved;
            continue;
        }
        if this < lambda {
            lambda = this;
            bottleneck = Bottleneck::Access(g);
        }
    }
    if lambda.is_infinite() {
        lambda = 0.0;
        bottleneck = Bottleneck::Unconstrained;
    }
    let lambda_typical = if ratios.is_empty() {
        lambda
    } else {
        median(&mut ratios).min(backbone_rate)
    };
    (lambda, lambda_typical, bottleneck)
}

/// Turns a run's totals into its report, the run-level probes and the
/// run-level metrics. A faulted scheme-B run re-classifies flows against
/// the durable (scripted) fault state: transient Bernoulli outages eat into
/// measured service, scripted deaths re-route the plan, and phase II
/// feasibility is the masked Theorem 5 rate over surviving wires.
fn finalize<S: MetricsSink>(
    plan: FluidPlan<'_>,
    t: &Totals,
    bandwidth: f64,
    timer: SpanTimer,
    obs: &mut Observer<S>,
) -> Result<DegradedFluidReport, HycapError> {
    let (acc, slots, k) = (&t.acc, t.slots, t.k);
    let (lambda, lambda_typical, bottleneck, infra_flows, fallback_flows, dead_groups) =
        match (plan, &t.faults) {
            (FluidPlan::A(plan), faults) => {
                let (lambda, typical, bottleneck) = scheme_a_bottleneck(plan, slots, &acc.service);
                if let Some((injector, tally)) = faults {
                    fault_tally_probe("fluid scheme A injector", k, injector, tally, obs);
                }
                (lambda, typical, bottleneck, plan.flow_count(), 0, 0)
            }
            (FluidPlan::B(plan), None) => {
                let backbone = Backbone::new(k, bandwidth);
                let backbone_rate = plan.backbone_load().max_uniform_rate(&backbone);
                let (lambda, typical, bottleneck) =
                    scheme_b_bottleneck(plan.access_load(), &acc.service, slots, backbone_rate);
                if let Some(probes) = obs.probes_mut() {
                    // Theorem 5 wire feasibility: at the granted rate, each
                    // group pair's backbone traffic fits its wires; λ never
                    // exceeds the backbone-feasible rate.
                    let load = plan.backbone_load();
                    for ((s, d), count) in load.flows() {
                        let wires = (load.group_size(s) * load.group_size(d)) as f64;
                        probes.rate_budget(
                            "scheme B backbone pair",
                            lambda * count,
                            backbone.edge_bandwidth() * wires,
                        );
                    }
                    if backbone_rate.is_finite() {
                        probes.rate_budget("scheme B lambda vs backbone", lambda, backbone_rate);
                    }
                }
                if backbone_rate.is_finite() && obs.sink.enabled() {
                    obs.sink
                        .observe("fluid.scheme_b.backbone_rate", backbone_rate);
                }
                (lambda, typical, bottleneck, plan.flows().len(), 0, 0)
            }
            (FluidPlan::B(plan), Some((injector, tally))) => {
                let scripted = injector.scripted_mask();
                let alive_bs: Vec<bool> = (0..k).map(|b| scripted.bs_alive(b)).collect();
                let degraded = plan.degrade(&alive_bs)?;
                let backbone = Backbone::new(k, bandwidth);
                let members: Vec<Vec<usize>> = (0..degraded.group_count())
                    .map(|g| degraded.alive_bs_members(g).to_vec())
                    .collect();
                let backbone_rate = degraded
                    .backbone_load()
                    .max_uniform_rate_masked(&backbone, scripted, &members)?;
                let (lambda, typical, bottleneck) =
                    scheme_b_bottleneck(degraded.access_load(), &acc.service, slots, backbone_rate);
                if let Some(probes) = obs.probes_mut() {
                    // Masked Theorem 5 feasibility: each surviving group
                    // pair's traffic at rate λ fits the *effective* wire
                    // bandwidth left by the durable fault state.
                    for ((s, d), count) in degraded.backbone_load().flows() {
                        let mut eff_wires = 0.0;
                        for &a in &members[s] {
                            for &b in &members[d] {
                                eff_wires += scripted.wire_factor(a, b);
                            }
                        }
                        probes.rate_budget(
                            "degraded scheme B backbone pair",
                            lambda * count,
                            bandwidth * eff_wires,
                        );
                    }
                    if backbone_rate.is_finite() {
                        probes.rate_budget(
                            "degraded scheme B lambda vs backbone",
                            lambda,
                            backbone_rate,
                        );
                    }
                }
                fault_tally_probe("fluid scheme B injector", k, injector, tally, obs);
                let fallback = degraded.fallback_flows().len();
                if obs.sink.enabled() {
                    obs.sink
                        .counter("fluid.scheme_b.fallback_flows", fallback as u64);
                }
                let (infra, dead) = (degraded.infra_flows().len(), degraded.dead_groups().len());
                (lambda, typical, bottleneck, infra, fallback, dead)
            }
        };
    let names = match plan {
        FluidPlan::A(_) => &SCHEME_A_METRICS,
        FluidPlan::B(_) => &SCHEME_B_METRICS,
    };
    if obs.sink.enabled() {
        if t.faults.is_some() {
            obs.sink.counter(names.faulted_runs, 1);
            obs.sink
                .counter(names.outage_slots, acc.outage_slots as u64);
        } else {
            obs.sink.counter(names.runs, 1);
            obs.sink.counter(names.slots, slots as u64);
            obs.sink.counter(names.credited, acc.credited);
            obs.sink.observe(names.lambda, lambda);
            obs.sink.observe(names.lambda_typical, lambda_typical);
            obs.sink.span(names.span, timer.elapsed_micros());
        }
    }
    if let Some(completed) = t.completed {
        obs.sink.counter(names.interrupted, 1);
        obs.sink.counter(names.completed_slots, completed);
    }
    Ok(DegradedFluidReport {
        base: FluidReport {
            lambda,
            lambda_typical,
            bottleneck,
            slots,
            scheduled_pairs_per_slot: acc.total_pairs as f64 / slots as f64,
        },
        k_alive_mean: match t.faults {
            Some(_) => acc.alive_sum as f64 / slots as f64,
            None => k as f64,
        },
        outage_slots: acc.outage_slots,
        infra_flows,
        fallback_flows,
        dead_groups,
        tally: t.faults.as_ref().map_or_else(FaultTally::default, |f| f.1),
    })
}

/// Fault-tally consistency of a run's end-of-run injector state.
fn fault_tally_probe<S: MetricsSink>(
    context: &'static str,
    k: usize,
    injector: &FaultInjector,
    tally: &FaultTally,
    obs: &mut Observer<S>,
) {
    if let Some(probes) = obs.probes_mut() {
        probes.fault_tally(
            context,
            k,
            injector.scripted_mask().alive_count(),
            injector.alive_count(),
            tally.bs_crashes + tally.bs_repairs,
            tally.bernoulli_bs_outages,
        );
    }
}

/// The run-level metric names of one scheme.
struct SchemeMetrics {
    runs: &'static str,
    slots: &'static str,
    credited: &'static str,
    lambda: &'static str,
    lambda_typical: &'static str,
    span: &'static str,
    faulted_runs: &'static str,
    outage_slots: &'static str,
    interrupted: &'static str,
    completed_slots: &'static str,
}

const SCHEME_A_METRICS: SchemeMetrics = SchemeMetrics {
    runs: "fluid.scheme_a.runs",
    slots: "fluid.scheme_a.slots",
    credited: "fluid.scheme_a.credited_contacts",
    lambda: "fluid.scheme_a.lambda",
    lambda_typical: "fluid.scheme_a.lambda_typical",
    span: "fluid.measure_scheme_a",
    faulted_runs: "fluid.scheme_a.faulted_runs",
    outage_slots: "fluid.scheme_a.outage_slots",
    interrupted: "fluid.scheme_a.interrupted",
    completed_slots: "fluid.scheme_a.completed_slots",
};

const SCHEME_B_METRICS: SchemeMetrics = SchemeMetrics {
    runs: "fluid.scheme_b.runs",
    slots: "fluid.scheme_b.slots",
    credited: "fluid.scheme_b.access_contacts",
    lambda: "fluid.scheme_b.lambda",
    lambda_typical: "fluid.scheme_b.lambda_typical",
    span: "fluid.measure_scheme_b",
    faulted_runs: "fluid.scheme_b.faulted_runs",
    outage_slots: "fluid.scheme_b.outage_slots",
    interrupted: "fluid.scheme_b.interrupted",
    completed_slots: "fluid.scheme_b.completed_slots",
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::BudgetExceeded;
    use hycap_infra::BaseStations;
    use hycap_mobility::{ClusteredModel, Kernel, MobilityKind, Population, PopulationConfig};
    use hycap_routing::TrafficMatrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn uniform_net(n: usize, seed: u64) -> (HybridNetwork, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = PopulationConfig::builder(n)
            .alpha(0.25)
            .clusters(ClusteredModel::uniform())
            .kernel(Kernel::uniform_disk(1.0))
            .mobility(MobilityKind::IidStationary)
            .build();
        let pop = Population::generate(&config, &mut rng);
        (HybridNetwork::ad_hoc(pop), rng)
    }

    /// A network of `n` MSs over a regular grid of 16 BSs, plus its scheme-B
    /// plan with 2×2 squarelets.
    fn hybrid_net(n: usize, seed: u64) -> (HybridNetwork, SchemeBPlan, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = PopulationConfig::builder(n)
            .alpha(0.25)
            .kernel(Kernel::uniform_disk(1.0))
            .build();
        let pop = Population::generate(&config, &mut rng);
        let bs = BaseStations::generate_regular(16, 1.0);
        let homes = pop.home_points().points().to_vec();
        let traffic = TrafficMatrix::permutation(n, &mut rng);
        let plan = SchemeBPlan::build(&homes, &traffic, &bs, 2);
        (HybridNetwork::with_infrastructure(pop, bs), plan, rng)
    }

    /// Runs `spec` unobserved and unwraps the complete report.
    fn measure(net: &HybridNetwork, plan: FluidPlan<'_>, spec: FluidRun<'_>) -> FluidReport {
        FluidEngine::default()
            .run(net, plan, spec, &mut Observer::noop())
            .unwrap()
            .into_complete("fluid test")
            .unwrap()
            .base
    }

    #[test]
    fn scheme_a_yields_positive_capacity() {
        let (net, mut rng) = uniform_net(600, 1);
        let f = (600f64).powf(0.25);
        let traffic = TrafficMatrix::permutation(600, &mut rng);
        let homes = net.population().home_points().points().to_vec();
        let plan = SchemeAPlan::build(&homes, &traffic, f);
        let report = measure(&net, FluidPlan::A(&plan), FluidRun::new(400, 1, None));
        assert!(
            report.lambda > 0.0,
            "lambda 0, bottleneck {:?}, pairs/slot {}",
            report.bottleneck,
            report.scheduled_pairs_per_slot
        );
        assert!(report.scheduled_pairs_per_slot > 1.0);
    }

    #[test]
    fn scheme_b_yields_positive_capacity() {
        let mut rng = StdRng::seed_from_u64(2);
        let config = PopulationConfig::builder(400)
            .alpha(0.25)
            .kernel(Kernel::uniform_disk(1.0))
            .build();
        let pop = Population::generate(&config, &mut rng);
        let bs = BaseStations::generate_regular(64, 1.0);
        let homes = pop.home_points().points().to_vec();
        let traffic = TrafficMatrix::permutation(400, &mut rng);
        let plan = SchemeBPlan::build(&homes, &traffic, &bs, 4);
        let net = HybridNetwork::with_infrastructure(pop, bs);
        let report = measure(&net, FluidPlan::B(&plan), FluidRun::new(400, 1, None));
        assert!(
            report.lambda > 0.0,
            "lambda 0, bottleneck {:?}",
            report.bottleneck
        );
    }

    #[test]
    fn scheme_b_backbone_limited_when_c_tiny() {
        let mut rng = StdRng::seed_from_u64(3);
        let config = PopulationConfig::builder(300)
            .alpha(0.25)
            .kernel(Kernel::uniform_disk(1.0))
            .build();
        let pop = Population::generate(&config, &mut rng);
        let bs = BaseStations::generate_regular(64, 1e-6);
        let homes = pop.home_points().points().to_vec();
        let traffic = TrafficMatrix::permutation(300, &mut rng);
        let plan = SchemeBPlan::build(&homes, &traffic, &bs, 4);
        let net = HybridNetwork::with_infrastructure(pop, bs);
        let report = measure(&net, FluidPlan::B(&plan), FluidRun::new(200, 1, None));
        assert_eq!(report.bottleneck, Bottleneck::Backbone);
        assert!(report.lambda > 0.0 && report.lambda < 1e-4);
    }

    #[test]
    fn budgeted_within_budget_is_bit_identical() {
        let (net, mut rng) = uniform_net(200, 21);
        let f = (200f64).powf(0.25);
        let traffic = TrafficMatrix::permutation(200, &mut rng);
        let homes = net.population().home_points().points().to_vec();
        let plan = SchemeAPlan::build(&homes, &traffic, f);
        let plain = measure(&net, FluidPlan::A(&plan), FluidRun::new(60, 9, None));
        let budgeted = FluidEngine::default()
            .run(
                &net,
                FluidPlan::A(&plan),
                FluidRun::new(60, 9, None).budget(RunBudget::unlimited()),
                &mut Observer::noop(),
            )
            .unwrap();
        assert!(budgeted.is_complete());
        let report = &budgeted.report().base;
        assert_eq!(report.lambda.to_bits(), plain.lambda.to_bits());
        assert_eq!(
            report.scheduled_pairs_per_slot.to_bits(),
            plain.scheduled_pairs_per_slot.to_bits()
        );
    }

    /// Counter (pooled or not) and streamed runs record on private sinks
    /// and fold them into the caller's: a timed caller keeps the run span's
    /// duration, an untimed one still reads 0.
    #[test]
    fn timed_sinks_keep_span_durations_of_every_sampling_mode() {
        let (net, mut rng) = uniform_net(300, 23);
        let traffic = TrafficMatrix::permutation(300, &mut rng);
        let homes = net.population().home_points().points().to_vec();
        let plan = SchemeAPlan::build(&homes, &traffic, (300f64).powf(0.25));
        let pool = WorkerPool::new(2);
        let specs = || {
            [
                FluidRun::new(40, 4, None),
                FluidRun::new(40, 4, Some(&pool)),
                FluidRun::streamed(40, 4, 64),
            ]
        };
        for timed in [false, true] {
            for spec in specs() {
                let mut obs = Observer::new(MemorySink::with_timings_when(timed));
                FluidEngine::default()
                    .run(&net, FluidPlan::A(&plan), spec, &mut obs)
                    .unwrap();
                let (_, span) = obs
                    .sink
                    .spans()
                    .find(|(name, _)| *name == "fluid.measure_scheme_a")
                    .expect("run span");
                assert_eq!(span.count, 1);
                assert_eq!(span.total_micros > 0, timed, "timed = {timed}");
            }
        }
    }

    #[test]
    fn static_schedule_memo_is_bit_identical() {
        // Static mobility engages the Level-2 schedule memo on every slot;
        // the run must be bit-identical to the memo-free engine, report and
        // observed snapshot alike, including under fault-driven mask churn.
        let mut rng = StdRng::seed_from_u64(77);
        let config = PopulationConfig::builder(220)
            .alpha(0.25)
            .kernel(Kernel::uniform_disk(1.0))
            .mobility(MobilityKind::Static)
            .build();
        let pop = Population::generate(&config, &mut rng);
        let bs = BaseStations::generate_regular(16, 1.0);
        let homes = pop.home_points().points().to_vec();
        let traffic = TrafficMatrix::permutation(220, &mut rng);
        let plan_a = SchemeAPlan::build(&homes, &traffic, (220f64).powf(0.25));
        let plan_b = SchemeBPlan::build(&homes, &traffic, &bs, 4);
        let net = HybridNetwork::with_infrastructure(pop, bs);
        assert!(net.positions_static());
        let on = FluidEngine::default();
        let off = FluidEngine {
            memoize: false,
            ..on
        };
        // Fault churn: scripted crash/repair plus per-slot Bernoulli
        // outage masks — the memo must invalidate on every transition.
        let schedule = FaultSchedule::empty()
            .crash_bs(10, 0)
            .repair_bs(40, 0)
            .with_bernoulli_bs_outage(0.2, 9);
        let observed = |engine: FluidEngine, plan, spec| {
            let mut obs = Observer::recording().with_probes();
            let report = engine.run(&net, plan, spec, &mut obs).unwrap();
            (report.report().clone(), obs.snapshot().to_json())
        };
        for (plan, slots, faults) in [
            (FluidPlan::A(&plan_a), 80, None),
            (FluidPlan::B(&plan_b), 60, Some(&schedule)),
        ] {
            let spec = || {
                let spec = FluidRun::new(slots, 5, None);
                match faults {
                    Some(schedule) => spec.faults(schedule, OutagePolicy::RadioOff),
                    None => spec,
                }
            };
            let (ra, sa) = observed(on, plan, spec());
            let (rb, sb) = observed(off, plan, spec());
            assert_eq!(ra.base.lambda.to_bits(), rb.base.lambda.to_bits());
            assert_eq!(
                ra.base.scheduled_pairs_per_slot.to_bits(),
                rb.base.scheduled_pairs_per_slot.to_bits()
            );
            assert_eq!(ra.tally, rb.tally);
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn budgeted_slot_cap_interrupts_with_partial_report() {
        let (net, mut rng) = uniform_net(200, 22);
        let f = (200f64).powf(0.25);
        let traffic = TrafficMatrix::permutation(200, &mut rng);
        let homes = net.population().home_points().points().to_vec();
        let plan = SchemeAPlan::build(&homes, &traffic, f);
        let budget = RunBudget::unlimited().with_max_slots(10);
        let mut obs = Observer::recording().with_probes();
        let outcome = FluidEngine::default()
            .run(
                &net,
                FluidPlan::A(&plan),
                FluidRun::new(100, 9, None).budget(budget),
                &mut obs,
            )
            .unwrap();
        let snap = obs.snapshot();
        let Budgeted::Interrupted {
            partial,
            completed_slots,
            requested_slots,
            exceeded,
        } = outcome
        else {
            panic!("slot cap of 10 on a 100-slot run must interrupt");
        };
        assert_eq!(completed_slots, 10);
        assert_eq!(requested_slots, 100);
        assert_eq!(exceeded, BudgetExceeded::Slots);
        // Partial report normalizes by the completed slots.
        assert_eq!(partial.base.slots, 10);
        assert_eq!(snap.counter("fluid.scheme_a.interrupted"), 1);
        assert_eq!(snap.counter("fluid.scheme_a.completed_slots"), 10);
        // The typed unwrap maps to exit code 4.
        let err = Budgeted::Interrupted {
            partial,
            completed_slots,
            requested_slots,
            exceeded,
        }
        .into_complete("fluid scheme A")
        .unwrap_err();
        assert_eq!(err.exit_code(), 4);
    }

    #[test]
    fn budgeted_faulted_run_normalizes_by_completed_slots() {
        let (net, plan, _) = hybrid_net(200, 24);
        let schedule = FaultSchedule::empty()
            .crash_bs(0, 0)
            .crash_bs(0, 1)
            .with_bernoulli_bs_outage(0.1, 3);
        let spec = FluidRun::new(50, 4, None)
            .faults(&schedule, OutagePolicy::RadioOff)
            .budget(RunBudget::unlimited().with_max_slots(20));
        let outcome = FluidEngine::default()
            .run(&net, FluidPlan::B(&plan), spec, &mut Observer::noop())
            .unwrap();
        let Budgeted::Interrupted {
            partial,
            completed_slots,
            ..
        } = outcome
        else {
            panic!("slot cap of 20 on a 50-slot run must interrupt");
        };
        assert_eq!(completed_slots, 20);
        assert_eq!(partial.base.slots, 20);
        assert_eq!(partial.outage_slots, 20);
        // Two scripted deaths every slot plus transient outages: the mean
        // over the 20 completed slots is at most k - 2.
        assert!(partial.k_alive_mean > 0.0 && partial.k_alive_mean <= 14.0);
        // The same 20 slots run unbudgeted give the same per-slot figures.
        let full = FluidEngine::default()
            .run(
                &net,
                FluidPlan::B(&plan),
                FluidRun::new(20, 4, None).faults(&schedule, OutagePolicy::RadioOff),
                &mut Observer::noop(),
            )
            .unwrap()
            .into_complete("fluid test")
            .unwrap();
        assert_eq!(partial, full);
    }

    #[test]
    fn scheme_b_budgeted_event_free_axes_complete() {
        let (net, plan, _) = hybrid_net(200, 23);
        let plain = measure(&net, FluidPlan::B(&plan), FluidRun::new(40, 3, None));
        let budgeted = FluidEngine::default()
            .run(
                &net,
                FluidPlan::B(&plan),
                FluidRun::new(40, 3, None).budget(RunBudget::unlimited().with_max_slots(40)),
                &mut Observer::noop(),
            )
            .unwrap();
        assert!(budgeted.is_complete(), "cap equal to slots must complete");
        assert_eq!(
            budgeted.report().base.lambda.to_bits(),
            plain.lambda.to_bits()
        );
    }

    #[test]
    fn engine_accessors() {
        let e = FluidEngine::new(1.0, 0.3);
        assert_eq!(e.delta(), 1.0);
        assert_eq!(e.c_t(), 0.3);
        assert!((e.range_for(900) - 0.01).abs() < 1e-12);
    }

    /// Runs `spec` and returns its error.
    fn run_err(net: &HybridNetwork, plan: FluidPlan<'_>, spec: FluidRun<'_>) -> HycapError {
        FluidEngine::default()
            .run(net, plan, spec, &mut Observer::noop())
            .unwrap_err()
    }

    #[test]
    fn scheme_b_requires_bs() {
        let (net, mut rng) = uniform_net(50, 5);
        let traffic = TrafficMatrix::permutation(50, &mut rng);
        let bs = BaseStations::generate_regular(4, 1.0);
        let homes = net.population().home_points().points().to_vec();
        let plan = SchemeBPlan::build(&homes, &traffic, &bs, 2);
        let err = run_err(&net, FluidPlan::B(&plan), FluidRun::new(10, 1, None));
        assert!(
            matches!(err, HycapError::MissingInfrastructure("scheme B")),
            "{err}"
        );
        assert_eq!(err.exit_code(), 3);
    }

    #[test]
    fn bad_range_override_is_a_typed_error() {
        let (net, mut rng) = uniform_net(50, 11);
        let traffic = TrafficMatrix::permutation(50, &mut rng);
        let homes = net.population().home_points().points().to_vec();
        let plan = SchemeAPlan::build(&homes, &traffic, 2.0);
        for range in [0.0, f64::NAN] {
            let err = FluidEngine::default()
                .with_range(range)
                .run(
                    &net,
                    FluidPlan::A(&plan),
                    FluidRun::new(5, 1, None),
                    &mut Observer::noop(),
                )
                .unwrap_err();
            assert!(
                matches!(err, HycapError::InvalidParameter { name: "range", .. }),
                "{range}: {err}"
            );
        }
    }

    #[test]
    fn zero_slots_rejected() {
        let (net, mut rng) = uniform_net(50, 6);
        let traffic = TrafficMatrix::permutation(50, &mut rng);
        let homes = net.population().home_points().points().to_vec();
        let plan = SchemeAPlan::build(&homes, &traffic, 2.0);
        let err = run_err(&net, FluidPlan::A(&plan), FluidRun::new(0, 1, None));
        assert!(
            matches!(err, HycapError::InvalidParameter { name: "slots", .. }),
            "{err}"
        );
    }

    #[test]
    fn scheme_a_plan_for_other_population_rejected() {
        let (net, mut rng) = uniform_net(50, 7);
        let (other, _) = uniform_net(60, 8);
        let traffic = TrafficMatrix::permutation(60, &mut rng);
        let homes = other.population().home_points().points().to_vec();
        let plan = SchemeAPlan::build(&homes, &traffic, 2.0);
        let err = run_err(&net, FluidPlan::A(&plan), FluidRun::new(5, 1, None));
        assert!(
            matches!(
                err,
                HycapError::Mismatch {
                    left: 60,
                    right: 50,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn scheme_b_plan_for_larger_population_rejected() {
        let (net, _, _) = hybrid_net(50, 9);
        let (_, plan, _) = hybrid_net(60, 10);
        let err = run_err(&net, FluidPlan::B(&plan), FluidRun::new(5, 1, None));
        assert!(
            matches!(err, HycapError::Mismatch { right: 50, .. }),
            "{err}"
        );
        let err = run_err(&net, FluidPlan::B(&plan), FluidRun::streamed(5, 1, 4));
        assert!(matches!(err, HycapError::Mismatch { .. }), "{err}");
    }
}
