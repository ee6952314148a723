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
//! Slot sampling runs in one of two modes. The classic `measure_*` entry
//! points draw mobility in slot order from a caller RNG and work for every
//! trajectory model. When the mobility is *counter-samplable* (i.i.d. or
//! static — see [`HybridNetwork::counter_samplable`]), any slot's snapshot
//! is a pure function of `(seed, slot)`, so the `measure_*_ctr` references
//! replay slots from per-slot counter streams and the `measure_*_par`
//! variants shard the slot loop across a persistent [`WorkerPool`] in
//! contiguous chunks. Every per-chunk accumulator holds integer-valued
//! counts (exactly representable in `f64`), chunks reduce in slot order,
//! and snapshots merge partition-independently — so reports and merged
//! metrics are bit-identical at 1, 2 and N threads and to the sequential
//! counter-based reference.

use crate::budget::{BudgetExceeded, BudgetMeter, Budgeted, RunBudget};
use crate::faults::{FaultInjector, FaultSchedule, FaultTally, OutagePolicy};
use crate::pool::{chunk_ranges, WorkerPool};
use crate::HybridNetwork;
use hycap_errors::HycapError;
use hycap_geom::{clamp_index_radius, Cell, Point, SquareGrid};
use hycap_infra::Backbone;
use hycap_obs::{MetricsSink, Observer, Snapshot, SpanTimer};
use hycap_routing::{edge_key, EdgeKey, SchemeAPlan, SchemeBPlan, TrafficMatrix, TwoHopPlan};
use hycap_wireless::{
    critical_range, schedule_memoized_observed, schedule_observed, schedule_prebuilt_observed,
    SStarScheduler, ScheduleMemo, ScheduledPair, Scheduler, SlotWorkspace,
};
use rand::Rng;
use std::collections::HashMap;
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

/// A fluid measurement taken under fault injection: the degraded capacity
/// plus per-cause accounting of what the faults did to the run.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedFluidReport {
    /// The degraded measurement itself. With an empty fault schedule this is
    /// bit-identical to the corresponding fault-free report.
    pub base: FluidReport,
    /// Mean alive-BS count over the sampled slots (`k` when nothing failed).
    pub k_alive_mean: f64,
    /// Slots during which at least one BS was down.
    pub outage_slots: usize,
    /// Scheme-B flows still riding the infrastructure at end of run
    /// (classified against the durable, scripted fault state). Equals the
    /// plan's flow count for scheme A or an empty schedule.
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

/// Two-hop relay (Grossglauser–Tse) measurement: per-flow rates are spread
/// out, so the report keeps distribution summaries rather than a single
/// bottleneck.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoHopReport {
    /// Mean per-flow rate `min(µ(s,r), µ(r,d))/2`.
    pub mean_rate: f64,
    /// 10th-percentile per-flow rate.
    pub p10_rate: f64,
    /// Number of flows measured.
    pub flows: usize,
    /// Slots sampled.
    pub slots: usize,
}

/// Internal result of the fluid fan-out cores: the report, the merged
/// snapshot when observing, and — when a run budget tripped — the
/// completed-slot count and the axis that tripped.
type FluidOutcome = (FluidReport, Option<Snapshot>, Option<(u64, BudgetExceeded)>);

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

    /// Disables the static-position schedule memo ([`ScheduleMemo`]).
    ///
    /// Memoization is on by default and bit-identical to recomputation (it
    /// only engages when [`HybridNetwork::positions_static`] holds, and
    /// invalidates on every alive-mask change); this switch exists so the
    /// cache bench can measure the speedup and *assert* that identity
    /// rather than trust it.
    pub fn without_schedule_memo(mut self) -> Self {
        self.memoize = false;
        self
    }

    /// Overrides the transmission range with an explicit value instead of
    /// the default `c_T/√n`.
    ///
    /// The override implements Table I's *optimal transmission range*
    /// column: `c_T/√n` is only optimal in uniformly dense networks
    /// (Theorem 2); the weak regime needs `Θ(r√(m/n))` — the inverse of the
    /// in-cluster node density — or the `S*` guard zones are never clear
    /// and every link starves (the `R_T` ablation bench quantifies this).
    ///
    /// # Panics
    ///
    /// Panics if `range` is not positive.
    pub fn with_range(mut self, range: f64) -> Self {
        assert!(
            range.is_finite() && range > 0.0,
            "range override must be positive, got {range}"
        );
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

    /// Measures scheme A: credits each scheduled MS–MS pair to the squarelet
    /// edge joining the pair's *home* squarelets (same or edge-adjacent),
    /// then bottlenecks against the plan's edge loads.
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0`.
    pub fn measure_scheme_a<R: Rng + ?Sized>(
        &self,
        net: &mut HybridNetwork,
        plan: &SchemeAPlan,
        slots: usize,
        rng: &mut R,
    ) -> FluidReport {
        self.measure_scheme_a_observed(net, plan, slots, rng, &mut Observer::noop())
    }

    /// [`FluidEngine::measure_scheme_a`] with an observer threaded through:
    /// per-slot schedule metrics and the feasibility probe via
    /// [`schedule_observed`], run-level metrics at the end. Observation
    /// never draws from `rng`, so the returned report is bit-identical for
    /// any observer (the conformance suite asserts this).
    pub fn measure_scheme_a_observed<R: Rng + ?Sized, S: MetricsSink>(
        &self,
        net: &mut HybridNetwork,
        plan: &SchemeAPlan,
        slots: usize,
        rng: &mut R,
        obs: &mut Observer<S>,
    ) -> FluidReport {
        assert!(slots > 0, "need at least one slot");
        let timer = SpanTimer::start();
        let acc = self.scheme_a_chunk(
            net,
            &HomeCells::of(plan),
            0..slots,
            |net, _slot, buf| net.advance_into(rng, buf),
            None,
            obs,
        );
        finalize_scheme_a(plan, slots, &acc, timer, obs)
    }

    /// Measures scheme B: credits each scheduled MS–BS pair to the BS's
    /// group when the MS is homed in that group (phases I/III happen inside
    /// a squarelet/cluster), then bottlenecks the access phases against
    /// `plan.access_load()` and phase II against the Theorem 5 wire
    /// feasibility.
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0` or the network has no base stations.
    pub fn measure_scheme_b<R: Rng + ?Sized>(
        &self,
        net: &mut HybridNetwork,
        plan: &SchemeBPlan,
        slots: usize,
        rng: &mut R,
    ) -> FluidReport {
        self.measure_scheme_b_observed(net, plan, slots, rng, &mut Observer::noop())
    }

    /// [`FluidEngine::measure_scheme_b`] with an observer threaded through:
    /// schedule metrics and the feasibility probe per slot, plus the
    /// backbone-budget probe (each group pair's granted rate must fit its
    /// `N_b(S)·N_b(D)` wires of bandwidth `c` — the Theorem 5 constraint).
    /// Observation never draws from `rng`, so reports are bit-identical for
    /// any observer.
    pub fn measure_scheme_b_observed<R: Rng + ?Sized, S: MetricsSink>(
        &self,
        net: &mut HybridNetwork,
        plan: &SchemeBPlan,
        slots: usize,
        rng: &mut R,
        obs: &mut Observer<S>,
    ) -> FluidReport {
        assert!(slots > 0, "need at least one slot");
        let timer = SpanTimer::start();
        let k = net.k();
        assert!(k > 0, "scheme B requires base stations");
        let bandwidth = net
            .base_stations()
            .expect("scheme B requires base stations")
            .bandwidth();
        let acc = self.scheme_b_chunk(
            net,
            &GroupMap::of(plan, net.n(), k),
            0..slots,
            |net, _slot, buf| net.advance_into(rng, buf),
            None,
            obs,
        );
        finalize_scheme_b(plan, slots, &acc, k, bandwidth, timer, obs)
    }

    /// Single-threaded counter-based reference for scheme A: every slot's
    /// positions come from the per-slot stream `SlotRng::new(seed, slot)`
    /// instead of an in-order RNG, so the result depends only on
    /// `(net, plan, slots, seed)`. [`FluidEngine::measure_scheme_a_par`]
    /// produces bit-identical reports at any thread count.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] when `slots == 0` or the network's
    /// mobility model is not counter-samplable (random-walk-style models
    /// must advance in slot order; use [`FluidEngine::measure_scheme_a`]).
    pub fn measure_scheme_a_ctr(
        &self,
        net: &HybridNetwork,
        plan: &SchemeAPlan,
        slots: usize,
        seed: u64,
    ) -> Result<FluidReport, HycapError> {
        Ok(self
            .scheme_a_par_impl(net, plan, slots, seed, None, false, None)?
            .0)
    }

    /// [`FluidEngine::measure_scheme_a_ctr`] with a recording observer:
    /// returns the report plus the `hycap-metrics/1` snapshot, the baseline
    /// the parallel variant's merged snapshot is compared against.
    ///
    /// # Errors
    ///
    /// As [`FluidEngine::measure_scheme_a_ctr`].
    pub fn measure_scheme_a_ctr_observed(
        &self,
        net: &HybridNetwork,
        plan: &SchemeAPlan,
        slots: usize,
        seed: u64,
    ) -> Result<(FluidReport, Snapshot), HycapError> {
        let (report, snap, _) = self.scheme_a_par_impl(net, plan, slots, seed, None, true, None)?;
        Ok((report, snap.expect("observed run yields a snapshot")))
    }

    /// Slot-sharded scheme A measurement on a [`WorkerPool`]: the slot range
    /// splits into contiguous chunks (one per pool thread), each worker
    /// rederives its slots from the counter-based stream, and the per-chunk
    /// accumulators reduce in slot order. The report is bit-identical to
    /// [`FluidEngine::measure_scheme_a_ctr`] for every pool size.
    ///
    /// # Errors
    ///
    /// As [`FluidEngine::measure_scheme_a_ctr`].
    pub fn measure_scheme_a_par(
        &self,
        net: &HybridNetwork,
        plan: &SchemeAPlan,
        slots: usize,
        seed: u64,
        pool: &WorkerPool,
    ) -> Result<FluidReport, HycapError> {
        Ok(self
            .scheme_a_par_impl(net, plan, slots, seed, Some(pool), false, None)?
            .0)
    }

    /// [`FluidEngine::measure_scheme_a_par`] with per-chunk recording
    /// observers whose snapshots merge in chunk (slot) order — byte-equal to
    /// the sequential reference snapshot for every pool size.
    ///
    /// # Errors
    ///
    /// As [`FluidEngine::measure_scheme_a_ctr`].
    pub fn measure_scheme_a_par_observed(
        &self,
        net: &HybridNetwork,
        plan: &SchemeAPlan,
        slots: usize,
        seed: u64,
        pool: &WorkerPool,
    ) -> Result<(FluidReport, Snapshot), HycapError> {
        let (report, snap, _) =
            self.scheme_a_par_impl(net, plan, slots, seed, Some(pool), true, None)?;
        Ok((report, snap.expect("observed run yields a snapshot")))
    }

    /// Single-threaded counter-based reference for scheme B; the
    /// counterpart of [`FluidEngine::measure_scheme_a_ctr`].
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] when `slots == 0` or the mobility is
    /// not counter-samplable; [`HycapError::MissingInfrastructure`] when the
    /// network has no base stations.
    pub fn measure_scheme_b_ctr(
        &self,
        net: &HybridNetwork,
        plan: &SchemeBPlan,
        slots: usize,
        seed: u64,
    ) -> Result<FluidReport, HycapError> {
        Ok(self
            .scheme_b_par_impl(net, plan, slots, seed, None, false, None)?
            .0)
    }

    /// [`FluidEngine::measure_scheme_b_ctr`] with a recording observer.
    ///
    /// # Errors
    ///
    /// As [`FluidEngine::measure_scheme_b_ctr`].
    pub fn measure_scheme_b_ctr_observed(
        &self,
        net: &HybridNetwork,
        plan: &SchemeBPlan,
        slots: usize,
        seed: u64,
    ) -> Result<(FluidReport, Snapshot), HycapError> {
        let (report, snap, _) = self.scheme_b_par_impl(net, plan, slots, seed, None, true, None)?;
        Ok((report, snap.expect("observed run yields a snapshot")))
    }

    /// Slot-sharded scheme B measurement on a [`WorkerPool`]; bit-identical
    /// to [`FluidEngine::measure_scheme_b_ctr`] for every pool size.
    ///
    /// # Errors
    ///
    /// As [`FluidEngine::measure_scheme_b_ctr`].
    pub fn measure_scheme_b_par(
        &self,
        net: &HybridNetwork,
        plan: &SchemeBPlan,
        slots: usize,
        seed: u64,
        pool: &WorkerPool,
    ) -> Result<FluidReport, HycapError> {
        Ok(self
            .scheme_b_par_impl(net, plan, slots, seed, Some(pool), false, None)?
            .0)
    }

    /// [`FluidEngine::measure_scheme_b_par`] with per-chunk recording
    /// observers merged in chunk order.
    ///
    /// # Errors
    ///
    /// As [`FluidEngine::measure_scheme_b_ctr`].
    pub fn measure_scheme_b_par_observed(
        &self,
        net: &HybridNetwork,
        plan: &SchemeBPlan,
        slots: usize,
        seed: u64,
        pool: &WorkerPool,
    ) -> Result<(FluidReport, Snapshot), HycapError> {
        let (report, snap, _) =
            self.scheme_b_par_impl(net, plan, slots, seed, Some(pool), true, None)?;
        Ok((report, snap.expect("observed run yields a snapshot")))
    }

    /// Counter-based scheme A measurement under a [`RunBudget`]: inline
    /// when `pool` is `None`, slot-sharded otherwise. Within budget the
    /// result is [`Budgeted::Complete`] and bit-identical to the
    /// unbudgeted entry points; an exhausted budget yields
    /// [`Budgeted::Interrupted`] carrying a best-effort partial report
    /// normalized over the slots that completed.
    ///
    /// # Errors
    ///
    /// As [`FluidEngine::measure_scheme_a_ctr`].
    pub fn measure_scheme_a_budgeted(
        &self,
        net: &HybridNetwork,
        plan: &SchemeAPlan,
        slots: usize,
        seed: u64,
        pool: Option<&WorkerPool>,
        budget: RunBudget,
    ) -> Result<Budgeted<FluidReport>, HycapError> {
        let (report, _, cut) =
            self.scheme_a_par_impl(net, plan, slots, seed, pool, false, Some(budget.meter()))?;
        Ok(budgeted_outcome(report, cut, slots))
    }

    /// [`FluidEngine::measure_scheme_a_budgeted`] with a recording
    /// observer. An interrupted run's snapshot carries the
    /// `fluid.scheme_a.interrupted` and `fluid.scheme_a.completed_slots`
    /// counters so downstream consumers can tell a partial report apart.
    ///
    /// # Errors
    ///
    /// As [`FluidEngine::measure_scheme_a_ctr`].
    pub fn measure_scheme_a_budgeted_observed(
        &self,
        net: &HybridNetwork,
        plan: &SchemeAPlan,
        slots: usize,
        seed: u64,
        pool: Option<&WorkerPool>,
        budget: RunBudget,
    ) -> Result<(Budgeted<FluidReport>, Snapshot), HycapError> {
        let (report, snap, cut) =
            self.scheme_a_par_impl(net, plan, slots, seed, pool, true, Some(budget.meter()))?;
        Ok((
            budgeted_outcome(report, cut, slots),
            snap.expect("observed run yields a snapshot"),
        ))
    }

    /// Counter-based scheme B measurement under a [`RunBudget`]; semantics
    /// as [`FluidEngine::measure_scheme_a_budgeted`].
    ///
    /// # Errors
    ///
    /// As [`FluidEngine::measure_scheme_b_ctr`].
    pub fn measure_scheme_b_budgeted(
        &self,
        net: &HybridNetwork,
        plan: &SchemeBPlan,
        slots: usize,
        seed: u64,
        pool: Option<&WorkerPool>,
        budget: RunBudget,
    ) -> Result<Budgeted<FluidReport>, HycapError> {
        let (report, _, cut) =
            self.scheme_b_par_impl(net, plan, slots, seed, pool, false, Some(budget.meter()))?;
        Ok(budgeted_outcome(report, cut, slots))
    }

    /// Counter-based sequential reference for scheme A under fault
    /// injection. Each chunkless run builds its own [`FaultInjector`] from
    /// `schedule`, so repeated calls are independent and reproducible.
    ///
    /// # Errors
    ///
    /// As [`FluidEngine::measure_scheme_a_ctr`], plus schedule validation
    /// errors from [`FaultInjector::new`].
    pub fn measure_scheme_a_with_faults_ctr(
        &self,
        net: &HybridNetwork,
        plan: &SchemeAPlan,
        slots: usize,
        schedule: &FaultSchedule,
        policy: OutagePolicy,
        seed: u64,
    ) -> Result<DegradedFluidReport, HycapError> {
        Ok(self
            .scheme_a_faulted_par_impl(net, plan, slots, schedule, policy, seed, None, false)?
            .0)
    }

    /// [`FluidEngine::measure_scheme_a_with_faults_ctr`] with a recording
    /// observer.
    ///
    /// # Errors
    ///
    /// As [`FluidEngine::measure_scheme_a_with_faults_ctr`].
    pub fn measure_scheme_a_with_faults_ctr_observed(
        &self,
        net: &HybridNetwork,
        plan: &SchemeAPlan,
        slots: usize,
        schedule: &FaultSchedule,
        policy: OutagePolicy,
        seed: u64,
    ) -> Result<(DegradedFluidReport, Snapshot), HycapError> {
        let (report, snap) =
            self.scheme_a_faulted_par_impl(net, plan, slots, schedule, policy, seed, None, true)?;
        Ok((report, snap.expect("observed run yields a snapshot")))
    }

    /// Slot-sharded faulted scheme A measurement, with per-chunk recording
    /// observers merged in chunk order. Each chunk worker replays the
    /// schedule with its own injector — [`FaultInjector::seek`] fast-
    /// forwards the durable state untallied, so summed per-chunk tallies
    /// reproduce the sequential tally exactly — and the merged report is
    /// bit-identical to [`FluidEngine::measure_scheme_a_with_faults_ctr`]
    /// for every pool size.
    ///
    /// # Errors
    ///
    /// As [`FluidEngine::measure_scheme_a_with_faults_ctr`].
    #[allow(clippy::too_many_arguments)]
    pub fn measure_scheme_a_with_faults_par_observed(
        &self,
        net: &HybridNetwork,
        plan: &SchemeAPlan,
        slots: usize,
        schedule: &FaultSchedule,
        policy: OutagePolicy,
        seed: u64,
        pool: &WorkerPool,
    ) -> Result<(DegradedFluidReport, Snapshot), HycapError> {
        let (report, snap) = self.scheme_a_faulted_par_impl(
            net,
            plan,
            slots,
            schedule,
            policy,
            seed,
            Some(pool),
            true,
        )?;
        Ok((report, snap.expect("observed run yields a snapshot")))
    }

    /// Counter-based sequential reference for scheme B under fault
    /// injection, with a recording observer; the counterpart of
    /// [`FluidEngine::measure_scheme_a_with_faults_ctr_observed`].
    ///
    /// # Errors
    ///
    /// As [`FluidEngine::measure_scheme_b_ctr`], plus schedule validation
    /// errors from [`FaultInjector::new`].
    pub fn measure_scheme_b_with_faults_ctr_observed(
        &self,
        net: &HybridNetwork,
        plan: &SchemeBPlan,
        slots: usize,
        schedule: &FaultSchedule,
        policy: OutagePolicy,
        seed: u64,
    ) -> Result<(DegradedFluidReport, Snapshot), HycapError> {
        let (report, snap) =
            self.scheme_b_faulted_par_impl(net, plan, slots, schedule, policy, seed, None, true)?;
        Ok((report, snap.expect("observed run yields a snapshot")))
    }

    /// Slot-sharded faulted scheme B measurement; for every pool size its
    /// report is bit-identical to the one of
    /// [`FluidEngine::measure_scheme_b_with_faults_ctr_observed`].
    ///
    /// # Errors
    ///
    /// As [`FluidEngine::measure_scheme_b_with_faults_ctr_observed`].
    #[allow(clippy::too_many_arguments)]
    pub fn measure_scheme_b_with_faults_par(
        &self,
        net: &HybridNetwork,
        plan: &SchemeBPlan,
        slots: usize,
        schedule: &FaultSchedule,
        policy: OutagePolicy,
        seed: u64,
        pool: &WorkerPool,
    ) -> Result<DegradedFluidReport, HycapError> {
        Ok(self
            .scheme_b_faulted_par_impl(net, plan, slots, schedule, policy, seed, Some(pool), false)?
            .0)
    }

    /// [`FluidEngine::measure_scheme_b_with_faults_par`] with per-chunk
    /// recording observers merged in chunk order.
    ///
    /// # Errors
    ///
    /// As [`FluidEngine::measure_scheme_b_with_faults_ctr_observed`].
    #[allow(clippy::too_many_arguments)]
    pub fn measure_scheme_b_with_faults_par_observed(
        &self,
        net: &HybridNetwork,
        plan: &SchemeBPlan,
        slots: usize,
        schedule: &FaultSchedule,
        policy: OutagePolicy,
        seed: u64,
        pool: &WorkerPool,
    ) -> Result<(DegradedFluidReport, Snapshot), HycapError> {
        let (report, snap) = self.scheme_b_faulted_par_impl(
            net,
            plan,
            slots,
            schedule,
            policy,
            seed,
            Some(pool),
            true,
        )?;
        Ok((report, snap.expect("observed run yields a snapshot")))
    }

    /// Measures scheme A under fault injection. Scheme A carries traffic on
    /// MS–MS contacts only, so base-station faults matter solely through the
    /// spectrum: under [`OutagePolicy::RadioOff`] a crashed BS's guard zone
    /// disappears and nearby mobile pairs may schedule *more* often, while
    /// under [`OutagePolicy::OccupySpectrum`] the schedule is unchanged.
    ///
    /// An empty schedule delegates to [`FluidEngine::measure_scheme_a`] and
    /// the `base` report is bit-identical to the fault-free measurement.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] when `slots == 0`;
    /// [`HycapError::Mismatch`] when the injector covers a different BS
    /// population than the network.
    pub fn measure_scheme_a_with_faults<R: Rng + ?Sized>(
        &self,
        net: &mut HybridNetwork,
        plan: &SchemeAPlan,
        slots: usize,
        injector: &mut FaultInjector,
        policy: OutagePolicy,
        rng: &mut R,
    ) -> Result<DegradedFluidReport, HycapError> {
        self.measure_scheme_a_with_faults_observed(
            net,
            plan,
            slots,
            injector,
            policy,
            rng,
            &mut Observer::noop(),
        )
    }

    /// [`FluidEngine::measure_scheme_a_with_faults`] with an observer
    /// threaded through; additionally runs the fault-tally consistency
    /// probe against the injector's end-of-run state.
    #[allow(clippy::too_many_arguments)]
    pub fn measure_scheme_a_with_faults_observed<R: Rng + ?Sized, S: MetricsSink>(
        &self,
        net: &mut HybridNetwork,
        plan: &SchemeAPlan,
        slots: usize,
        injector: &mut FaultInjector,
        policy: OutagePolicy,
        rng: &mut R,
        obs: &mut Observer<S>,
    ) -> Result<DegradedFluidReport, HycapError> {
        if slots == 0 {
            return Err(HycapError::invalid("slots", "need at least one slot"));
        }
        let k = net.k();
        if injector.k() != k {
            return Err(HycapError::Mismatch {
                what: "fault injector and network base-station count",
                left: injector.k(),
                right: k,
            });
        }
        let flows = plan.flow_count();
        if injector.schedule_is_empty() {
            return Ok(DegradedFluidReport {
                base: self.measure_scheme_a_observed(net, plan, slots, rng, obs),
                k_alive_mean: k as f64,
                outage_slots: 0,
                infra_flows: flows,
                fallback_flows: 0,
                dead_groups: 0,
                tally: injector.tally(),
            });
        }
        let acc = self.scheme_a_chunk_impl(
            net,
            &HomeCells::of(plan),
            0..slots,
            |net, _slot, buf| net.advance_into(rng, buf),
            Some((&mut *injector, policy)),
            None,
            obs,
        );
        let tally = injector.tally();
        Ok(finalize_scheme_a_faulted(
            plan, slots, &acc, flows, k, injector, tally, obs,
        ))
    }

    /// Measures scheme B under fault injection with graceful degradation:
    /// access service is credited only to contacts with BSs alive in that
    /// slot, flows are re-classified against the durable (scripted) fault
    /// state via [`SchemeBPlan::degrade`] — flows touching a fully-dead BS
    /// group fall off the infrastructure — and phase II feasibility is the
    /// masked Theorem 5 rate over surviving wires, i.e. `k → k_alive`.
    ///
    /// An empty schedule delegates to [`FluidEngine::measure_scheme_b`] and
    /// the `base` report is bit-identical to the fault-free measurement.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] when `slots == 0`;
    /// [`HycapError::MissingInfrastructure`] when the network has no base
    /// stations; [`HycapError::Mismatch`] when the injector covers a
    /// different BS population than the network.
    pub fn measure_scheme_b_with_faults<R: Rng + ?Sized>(
        &self,
        net: &mut HybridNetwork,
        plan: &SchemeBPlan,
        slots: usize,
        injector: &mut FaultInjector,
        policy: OutagePolicy,
        rng: &mut R,
    ) -> Result<DegradedFluidReport, HycapError> {
        self.measure_scheme_b_with_faults_observed(
            net,
            plan,
            slots,
            injector,
            policy,
            rng,
            &mut Observer::noop(),
        )
    }

    /// [`FluidEngine::measure_scheme_b_with_faults`] with an observer
    /// threaded through: schedule metrics and the feasibility probe per
    /// slot (against the same alive mask the scheduler saw), the masked
    /// backbone-budget probe over surviving wires, and the fault-tally
    /// consistency probe.
    #[allow(clippy::too_many_arguments)]
    pub fn measure_scheme_b_with_faults_observed<R: Rng + ?Sized, S: MetricsSink>(
        &self,
        net: &mut HybridNetwork,
        plan: &SchemeBPlan,
        slots: usize,
        injector: &mut FaultInjector,
        policy: OutagePolicy,
        rng: &mut R,
        obs: &mut Observer<S>,
    ) -> Result<DegradedFluidReport, HycapError> {
        if slots == 0 {
            return Err(HycapError::invalid("slots", "need at least one slot"));
        }
        let k = net.k();
        let Some(bs) = net.base_stations() else {
            return Err(HycapError::MissingInfrastructure("scheme B"));
        };
        let bandwidth = bs.bandwidth();
        if injector.k() != k {
            return Err(HycapError::Mismatch {
                what: "fault injector and network base-station count",
                left: injector.k(),
                right: k,
            });
        }
        if injector.schedule_is_empty() {
            return Ok(DegradedFluidReport {
                base: self.measure_scheme_b_observed(net, plan, slots, rng, obs),
                k_alive_mean: k as f64,
                outage_slots: 0,
                infra_flows: plan.flows().len(),
                fallback_flows: 0,
                dead_groups: 0,
                tally: injector.tally(),
            });
        }
        let acc = self.scheme_b_chunk_impl(
            net,
            &GroupMap::of(plan, net.n(), k),
            0..slots,
            |net, _slot, buf| net.advance_into(rng, buf),
            Some((&mut *injector, policy)),
            None,
            obs,
        );
        let tally = injector.tally();
        finalize_scheme_b_faulted(plan, slots, &acc, k, bandwidth, injector, tally, obs)
    }

    /// Measures the two-hop relay baseline: per-flow rate is the minimum of
    /// the two hop link capacities, halved for the relay's receive/send
    /// split.
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0`.
    pub fn measure_two_hop<R: Rng + ?Sized>(
        &self,
        net: &mut HybridNetwork,
        plan: &TwoHopPlan,
        traffic: &TrafficMatrix,
        slots: usize,
        rng: &mut R,
    ) -> TwoHopReport {
        assert!(slots > 0, "need at least one slot");
        let n = net.n();
        let range = self.range_for(n);
        let scheduler = SStarScheduler::new(self.delta);
        // hop -> flow ids listening on it.
        let mut hop_index: HashMap<(usize, usize), Vec<(usize, usize)>> = HashMap::new();
        for (s, d) in traffic.pairs() {
            let r = plan.relay_of(s);
            let h1 = if s < r { (s, r) } else { (r, s) };
            let h2 = if r < d { (r, d) } else { (d, r) };
            hop_index.entry(h1).or_default().push((s, 0));
            hop_index.entry(h2).or_default().push((s, 1));
        }
        let mut hop_counts: HashMap<usize, [f64; 2]> = HashMap::new();
        let mut buf = Vec::new();
        let mut ws = SlotWorkspace::new();
        let mut pairs: Vec<ScheduledPair> = Vec::new();
        for _ in 0..slots {
            net.advance_into(rng, &mut buf);
            scheduler.schedule_into(&buf, range, &mut ws, &mut pairs);
            for &pair in &pairs {
                if pair.a >= n || pair.b >= n {
                    continue;
                }
                if let Some(watchers) = hop_index.get(&(pair.a, pair.b)) {
                    for &(flow, hop) in watchers {
                        hop_counts.entry(flow).or_insert([0.0; 2])[hop] += 1.0;
                    }
                }
            }
        }
        let mut rates: Vec<f64> = traffic
            .pairs()
            .map(|(s, _)| {
                let counts = hop_counts.get(&s).copied().unwrap_or([0.0; 2]);
                0.5 * counts[0].min(counts[1]) / slots as f64
            })
            .collect();
        rates.sort_by(f64::total_cmp);
        let mean = rates.iter().sum::<f64>() / rates.len() as f64;
        let p10 = rates[rates.len() / 10];
        TwoHopReport {
            mean_rate: mean,
            p10_rate: p10,
            flows: rates.len(),
            slots,
        }
    }

    /// Fault-free scheme A slot loop over one contiguous chunk. The
    /// sequential entry points run it once over `0..slots`; the sharded
    /// ones run it per chunk and reduce the accumulators in slot order.
    fn scheme_a_chunk<S, F>(
        &self,
        net: &mut HybridNetwork,
        cells: &HomeCells,
        slots: Range<usize>,
        advance: F,
        budget: Option<&BudgetMeter>,
        obs: &mut Observer<S>,
    ) -> SchemeAAcc
    where
        S: MetricsSink,
        F: FnMut(&mut HybridNetwork, usize, &mut Vec<Point>),
    {
        self.scheme_a_chunk_impl(net, cells, slots, advance, None, budget, obs)
    }

    #[allow(clippy::too_many_arguments)]
    fn scheme_a_chunk_impl<S, F>(
        &self,
        net: &mut HybridNetwork,
        cells: &HomeCells,
        slots: Range<usize>,
        mut advance: F,
        mut faults: Option<(&mut FaultInjector, OutagePolicy)>,
        budget: Option<&BudgetMeter>,
        obs: &mut Observer<S>,
    ) -> SchemeAAcc
    where
        S: MetricsSink,
        F: FnMut(&mut HybridNetwork, usize, &mut Vec<Point>),
    {
        let n = net.n();
        let k = net.k();
        let range = self.range_for(n);
        let scheduler = SStarScheduler::new(self.delta);
        cells.check_nodes(n);
        let mut acc = SchemeAAcc::default();
        let mut buf = Vec::new();
        let mut alive = Vec::new();
        let mut ws = SlotWorkspace::new();
        let mut pairs: Vec<ScheduledPair> = Vec::new();
        // Sound only over frozen positions; the memo re-checks the alive
        // mask itself, so fault transitions invalidate it per slot.
        let mut memo = (self.memoize && net.positions_static()).then(ScheduleMemo::new);
        for slot in slots {
            if let Some(meter) = budget {
                if !meter.charge_slot() {
                    break;
                }
            }
            let masked = if let Some((injector, policy)) = faults.as_mut() {
                injector.advance_to(slot);
                injector.fill_alive(n, *policy, &mut alive);
                let alive_now = injector.alive_count();
                acc.alive_sum += alive_now;
                if alive_now < k {
                    acc.outage_slots += 1;
                }
                true
            } else {
                false
            };
            advance(net, slot, &mut buf);
            match memo.as_mut() {
                Some(memo) => schedule_memoized_observed(
                    memo,
                    &scheduler,
                    &buf,
                    range,
                    masked.then_some(alive.as_slice()),
                    slot as u64,
                    &mut ws,
                    &mut pairs,
                    obs,
                ),
                None => schedule_observed(
                    &scheduler,
                    &buf,
                    range,
                    masked.then_some(alive.as_slice()),
                    slot as u64,
                    &mut ws,
                    &mut pairs,
                    obs,
                ),
            }
            acc.total_pairs += pairs.len();
            for &pair in &pairs {
                if pair.a >= n || pair.b >= n {
                    continue; // MS–BS contacts do not serve scheme A
                }
                let (ca, cb) = (cells.of_node(pair.a), cells.of_node(pair.b));
                if ca == cb || cells.grid.manhattan(ca, cb) == 1 {
                    *acc.service.entry(edge_key(ca, cb)).or_insert(0.0) += 1.0;
                    acc.credited += 1;
                }
            }
            acc.slots_done += 1;
        }
        acc
    }

    /// Fault-free scheme B slot loop over one contiguous chunk.
    fn scheme_b_chunk<S, F>(
        &self,
        net: &mut HybridNetwork,
        groups: &GroupMap,
        slots: Range<usize>,
        advance: F,
        budget: Option<&BudgetMeter>,
        obs: &mut Observer<S>,
    ) -> SchemeBAcc
    where
        S: MetricsSink,
        F: FnMut(&mut HybridNetwork, usize, &mut Vec<Point>),
    {
        self.scheme_b_chunk_impl(net, groups, slots, advance, None, budget, obs)
    }

    #[allow(clippy::too_many_arguments)]
    fn scheme_b_chunk_impl<S, F>(
        &self,
        net: &mut HybridNetwork,
        groups: &GroupMap,
        slots: Range<usize>,
        mut advance: F,
        mut faults: Option<(&mut FaultInjector, OutagePolicy)>,
        budget: Option<&BudgetMeter>,
        obs: &mut Observer<S>,
    ) -> SchemeBAcc
    where
        S: MetricsSink,
        F: FnMut(&mut HybridNetwork, usize, &mut Vec<Point>),
    {
        let n = net.n();
        let k = net.k();
        let range = self.range_for(n);
        let scheduler = SStarScheduler::new(self.delta);
        let mut acc = SchemeBAcc::new(groups.count);
        let mut buf = Vec::new();
        let mut alive = Vec::new();
        let mut ws = SlotWorkspace::new();
        let mut pairs: Vec<ScheduledPair> = Vec::new();
        // Sound only over frozen positions; the memo re-checks the alive
        // mask itself, so fault transitions invalidate it per slot.
        let mut memo = (self.memoize && net.positions_static()).then(ScheduleMemo::new);
        for slot in slots {
            if let Some(meter) = budget {
                if !meter.charge_slot() {
                    break;
                }
            }
            let masked = if let Some((injector, policy)) = faults.as_mut() {
                injector.advance_to(slot);
                injector.fill_alive(n, *policy, &mut alive);
                let alive_now = injector.alive_count();
                acc.alive_sum += alive_now;
                if alive_now < k {
                    acc.outage_slots += 1;
                }
                true
            } else {
                false
            };
            advance(net, slot, &mut buf);
            match memo.as_mut() {
                Some(memo) => schedule_memoized_observed(
                    memo,
                    &scheduler,
                    &buf,
                    range,
                    masked.then_some(alive.as_slice()),
                    slot as u64,
                    &mut ws,
                    &mut pairs,
                    obs,
                ),
                None => schedule_observed(
                    &scheduler,
                    &buf,
                    range,
                    masked.then_some(alive.as_slice()),
                    slot as u64,
                    &mut ws,
                    &mut pairs,
                    obs,
                ),
            }
            acc.total_pairs += pairs.len();
            for &pair in &pairs {
                // Classify MS–BS contacts.
                let (ms, bs_id) = if pair.a < n && pair.b >= n {
                    (pair.a, pair.b - n)
                } else if pair.b < n && pair.a >= n {
                    (pair.b, pair.a - n)
                } else {
                    continue;
                };
                // Under OccupySpectrum a dead BS can still be scheduled; it
                // serves nothing. Under RadioOff it is never scheduled.
                if let Some((injector, _)) = faults.as_ref() {
                    if !injector.mask().bs_alive(bs_id) {
                        continue;
                    }
                }
                let g = groups.bs[bs_id];
                if g != usize::MAX && groups.ms[ms] == g {
                    acc.service[g] += 1.0;
                    acc.access_contacts += 1;
                }
            }
            acc.slots_done += 1;
        }
        acc
    }

    /// Fan-out core shared by the `_ctr` (no pool: one inline chunk) and
    /// `_par` (chunk per pool thread) scheme A entry points, plus the
    /// budgeted variants (which arm `meter`). The third tuple element is
    /// `Some((completed_slots, axis))` when the budget cut the run short;
    /// the report is then a best-effort estimate over the completed slots.
    #[allow(clippy::too_many_arguments)]
    fn scheme_a_par_impl(
        &self,
        net: &HybridNetwork,
        plan: &SchemeAPlan,
        slots: usize,
        seed: u64,
        pool: Option<&WorkerPool>,
        observe: bool,
        meter: Option<BudgetMeter>,
    ) -> Result<FluidOutcome, HycapError> {
        check_counter_run(net, slots)?;
        let timer = SpanTimer::start();
        let engine = *self;
        let cells = HomeCells::of(plan);
        let jobs: Vec<_> = chunk_ranges(slots, pool.map_or(1, WorkerPool::threads))
            .into_iter()
            .map(|range| {
                let mut net = net.clone();
                let cells = cells.clone();
                let meter = meter.clone();
                move || {
                    let advance = |net: &mut HybridNetwork, slot: usize, buf: &mut Vec<Point>| {
                        net.advance_slot_into(seed, slot as u64, buf)
                    };
                    if observe {
                        let mut obs = Observer::recording().with_probes();
                        let acc = engine.scheme_a_chunk(
                            &mut net,
                            &cells,
                            range,
                            advance,
                            meter.as_ref(),
                            &mut obs,
                        );
                        (acc, Some(obs.snapshot()))
                    } else {
                        let acc = engine.scheme_a_chunk(
                            &mut net,
                            &cells,
                            range,
                            advance,
                            meter.as_ref(),
                            &mut Observer::noop(),
                        );
                        (acc, None)
                    }
                }
            })
            .collect();
        let results = match pool {
            Some(pool) => pool.run(jobs),
            None => jobs.into_iter().map(|job| job()).collect(),
        };
        let mut acc = SchemeAAcc::default();
        let mut merged = observe.then(Snapshot::default);
        for (chunk_acc, snap) in results {
            acc.absorb(chunk_acc);
            if let (Some(m), Some(s)) = (merged.as_mut(), snap.as_ref()) {
                m.merge(s);
            }
        }
        let cut = meter
            .as_ref()
            .and_then(|m| m.exceeded().map(|e| (acc.slots_done, e)));
        // A partial report normalizes by the slots that actually ran, so
        // its per-slot rates stay meaningful estimates.
        let effective = if cut.is_some() {
            acc.slots_done.max(1) as usize
        } else {
            slots
        };
        if observe {
            let mut obs = Observer::recording().with_probes();
            let report = finalize_scheme_a(plan, effective, &acc, timer, &mut obs);
            if let Some((completed, _)) = cut {
                obs.sink.counter("fluid.scheme_a.interrupted", 1);
                obs.sink
                    .counter("fluid.scheme_a.completed_slots", completed);
            }
            let mut snap = merged.expect("observed run collects snapshots");
            snap.merge(&obs.snapshot());
            Ok((report, Some(snap), cut))
        } else {
            Ok((
                finalize_scheme_a(plan, effective, &acc, timer, &mut Observer::noop()),
                None,
                cut,
            ))
        }
    }

    /// Fan-out core shared by the `_ctr`, `_par` and budgeted scheme B
    /// entry points; interruption semantics as [`FluidEngine::scheme_a_par_impl`].
    #[allow(clippy::too_many_arguments)]
    fn scheme_b_par_impl(
        &self,
        net: &HybridNetwork,
        plan: &SchemeBPlan,
        slots: usize,
        seed: u64,
        pool: Option<&WorkerPool>,
        observe: bool,
        meter: Option<BudgetMeter>,
    ) -> Result<FluidOutcome, HycapError> {
        check_counter_run(net, slots)?;
        let Some(bs) = net.base_stations() else {
            return Err(HycapError::MissingInfrastructure("scheme B"));
        };
        let k = net.k();
        let bandwidth = bs.bandwidth();
        let timer = SpanTimer::start();
        let engine = *self;
        let groups = Arc::new(GroupMap::of(plan, net.n(), k));
        let jobs: Vec<_> = chunk_ranges(slots, pool.map_or(1, WorkerPool::threads))
            .into_iter()
            .map(|range| {
                let mut net = net.clone();
                let groups = Arc::clone(&groups);
                let meter = meter.clone();
                move || {
                    let advance = |net: &mut HybridNetwork, slot: usize, buf: &mut Vec<Point>| {
                        net.advance_slot_into(seed, slot as u64, buf)
                    };
                    if observe {
                        let mut obs = Observer::recording().with_probes();
                        let acc = engine.scheme_b_chunk(
                            &mut net,
                            &groups,
                            range,
                            advance,
                            meter.as_ref(),
                            &mut obs,
                        );
                        (acc, Some(obs.snapshot()))
                    } else {
                        let acc = engine.scheme_b_chunk(
                            &mut net,
                            &groups,
                            range,
                            advance,
                            meter.as_ref(),
                            &mut Observer::noop(),
                        );
                        (acc, None)
                    }
                }
            })
            .collect();
        let results = match pool {
            Some(pool) => pool.run(jobs),
            None => jobs.into_iter().map(|job| job()).collect(),
        };
        let mut acc = SchemeBAcc::new(plan.group_count());
        let mut merged = observe.then(Snapshot::default);
        for (chunk_acc, snap) in results {
            acc.absorb(chunk_acc);
            if let (Some(m), Some(s)) = (merged.as_mut(), snap.as_ref()) {
                m.merge(s);
            }
        }
        let cut = meter
            .as_ref()
            .and_then(|m| m.exceeded().map(|e| (acc.slots_done, e)));
        let effective = if cut.is_some() {
            acc.slots_done.max(1) as usize
        } else {
            slots
        };
        if observe {
            let mut obs = Observer::recording().with_probes();
            let report = finalize_scheme_b(plan, effective, &acc, k, bandwidth, timer, &mut obs);
            if let Some((completed, _)) = cut {
                obs.sink.counter("fluid.scheme_b.interrupted", 1);
                obs.sink
                    .counter("fluid.scheme_b.completed_slots", completed);
            }
            let mut snap = merged.expect("observed run collects snapshots");
            snap.merge(&obs.snapshot());
            Ok((report, Some(snap), cut))
        } else {
            Ok((
                finalize_scheme_b(
                    plan,
                    effective,
                    &acc,
                    k,
                    bandwidth,
                    timer,
                    &mut Observer::noop(),
                ),
                None,
                cut,
            ))
        }
    }

    /// Fan-out core for faulted scheme A: each chunk replays the schedule
    /// with its own injector ([`FaultInjector::seek`] to the chunk start,
    /// then tallied `advance_to` per slot), tallies absorb in chunk order,
    /// and the last chunk's injector carries the end-of-run fault state for
    /// classification.
    #[allow(clippy::too_many_arguments)]
    fn scheme_a_faulted_par_impl(
        &self,
        net: &HybridNetwork,
        plan: &SchemeAPlan,
        slots: usize,
        schedule: &FaultSchedule,
        policy: OutagePolicy,
        seed: u64,
        pool: Option<&WorkerPool>,
        observe: bool,
    ) -> Result<(DegradedFluidReport, Option<Snapshot>), HycapError> {
        check_counter_run(net, slots)?;
        let k = net.k();
        FaultInjector::new(k, schedule)?;
        if schedule.is_empty() {
            // Mirror the sequential empty-schedule delegation: the base
            // report is bit-identical to the fault-free measurement.
            let (base, snap, _) =
                self.scheme_a_par_impl(net, plan, slots, seed, pool, observe, None)?;
            return Ok((
                DegradedFluidReport {
                    base,
                    k_alive_mean: k as f64,
                    outage_slots: 0,
                    infra_flows: plan.flow_count(),
                    fallback_flows: 0,
                    dead_groups: 0,
                    tally: FaultTally::default(),
                },
                snap,
            ));
        }
        let engine = *self;
        let cells = HomeCells::of(plan);
        let schedule_arc = Arc::new(schedule.clone());
        let jobs: Vec<_> = chunk_ranges(slots, pool.map_or(1, WorkerPool::threads))
            .into_iter()
            .map(|range| {
                let mut net = net.clone();
                let cells = cells.clone();
                let schedule = Arc::clone(&schedule_arc);
                move || {
                    let mut injector = FaultInjector::new(k, &schedule)
                        .expect("schedule validated before dispatch");
                    injector.seek(range.start);
                    let advance = |net: &mut HybridNetwork, slot: usize, buf: &mut Vec<Point>| {
                        net.advance_slot_into(seed, slot as u64, buf)
                    };
                    if observe {
                        let mut obs = Observer::recording().with_probes();
                        let acc = engine.scheme_a_chunk_impl(
                            &mut net,
                            &cells,
                            range,
                            advance,
                            Some((&mut injector, policy)),
                            None,
                            &mut obs,
                        );
                        (acc, injector, Some(obs.snapshot()))
                    } else {
                        let acc = engine.scheme_a_chunk_impl(
                            &mut net,
                            &cells,
                            range,
                            advance,
                            Some((&mut injector, policy)),
                            None,
                            &mut Observer::noop(),
                        );
                        (acc, injector, None)
                    }
                }
            })
            .collect();
        let results = match pool {
            Some(pool) => pool.run(jobs),
            None => jobs.into_iter().map(|job| job()).collect(),
        };
        let mut acc = SchemeAAcc::default();
        let mut tally = FaultTally::default();
        let mut merged = observe.then(Snapshot::default);
        let mut end_injector = None;
        for (chunk_acc, injector, snap) in results {
            acc.absorb(chunk_acc);
            tally.absorb(&injector.tally());
            if let (Some(m), Some(s)) = (merged.as_mut(), snap.as_ref()) {
                m.merge(s);
            }
            end_injector = Some(injector);
        }
        let end_injector = end_injector.expect("slots >= 1 yields at least one chunk");
        let flows = plan.flow_count();
        if observe {
            let mut obs = Observer::recording().with_probes();
            let report = finalize_scheme_a_faulted(
                plan,
                slots,
                &acc,
                flows,
                k,
                &end_injector,
                tally,
                &mut obs,
            );
            let mut snap = merged.expect("observed run collects snapshots");
            snap.merge(&obs.snapshot());
            Ok((report, Some(snap)))
        } else {
            Ok((
                finalize_scheme_a_faulted(
                    plan,
                    slots,
                    &acc,
                    flows,
                    k,
                    &end_injector,
                    tally,
                    &mut Observer::noop(),
                ),
                None,
            ))
        }
    }

    /// Fan-out core for faulted scheme B; the scheme B counterpart of
    /// [`FluidEngine::scheme_a_faulted_par_impl`].
    #[allow(clippy::too_many_arguments)]
    fn scheme_b_faulted_par_impl(
        &self,
        net: &HybridNetwork,
        plan: &SchemeBPlan,
        slots: usize,
        schedule: &FaultSchedule,
        policy: OutagePolicy,
        seed: u64,
        pool: Option<&WorkerPool>,
        observe: bool,
    ) -> Result<(DegradedFluidReport, Option<Snapshot>), HycapError> {
        check_counter_run(net, slots)?;
        let Some(bs) = net.base_stations() else {
            return Err(HycapError::MissingInfrastructure("scheme B"));
        };
        let k = net.k();
        let bandwidth = bs.bandwidth();
        FaultInjector::new(k, schedule)?;
        if schedule.is_empty() {
            let (base, snap, _) =
                self.scheme_b_par_impl(net, plan, slots, seed, pool, observe, None)?;
            return Ok((
                DegradedFluidReport {
                    base,
                    k_alive_mean: k as f64,
                    outage_slots: 0,
                    infra_flows: plan.flows().len(),
                    fallback_flows: 0,
                    dead_groups: 0,
                    tally: FaultTally::default(),
                },
                snap,
            ));
        }
        let engine = *self;
        let groups = Arc::new(GroupMap::of(plan, net.n(), k));
        let schedule_arc = Arc::new(schedule.clone());
        let jobs: Vec<_> = chunk_ranges(slots, pool.map_or(1, WorkerPool::threads))
            .into_iter()
            .map(|range| {
                let mut net = net.clone();
                let groups = Arc::clone(&groups);
                let schedule = Arc::clone(&schedule_arc);
                move || {
                    let mut injector = FaultInjector::new(k, &schedule)
                        .expect("schedule validated before dispatch");
                    injector.seek(range.start);
                    let advance = |net: &mut HybridNetwork, slot: usize, buf: &mut Vec<Point>| {
                        net.advance_slot_into(seed, slot as u64, buf)
                    };
                    if observe {
                        let mut obs = Observer::recording().with_probes();
                        let acc = engine.scheme_b_chunk_impl(
                            &mut net,
                            &groups,
                            range,
                            advance,
                            Some((&mut injector, policy)),
                            None,
                            &mut obs,
                        );
                        (acc, injector, Some(obs.snapshot()))
                    } else {
                        let acc = engine.scheme_b_chunk_impl(
                            &mut net,
                            &groups,
                            range,
                            advance,
                            Some((&mut injector, policy)),
                            None,
                            &mut Observer::noop(),
                        );
                        (acc, injector, None)
                    }
                }
            })
            .collect();
        let results = match pool {
            Some(pool) => pool.run(jobs),
            None => jobs.into_iter().map(|job| job()).collect(),
        };
        let mut acc = SchemeBAcc::new(plan.group_count());
        let mut tally = FaultTally::default();
        let mut merged = observe.then(Snapshot::default);
        let mut end_injector = None;
        for (chunk_acc, injector, snap) in results {
            acc.absorb(chunk_acc);
            tally.absorb(&injector.tally());
            if let (Some(m), Some(s)) = (merged.as_mut(), snap.as_ref()) {
                m.merge(s);
            }
            end_injector = Some(injector);
        }
        let end_injector = end_injector.expect("slots >= 1 yields at least one chunk");
        if observe {
            let mut obs = Observer::recording().with_probes();
            let report = finalize_scheme_b_faulted(
                plan,
                slots,
                &acc,
                k,
                bandwidth,
                &end_injector,
                tally,
                &mut obs,
            )?;
            let mut snap = merged.expect("observed run collects snapshots");
            snap.merge(&obs.snapshot());
            Ok((report, Some(snap)))
        } else {
            Ok((
                finalize_scheme_b_faulted(
                    plan,
                    slots,
                    &acc,
                    k,
                    bandwidth,
                    &end_injector,
                    tally,
                    &mut Observer::noop(),
                )?,
                None,
            ))
        }
    }

    /// Streamed scheme A measurement: bit-identical to
    /// [`FluidEngine::measure_scheme_a_ctr`], but no step ever materializes
    /// the full `n + k` position snapshot. Each slot's positions are
    /// replayed from the counter stream in chunks of at most `chunk`
    /// points, straight into the workspace's spatial index
    /// (`SpatialHash::try_rebuild_streamed`), and the scheduler runs over
    /// the prebuilt index. Peak live memory is `O(n)` ids/coordinates in
    /// the index plus `O(chunk)` scratch — never a second position array —
    /// which is what makes `n = 10⁶` ladder points routine.
    ///
    /// # Errors
    ///
    /// As [`FluidEngine::measure_scheme_a_ctr`], plus
    /// [`HycapError::InvalidParameter`] when `chunk == 0`.
    pub fn measure_scheme_a_streamed(
        &self,
        net: &HybridNetwork,
        plan: &SchemeAPlan,
        slots: usize,
        seed: u64,
        chunk: usize,
    ) -> Result<FluidReport, HycapError> {
        Ok(self
            .scheme_a_streamed_impl(net, plan, slots, seed, chunk, false)?
            .0)
    }

    /// [`FluidEngine::measure_scheme_a_streamed`] with a recording
    /// observer; the snapshot is byte-equal to the one
    /// [`FluidEngine::measure_scheme_a_ctr_observed`] produces.
    ///
    /// # Errors
    ///
    /// As [`FluidEngine::measure_scheme_a_streamed`].
    pub fn measure_scheme_a_streamed_observed(
        &self,
        net: &HybridNetwork,
        plan: &SchemeAPlan,
        slots: usize,
        seed: u64,
        chunk: usize,
    ) -> Result<(FluidReport, Snapshot), HycapError> {
        let (report, snap) = self.scheme_a_streamed_impl(net, plan, slots, seed, chunk, true)?;
        Ok((report, snap.expect("observed run yields a snapshot")))
    }

    /// Streamed scheme B measurement; the scheme B counterpart of
    /// [`FluidEngine::measure_scheme_a_streamed`], bit-identical to
    /// [`FluidEngine::measure_scheme_b_ctr`].
    ///
    /// # Errors
    ///
    /// As [`FluidEngine::measure_scheme_b_ctr`], plus
    /// [`HycapError::InvalidParameter`] when `chunk == 0`.
    pub fn measure_scheme_b_streamed(
        &self,
        net: &HybridNetwork,
        plan: &SchemeBPlan,
        slots: usize,
        seed: u64,
        chunk: usize,
    ) -> Result<FluidReport, HycapError> {
        Ok(self
            .scheme_b_streamed_impl(net, plan, slots, seed, chunk, false)?
            .0)
    }

    /// [`FluidEngine::measure_scheme_b_streamed`] with a recording
    /// observer; snapshot byte-equal to
    /// [`FluidEngine::measure_scheme_b_ctr_observed`].
    ///
    /// # Errors
    ///
    /// As [`FluidEngine::measure_scheme_b_streamed`].
    pub fn measure_scheme_b_streamed_observed(
        &self,
        net: &HybridNetwork,
        plan: &SchemeBPlan,
        slots: usize,
        seed: u64,
        chunk: usize,
    ) -> Result<(FluidReport, Snapshot), HycapError> {
        let (report, snap) = self.scheme_b_streamed_impl(net, plan, slots, seed, chunk, true)?;
        Ok((report, snap.expect("observed run yields a snapshot")))
    }

    /// Streamed faulted scheme A measurement, with a recording observer;
    /// bit-identical to [`FluidEngine::measure_scheme_a_with_faults_ctr`].
    ///
    /// # Errors
    ///
    /// As [`FluidEngine::measure_scheme_a_with_faults_ctr`], plus
    /// [`HycapError::InvalidParameter`] when `chunk == 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn measure_scheme_a_with_faults_streamed_observed(
        &self,
        net: &HybridNetwork,
        plan: &SchemeAPlan,
        slots: usize,
        schedule: &FaultSchedule,
        policy: OutagePolicy,
        seed: u64,
        chunk: usize,
    ) -> Result<(DegradedFluidReport, Snapshot), HycapError> {
        let (report, snap) = self.scheme_a_faulted_streamed_impl(
            net, plan, slots, schedule, policy, seed, chunk, true,
        )?;
        Ok((report, snap.expect("observed run yields a snapshot")))
    }

    /// Streamed faulted scheme B measurement; its report is bit-identical
    /// to the one of
    /// [`FluidEngine::measure_scheme_b_with_faults_ctr_observed`].
    ///
    /// # Errors
    ///
    /// As [`FluidEngine::measure_scheme_b_with_faults_ctr_observed`], plus
    /// [`HycapError::InvalidParameter`] when `chunk == 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn measure_scheme_b_with_faults_streamed(
        &self,
        net: &HybridNetwork,
        plan: &SchemeBPlan,
        slots: usize,
        schedule: &FaultSchedule,
        policy: OutagePolicy,
        seed: u64,
        chunk: usize,
    ) -> Result<DegradedFluidReport, HycapError> {
        Ok(self
            .scheme_b_faulted_streamed_impl(net, plan, slots, schedule, policy, seed, chunk, false)?
            .0)
    }

    /// [`FluidEngine::measure_scheme_b_with_faults_streamed`] with a
    /// recording observer.
    ///
    /// # Errors
    ///
    /// As [`FluidEngine::measure_scheme_b_with_faults_streamed`].
    #[allow(clippy::too_many_arguments)]
    pub fn measure_scheme_b_with_faults_streamed_observed(
        &self,
        net: &HybridNetwork,
        plan: &SchemeBPlan,
        slots: usize,
        schedule: &FaultSchedule,
        policy: OutagePolicy,
        seed: u64,
        chunk: usize,
    ) -> Result<(DegradedFluidReport, Snapshot), HycapError> {
        let (report, snap) = self.scheme_b_faulted_streamed_impl(
            net, plan, slots, schedule, policy, seed, chunk, true,
        )?;
        Ok((report, snap.expect("observed run yields a snapshot")))
    }

    /// Streamed scheme A slot loop: the streaming counterpart of
    /// [`FluidEngine::scheme_a_chunk_impl`]. Instead of materializing the
    /// slot snapshot and letting the scheduler index it, each slot streams
    /// its positions chunk-by-chunk straight into the workspace's spatial
    /// index and schedules over the prebuilt index — same accumulator
    /// updates, same observer counters, same probe verdicts, so the result
    /// absorbs into bit-identical reports.
    #[allow(clippy::too_many_arguments)]
    fn scheme_a_streamed_chunk<S: MetricsSink>(
        &self,
        net: &HybridNetwork,
        cells: &HomeCells,
        slots: Range<usize>,
        seed: u64,
        chunk: usize,
        mut faults: Option<(&mut FaultInjector, OutagePolicy)>,
        obs: &mut Observer<S>,
    ) -> Result<SchemeAAcc, HycapError> {
        let n = net.n();
        let k = net.k();
        let total = net.total_nodes();
        let range = self.range_for(n);
        let scheduler = SStarScheduler::new(self.delta);
        let index_radius = clamp_index_radius(scheduler.protocol().guard_radius(range));
        cells.check_nodes(n);
        let mut acc = SchemeAAcc::default();
        let mut chunk_buf: Vec<Point> = Vec::new();
        let mut alive = Vec::new();
        let mut ws = SlotWorkspace::new();
        let mut pairs: Vec<ScheduledPair> = Vec::new();
        for slot in slots {
            let masked = if let Some((injector, policy)) = faults.as_mut() {
                injector.advance_to(slot);
                injector.fill_alive(n, *policy, &mut alive);
                let alive_now = injector.alive_count();
                acc.alive_sum += alive_now;
                if alive_now < k {
                    acc.outage_slots += 1;
                }
                true
            } else {
                false
            };
            ws.hash_mut()
                .try_rebuild_streamed(total, index_radius, |emit| {
                    net.stream_slot_positions(seed, slot as u64, chunk, &mut chunk_buf, emit)
                })?;
            schedule_prebuilt_observed(
                &scheduler,
                range,
                masked.then_some(alive.as_slice()),
                slot as u64,
                &mut ws,
                &mut pairs,
                obs,
            );
            acc.total_pairs += pairs.len();
            for &pair in &pairs {
                if pair.a >= n || pair.b >= n {
                    continue; // MS–BS contacts do not serve scheme A
                }
                let (ca, cb) = (cells.of_node(pair.a), cells.of_node(pair.b));
                if ca == cb || cells.grid.manhattan(ca, cb) == 1 {
                    *acc.service.entry(edge_key(ca, cb)).or_insert(0.0) += 1.0;
                    acc.credited += 1;
                }
            }
            acc.slots_done += 1;
        }
        Ok(acc)
    }

    /// Streamed scheme B slot loop; the scheme B counterpart of
    /// [`FluidEngine::scheme_a_streamed_chunk`].
    #[allow(clippy::too_many_arguments)]
    fn scheme_b_streamed_chunk<S: MetricsSink>(
        &self,
        net: &HybridNetwork,
        groups: &GroupMap,
        slots: Range<usize>,
        seed: u64,
        chunk: usize,
        mut faults: Option<(&mut FaultInjector, OutagePolicy)>,
        obs: &mut Observer<S>,
    ) -> Result<SchemeBAcc, HycapError> {
        let n = net.n();
        let k = net.k();
        let total = net.total_nodes();
        let range = self.range_for(n);
        let scheduler = SStarScheduler::new(self.delta);
        let index_radius = clamp_index_radius(scheduler.protocol().guard_radius(range));
        let mut acc = SchemeBAcc::new(groups.count);
        let mut chunk_buf: Vec<Point> = Vec::new();
        let mut alive = Vec::new();
        let mut ws = SlotWorkspace::new();
        let mut pairs: Vec<ScheduledPair> = Vec::new();
        for slot in slots {
            let masked = if let Some((injector, policy)) = faults.as_mut() {
                injector.advance_to(slot);
                injector.fill_alive(n, *policy, &mut alive);
                let alive_now = injector.alive_count();
                acc.alive_sum += alive_now;
                if alive_now < k {
                    acc.outage_slots += 1;
                }
                true
            } else {
                false
            };
            ws.hash_mut()
                .try_rebuild_streamed(total, index_radius, |emit| {
                    net.stream_slot_positions(seed, slot as u64, chunk, &mut chunk_buf, emit)
                })?;
            schedule_prebuilt_observed(
                &scheduler,
                range,
                masked.then_some(alive.as_slice()),
                slot as u64,
                &mut ws,
                &mut pairs,
                obs,
            );
            acc.total_pairs += pairs.len();
            for &pair in &pairs {
                let (ms, bs_id) = if pair.a < n && pair.b >= n {
                    (pair.a, pair.b - n)
                } else if pair.b < n && pair.a >= n {
                    (pair.b, pair.a - n)
                } else {
                    continue;
                };
                if let Some((injector, _)) = faults.as_ref() {
                    if !injector.mask().bs_alive(bs_id) {
                        continue;
                    }
                }
                let g = groups.bs[bs_id];
                if g != usize::MAX && groups.ms[ms] == g {
                    acc.service[g] += 1.0;
                    acc.access_contacts += 1;
                }
            }
            acc.slots_done += 1;
        }
        Ok(acc)
    }

    /// Single-pass core of the streamed scheme A entry points; reduces and
    /// finalizes exactly as the sequential branch of
    /// [`FluidEngine::scheme_a_par_impl`] so reports and snapshots stay
    /// bit-identical.
    fn scheme_a_streamed_impl(
        &self,
        net: &HybridNetwork,
        plan: &SchemeAPlan,
        slots: usize,
        seed: u64,
        chunk: usize,
        observe: bool,
    ) -> Result<(FluidReport, Option<Snapshot>), HycapError> {
        check_streamed_run(net, slots, chunk)?;
        let timer = SpanTimer::start();
        let cells = HomeCells::of(plan);
        let (acc, chunk_snap) = if observe {
            let mut obs = Observer::recording().with_probes();
            let acc =
                self.scheme_a_streamed_chunk(net, &cells, 0..slots, seed, chunk, None, &mut obs)?;
            (acc, Some(obs.snapshot()))
        } else {
            let acc = self.scheme_a_streamed_chunk(
                net,
                &cells,
                0..slots,
                seed,
                chunk,
                None,
                &mut Observer::noop(),
            )?;
            (acc, None)
        };
        if observe {
            let mut merged = Snapshot::default();
            merged.merge(&chunk_snap.expect("observed run collects snapshots"));
            let mut obs = Observer::recording().with_probes();
            let report = finalize_scheme_a(plan, slots, &acc, timer, &mut obs);
            merged.merge(&obs.snapshot());
            Ok((report, Some(merged)))
        } else {
            Ok((
                finalize_scheme_a(plan, slots, &acc, timer, &mut Observer::noop()),
                None,
            ))
        }
    }

    /// Single-pass core of the streamed scheme B entry points.
    fn scheme_b_streamed_impl(
        &self,
        net: &HybridNetwork,
        plan: &SchemeBPlan,
        slots: usize,
        seed: u64,
        chunk: usize,
        observe: bool,
    ) -> Result<(FluidReport, Option<Snapshot>), HycapError> {
        check_streamed_run(net, slots, chunk)?;
        let Some(bs) = net.base_stations() else {
            return Err(HycapError::MissingInfrastructure("scheme B"));
        };
        let k = net.k();
        let bandwidth = bs.bandwidth();
        let timer = SpanTimer::start();
        let groups = GroupMap::of(plan, net.n(), k);
        let (acc, chunk_snap) = if observe {
            let mut obs = Observer::recording().with_probes();
            let acc =
                self.scheme_b_streamed_chunk(net, &groups, 0..slots, seed, chunk, None, &mut obs)?;
            (acc, Some(obs.snapshot()))
        } else {
            let acc = self.scheme_b_streamed_chunk(
                net,
                &groups,
                0..slots,
                seed,
                chunk,
                None,
                &mut Observer::noop(),
            )?;
            (acc, None)
        };
        if observe {
            let mut merged = Snapshot::default();
            merged.merge(&chunk_snap.expect("observed run collects snapshots"));
            let mut obs = Observer::recording().with_probes();
            let report = finalize_scheme_b(plan, slots, &acc, k, bandwidth, timer, &mut obs);
            merged.merge(&obs.snapshot());
            Ok((report, Some(merged)))
        } else {
            Ok((
                finalize_scheme_b(
                    plan,
                    slots,
                    &acc,
                    k,
                    bandwidth,
                    timer,
                    &mut Observer::noop(),
                ),
                None,
            ))
        }
    }

    /// Single-pass core of the streamed faulted scheme A entry points.
    #[allow(clippy::too_many_arguments)]
    fn scheme_a_faulted_streamed_impl(
        &self,
        net: &HybridNetwork,
        plan: &SchemeAPlan,
        slots: usize,
        schedule: &FaultSchedule,
        policy: OutagePolicy,
        seed: u64,
        chunk: usize,
        observe: bool,
    ) -> Result<(DegradedFluidReport, Option<Snapshot>), HycapError> {
        check_streamed_run(net, slots, chunk)?;
        let k = net.k();
        let mut injector = FaultInjector::new(k, schedule)?;
        if schedule.is_empty() {
            // Mirror the sequential empty-schedule delegation.
            let (base, snap) =
                self.scheme_a_streamed_impl(net, plan, slots, seed, chunk, observe)?;
            return Ok((
                DegradedFluidReport {
                    base,
                    k_alive_mean: k as f64,
                    outage_slots: 0,
                    infra_flows: plan.flow_count(),
                    fallback_flows: 0,
                    dead_groups: 0,
                    tally: FaultTally::default(),
                },
                snap,
            ));
        }
        injector.seek(0);
        let cells = HomeCells::of(plan);
        let (acc, chunk_snap) = if observe {
            let mut obs = Observer::recording().with_probes();
            let acc = self.scheme_a_streamed_chunk(
                net,
                &cells,
                0..slots,
                seed,
                chunk,
                Some((&mut injector, policy)),
                &mut obs,
            )?;
            (acc, Some(obs.snapshot()))
        } else {
            let acc = self.scheme_a_streamed_chunk(
                net,
                &cells,
                0..slots,
                seed,
                chunk,
                Some((&mut injector, policy)),
                &mut Observer::noop(),
            )?;
            (acc, None)
        };
        let tally = injector.tally();
        let flows = plan.flow_count();
        if observe {
            let mut merged = Snapshot::default();
            merged.merge(&chunk_snap.expect("observed run collects snapshots"));
            let mut obs = Observer::recording().with_probes();
            let report =
                finalize_scheme_a_faulted(plan, slots, &acc, flows, k, &injector, tally, &mut obs);
            merged.merge(&obs.snapshot());
            Ok((report, Some(merged)))
        } else {
            Ok((
                finalize_scheme_a_faulted(
                    plan,
                    slots,
                    &acc,
                    flows,
                    k,
                    &injector,
                    tally,
                    &mut Observer::noop(),
                ),
                None,
            ))
        }
    }

    /// Single-pass core of the streamed faulted scheme B entry points.
    #[allow(clippy::too_many_arguments)]
    fn scheme_b_faulted_streamed_impl(
        &self,
        net: &HybridNetwork,
        plan: &SchemeBPlan,
        slots: usize,
        schedule: &FaultSchedule,
        policy: OutagePolicy,
        seed: u64,
        chunk: usize,
        observe: bool,
    ) -> Result<(DegradedFluidReport, Option<Snapshot>), HycapError> {
        check_streamed_run(net, slots, chunk)?;
        let Some(bs) = net.base_stations() else {
            return Err(HycapError::MissingInfrastructure("scheme B"));
        };
        let k = net.k();
        let bandwidth = bs.bandwidth();
        let mut injector = FaultInjector::new(k, schedule)?;
        if schedule.is_empty() {
            let (base, snap) =
                self.scheme_b_streamed_impl(net, plan, slots, seed, chunk, observe)?;
            return Ok((
                DegradedFluidReport {
                    base,
                    k_alive_mean: k as f64,
                    outage_slots: 0,
                    infra_flows: plan.flows().len(),
                    fallback_flows: 0,
                    dead_groups: 0,
                    tally: FaultTally::default(),
                },
                snap,
            ));
        }
        injector.seek(0);
        let groups = GroupMap::of(plan, net.n(), k);
        let (acc, chunk_snap) = if observe {
            let mut obs = Observer::recording().with_probes();
            let acc = self.scheme_b_streamed_chunk(
                net,
                &groups,
                0..slots,
                seed,
                chunk,
                Some((&mut injector, policy)),
                &mut obs,
            )?;
            (acc, Some(obs.snapshot()))
        } else {
            let acc = self.scheme_b_streamed_chunk(
                net,
                &groups,
                0..slots,
                seed,
                chunk,
                Some((&mut injector, policy)),
                &mut Observer::noop(),
            )?;
            (acc, None)
        };
        let tally = injector.tally();
        if observe {
            let mut merged = Snapshot::default();
            merged.merge(&chunk_snap.expect("observed run collects snapshots"));
            let mut obs = Observer::recording().with_probes();
            let report = finalize_scheme_b_faulted(
                plan, slots, &acc, k, bandwidth, &injector, tally, &mut obs,
            )?;
            merged.merge(&obs.snapshot());
            Ok((report, Some(merged)))
        } else {
            Ok((
                finalize_scheme_b_faulted(
                    plan,
                    slots,
                    &acc,
                    k,
                    bandwidth,
                    &injector,
                    tally,
                    &mut Observer::noop(),
                )?,
                None,
            ))
        }
    }
}

impl Default for FluidEngine {
    fn default() -> Self {
        FluidEngine::new(0.5, 0.4)
    }
}

/// Median of a mutable slice (0 for an empty slice).
fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// What a scheme A slot loop reads of its plan: the grid and the node →
/// home-squarelet table. Cloning shares the table, so chunk jobs never copy
/// the plan.
#[derive(Debug, Clone)]
struct HomeCells {
    grid: SquareGrid,
    cells: Arc<[u32]>,
}

impl HomeCells {
    fn of(plan: &SchemeAPlan) -> Self {
        HomeCells {
            grid: *plan.grid(),
            cells: Arc::clone(plan.home_cells()),
        }
    }

    /// The home squarelet of node `i`.
    #[inline]
    fn of_node(&self, i: usize) -> Cell {
        self.grid.cell_from_index(self.cells[i] as usize)
    }

    /// Panics unless the plan covers exactly the network's `n` MSs.
    fn check_nodes(&self, n: usize) {
        assert_eq!(
            self.cells.len(),
            n,
            "scheme-A plan and network disagree on the MS count"
        );
    }
}

/// Node → group tables of a scheme B plan (`usize::MAX` for ungrouped
/// ids), built once per measurement and shared by every chunk.
#[derive(Debug)]
struct GroupMap {
    count: usize,
    ms: Vec<usize>,
    bs: Vec<usize>,
}

impl GroupMap {
    fn of(plan: &SchemeBPlan, n: usize, k: usize) -> Self {
        let mut ms = vec![usize::MAX; n];
        let mut bs = vec![usize::MAX; k];
        for g in 0..plan.group_count() {
            for &i in plan.ms_members(g) {
                ms[i] = g;
            }
            for &b in plan.bs_members(g) {
                bs[b] = g;
            }
        }
        GroupMap {
            count: plan.group_count(),
            ms,
            bs,
        }
    }
}

/// Per-chunk scheme A tallies. Every field is a sum of per-slot
/// contributions (service counts are integer-valued f64s well below 2^53),
/// so [`SchemeAAcc::absorb`] over any contiguous partition reproduces the
/// sequential totals exactly — this is what makes the sharded runs
/// bit-identical to the single-chunk reference.
#[derive(Debug, Default)]
struct SchemeAAcc {
    service: HashMap<EdgeKey, f64>,
    total_pairs: usize,
    credited: u64,
    alive_sum: usize,
    outage_slots: usize,
    /// Slots this chunk actually processed: equals the chunk length unless
    /// a run budget cut the loop short.
    slots_done: u64,
}

impl SchemeAAcc {
    fn absorb(&mut self, other: SchemeAAcc) {
        for (edge, count) in other.service {
            *self.service.entry(edge).or_insert(0.0) += count;
        }
        self.total_pairs += other.total_pairs;
        self.credited += other.credited;
        self.alive_sum += other.alive_sum;
        self.outage_slots += other.outage_slots;
        self.slots_done += other.slots_done;
    }
}

/// Per-chunk scheme B tallies; merges exactly for the same reason as
/// [`SchemeAAcc`].
#[derive(Debug)]
struct SchemeBAcc {
    service: Vec<f64>,
    total_pairs: usize,
    access_contacts: u64,
    alive_sum: usize,
    outage_slots: usize,
    /// Slots this chunk actually processed; see [`SchemeAAcc::slots_done`].
    slots_done: u64,
}

impl SchemeBAcc {
    fn new(groups: usize) -> Self {
        SchemeBAcc {
            service: vec![0.0; groups],
            total_pairs: 0,
            access_contacts: 0,
            alive_sum: 0,
            outage_slots: 0,
            slots_done: 0,
        }
    }

    fn absorb(&mut self, other: SchemeBAcc) {
        debug_assert_eq!(self.service.len(), other.service.len());
        for (mine, theirs) in self.service.iter_mut().zip(&other.service) {
            *mine += theirs;
        }
        self.total_pairs += other.total_pairs;
        self.access_contacts += other.access_contacts;
        self.alive_sum += other.alive_sum;
        self.outage_slots += other.outage_slots;
        self.slots_done += other.slots_done;
    }
}

/// Wraps a fan-out core's report into the [`Budgeted`] outcome from its
/// interruption info.
fn budgeted_outcome(
    report: FluidReport,
    cut: Option<(u64, BudgetExceeded)>,
    requested_slots: usize,
) -> Budgeted<FluidReport> {
    match cut {
        None => Budgeted::Complete(report),
        Some((completed, exceeded)) => Budgeted::Interrupted {
            partial: report,
            completed_slots: completed,
            requested_slots: requested_slots as u64,
            exceeded,
        },
    }
}

/// Validates a counter-based run: at least one slot and a mobility model
/// whose slot positions are a pure function of `(seed, slot)`.
fn check_counter_run(net: &HybridNetwork, slots: usize) -> Result<(), HycapError> {
    if slots == 0 {
        return Err(HycapError::invalid("slots", "need at least one slot"));
    }
    if !net.counter_samplable() {
        return Err(HycapError::invalid(
            "mobility",
            "counter-based sampling requires an i.i.d.-per-slot or static \
             mobility model (slot positions must not depend on history)",
        ));
    }
    Ok(())
}

/// Validation shared by the streamed entry points: counter-samplability as
/// [`check_counter_run`], plus a positive chunk size.
fn check_streamed_run(net: &HybridNetwork, slots: usize, chunk: usize) -> Result<(), HycapError> {
    check_counter_run(net, slots)?;
    if chunk == 0 {
        return Err(HycapError::invalid("chunk", "need a positive chunk size"));
    }
    Ok(())
}

/// Scheme A bottleneck scan over the plan's edge loads. Returns
/// `(lambda, lambda_typical, bottleneck)`.
fn scheme_a_bottleneck(
    plan: &SchemeAPlan,
    slots: usize,
    service: &HashMap<EdgeKey, f64>,
) -> (f64, f64, Bottleneck) {
    let mut lambda = f64::INFINITY;
    let mut bottleneck = Bottleneck::Unconstrained;
    let mut ratios = Vec::with_capacity(plan.edge_load().len());
    // `edge_load` is sorted by key, so a strict `<` keeps the smallest
    // key among tied minima: the reported bottleneck is deterministic.
    for &(edge, load) in plan.edge_load() {
        let rate = service.get(&edge).copied().unwrap_or(0.0) / slots as f64;
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

/// Turns fault-free scheme A accumulators into a report plus run-level
/// metrics. Shared by the sequential, counter-based and sharded paths.
fn finalize_scheme_a<S: MetricsSink>(
    plan: &SchemeAPlan,
    slots: usize,
    acc: &SchemeAAcc,
    timer: SpanTimer,
    obs: &mut Observer<S>,
) -> FluidReport {
    let (lambda, lambda_typical, bottleneck) = scheme_a_bottleneck(plan, slots, &acc.service);
    let report = FluidReport {
        lambda,
        lambda_typical,
        bottleneck,
        slots,
        scheduled_pairs_per_slot: acc.total_pairs as f64 / slots as f64,
    };
    if obs.sink.enabled() {
        obs.sink.counter("fluid.scheme_a.runs", 1);
        obs.sink.counter("fluid.scheme_a.slots", slots as u64);
        obs.sink
            .counter("fluid.scheme_a.credited_contacts", acc.credited);
        obs.sink.observe("fluid.scheme_a.lambda", report.lambda);
        obs.sink
            .observe("fluid.scheme_a.lambda_typical", report.lambda_typical);
        obs.sink
            .span("fluid.measure_scheme_a", timer.elapsed_micros());
    }
    report
}

/// Turns fault-free scheme B accumulators into a report, the Theorem 5
/// backbone probes and run-level metrics.
fn finalize_scheme_b<S: MetricsSink>(
    plan: &SchemeBPlan,
    slots: usize,
    acc: &SchemeBAcc,
    k: usize,
    bandwidth: f64,
    timer: SpanTimer,
    obs: &mut Observer<S>,
) -> FluidReport {
    let backbone = Backbone::new(k, bandwidth);
    let backbone_rate = plan.backbone_load().max_uniform_rate(&backbone);
    let (lambda, lambda_typical, bottleneck) =
        scheme_b_bottleneck(plan.access_load(), &acc.service, slots, backbone_rate);
    if let Some(probes) = obs.probes_mut() {
        // Theorem 5 wire feasibility: at the granted rate, each group
        // pair's backbone traffic fits its wires; λ never exceeds the
        // backbone-feasible rate.
        for ((s, d), count) in plan.backbone_load().flows() {
            let wires =
                (plan.backbone_load().group_size(s) * plan.backbone_load().group_size(d)) as f64;
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
    let report = FluidReport {
        lambda,
        lambda_typical,
        bottleneck,
        slots,
        scheduled_pairs_per_slot: acc.total_pairs as f64 / slots as f64,
    };
    if obs.sink.enabled() {
        obs.sink.counter("fluid.scheme_b.runs", 1);
        obs.sink.counter("fluid.scheme_b.slots", slots as u64);
        obs.sink
            .counter("fluid.scheme_b.access_contacts", acc.access_contacts);
        obs.sink.observe("fluid.scheme_b.lambda", report.lambda);
        obs.sink
            .observe("fluid.scheme_b.lambda_typical", report.lambda_typical);
        if backbone_rate.is_finite() {
            obs.sink
                .observe("fluid.scheme_b.backbone_rate", backbone_rate);
        }
        obs.sink
            .span("fluid.measure_scheme_b", timer.elapsed_micros());
    }
    report
}

/// Turns faulted scheme A accumulators plus the end-of-run injector state
/// into a degraded report, the fault-tally probe and run-level metrics.
#[allow(clippy::too_many_arguments)]
fn finalize_scheme_a_faulted<S: MetricsSink>(
    plan: &SchemeAPlan,
    slots: usize,
    acc: &SchemeAAcc,
    flows: usize,
    k: usize,
    injector: &FaultInjector,
    tally: FaultTally,
    obs: &mut Observer<S>,
) -> DegradedFluidReport {
    let (lambda, lambda_typical, bottleneck) = scheme_a_bottleneck(plan, slots, &acc.service);
    if let Some(probes) = obs.probes_mut() {
        probes.fault_tally(
            "fluid scheme A injector",
            k,
            injector.scripted_mask().alive_count(),
            injector.alive_count(),
            tally.bs_crashes + tally.bs_repairs,
            tally.bernoulli_bs_outages,
        );
    }
    if obs.sink.enabled() {
        obs.sink.counter("fluid.scheme_a.faulted_runs", 1);
        obs.sink
            .counter("fluid.scheme_a.outage_slots", acc.outage_slots as u64);
    }
    DegradedFluidReport {
        base: FluidReport {
            lambda,
            lambda_typical,
            bottleneck,
            slots,
            scheduled_pairs_per_slot: acc.total_pairs as f64 / slots as f64,
        },
        k_alive_mean: acc.alive_sum as f64 / slots as f64,
        outage_slots: acc.outage_slots,
        infra_flows: flows,
        fallback_flows: 0,
        dead_groups: 0,
        tally,
    }
}

/// Turns faulted scheme B accumulators plus the end-of-run injector state
/// into a degraded report: flow re-classification against the durable
/// (scripted) fault state, masked Theorem 5 probes, and run-level metrics.
#[allow(clippy::too_many_arguments)]
fn finalize_scheme_b_faulted<S: MetricsSink>(
    plan: &SchemeBPlan,
    slots: usize,
    acc: &SchemeBAcc,
    k: usize,
    bandwidth: f64,
    injector: &FaultInjector,
    tally: FaultTally,
    obs: &mut Observer<S>,
) -> Result<DegradedFluidReport, HycapError> {
    // Classify flows against the durable fault state: transient
    // Bernoulli outages eat into measured service, scripted deaths
    // re-route the plan.
    let scripted = injector.scripted_mask();
    let alive_bs: Vec<bool> = (0..k).map(|b| scripted.bs_alive(b)).collect();
    let degraded = plan.degrade(&alive_bs)?;
    let members: Vec<Vec<usize>> = (0..degraded.group_count())
        .map(|g| degraded.alive_bs_members(g).to_vec())
        .collect();
    let backbone = Backbone::new(k, bandwidth);
    let backbone_rate = degraded
        .backbone_load()
        .max_uniform_rate_masked(&backbone, scripted, &members)?;
    let (lambda, lambda_typical, bottleneck) =
        scheme_b_bottleneck(degraded.access_load(), &acc.service, slots, backbone_rate);
    if let Some(probes) = obs.probes_mut() {
        // Masked Theorem 5 feasibility: each surviving group pair's
        // traffic at rate λ fits the *effective* wire bandwidth left by
        // the durable fault state.
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
        probes.fault_tally(
            "fluid scheme B injector",
            k,
            injector.scripted_mask().alive_count(),
            injector.alive_count(),
            tally.bs_crashes + tally.bs_repairs,
            tally.bernoulli_bs_outages,
        );
    }
    if obs.sink.enabled() {
        obs.sink.counter("fluid.scheme_b.faulted_runs", 1);
        obs.sink
            .counter("fluid.scheme_b.outage_slots", acc.outage_slots as u64);
        obs.sink.counter(
            "fluid.scheme_b.fallback_flows",
            degraded.fallback_flows().len() as u64,
        );
    }
    Ok(DegradedFluidReport {
        base: FluidReport {
            lambda,
            lambda_typical,
            bottleneck,
            slots,
            scheduled_pairs_per_slot: acc.total_pairs as f64 / slots as f64,
        },
        k_alive_mean: acc.alive_sum as f64 / slots as f64,
        outage_slots: acc.outage_slots,
        infra_flows: degraded.infra_flows().len(),
        fallback_flows: degraded.fallback_flows().len(),
        dead_groups: degraded.dead_groups().len(),
        tally,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hycap_infra::BaseStations;
    use hycap_mobility::{ClusteredModel, Kernel, MobilityKind, Population, PopulationConfig};
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

    #[test]
    fn scheme_a_yields_positive_capacity() {
        let (mut net, mut rng) = uniform_net(600, 1);
        let f = (600f64).powf(0.25);
        let traffic = TrafficMatrix::permutation(600, &mut rng);
        let homes = net.population().home_points().points().to_vec();
        let plan = SchemeAPlan::build(&homes, &traffic, f);
        let engine = FluidEngine::default();
        let report = engine.measure_scheme_a(&mut net, &plan, 400, &mut rng);
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
        let mut net = HybridNetwork::with_infrastructure(pop, bs);
        let engine = FluidEngine::default();
        let report = engine.measure_scheme_b(&mut net, &plan, 400, &mut rng);
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
        let mut net = HybridNetwork::with_infrastructure(pop, bs);
        let report = FluidEngine::default().measure_scheme_b(&mut net, &plan, 200, &mut rng);
        assert_eq!(report.bottleneck, Bottleneck::Backbone);
        assert!(report.lambda > 0.0 && report.lambda < 1e-4);
    }

    #[test]
    fn two_hop_beats_scheme_a_in_dense_full_mobility() {
        // f = Θ(1): two-hop achieves Θ(1) while scheme A's grid degenerates.
        let mut rng = StdRng::seed_from_u64(4);
        let config = PopulationConfig::builder(200)
            .alpha(0.0)
            .kernel(Kernel::uniform_disk(1.0))
            .build();
        let pop = Population::generate(&config, &mut rng);
        let mut net = HybridNetwork::ad_hoc(pop);
        let traffic = TrafficMatrix::permutation(200, &mut rng);
        let plan = TwoHopPlan::build(&traffic, &mut rng);
        let report =
            FluidEngine::default().measure_two_hop(&mut net, &plan, &traffic, 600, &mut rng);
        assert!(report.mean_rate > 0.0, "two-hop starved");
        assert_eq!(report.flows, 200);
    }

    #[test]
    fn budgeted_within_budget_is_bit_identical() {
        let (net, mut rng) = uniform_net(200, 21);
        let f = (200f64).powf(0.25);
        let traffic = TrafficMatrix::permutation(200, &mut rng);
        let homes = net.population().home_points().points().to_vec();
        let plan = SchemeAPlan::build(&homes, &traffic, f);
        let engine = FluidEngine::default();
        let plain = engine.measure_scheme_a_ctr(&net, &plan, 60, 9).unwrap();
        let budgeted = engine
            .measure_scheme_a_budgeted(&net, &plan, 60, 9, None, RunBudget::unlimited())
            .unwrap();
        assert!(budgeted.is_complete());
        let report = budgeted.report();
        assert_eq!(report.lambda.to_bits(), plain.lambda.to_bits());
        assert_eq!(
            report.scheduled_pairs_per_slot.to_bits(),
            plain.scheduled_pairs_per_slot.to_bits()
        );
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
        let off = on.without_schedule_memo();

        let (ra, sa) = on
            .measure_scheme_a_ctr_observed(&net, &plan_a, 80, 5)
            .unwrap();
        let (rb, sb) = off
            .measure_scheme_a_ctr_observed(&net, &plan_a, 80, 5)
            .unwrap();
        assert_eq!(ra.lambda.to_bits(), rb.lambda.to_bits());
        assert_eq!(
            ra.scheduled_pairs_per_slot.to_bits(),
            rb.scheduled_pairs_per_slot.to_bits()
        );
        assert_eq!(sa.to_json(), sb.to_json());

        // Fault churn: scripted crash/repair plus per-slot Bernoulli
        // outage masks — the memo must invalidate on every transition.
        let schedule = FaultSchedule::empty()
            .crash_bs(10, 0)
            .repair_bs(40, 0)
            .with_bernoulli_bs_outage(0.2, 9);
        let (da, fsa) = on
            .measure_scheme_b_with_faults_ctr_observed(
                &net,
                &plan_b,
                60,
                &schedule,
                OutagePolicy::RadioOff,
                5,
            )
            .unwrap();
        let (db, fsb) = off
            .measure_scheme_b_with_faults_ctr_observed(
                &net,
                &plan_b,
                60,
                &schedule,
                OutagePolicy::RadioOff,
                5,
            )
            .unwrap();
        assert_eq!(da.base.lambda.to_bits(), db.base.lambda.to_bits());
        assert_eq!(da.tally, db.tally);
        assert_eq!(fsa.to_json(), fsb.to_json());
    }

    #[test]
    fn budgeted_slot_cap_interrupts_with_partial_report() {
        let (net, mut rng) = uniform_net(200, 22);
        let f = (200f64).powf(0.25);
        let traffic = TrafficMatrix::permutation(200, &mut rng);
        let homes = net.population().home_points().points().to_vec();
        let plan = SchemeAPlan::build(&homes, &traffic, f);
        let engine = FluidEngine::default();
        let budget = RunBudget::unlimited().with_max_slots(10);
        let (outcome, snap) = engine
            .measure_scheme_a_budgeted_observed(&net, &plan, 100, 9, None, budget)
            .unwrap();
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
        assert_eq!(partial.slots, 10);
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
    fn scheme_b_budgeted_event_free_axes_complete() {
        let mut rng = StdRng::seed_from_u64(23);
        let config = PopulationConfig::builder(200)
            .alpha(0.25)
            .kernel(Kernel::uniform_disk(1.0))
            .mobility(MobilityKind::IidStationary)
            .build();
        let pop = Population::generate(&config, &mut rng);
        let bs = BaseStations::generate_regular(16, 1.0);
        let homes = pop.home_points().points().to_vec();
        let traffic = TrafficMatrix::permutation(200, &mut rng);
        let plan = SchemeBPlan::build(&homes, &traffic, &bs, 4);
        let net = HybridNetwork::with_infrastructure(pop, bs);
        let engine = FluidEngine::default();
        let plain = engine.measure_scheme_b_ctr(&net, &plan, 40, 3).unwrap();
        let budgeted = engine
            .measure_scheme_b_budgeted(
                &net,
                &plan,
                40,
                3,
                None,
                RunBudget::unlimited().with_max_slots(40),
            )
            .unwrap();
        assert!(budgeted.is_complete(), "cap equal to slots must complete");
        assert_eq!(budgeted.report().lambda.to_bits(), plain.lambda.to_bits());
    }

    #[test]
    fn engine_accessors() {
        let e = FluidEngine::new(1.0, 0.3);
        assert_eq!(e.delta(), 1.0);
        assert_eq!(e.c_t(), 0.3);
        assert!((e.range_for(900) - 0.01).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "requires base stations")]
    fn scheme_b_requires_bs() {
        let (mut net, mut rng) = uniform_net(50, 5);
        let traffic = TrafficMatrix::permutation(50, &mut rng);
        let bs = BaseStations::generate_regular(4, 1.0);
        let homes = net.population().home_points().points().to_vec();
        let plan = SchemeBPlan::build(&homes, &traffic, &bs, 2);
        let _ = FluidEngine::default().measure_scheme_b(&mut net, &plan, 10, &mut rng);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_rejected() {
        let (mut net, mut rng) = uniform_net(50, 6);
        let traffic = TrafficMatrix::permutation(50, &mut rng);
        let homes = net.population().home_points().points().to_vec();
        let plan = SchemeAPlan::build(&homes, &traffic, 2.0);
        let _ = FluidEngine::default().measure_scheme_a(&mut net, &plan, 0, &mut rng);
    }
}
